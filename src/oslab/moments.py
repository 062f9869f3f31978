"""Exact moments of Gaussian vectors, by one Isserlis recursion.

Every moment comes from the non-centred recursion over a sorted site tuple

    m(t) = mu[first] * m(rest) + sum_p cov[first, p] * m(rest - p),

with m(()) = 1.  Centered moments (isserlis_moment) skip the mean term, so
the sum runs over perfect matchings exactly as a plain Isserlis expansion
would.  A polynomial times exp(i*Y), for Y = sum_j s_j x_j in the Gaussian
span, uses the complex shift

    E[F(x) e^{iY}] = E[e^{iY}] E[F(x + mu)],   mu = i Cov(x, Y) = i C s,

which is the same recursion with that imaginary mean.

Values are memoized by sorted site tuple.  A centered moment depends on the
covariance alone, so callers may pass a memo that lives as long as the
covariance does: GaussianEuclideanMeasure.moment passes its measure's
moment_memo, one per measure, whose covariance is read-only, so every
source-free moment a job takes of that measure shares it.  A sourced moment depends on the source too and
keeps a memo of its own for the one call.

Moments of two single-site powers, E[x_j^a x_k^b] over every site pair at
once, have a closed form (site_power_moments) that needs no recursion.
"""
from __future__ import annotations

from math import factorial

import numpy as np


def _moment(cov: np.ndarray, mu, memo: dict, t: tuple):
    """m(t) by the recursion above; mu=None is the centered case."""
    if not t:
        return 1.0
    got = memo.get(t)
    if got is not None:
        return got
    first, rest = t[0], t[1:]
    row = cov[first]
    total = 0.0 if mu is None else mu[first] * _moment(cov, mu, memo, rest)
    prev = None
    for pos in range(len(rest)):
        # t is sorted, so a repeated site follows its twin and pairs to the
        # same term; it is added again rather than counted, keeping the sum
        # order of one term per matching
        if rest[pos] != prev:
            prev = rest[pos]
            term = row[prev] * _moment(cov, mu, memo, rest[:pos] + rest[pos + 1 :])
        total += term
    memo[t] = total
    return total


def isserlis_moment(cov: np.ndarray, indices, *, memo: dict | None = None) -> float:
    """E[x_{i1} x_{i2} ... x_{ik}] for a centered Gaussian with covariance cov.

    indices may repeat; odd k gives 0.  Memoized over sub-multisets, which
    keeps repeated-site products (the common case) cheap.  memo, when given,
    must belong to this covariance alone; it is read and filled, so calls
    sharing it reuse each other's sub-moments, with bitwise the values a
    fresh memo gives.
    """
    idx = tuple(sorted(map(int, indices)))
    if len(idx) % 2 == 1:
        return 0.0
    return _moment(cov, None, {} if memo is None else memo, idx)


def gaussian_monomial_with_source(
    cov: np.ndarray, indices, source: np.ndarray | None = None, *, memo: dict | None = None
) -> complex:
    """E[x_{i1}...x_{ik} * exp(i sum_j source_j x_j)], exact.

    source is a coefficient vector over the same coordinates as cov (may be
    complex); source=None reduces to the plain Isserlis moment, which uses
    memo as isserlis_moment does.  A sourced moment ignores memo.
    """
    if source is None:
        return complex(isserlis_moment(cov, indices, memo=memo))
    idx = tuple(sorted(map(int, indices)))
    s = np.asarray(source, dtype=complex)
    shift = cov @ s  # Cov(x_j, Y) for Y = sum s_j x_j
    prefactor = np.exp(-0.5 * complex(s @ shift))
    return complex(prefactor * _moment(cov, 1j * shift, {}, idx))


def site_power_moments(cov: np.ndarray, a: int, b: int) -> np.ndarray:
    """The matrix E[x_j^a x_k^b] over all site pairs (j, k), in closed form.

    A perfect matching of a copies of x_j and b copies of x_k has some p
    cross pairs, (a - p)/2 pairs within j and (b - p)/2 within k, and there
    are a! b! / (p! ((a-p)/2)! ((b-p)/2)! 2^((a+b-2p)/2)) such matchings, so

        E[x_j^a x_k^b] = sum_p count(p) C_jk^p C_jj^((a-p)/2) C_kk^((b-p)/2)

    over p = a mod 2, a mod 2 + 2, ..., min(a, b); odd a + b gives zeros.
    The values equal isserlis_moment's to rounding, not bitwise: the terms
    are summed in another order.
    """
    cov = np.asarray(cov, dtype=float)
    out = np.zeros(cov.shape)
    if (a + b) % 2:
        return out
    diag = np.diag(cov)
    for p in range(a % 2, min(a, b) + 1, 2):
        ra, rb = (a - p) // 2, (b - p) // 2
        count = factorial(a) * factorial(b) // (
            factorial(p) * factorial(ra) * factorial(rb) * 2 ** (ra + rb)
        )
        term = np.power(cov, p)
        term *= (count * diag**ra)[:, None]
        term *= (diag**rb)[None, :]
        out += term
    return out
