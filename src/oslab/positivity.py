"""Positive-semidefiniteness certificates for generating-functional Grams.

Two inequalities are certified over finite families of test functions:

* positive-definiteness of the generating functional:
      gram[k][l] = S(f_k - conj(f_l)),  f_k arbitrary complex;
* reflection positivity:
      gram[k][l] = S(reflect(f_k) - f_l),  f_k real with positive-time
      support (the in_dplus cone).

For a Gaussian measure, S(a - b) = exp(-B(a,a)/2 + B(a,b) - B(b,b)/2) with
B the bilinear covariance form, so when the functional handed in is the
measure's own bound generating_functional, the whole Gram is built in
closed form from one product of the family matrix with the covariance
(lattice.generating_functional_gram).  Any other callable, such as a
deliberately corrupted functional, is evaluated once per Gram entry.
Both routes raise the same lattice and cone errors and feed the same
checks below.

A certificate records the Gram, its minimum eigenvalue from a Hermitian
eigensolver, the tolerance in effect, the verdict, and, when the Gram is
indefinite, the minimizing eigenvector as an explicit witness.  Sampled
certificates replace the deterministic tolerance with three propagated
standard errors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CheckFailure
from .lattice import (
    PSD_RTOL,
    SIGMA_TOL,
    GaussianEuclideanMeasure,
    LatticeMismatchError,
    TestFunction,
    TimeLattice,
    generating_functional_gram,
    sample_path_matrix,
)
from .textio import fmt, fmt_complex, matrix_lines

HERMITICITY_RTOL = 1.0e-12
WITNESS_RTOL = 1.0e-8

KIND_PD = "positive-definiteness"
KIND_RP = "reflection-positivity"
KIND_RP_SAMPLED = "sampled-reflection-positivity"


class HermiticityError(CheckFailure):
    """Gram asymmetry exceeded the machine-level tolerance."""


class DplusMembershipError(ValueError):
    """A function handed to a reflection-positivity check left the cone."""


@dataclass(frozen=True)
class PsdCertificate:
    """Outcome of one Gram positivity check.

    tolerance is relative to the spectral norm of the Gram; the verdict is
    'positive' exactly when min_eigenvalue >= -tolerance * norm.  witness is
    the unit eigenvector for the minimum eigenvalue and is present only when
    the verdict is 'indefinite'.
    """

    kind: str
    gram: np.ndarray
    min_eigenvalue: float
    tolerance: float
    norm: float
    verdict: str
    witness: np.ndarray | None = None
    n_samples: int = 0
    min_eigenvalue_se: float = 0.0

    def __post_init__(self):
        if self.verdict not in ("positive", "indefinite"):
            raise ValueError("verdict must be 'positive' or 'indefinite'")
        ok = self.min_eigenvalue >= -self.tolerance * self.norm
        if ok != (self.verdict == "positive"):
            raise ValueError("verdict inconsistent with eigenvalue and tolerance")
        if self.verdict == "indefinite":
            if self.witness is None:
                raise ValueError("indefinite certificate requires a witness")
            H = 0.5 * (self.gram + self.gram.conj().T)
            quad = float(np.real(self.witness.conj() @ (H @ self.witness)))
            denom = max(abs(self.min_eigenvalue), 1.0e-300)
            if not abs(quad - self.min_eigenvalue) <= WITNESS_RTOL * denom:
                raise ValueError(
                    "witness quadratic form %.17g does not reproduce min eigenvalue %.17g"
                    % (quad, self.min_eigenvalue)
                )


def reflect(f: TestFunction) -> TestFunction:
    """Time reflection: coefficient at t_j moves to -t_j.  An involution."""
    return TestFunction(f.lattice, f.coeffs[::-1].copy())


def _own_measure(functional) -> GaussianEuclideanMeasure | None:
    """The measure whose bound generating_functional this is, else None."""
    if getattr(functional, "__func__", None) is GaussianEuclideanMeasure.generating_functional:
        return functional.__self__
    return None


def _family_rows(
    measure: GaussianEuclideanMeasure, functions: Sequence[TestFunction]
) -> np.ndarray:
    """Stacked coefficients, with the lattice errors the entrywise loop raises."""
    lattice = functions[0].lattice
    if lattice != measure.lattice:
        raise LatticeMismatchError("test function lattice does not match measure")
    if any(f.lattice != lattice for f in functions):
        raise LatticeMismatchError("test functions live on different lattices")
    return np.array([f.coeffs for f in functions])


def _certify(
    kind: str,
    gram: np.ndarray,
    rtol: float,
    n_samples: int = 0,
    min_eig_se: float = 0.0,
) -> PsdCertificate:
    gram = np.asarray(gram)
    scale = float(np.max(np.abs(gram))) or 1.0
    with np.errstate(invalid="ignore"):  # inf - inf in an overflowed gram, refused below
        asym = float(np.max(np.abs(gram - gram.conj().T)))
    if not asym <= HERMITICITY_RTOL * scale and n_samples == 0:
        raise HermiticityError(
            "gram asymmetry %.3e exceeds %.1e relative" % (asym, HERMITICITY_RTOL)
        )
    if not np.all(np.isfinite(gram)):
        # an overflowed entry makes the asymmetry and its scale both inf, which the gate passes
        raise CheckFailure("gram has a non-finite entry: the generating functional overflowed")
    H = 0.5 * (gram + gram.conj().T)
    w, V = np.linalg.eigh(H)
    min_eig = float(w[0])
    norm = float(max(abs(w[0]), abs(w[-1])))
    positive = min_eig >= -rtol * norm
    witness = None if positive else np.ascontiguousarray(V[:, 0])
    return PsdCertificate(
        kind=kind,
        gram=gram,
        min_eigenvalue=min_eig,
        tolerance=rtol,
        norm=norm,
        verdict="positive" if positive else "indefinite",
        witness=witness,
        n_samples=n_samples,
        min_eigenvalue_se=min_eig_se,
    )


def pd_gram_certificate(
    functional: Callable[[TestFunction], complex],
    functions: Sequence[TestFunction],
) -> PsdCertificate:
    """Certify gram[k][l] = S(f_k - conj(f_l)) over a complex family."""
    if len(functions) == 0:
        raise ValueError("need at least one test function")
    measure = _own_measure(functional)
    if measure is not None:
        F = _family_rows(measure, functions)
        return _certify(KIND_PD, generating_functional_gram(measure, F, F.conj()), PSD_RTOL)
    K = len(functions)
    gram = np.zeros((K, K), dtype=complex)
    conjugates = [f.conjugate() for f in functions]
    for k in range(K):
        for l in range(K):
            gram[k, l] = functional(functions[k] - conjugates[l])
    return _certify(KIND_PD, gram, PSD_RTOL)


def rp_gram_certificate(
    functional: Callable[[TestFunction], complex],
    functions: Sequence[TestFunction],
) -> PsdCertificate:
    """Certify gram[k][l] = S(reflect(f_k) - f_l) over a positive-time family."""
    if len(functions) == 0:
        raise ValueError("need at least one test function")
    for i, f in enumerate(functions):
        if not f.in_dplus:
            raise DplusMembershipError(
                "function %d is not in the positive-time cone "
                "(must be real and vanish for t < 0)" % i
            )
    measure = _own_measure(functional)
    if measure is not None:
        F = _family_rows(measure, functions).real
        return _certify(KIND_RP, generating_functional_gram(measure, F[:, ::-1], F), PSD_RTOL)
    K = len(functions)
    gram = np.zeros((K, K), dtype=complex)
    reflected = [reflect(f) for f in functions]
    for k in range(K):
        for l in range(K):
            gram[k, l] = functional(reflected[k] - functions[l])
    if np.max(np.abs(gram.imag)) == 0.0:
        gram = gram.real
    return _certify(KIND_RP, gram, PSD_RTOL)


# -- sampled certificates -----------------------------------------------------

#~ dictionary of single-site factors for sampled observables
OBSERVABLE_DICTIONARY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "1": lambda x: np.ones_like(x),
    "q": lambda x: x,
    "q2": lambda x: x**2,
    "q3": lambda x: x**3,
    "q4": lambda x: x**4,
    "tanh": np.tanh,
}


@dataclass(frozen=True)
class SampledObservable:
    """Product of dictionary factors evaluated at strictly positive times."""

    factors: tuple  # of (time, name) pairs

    def __post_init__(self):
        for t, name in self.factors:
            if name not in OBSERVABLE_DICTIONARY:
                raise ValueError("unknown dictionary entry %r" % (name,))
            if not (t > 0.0):
                raise ValueError("observable time %r is not strictly positive" % (t,))

    def column(self, lattice: TimeLattice, paths: np.ndarray, reflected: bool) -> np.ndarray:
        vals = np.ones(paths.shape[0])
        for t, name in self.factors:
            j = lattice.index_of_time(-t if reflected else t)
            vals = vals * OBSERVABLE_DICTIONARY[name](paths[:, j])
        return vals


def rp_sampled_certificate(
    measure: GaussianEuclideanMeasure,
    observables: Sequence[SampledObservable],
    n_samples: int,
    seed: int,
) -> PsdCertificate:
    """Monte-Carlo reflection-positivity check on sampled path functionals.

    gram[k][l] estimates E[F_k(reflected paths) * F_l(paths)].  The verdict
    compares the minimum eigenvalue against SIGMA_TOL standard errors of itself,
    propagated through the minimizing eigenvector (delta method).  Sums are
    reduced in a fixed serial order, so results are reproducible bit for bit
    for a given seed.
    """
    if len(observables) == 0:
        raise ValueError("need at least one observable")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive, got %r" % (n_samples,))
    lattice = measure.lattice
    paths = sample_path_matrix(measure, n_samples, seed)
    K = len(observables)
    direct = np.column_stack([o.column(lattice, paths, False) for o in observables])
    mirrored = np.column_stack([o.column(lattice, paths, True) for o in observables])
    gram = (mirrored.T @ direct) / n_samples
    gram = 0.5 * (gram + gram.T)
    w, V = np.linalg.eigh(gram)
    v = V[:, 0]
    # per-sample value of the minimized quadratic form, for the delta method
    y = (mirrored @ v) * (direct @ v)
    se = float(np.std(y, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    norm = float(max(abs(w[0]), abs(w[-1]))) or 1.0
    rtol = SIGMA_TOL * se / norm
    return _certify(
        KIND_RP_SAMPLED, gram, rtol, n_samples=n_samples, min_eig_se=se
    )


# -- spike families -----------------------------------------------------------

def delta_family(
    lattice: TimeLattice, site_indices: Sequence[int], scale: float
) -> list[TestFunction]:
    """Scaled single-site spikes at the given positive-time sites."""
    fs = []
    for j in site_indices:
        c = np.zeros(lattice.n_points)
        c[j] = scale
        fs.append(TestFunction(lattice, c))
    return fs


# -- serialization ------------------------------------------------------------

def certificate_to_text(cert: PsdCertificate) -> str:
    complex_entries = np.iscomplexobj(cert.gram)
    lines = [
        "format: oslab-certificate v1",
        "kind: %s" % cert.kind,
        "size: %d" % cert.gram.shape[0],
        "min_eigenvalue: %s" % fmt(cert.min_eigenvalue),
        "tolerance: %s" % fmt(cert.tolerance),
        "norm: %s" % fmt(cert.norm),
        "verdict: %s" % cert.verdict,
    ]
    if cert.n_samples:
        lines.append("n_samples: %d" % cert.n_samples)
        lines.append("min_eigenvalue_se: %s" % fmt(cert.min_eigenvalue_se))
    lines.append("gram:")
    lines.extend(matrix_lines(np.atleast_2d(cert.gram), complex_entries))
    if cert.witness is not None:
        lines.append("witness:")
        if complex_entries:
            lines.append("  " + " ".join(fmt_complex(z) for z in cert.witness))
        else:
            lines.append("  " + " ".join(fmt(float(np.real(z))) for z in cert.witness))
    return "\n".join(lines) + "\n"

