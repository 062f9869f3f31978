"""Gaussian path measures on finite symmetric time lattices.

The time grid is the half-integer lattice

    t_j = (j + 1/2 - n/2) * spacing,    j = 0 .. n-1,   n even,

which is symmetric under t -> -t, contains no point at t = 0, and realizes
time reflection as the exact index permutation j -> n-1-j.  A centered
Gaussian measure on paths (q(t_0), ..., q(t_{n-1})) is fixed by its
covariance matrix C.  Two physical kernels are built in:

* Ornstein-Uhlenbeck:  C(t,s) = exp(-m|t-s|) / (2m), the stationary
  reflection-positive process with mass m.
* Lattice free field:  the inverse of the discretized action quadratic form
  spacing * (-Laplacian + m^2), with Dirichlet conditions just outside the
  ends.  Interior entries converge to the Ornstein-Uhlenbeck kernel as the
  spacing shrinks.

A third built-in kernel, cos(omega|t-s|) * exp(-m|t-s|) / (2m), is a valid
stationary covariance that deliberately violates reflection positivity for
suitable omega; it serves as the negative control for the certificate
machinery.

The generating functional of a measure is

    S(f) = exp(-1/2 B(f,f)),   B(f,g) = spacing^2 * sum_jk f_j C_jk g_k,

with B extended complex-bilinearly (no conjugation).  B(f,g) is the
covariance of the smeared fields q(f) = spacing * sum_j f_j q(t_j).  A
whole gram of values S(a_k - b_l) therefore follows from one product of
the stacked coefficients with C (generating_functional_gram).

Sampling draws count x n standard normals, row-major (path j, site k is
entry j*n + k), in fixed blocks of NORMAL_BLOCK entries.  Block b comes
from its own Philox generator, keyed by the seed with counter (0, b, 0, 0),
through numpy's ziggurat (Generator.standard_normal).  The ziggurat uses a
variable number of raw draws per normal, so the blocks are spaced 2^64
counter steps apart rather than packed: block b drawn alone equals those
entries of the full draw, and no result depends on how the normals are
batched.  The paths are the normals times a factor L with L L^T = C.  For
Ornstein-Uhlenbeck, a Markov process, L is C's Cholesky factor applied as
the exact AR(1) recursion, O(n) per path; every other kernel uses a
symmetric factor from C's eigendecomposition, which also samples a
rank-deficient covariance on its support.

Every measure proves its covariance positive semidefinite when it is built,
in the sense lambda_min(C) >= -PSD_RTOL * max_i C_ii, with one
floating-point Cholesky factorisation of a diagonally shifted C whose shift
absorbs every rounding error of the factorisation (Rump's test; the
derivation is in _proves_psd).  A pass is thus a theorem, not an
estimate.  Only when that proof fails does the measure
compute its eigvalsh spectrum to decide, and to word the failure; otherwise
the spectrum (eigenvalues) is computed on first read.

Each measure memoizes its draws in sample_memo, keyed by (count, seed):
the normals are drawn and the factor is applied once per key, and
every later request gets the same read-only array back.  Callers that need
to change paths copy them first.  A Monte Carlo estimate from such paths is
gated at SIGMA_TOL standard errors wherever one is checked.

The measure's one moment interface is moment(sites, source): the exact
E[prod_s q(t_s) * exp(i source . q)], by the Isserlis recursion of
oslab.moments.  This module is the only one that hands the covariance and
the memo to that engine; reconstruction asks the measure for every moment
it needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import moments
from .errors import CheckFailure

# Relative floor for treating the smallest eigenvalue of a PSD matrix (a
# covariance, a certificate gram) as a violation.
PSD_RTOL = 1.0e-10
# Relative tolerance on covariance symmetry.
SYMMETRY_RTOL = 1.0e-12

KERNEL_OU = "ornstein-uhlenbeck"
KERNEL_FREE_FIELD = "free-field-dirichlet"
KERNEL_COSINE = "cosine-damped"
KERNEL_CUSTOM = "custom"


class LatticeMismatchError(ValueError):
    """Two objects built over different time lattices were combined."""


class CovarianceError(CheckFailure):
    """Covariance matrix failed a shape, symmetry, or positivity check."""


@dataclass(frozen=True)
class TimeLattice:
    """Finite symmetric time grid with no site at t = 0."""

    n_points: int
    spacing: float

    def __post_init__(self):
        if self.n_points % 2 != 0 or self.n_points < 2:
            raise ValueError(
                "n_points must be a positive even integer, got %r" % (self.n_points,)
            )
        if not (self.spacing > 0.0):
            raise ValueError("spacing must be positive, got %r" % (self.spacing,))

    @property
    def times(self) -> np.ndarray:
        j = np.arange(self.n_points)
        return (j + 0.5 - self.n_points / 2.0) * self.spacing

    def reflect_index(self, j: int) -> int:
        """Index of the site at -t_j.  An exact involution on 0..n-1."""
        return self.n_points - 1 - j

    @property
    def positive_indices(self) -> np.ndarray:
        return np.arange(self.n_points // 2, self.n_points)

    @property
    def max_time(self) -> float:
        return (self.n_points / 2.0 - 0.5) * self.spacing

    def index_of_time(self, t: float) -> int:
        """Site index for a time value; errors if t is not on the grid."""
        x = t / self.spacing - 0.5 + self.n_points / 2.0
        j = int(round(x))
        if j < 0 or j >= self.n_points or abs(x - j) > 1.0e-9:
            raise ValueError("time %r is not a lattice site" % (t,))
        return j

    def step_count(self, dt: float) -> int:
        """Number of lattice steps in a time difference; errors off-grid."""
        x = dt / self.spacing
        k = int(round(x))
        if abs(x - k) > 1.0e-9:
            raise ValueError("time difference %r is not a multiple of the spacing" % (dt,))
        return k


def _site_distances(lattice: TimeLattice) -> np.ndarray:
    # |t_j - t_k| computed from integer index differences so that the result
    # is exactly constant along diagonals (stationarity holds to the bit).
    j = np.arange(lattice.n_points)
    return np.abs(j[:, None] - j[None, :]) * lattice.spacing


def _symmetric_part(C: np.ndarray) -> tuple[np.ndarray, float]:
    """0.5 * (C + C^T) as a new array, and max |C - C^T|, tile by tile.

    A whole-matrix C - C^T walks C down its columns, one row's stride per
    element, and misses cache at large n.  On 128 x 128 tiles the same
    entrywise expressions run about 4x faster at n 1024 (one core of a
    2-core Xeon VM).
    """
    n, tile = C.shape[0], 128
    S = np.empty((n, n))
    asym = 0.0
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            A, B = C[i:i + tile, j:j + tile], C[j:j + tile, i:i + tile].T
            asym = max(asym, float(np.max(np.abs(A - B))))
            T = S[i:i + tile, j:j + tile]
            np.add(A, B, out=T)
            T *= 0.5
            S[j:j + tile, i:i + tile] = T.T
    return S, asym


def _proves_psd(B: np.ndarray) -> bool:
    """True only if lambda_min(B) >= -tau, tau = PSD_RTOL * max_i B_ii, is proven.

    B must be exactly symmetric, finite and writable.  Let n be its order,
    u = 2^-53 and gamma = (n+1)u / (1 - (n+1)u), and set

        delta = 1.01 * (gamma/(1-gamma) * tr(B) + u * max_i B_ii) + n * 2^-1021.

    The diagonal of B is shifted in place by tau - delta, which gives the
    floating-point matrix B' = B + (tau - delta) I + D, where D is diagonal
    and holds the rounding of the shift, |D_ii| <= u * max_i B'_ii.  If a
    floating-point Cholesky factorisation of B' runs to completion with
    factor R, then R^T R = B' + E with |E| <= gamma |R^T| |R| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3),
    so ||E||_2 <= gamma ||R||_F^2.  As ||R||_F^2 = tr(B' + E) <= tr(B') +
    gamma ||R||_F^2, this is ||E||_2 <= gamma/(1-gamma) * tr(B').  R^T R is
    positive semidefinite, hence

        lambda_min(B) >= delta - tau - gamma/(1-gamma) tr(B') - u max_i B'_ii.

    tr(B') and max_i B'_ii exceed tr(B) and max_i B_ii by at most the
    relative n * PSD_RTOL + u that the shift can add; the 1.01 absorbs that
    (for n < 10^7) and the rounding in evaluating delta, tau and the shift.
    The last term of delta covers underflow inside the factorisation
    (S. M. Rump, "Verification of positive definiteness", BIT 46 (2006)).
    So delta covers the right-hand side and lambda_min(B) >= -tau,
    rounding included.  Since max_i B_ii <= lambda_max(B), the claim is
    never looser than lambda_min >= -PSD_RTOL * lambda_max.

    False means no proof, not a violation: a failed factorisation, or a
    diagonal entry <= 0, which the test does not handle.  The diagonal of
    B is restored bitwise before returning.
    """
    n = B.shape[0]
    diag = B.diagonal().copy()
    if not diag.min() > 0.0:
        return False
    u = 2.0**-53
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    top = float(diag.max())
    tau = PSD_RTOL * top
    delta = 1.01 * (gamma / (1.0 - gamma) * float(diag.sum()) + u * top) + n * 2.0**-1021
    np.fill_diagonal(B, diag + (tau - delta))
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(B, diag)
    return True


@dataclass(frozen=True)
class GaussianEuclideanMeasure:
    """Centered Gaussian measure on lattice paths, fixed by its covariance.

    The covariance is stored read-only, so moment_memo, the memo of
    source-free moments keyed by sorted site tuple that every moment call
    on this measure shares, never goes stale; nor does sample_memo, the
    read-only path matrices of sample_path_matrix keyed by (count, seed).

    Construction refuses a covariance with a non-finite entry and proves
    lambda_min(C) >= -PSD_RTOL * max_i C_ii with one Cholesky factorisation
    (_proves_psd).  Only if that proof fails is the spectrum computed, and
    C is refused when lambda_min < -PSD_RTOL * max(lambda_max, |lambda_min|).
    eigenvalues, the ascending eigvalsh spectrum, is read-only and computed
    at most once, on first read.

    kernel names the covariance's family.  KERNEL_OU states that C is
    exp(-m|t-s|)/(2m) with m = mass, as ou_covariance builds it, and
    sample_path_matrix relies on that to draw by the AR(1) recursion.
    """

    lattice: TimeLattice
    covariance: np.ndarray
    mass: float
    kernel: str = KERNEL_CUSTOM
    params: dict = field(default_factory=dict)
    moment_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    sample_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.mass > 0.0):
            raise ValueError("mass must be positive, got %r" % (self.mass,))
        C = np.asarray(self.covariance, dtype=float)
        n = self.lattice.n_points
        if C.shape != (n, n):
            raise CovarianceError(
                "covariance shape %r does not match lattice with %d points"
                % (C.shape, n)
            )
        scale = max(float(C.max()), -float(C.min()))
        if not np.isfinite(scale):
            raise CovarianceError("covariance has a non-finite entry")
        scale = scale or 1.0
        S, asym = _symmetric_part(C)
        if not asym <= SYMMETRY_RTOL * scale:
            raise CovarianceError(
                "covariance asymmetry %.3e exceeds %.1e relative" % (asym, SYMMETRY_RTOL)
            )
        proven = _proves_psd(S)
        S.setflags(write=False)
        object.__setattr__(self, "covariance", S)
        if proven:
            return
        w = self.eigenvalues
        lam_min, lam_max = float(w[0]), float(w[-1])
        if not lam_min >= -PSD_RTOL * max(lam_max, abs(lam_min)):
            raise CovarianceError(
                "covariance is not positive semidefinite: min eigenvalue %.6e" % lam_min
            )

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigvalsh spectrum of the covariance, read-only."""
        w = np.linalg.eigvalsh(self.covariance)
        w.setflags(write=False)
        return w

    def moment(self, sites, source: np.ndarray | None = None) -> complex:
        """E[prod_s q(t_s) * exp(i source . q)] over the sites s, exact.

        source is a coefficient vector over the lattice sites (may be
        complex, None for none).  A source-free moment is read from and
        kept in moment_memo; a sourced one keeps a memo of its own.
        """
        return moments.gaussian_monomial_with_source(
            self.covariance, sites, source, memo=self.moment_memo
        )

    def generating_functional(self, f: "TestFunction") -> complex:
        return generating_functional(self, f)


@dataclass(frozen=True)
class TestFunction:
    """Coefficients of a lattice test function, one per site.

    in_dplus is derived from the coefficients: real, and zero on every site
    with t < 0, i.e. a member of the positive-time cone that
    reflection-positivity certificates quantify over.
    """

    lattice: TimeLattice
    coeffs: np.ndarray
    in_dplus: bool = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.lattice.n_points,):
            raise ValueError(
                "coefficient array shape %r does not match lattice with %d points"
                % (c.shape, self.lattice.n_points)
            )
        object.__setattr__(self, "coeffs", c)
        neg = np.arange(self.lattice.n_points // 2)
        dplus = bool(np.all(c.imag == 0.0)) and bool(np.all(c[neg] == 0.0))
        object.__setattr__(self, "in_dplus", dplus)

    def conjugate(self) -> "TestFunction":
        return TestFunction(self.lattice, np.conj(self.coeffs))

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        if other.lattice != self.lattice:
            raise LatticeMismatchError("test functions live on different lattices")
        return TestFunction(self.lattice, self.coeffs - other.coeffs)


def ou_covariance(mass: float, lattice: TimeLattice) -> GaussianEuclideanMeasure:
    """Ornstein-Uhlenbeck measure: C(t,s) = exp(-m|t-s|)/(2m)."""
    if not (mass > 0.0):
        raise ValueError("mass must be positive, got %r" % (mass,))
    C = _site_distances(lattice)  # built in place: bitwise exp(-m d) / (2m)
    C *= -mass
    np.exp(C, out=C)
    C /= 2.0 * mass
    return GaussianEuclideanMeasure(lattice, C, mass, kernel=KERNEL_OU)


def free_field_covariance(mass: float, lattice: TimeLattice) -> GaussianEuclideanMeasure:
    """Lattice free field with Dirichlet ends.

    The covariance is the inverse of the action quadratic form
    h * (-Laplacian_h + m^2 I), where Laplacian_h is the second-difference
    operator with Dirichlet conditions one site outside each end.  The h
    factor matches the Riemann-sum discretization of the continuum action,
    so interior entries approach exp(-m|t-s|)/(2m) as h -> 0.
    """
    if not (mass > 0.0):
        raise ValueError("mass must be positive, got %r" % (mass,))
    n, h = lattice.n_points, lattice.spacing
    K = np.zeros((n, n))
    np.fill_diagonal(K, 2.0 / h**2 + mass**2)
    idx = np.arange(n - 1)
    K[idx, idx + 1] = -1.0 / h**2
    K[idx + 1, idx] = -1.0 / h**2
    K *= h
    C = np.linalg.inv(K)
    del K  # one n x n array fewer while the measure checks C
    return GaussianEuclideanMeasure(lattice, C, mass, kernel=KERNEL_FREE_FIELD)


def cosine_damped_covariance(
    mass: float, omega: float, lattice: TimeLattice
) -> GaussianEuclideanMeasure:
    """Oscillating kernel cos(omega|t-s|) exp(-m|t-s|)/(2m).

    Positive semidefinite for every real omega (its spectral density is a
    pair of Lorentzians), hence a legitimate stationary covariance, but not
    reflection positive once omega is large enough.  Used as the negative
    control for reflection-positivity certificates.
    """
    if not (mass > 0.0):
        raise ValueError("mass must be positive, got %r" % (mass,))
    # built in place in the distance buffer: bitwise cos(w d) exp(-m d) / (2m)
    C = _site_distances(lattice)
    wave = np.multiply(C, omega)
    np.cos(wave, out=wave)
    C *= -mass
    np.exp(C, out=C)
    C *= wave
    del wave
    C /= 2.0 * mass
    return GaussianEuclideanMeasure(
        lattice, C, mass, kernel=KERNEL_COSINE, params={"omega": float(omega)}
    )


def covariance_bilinear(
    measure: GaussianEuclideanMeasure, f: TestFunction, g: TestFunction
) -> complex:
    """B(f,g) = spacing^2 * f^T C g, complex-bilinear (no conjugation)."""
    for func in (f, g):
        if func.lattice != measure.lattice:
            raise LatticeMismatchError("test function lattice does not match measure")
    h = measure.lattice.spacing
    C, c = measure.covariance, g.coeffs
    # real and imaginary parts separately: C @ complex would copy C to complex
    Cg = C @ c.real + 1j * (C @ c.imag)
    return complex(h * h * (f.coeffs @ Cg))


def generating_functional(measure: GaussianEuclideanMeasure, f: TestFunction) -> complex:
    """S(f) = exp(-1/2 B(f,f)).  Equals E[exp(i q(f))] for the measure."""
    b = covariance_bilinear(measure, f, f)
    return complex(np.exp(-0.5 * b))


def generating_functional_gram(
    measure: GaussianEuclideanMeasure, A: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """gram[k, l] = S(a_k - b_l) for the coefficient rows a_k of A and b_l of B.

    Bilinearity gives S(a - b) = exp(-B(a,a)/2 + B(a,b) - B(b,b)/2), so the
    whole gram follows from one product of the stacked rows with C.  The
    real and imaginary parts are multiplied by the real covariance
    separately, and real rows give a real gram.  Rows must already be
    checked to live on the measure's lattice.
    """
    K = A.shape[0]
    P = np.vstack([A, B])
    PC = P.real @ measure.covariance
    if np.iscomplexobj(P):
        PC = PC + 1j * (P.imag @ measure.covariance)
    h = measure.lattice.spacing
    M = h * h * (PC @ P.T)
    d = np.diagonal(M)
    with np.errstate(over="ignore"):  # an overflowed entry is inf, refused by the certificate
        return np.exp(M[:K, K:] - 0.5 * d[:K, None] - 0.5 * d[None, K:])


def _covariance_factor(measure: GaussianEuclideanMeasure) -> np.ndarray:
    """Symmetric factor L with L L^T = C, via eigendecomposition.

    Eigenvalues inside the PSD tolerance band are clamped to zero, so
    rank-deficient covariances sample on their support.  A genuinely
    indefinite matrix is reported with its minimum eigenvalue.
    """
    C = measure.covariance
    w, V = np.linalg.eigh(C)
    floor = PSD_RTOL * max(float(w[-1]), 0.0)
    if w[0] < -floor:
        raise CovarianceError(
            "cannot factor indefinite covariance: min eigenvalue %.6e" % float(w[0])
        )
    w = np.clip(w, 0.0, None)
    return V * np.sqrt(w)[None, :]


def _ou_paths(Z: np.ndarray, mass: float, spacing: float) -> np.ndarray:
    """Z L^T for the Cholesky factor L of the OU covariance, in O(n) per row.

    Each row z of Z becomes the path x_0 = sigma z_0, x_k = rho x_{k-1} +
    sigma sqrt(1 - rho^2) z_k, with sigma^2 = 1/(2m) and rho = exp(-m h):
    the exact AR(1) law of the process sampled every h.  1 - rho^2 is
    -expm1(-2mh), which keeps its digits as mh -> 0.  The recursion runs
    over the sites of a transposed copy, so each step is one contiguous
    row; the result is its (count, n) transpose.
    """
    sigma = np.sqrt(0.5 / mass)
    rho = np.exp(-mass * spacing)
    X = Z.T.copy()
    X[0] *= sigma
    X[1:] *= sigma * np.sqrt(-np.expm1(-2.0 * mass * spacing))
    for k in range(1, X.shape[0]):
        X[k] += rho * X[k - 1]
    return X.T


# standard normals per Philox block of a draw
NORMAL_BLOCK = 65536


def _normal_block(seed: int, b: int) -> np.random.Generator:
    """The generator of block b of the seed's normals."""
    return np.random.Generator(np.random.Philox(key=int(seed), counter=[0, b, 0, 0]))


def _standard_normal(seed: int, count: int, width: int) -> np.ndarray:
    """count x width standard normals, row-major in blocks of NORMAL_BLOCK,
    block b drawn by _normal_block(seed, b)."""
    Z = np.empty((count, width))
    flat = Z.reshape(-1)
    for b, start in enumerate(range(0, flat.size, NORMAL_BLOCK)):
        _normal_block(seed, b).standard_normal(out=flat[start:start + NORMAL_BLOCK])
    return Z


# bound on a Monte Carlo estimate's deviation, in its standard errors
SIGMA_TOL = 3.0


def sample_path_matrix(
    measure: GaussianEuclideanMeasure, count: int, seed: int
) -> np.ndarray:
    """count x n_points matrix of independent paths drawn from the measure.

    The matrix is drawn once per (count, seed) and kept in the measure's
    sample_memo: a repeated request returns the same read-only array, so
    every caller sees bitwise the paths of the first draw.
    """
    if count <= 0:
        raise ValueError("count must be a positive integer, got %r" % (count,))
    key = (int(count), int(seed))
    paths = measure.sample_memo.get(key)
    if paths is None:
        Z = _standard_normal(seed, count, measure.lattice.n_points)
        if measure.kernel == KERNEL_OU:
            paths = _ou_paths(Z, measure.mass, measure.lattice.spacing)
        else:
            paths = Z @ _covariance_factor(measure).T
        paths.setflags(write=False)
        measure.sample_memo[key] = paths
    return paths


def check_stationarity(
    measure: GaussianEuclideanMeasure, tol: float = 1.0e-12
) -> tuple[bool, float]:
    """Is C constant along diagonals?  Returns (verdict, max deviation).

    The deviation is the largest |C[j,k] - C[j+1,k+1]| over all valid index
    pairs, compared against tol * max|C|.
    """
    C = measure.covariance
    dev = float(np.max(np.abs(C[1:, 1:] - C[:-1, :-1]))) if C.shape[0] > 1 else 0.0
    scale = float(np.max(np.abs(C))) or 1.0
    return dev <= tol * scale, dev


def check_time_reflection_symmetry(
    measure: GaussianEuclideanMeasure, tol: float = 1.0e-12
) -> tuple[bool, float]:
    """Is C invariant under simultaneous reflection of both indices?"""
    C = measure.covariance
    R = C[::-1, ::-1]
    dev = float(np.max(np.abs(C - R)))
    scale = float(np.max(np.abs(C))) or 1.0
    return dev <= tol * scale, dev
