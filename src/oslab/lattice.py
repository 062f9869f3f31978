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

Sampling uses a Philox counter-based generator keyed by the seed.  Each
standard normal consumes exactly one 64-bit draw (uniform bits mapped
through the inverse normal CDF), and the draw for path j, site k sits at
counter slot j*n + k.  Any block of paths can therefore be regenerated
independently of batching, and results do not depend on how a caller
chooses to parallelize over paths.

Each measure memoizes its draws in sample_memo, keyed by (count, seed):
the covariance factor is built and the normals are drawn once per key, and
every later request gets the same read-only array back.  Callers that need
to change paths copy them first.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .textio import FLOAT_FMT, fmt, parse_kv_text

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


class CovarianceError(ValueError):
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


@dataclass(frozen=True)
class GaussianEuclideanMeasure:
    """Centered Gaussian measure on lattice paths, fixed by its covariance.

    The covariance is stored read-only, so moment_memo, the memo of
    source-free Isserlis moments keyed by sorted site tuple that every
    pairing over this measure shares, never goes stale; nor does
    sample_memo, the read-only path matrices of sample_path_matrix keyed by
    (count, seed).  eigenvalues is its ascending eigvalsh spectrum, computed
    once for the PSD check and kept read-only.
    """

    lattice: TimeLattice
    covariance: np.ndarray
    mass: float
    kernel: str = KERNEL_CUSTOM
    params: dict = field(default_factory=dict)
    moment_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    sample_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

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
        scale = float(np.max(np.abs(C))) or 1.0
        asym = float(np.max(np.abs(C - C.T)))
        if asym > SYMMETRY_RTOL * scale:
            raise CovarianceError(
                "covariance asymmetry %.3e exceeds %.1e relative" % (asym, SYMMETRY_RTOL)
            )
        C = 0.5 * (C + C.T)
        C.setflags(write=False)
        object.__setattr__(self, "covariance", C)
        w = np.linalg.eigvalsh(C)
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        lam_min, lam_max = float(w[0]), float(w[-1])
        if lam_min < -PSD_RTOL * max(lam_max, abs(lam_min)):
            raise CovarianceError(
                "covariance is not positive semidefinite: min eigenvalue %.6e" % lam_min
            )

    def generating_functional(self, f: "TestFunction") -> complex:
        return generating_functional(self, f)


@dataclass(frozen=True)
class TestFunction:
    """Coefficients of a lattice test function, one per site.

    is_real and in_dplus are derived from the coefficients when not given;
    explicitly passed flags are validated.  in_dplus means: real, and zero
    on every site with t < 0, i.e. a member of the positive-time cone that
    reflection-positivity certificates quantify over.
    """

    lattice: TimeLattice
    coeffs: np.ndarray
    is_real: bool = None  # type: ignore[assignment]
    in_dplus: bool = None  # type: ignore[assignment]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.lattice.n_points,):
            raise ValueError(
                "coefficient array shape %r does not match lattice with %d points"
                % (c.shape, self.lattice.n_points)
            )
        object.__setattr__(self, "coeffs", c)
        real = bool(np.all(c.imag == 0.0))
        neg = np.arange(self.lattice.n_points // 2)
        dplus = real and bool(np.all(c[neg] == 0.0))
        if self.is_real is None:
            object.__setattr__(self, "is_real", real)
        elif bool(self.is_real) != real:
            raise ValueError("is_real flag inconsistent with coefficients")
        if self.in_dplus is None:
            object.__setattr__(self, "in_dplus", dplus)
        elif self.in_dplus and not dplus:
            raise ValueError(
                "in_dplus=True requires real coefficients vanishing at negative times"
            )

    def conjugate(self) -> "TestFunction":
        return TestFunction(self.lattice, np.conj(self.coeffs))

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        if other.lattice != self.lattice:
            raise LatticeMismatchError("test functions live on different lattices")
        return TestFunction(self.lattice, self.coeffs - other.coeffs)

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if other.lattice != self.lattice:
            raise LatticeMismatchError("test functions live on different lattices")
        return TestFunction(self.lattice, self.coeffs + other.coeffs)

    def scaled(self, a: complex) -> "TestFunction":
        return TestFunction(self.lattice, a * self.coeffs)


def ou_covariance(mass: float, lattice: TimeLattice) -> GaussianEuclideanMeasure:
    """Ornstein-Uhlenbeck measure: C(t,s) = exp(-m|t-s|)/(2m)."""
    if not (mass > 0.0):
        raise ValueError("mass must be positive, got %r" % (mass,))
    d = _site_distances(lattice)
    C = np.exp(-mass * d) / (2.0 * mass)
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
    C = np.linalg.inv(h * K)
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
    d = _site_distances(lattice)
    C = np.cos(omega * d) * np.exp(-mass * d) / (2.0 * mass)
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


def _standard_normal(seed: int, count: int, width: int) -> np.ndarray:
    # One uint64 per variate: uniform in (0,1) on a 2^-53 grid, then the
    # inverse normal CDF.  Counter-stable: entry (j, k) always consumes
    # Philox draw number j*width + k for a given seed.
    from scipy.special import ndtri  # scipy loads on the first draw only

    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    raw = gen.integers(0, 1 << 53, size=(count, width), dtype=np.int64)
    u = (raw.astype(float) + 0.5) * 2.0**-53
    return ndtri(u)


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
        L = _covariance_factor(measure)
        Z = _standard_normal(seed, count, measure.lattice.n_points)
        paths = Z @ L.T
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


def empirical_covariance(paths: np.ndarray) -> np.ndarray:
    """Second-moment matrix of a count x n matrix of centered samples."""
    paths = np.asarray(paths, dtype=float)
    return (paths.T @ paths) / paths.shape[0]


# -- structured text serialization -------------------------------------------

def measure_to_text(
    measure: GaussianEuclideanMeasure, include_covariance: bool = True
) -> str:
    lines = [
        "format: oslab-measure v1",
        "kernel: %s" % measure.kernel,
        "n_points: %d" % measure.lattice.n_points,
        "spacing: %s" % fmt(measure.lattice.spacing),
        "mass: %s" % fmt(measure.mass),
    ]
    for key in sorted(measure.params):
        lines.append("%s: %s" % (key, fmt(measure.params[key])))
    if include_covariance or measure.kernel == KERNEL_CUSTOM:
        lines.append("covariance:")
        for row in measure.covariance:
            lines.append("  " + " ".join(format(x, FLOAT_FMT) for x in row))
    return "\n".join(lines) + "\n"


def measure_from_text(text: str) -> GaussianEuclideanMeasure:
    scalars, blocks = parse_kv_text(text)
    if scalars.get("format") != "oslab-measure v1":
        raise ValueError("unrecognized measure format: %r" % scalars.get("format"))
    lattice = TimeLattice(int(scalars["n_points"]), float(scalars["spacing"]))
    mass = float(scalars["mass"])
    kernel = scalars["kernel"]
    if kernel == KERNEL_OU:
        measure = ou_covariance(mass, lattice)
    elif kernel == KERNEL_FREE_FIELD:
        measure = free_field_covariance(mass, lattice)
    elif kernel == KERNEL_COSINE:
        measure = cosine_damped_covariance(mass, float(scalars["omega"]), lattice)
    elif kernel == KERNEL_CUSTOM:
        if "covariance" not in blocks:
            raise ValueError("custom kernel requires an explicit covariance block")
        measure = None
    else:
        raise ValueError("unknown kernel name: %r" % kernel)
    if "covariance" in blocks:
        rows = [[float(tok) for tok in line.split()] for line in blocks["covariance"]]
        C = np.array(rows, dtype=float)
        if measure is not None:
            scale = float(np.max(np.abs(measure.covariance))) or 1.0
            dev = float(np.max(np.abs(C - measure.covariance)))
            if dev > 1.0e-12 * scale:
                raise CovarianceError(
                    "stored covariance deviates from kernel %s by %.3e" % (kernel, dev)
                )
        else:
            measure = GaussianEuclideanMeasure(lattice, C, mass, kernel=KERNEL_CUSTOM)
    return measure
