"""Physical Hilbert space, transfer operator, and Hamiltonian from a
reflection-positive lattice measure.

The positive-time observable algebra is spanned by field monomials

    F = q(t_1)^d_1 * ... * q(t_r)^d_r,   all t_i > 0 on the lattice,

plus, optionally, exponentials exp(i q(f)) with f in the positive-time cone.
The reflected pairing

    <F, G> = E[ conj(F at reflected times) * G ]

is computed exactly: Wick pairings for monomials, the Gaussian closed form
for exponentials, and the complex-shift formula for mixed entries.  Its
Gram over the basis is positive semidefinite precisely because the measure
is reflection positive; eigendirections below the null cut are quotiented
away, and what remains is the physical space with an orthonormal
coordinate system.

Reconstruction reads only the measure's lattice and its moments: every
pairing entry, Wick value and Monte Carlo variance is one call of
measure.moment(sites, source), so this module knows nothing of how a
measure computes them.  The one exception is check_reflection_intertwining,
whose Wick-level gram is the closed form site_power_moments of the
covariance.

The time shift by one or more lattice steps acts on monomials exactly
(times move, coefficients do not), so the shifted basis can be re-expanded
through the same pairing.  The resulting matrix is the transfer operator:
a self-adjoint contraction whose logarithm gives the Hamiltonian.  For the
Ornstein-Uhlenbeck measure the construction reproduces the harmonic
oscillator spectrum 0, m, 2m, ... exactly, at any lattice spacing.

Multiplication operators used by the n-point identity are compressed at
the first positive site.  For a stationary Markov measure this compression
is exact on classes whenever the total polynomial degree stays within the
basis budget, which is what makes the operator product

    <vacuum, A_1 exp(-(t_2-t_1) H) A_2 ... A_n vacuum>

reproduce the Euclidean moment E[A_1(q(t_1)) ... A_n(q(t_n))] to rounding.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CheckFailure
from .lattice import (
    GaussianEuclideanMeasure,
    LatticeMismatchError,
    TestFunction,
    TimeLattice,
    sample_path_matrix,
)
from .moments import site_power_moments
from .textio import fmt

NULL_CUT_RTOL = 1.0e-10
GRAM_SYMMETRY_RTOL = 1.0e-12
CONTRACTION_TOL = 1.0e-10
REPRESENTABILITY_RTOL = 1.0e-8

KIND_MONOMIAL = "field_monomial"
KIND_EXPONENTIAL = "exponential"


class ReflectionPositivityError(CheckFailure):
    """The reflected Gram came out indefinite; no quotient space exists."""


class ShiftRangeError(ValueError):
    """A requested time shift pushes basis support off the lattice."""


class RepresentabilityError(CheckFailure):
    """A shifted functional is not exactly expandable in the basis span."""


class SpectrumError(CheckFailure):
    """Transfer matrix is not positive definite; no Hamiltonian logarithm."""


class OperatorBoundError(CheckFailure):
    """The reflected Gram or the transfer matrix broke its symmetry or
    contraction bound."""


@dataclass(frozen=True)
class ObservableFunctional:
    """One basis functional: a field monomial or an exponential.

    Monomials carry (times, degrees); exponentials carry a positive-time
    test function.  Times must be strictly positive lattice sites.
    """

    kind: str
    times: tuple = ()
    degrees: tuple = ()
    test_function: TestFunction | None = None

    def __post_init__(self):
        if self.kind == KIND_MONOMIAL:
            if len(self.times) != len(self.degrees):
                raise ValueError("times and degrees must have equal length")
            for t in self.times:
                if not (t > 0.0):
                    raise ValueError("monomial time %r is not strictly positive" % (t,))
            for d in self.degrees:
                if d < 1 or int(d) != d:
                    raise ValueError("degrees must be positive integers, got %r" % (d,))
        elif self.kind == KIND_EXPONENTIAL:
            if self.test_function is None or not self.test_function.in_dplus:
                raise ValueError(
                    "exponential functionals need a positive-time test function"
                )
        else:
            raise ValueError("unknown functional kind %r" % (self.kind,))

    @property
    def total_degree(self) -> int:
        return int(sum(self.degrees)) if self.kind == KIND_MONOMIAL else 0

    def shifted(self, dt: float) -> "ObservableFunctional":
        if self.kind == KIND_MONOMIAL:
            return ObservableFunctional(
                KIND_MONOMIAL,
                tuple(t + dt for t in self.times),
                self.degrees,
            )
        lattice = self.test_function.lattice
        steps = lattice.step_count(dt)
        c = self.test_function.coeffs
        if steps >= 0:
            if steps and np.max(np.abs(c[lattice.n_points - steps :])) != 0.0:
                raise ShiftRangeError("exponential support leaves the lattice")
            shifted = np.roll(c, steps)
            if steps:
                shifted[:steps] = 0.0
        else:
            raise ShiftRangeError("negative shifts leave the positive-time cone")
        return ObservableFunctional(
            KIND_EXPONENTIAL, test_function=TestFunction(lattice, shifted)
        )

    def describe(self) -> str:
        if self.kind == KIND_MONOMIAL:
            if not self.times:
                return "1"
            return "*".join(
                "q(%s)^%d" % (fmt(t), d) if d > 1 else "q(%s)" % fmt(t)
                for t, d in zip(self.times, self.degrees)
            )
        return "exp(i q(f))"


def constant_functional() -> ObservableFunctional:
    return ObservableFunctional(KIND_MONOMIAL, (), ())


def monomial(times: Sequence[float], degrees: Sequence[int]) -> ObservableFunctional:
    """Normalized monomial: times sorted, repeated times merged."""
    acc: dict[float, int] = {}
    for t, d in zip(times, degrees):
        acc[float(t)] = acc.get(float(t), 0) + int(d)
    ts = tuple(sorted(acc))
    return ObservableFunctional(KIND_MONOMIAL, ts, tuple(acc[t] for t in ts))


def monomial_basis(
    times: Sequence[float], max_degree: int
) -> list[ObservableFunctional]:
    """All monomials over the time subset with total degree <= max_degree.

    Ordered by (total degree, time multiset), starting with the constant.
    """
    times = sorted(set(float(t) for t in times))
    basis = [constant_functional()]
    for deg in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(times, deg):
            basis.append(monomial(combo, [1] * deg))
    return basis


def _validate_functional(lattice: TimeLattice, f: ObservableFunctional) -> None:
    if f.kind == KIND_MONOMIAL:
        for t in f.times:
            lattice.index_of_time(t)
    else:
        if f.test_function.lattice != lattice:
            raise LatticeMismatchError("functional lattice does not match measure")


def _factors(lattice: TimeLattice, f: ObservableFunctional, reflect: bool = False) -> tuple:
    """(sites, source) of f: the lattice sites of its field factors, each
    repeated by its degree, and None for a monomial; () and the source that
    exp(i q(f)) puts on the lattice sites for an exponential.  With reflect
    set, times are reflected and the exponential conjugated, as the left
    side of a pairing needs: conj(exp(i q(f))) = exp(-i q(f)) for real f,
    and reflection mirrors the coefficients."""
    if f.kind == KIND_EXPONENTIAL:
        h, c = lattice.spacing, f.test_function.coeffs
        source = np.zeros(lattice.n_points, dtype=complex)
        if reflect:
            source -= h * c[::-1]
        else:
            source += h * c
        return (), source
    sites: list[int] = []
    for t, d in zip(f.times, f.degrees):
        sites.extend([lattice.index_of_time(-t if reflect else t)] * int(d))
    return tuple(sites), None


def _pairing_matrix(
    measure: GaussianEuclideanMeasure,
    left: Sequence[ObservableFunctional],
    right: Sequence[ObservableFunctional],
) -> np.ndarray:
    """Complex M[j,k] = <left_j, right_k> = E[conj(left_j at reflected times)
    * right_k], exact: one measure moment per entry, over both sides' sites
    with both sides' sources summed.  Each functional's factors are resolved
    once."""
    lattice = measure.lattice
    left_factors = [_factors(lattice, f, reflect=True) for f in left]
    right_factors = [_factors(lattice, g) for g in right]
    M = np.zeros((len(left), len(right)), dtype=complex)
    for j, (left_sites, left_source) in enumerate(left_factors):
        for k, (right_sites, right_source) in enumerate(right_factors):
            if left_source is None or right_source is None:
                source = right_source if left_source is None else left_source
            else:
                source = left_source + right_source
            M[j, k] = measure.moment(left_sites + right_sites, source)
    return M


def reflected_gram(
    measure: GaussianEuclideanMeasure, basis: Sequence[ObservableFunctional]
) -> np.ndarray:
    G = _pairing_matrix(measure, basis, basis)
    if np.max(np.abs(G.imag)) == 0.0:
        G = G.real
    return G


@dataclass(frozen=True)
class ReconstructedSpace:
    """Quotient of the positive-time span by the null space of the pairing.

    Physical coordinates of a basis vector x are sqrt(eigenvalues) *
    (eigenvectors^H x), in which the reflected pairing becomes the standard
    inner product.  vacuum holds the physical coordinates of the constant
    functional.
    """

    measure: GaussianEuclideanMeasure
    basis: tuple
    gram: np.ndarray
    null_tolerance: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    physical_dim: int
    vacuum: np.ndarray

    def compress(self, M: np.ndarray) -> np.ndarray:
        """Physical matrix of an operator whose basis pairing matrix is M:
        lam^(-1/2) V^H M V lam^(-1/2) over the kept eigenpairs."""
        V = self.eigenvectors
        inv_sqrt = 1.0 / np.sqrt(self.eigenvalues)
        return (inv_sqrt[:, None] * (V.conj().T @ M @ V)) * inv_sqrt[None, :]


def build_physical_space(
    measure: GaussianEuclideanMeasure,
    basis: Sequence[ObservableFunctional] | None = None,
    times: Sequence[float] | None = None,
    max_degree: int = 3,
    exponentials: Sequence[TestFunction] = (),
) -> ReconstructedSpace:
    """Quotient construction from the reflected Gram over a basis.

    Either pass an explicit basis, or a positive-time subset plus a degree
    bound to span all monomials over it.  The constant functional is always
    included (prepended when missing) so the vacuum class is represented.
    Raises ReflectionPositivityError if the Gram dips below -NULL_CUT_RTOL
    relative, which is exactly a reflection-positivity violation.
    """
    if basis is None:
        if times is None:
            raise ValueError("need either an explicit basis or a time subset")
        basis = monomial_basis(times, max_degree)
        basis.extend(
            ObservableFunctional(KIND_EXPONENTIAL, test_function=f)
            for f in exponentials
        )
    basis = list(basis)
    if not any(
        f.kind == KIND_MONOMIAL and f.total_degree == 0 for f in basis
    ):
        basis.insert(0, constant_functional())
    for f in basis:
        _validate_functional(measure.lattice, f)

    G = reflected_gram(measure, basis)
    scale = float(np.max(np.abs(G))) or 1.0
    asym = float(np.max(np.abs(G - G.conj().T)))
    if not asym <= GRAM_SYMMETRY_RTOL * scale:
        raise OperatorBoundError("reflected Gram asymmetry %.3e beyond tolerance" % asym)
    H = 0.5 * (G + G.conj().T)
    w, V = np.linalg.eigh(H)
    lam_max = float(w[-1]) if len(w) else 0.0
    if lam_max <= 0.0:
        raise ReflectionPositivityError("reflected Gram has no positive part")
    cut = NULL_CUT_RTOL * lam_max
    if float(w[0]) < -cut:
        raise ReflectionPositivityError(
            "reflected Gram is indefinite (min eigenvalue %.6e): "
            "measure is not reflection positive on this basis" % float(w[0])
        )
    keep = w > cut
    lam = w[keep]
    vecs = V[:, keep]
    # descending eigenvalue order, for a deterministic coordinate layout
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]
    const_idx = next(
        i for i, f in enumerate(basis)
        if f.kind == KIND_MONOMIAL and f.total_degree == 0
    )
    vacuum = np.sqrt(lam) * vecs[const_idx].conj()
    return ReconstructedSpace(
        measure=measure,
        basis=tuple(basis),
        gram=G,
        null_tolerance=NULL_CUT_RTOL,
        eigenvalues=lam,
        eigenvectors=vecs,
        physical_dim=int(lam.shape[0]),
        vacuum=vacuum,
    )


def _shift_pairing_matrix(
    space: ReconstructedSpace, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """M[j,k] = <basis_j, basis_k shifted by dt> and the shifted self-pairings."""
    measure = space.measure
    lattice = measure.lattice
    lattice.step_count(dt)  # enforce lattice multiple
    shifted = []
    for f in space.basis:
        g = f.shifted(dt)
        if g.kind == KIND_MONOMIAL:
            for t in g.times:
                if t > lattice.max_time + 1.0e-12:
                    raise ShiftRangeError(
                        "shift %s pushes support time %s beyond the last site %s"
                        % (fmt(dt), fmt(t), fmt(lattice.max_time))
                    )
        shifted.append(g)
    M = _pairing_matrix(measure, space.basis, shifted)
    self_norms = np.array([_pairing_matrix(measure, [g], [g])[0, 0].real for g in shifted])
    if np.max(np.abs(M.imag)) == 0.0:
        M = M.real
    return M, self_norms


def transfer_operator(
    space: ReconstructedSpace,
    step: float,
    exact: bool = True,
    contraction_tol: float = CONTRACTION_TOL,
) -> np.ndarray:
    """Matrix of the time shift by `step` on the physical space.

    step must be a nonnegative multiple of the lattice spacing small enough
    that every shifted basis time stays on the grid.  With exact=True (the
    default) each shifted functional must lie in the basis span modulo null
    vectors, verified through its pairing norm; a failed check raises
    RepresentabilityError rather than silently projecting.  The result is
    then symmetrized after a machine-level asymmetry check: a shift that
    compresses to a visibly non-symmetric matrix (the pinned-boundary free
    field does this, because the measure is not shift invariant) is
    rejected rather than averaged over.  exact=False performs the plain
    orthogonal compression and returns the raw, possibly non-symmetric
    matrix so finite-volume effects stay visible; the contraction bound is
    still enforced against contraction_tol, which such callers may need to
    relax.
    """
    if step < 0:
        raise ShiftRangeError("transfer step must be nonnegative")
    M, self_norms = _shift_pairing_matrix(space, step)
    T = np.real_if_close(space.compress(M), tol=100)
    if exact:
        # projection coefficients b solve G b = M[:,k] on the kept space;
        # the projected norm must exhaust the shifted functional's norm
        inv_sqrt = 1.0 / np.sqrt(space.eigenvalues)
        proj = (space.eigenvectors.conj().T @ M) * inv_sqrt[:, None]
        captured = np.real(np.sum(np.conj(proj) * proj, axis=0))
        for k in range(M.shape[1]):
            ref = max(self_norms[k], 1.0e-300)
            defect = abs(self_norms[k] - captured[k]) / ref
            if not defect <= REPRESENTABILITY_RTOL:
                raise RepresentabilityError(
                    "shifted functional %s is not representable in the basis "
                    "span (norm defect %.3e)"
                    % (space.basis[k].shifted(step).describe(), defect)
                )
        asym = float(np.max(np.abs(T - T.conj().T)))
        scale = float(np.max(np.abs(T))) or 1.0
        if not asym <= 1.0e-8 * scale:
            raise OperatorBoundError("transfer matrix asymmetry %.3e beyond tolerance" % asym)
        T = 0.5 * (T + T.conj().T)
    if not np.all(np.isfinite(T)):
        raise OperatorBoundError("transfer matrix has non-finite entries")
    norm = float(np.linalg.norm(T, 2))
    if not norm <= 1.0 + contraction_tol:
        raise OperatorBoundError(
            "transfer operator norm %.17g exceeds 1 + %.1e" % (norm, contraction_tol)
        )
    return T


@dataclass(frozen=True)
class HamiltonianResult:
    """Hamiltonian from the transfer logarithm, ground state shifted to 0."""

    matrix: np.ndarray  # shifted: ground eigenvalue exactly 0
    raw_spectrum: np.ndarray
    spectrum: np.ndarray  # shifted, ascending
    ground_energy: float
    step: float


def extract_hamiltonian(
    space: ReconstructedSpace, transfer: np.ndarray, step: float
) -> HamiltonianResult:
    """H = -(1/step) log(transfer), via the symmetric eigendecomposition.

    Requires a positive-definite transfer matrix; the minimum transfer
    eigenvalue is reported when the logarithm does not exist.
    """
    if step <= 0:
        raise ValueError("step must be positive to extract a Hamiltonian")
    T = np.asarray(transfer)
    w, Q = np.linalg.eigh(0.5 * (T + T.conj().T))
    if w[0] <= 0.0:
        raise SpectrumError(
            "transfer is not positive definite (min eigenvalue %.6e); "
            "no real Hamiltonian logarithm" % float(w[0])
        )
    energies = -np.log(w) / step
    raw = np.sort(energies)
    ground = float(raw[0])
    shifted = raw - ground
    Hmat = (Q * ((energies - ground)[None, :])) @ Q.conj().T
    Hmat = 0.5 * (Hmat + Hmat.conj().T)
    return HamiltonianResult(
        matrix=Hmat,
        raw_spectrum=raw,
        spectrum=shifted,
        ground_energy=ground,
        step=float(step),
    )


# -- multiplication compression and the n-point identity ---------------------

def multiplication_operator(
    space: ReconstructedSpace,
    coefficients: Sequence[float],
    at_time: float | None = None,
) -> np.ndarray:
    """Physical matrix of multiplication by a polynomial in q(at_time).

    coefficients[d] multiplies q^d.  at_time defaults to the first positive
    site, which keeps the compression compatible with the transfer
    semigroup for Markov measures.
    """
    lattice = space.measure.lattice
    tau = 0.5 * lattice.spacing if at_time is None else float(at_time)
    lattice.index_of_time(tau)
    basis = space.basis
    if any(f.kind != KIND_MONOMIAL for f in basis):
        raise ValueError("multiplication compression requires monomial basis")
    # M stays complex even when its entries are real: the real product
    # V^H M V takes another BLAS path and rounds differently
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for d, coeff in enumerate(coefficients):
        if coeff != 0.0:
            targets = [monomial(f.times + (tau,), f.degrees + (d,)) if d else f for f in basis]
            M += coeff * _pairing_matrix(space.measure, basis, targets)
    return np.real_if_close(space.compress(M), tol=100)


@dataclass(frozen=True)
class NPointReport:
    """Three-way comparison of one Euclidean n-point function."""

    times: tuple
    degrees: tuple
    lhs_operator: float
    rhs_wick: float
    rhs_mc: float | None
    mc_se: float | None
    n_samples: int

    @property
    def operator_vs_wick(self) -> float:
        scale = max(abs(self.rhs_wick), 1.0e-12)
        return abs(self.lhs_operator - self.rhs_wick) / scale

    @property
    def mc_sigma_deviation(self) -> float | None:
        if self.rhs_mc is None:
            return None
        if self.mc_se == 0.0:
            return 0.0 if self.rhs_mc == self.rhs_wick else float("inf")
        return abs(self.rhs_mc - self.rhs_wick) / self.mc_se


def verify_npoint_identity(
    space: ReconstructedSpace,
    times: Sequence[float],
    degrees: Sequence[int],
    n_samples: int = 0,
    seed: int = 0,
) -> NPointReport:
    """Check <vacuum, A_1 e^{-dt H} A_2 ... vacuum> against the Wick moment.

    The observables are A_k = q^degrees[k] inserted at times[k]; times must
    be nondecreasing and strictly positive.  The operator side chains
    compressed multiplications with transfer factors over the gaps.  The
    Wick side is the measure's moment E[F], F = prod q(t_k)^d_k.  With
    n_samples > 0 a Monte Carlo arm is added: rhs_mc, the mean of F over
    n_samples paths of sample_path_matrix, and mc_se, the exact standard
    deviation of that mean, sqrt((E[F^2] - E[F]^2) / n_samples) from the
    measure's moments (a rounding-negative variance reads 0).  The sample
    standard error of a heavy-tailed product like q^4 comes out small in
    just the draws whose mean is far off, so its z-scores have heavier tails
    than the normal the sigma gate assumes; the exact one does not.
    """
    times = [float(t) for t in times]
    degrees = [int(d) for d in degrees]
    if len(times) != len(degrees) or not times:
        raise ValueError("times and degrees must be equal-length, nonempty")
    if any(t <= 0.0 for t in times):
        raise ValueError("all observable times must be strictly positive")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("observable times must be nondecreasing")
    lattice = space.measure.lattice
    for t in times:
        lattice.index_of_time(t)

    # operator side, built right to left; each factor is built once
    multiply: dict[int, np.ndarray] = {}
    shift: dict[float, np.ndarray] = {}
    vec = space.vacuum.copy()
    for k in range(len(times) - 1, -1, -1):
        d = degrees[k]
        if d not in multiply:
            multiply[d] = multiplication_operator(space, [0.0] * d + [1.0])
        vec = multiply[d] @ vec
        if k > 0:
            gap = times[k] - times[k - 1]
            if gap not in shift:
                shift[gap] = transfer_operator(space, gap)
            vec = shift[gap] @ vec
    lhs = float(np.real(np.vdot(space.vacuum, vec)))

    idx: list[int] = []
    for t, d in zip(times, degrees):
        idx.extend([lattice.index_of_time(t)] * d)
    measure = space.measure
    rhs = measure.moment(idx).real

    rhs_mc = None
    mc_se = None
    if n_samples:
        paths = sample_path_matrix(measure, n_samples, seed)
        vals = np.ones(paths.shape[0])
        for t, d in zip(times, degrees):
            vals = vals * paths[:, lattice.index_of_time(t)] ** d
        rhs_mc = float(np.mean(vals))
        variance = measure.moment(idx + idx).real - rhs * rhs
        mc_se = float(np.sqrt(max(variance, 0.0) / n_samples))
    return NPointReport(
        times=tuple(times),
        degrees=tuple(degrees),
        lhs_operator=lhs,
        rhs_wick=rhs,
        rhs_mc=rhs_mc,
        mc_se=mc_se,
        n_samples=int(n_samples),
    )


# -- reflection / shift intertwining ------------------------------------------

@dataclass(frozen=True)
class IntertwiningReport:
    """Residuals for the reflection and shift relations on a monomial family.

    involution_defect: J applied twice versus the identity (exact permutation
    arithmetic, should be 0).  intertwining_defect: J U(t) - U(-t) J in the
    family's matrix representation.  unitarity_defect: largest deviation of
    the L2 Gram under shifts and under reflection (Wick level), relative to
    the Gram's largest entry.
    """

    involution_defect: float
    intertwining_defect: float
    unitarity_defect: float
    shifts_checked: tuple


def check_reflection_intertwining(
    measure: GaussianEuclideanMeasure,
    max_degree: int = 2,
    shifts: Sequence[int] = (1, 2),
    break_reflection: bool = False,
) -> IntertwiningReport:
    """Verify J^2 = id and J U(t) = U(-t) J on single-site monomials.

    The family is F_i = q(t_j)^d over every site j and 1 <= d <= max_degree,
    member i = (d - 1) n + j.  Reflection and shifts act on it as index maps,
    never as matrices: J sends F_i to sign[i] F_refl[i], with refl[i] =
    (d - 1) n + (n - 1 - j), and U(s) moves site j to j + s.  A shift is
    checked on the members whose j + s and j - s both stay on the grid, and
    J U(s) is compared with U(-s) J member by member, by target index and
    sign.  break_reflection sets the sign of q(t_{n-1}) to -1, the
    documented negative control: the intertwining residual is then 2.

    The Wick-level unitarity checks use the gram G = E[F_i F_k], built one
    degree block at a time from the closed form site_power_moments (odd
    blocks vanish and are skipped) and reduced at once: under reflection
    sign[i] sign[k] G[refl i, refl k] - G, under each shift G on the
    shifted members minus G on the members.  The check makes no call to
    the moment recursion and holds a few n x n arrays at a time; with one
    BLAS thread a degree-2 call takes about 0.07 s at n 1024 and 1.7 s at
    n 4096.
    Raises ShiftRangeError for a shift that leaves no member on the grid.
    """
    lattice = measure.lattice
    n = lattice.n_points
    i = np.arange(n * max_degree)
    j = i % n
    refl = i - j + lattice.reflect_index(j)
    sign = np.ones(len(i))
    if break_reflection:
        sign[n - 1] = -1.0
    inv_defect = float(np.max(np.abs(sign * sign[refl] - 1.0)))

    inter = 0.0
    for s in shifts:
        ok = i[(abs(s) <= j) & (j < n - abs(s))]
        if not ok.size:
            raise ShiftRangeError("shift %d leaves no family member on the grid" % s)
        up = ok + s
        # columns of J U(s) and U(-s) J: unit vectors at these targets, signed
        same = refl[up] == refl[ok] - s
        inter = max(inter, float(np.max(np.where(same, np.abs(sign[up] - sign[ok]), 1.0))))

    scale = 0.0
    unit = 0.0
    for a in range(1, max_degree + 1):
        for b in range(2 - a % 2, max_degree + 1, 2):
            G = site_power_moments(measure.covariance, a, b)
            scale = max(scale, float(np.max(np.abs(G))))
            R = G[::-1, ::-1] * sign[(a - 1) * n : a * n, None]
            R *= sign[None, (b - 1) * n : b * n]
            R -= G
            unit = max(unit, float(np.max(np.abs(R, out=R))))
            for s in shifts:
                lo, hi = abs(s), n - abs(s)
                D = G[lo + s : hi + s, lo + s : hi + s] - G[lo:hi, lo:hi]
                unit = max(unit, float(np.max(np.abs(D, out=D))))
    return IntertwiningReport(
        involution_defect=inv_defect,
        intertwining_defect=inter,
        unitarity_defect=unit / (scale or 1.0),
        shifts_checked=tuple(int(s) for s in shifts),
    )

