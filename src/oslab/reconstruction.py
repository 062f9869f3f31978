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

from .lattice import (
    GaussianEuclideanMeasure,
    LatticeMismatchError,
    TestFunction,
    TimeLattice,
    sample_path_matrix,
)
from .moments import gaussian_monomial_with_source, isserlis_moment
from .textio import atomic_write, fmt, matrix_lines

NULL_CUT_RTOL = 1.0e-10
GRAM_SYMMETRY_RTOL = 1.0e-12
CONTRACTION_TOL = 1.0e-10
REPRESENTABILITY_RTOL = 1.0e-8

KIND_MONOMIAL = "field_monomial"
KIND_EXPONENTIAL = "exponential"


class ReflectionPositivityError(ValueError):
    """The reflected Gram came out indefinite; no quotient space exists."""


class ShiftRangeError(ValueError):
    """A requested time shift pushes basis support off the lattice."""


class RepresentabilityError(ValueError):
    """A shifted functional is not exactly expandable in the basis span."""


class SpectrumError(ValueError):
    """Transfer matrix is not positive definite; no Hamiltonian logarithm."""


class OperatorBoundError(ValueError):
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


def _sites(lattice: TimeLattice, f: ObservableFunctional, reflect: bool = False) -> tuple:
    """Lattice sites of f's field factors, each repeated by its degree, at
    reflected times when reflect is set; () for an exponential."""
    if f.kind != KIND_MONOMIAL:
        return ()
    sites: list[int] = []
    for t, d in zip(f.times, f.degrees):
        sites.extend([lattice.index_of_time(-t if reflect else t)] * int(d))
    return tuple(sites)


def _pairing(
    measure: GaussianEuclideanMeasure,
    left: ObservableFunctional,
    left_sites: tuple,
    right: ObservableFunctional,
    right_sites: tuple,
) -> complex:
    """<left, right> = E[conj(left at reflected times) * right], exact.

    left_sites and right_sites are the functionals' _sites, reflected on the
    left; callers resolve them once per matrix.  Source-free pairings share
    the measure's moment memo.
    """
    source = None
    if left.kind == KIND_EXPONENTIAL or right.kind == KIND_EXPONENTIAL:
        # conj(exp(i q(f))) = exp(-i q(f)) for real f; reflection moves the
        # coefficients to mirrored sites.  Combine both sides into one
        # source vector over lattice sites, scaled by the smearing factor h.
        lattice = measure.lattice
        h = lattice.spacing
        source = np.zeros(lattice.n_points, dtype=complex)
        if left.kind == KIND_EXPONENTIAL:
            c = left.test_function.coeffs
            source -= h * c[::-1]
        if right.kind == KIND_EXPONENTIAL:
            source += h * right.test_function.coeffs
    return gaussian_monomial_with_source(
        measure.covariance, left_sites + right_sites, source, memo=measure.moment_memo
    )


def reflected_gram(
    measure: GaussianEuclideanMeasure, basis: Sequence[ObservableFunctional]
) -> np.ndarray:
    lattice = measure.lattice
    left = [_sites(lattice, f, reflect=True) for f in basis]
    right = [_sites(lattice, f) for f in basis]
    n = len(basis)
    G = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            G[j, k] = _pairing(measure, basis[j], left[j], basis[k], right[k])
    if np.max(np.abs(G.imag)) == 0.0:
        G = G.real
    return G


@dataclass(frozen=True)
class ReconstructedSpace:
    """Quotient of the positive-time span by the null space of the pairing.

    to_physical maps basis coordinates to orthonormal physical coordinates;
    its rows are kept eigenvectors scaled by sqrt(eigenvalue), so the
    reflected pairing becomes the standard inner product.  vacuum is the
    physical image of the constant functional.
    """

    measure: GaussianEuclideanMeasure
    basis: tuple
    gram: np.ndarray
    null_tolerance: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    physical_dim: int
    to_physical: np.ndarray
    vacuum: np.ndarray

    def kept(self) -> tuple[np.ndarray, np.ndarray]:
        return self.eigenvalues, self.eigenvectors


def build_physical_space(
    measure: GaussianEuclideanMeasure,
    basis: Sequence[ObservableFunctional] | None = None,
    times: Sequence[float] | None = None,
    max_degree: int = 3,
    exponentials: Sequence[TestFunction] = (),
    null_rtol: float = NULL_CUT_RTOL,
) -> ReconstructedSpace:
    """Quotient construction from the reflected Gram over a basis.

    Either pass an explicit basis, or a positive-time subset plus a degree
    bound to span all monomials over it.  The constant functional is always
    included (prepended when missing) so the vacuum class is represented.
    Raises ReflectionPositivityError if the Gram dips below -null_rtol
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
    if asym > GRAM_SYMMETRY_RTOL * scale:
        raise OperatorBoundError("reflected Gram asymmetry %.3e beyond tolerance" % asym)
    H = 0.5 * (G + G.conj().T)
    w, V = np.linalg.eigh(H)
    lam_max = float(w[-1]) if len(w) else 0.0
    if lam_max <= 0.0:
        raise ReflectionPositivityError("reflected Gram has no positive part")
    cut = null_rtol * lam_max
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
    to_physical = np.sqrt(lam)[:, None] * vecs.conj().T
    const_idx = next(
        i for i, f in enumerate(basis)
        if f.kind == KIND_MONOMIAL and f.total_degree == 0
    )
    vacuum = to_physical[:, const_idx].copy()
    return ReconstructedSpace(
        measure=measure,
        basis=tuple(basis),
        gram=G,
        null_tolerance=null_rtol,
        eigenvalues=lam,
        eigenvectors=vecs,
        physical_dim=int(lam.shape[0]),
        to_physical=to_physical,
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
    left = [_sites(lattice, f, reflect=True) for f in space.basis]
    right = [_sites(lattice, g) for g in shifted]
    n = len(space.basis)
    M = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            M[j, k] = _pairing(measure, space.basis[j], left[j], shifted[k], right[k])
    self_norms = np.array([
        _pairing(measure, g, _sites(lattice, g, reflect=True), g, right[k]).real
        for k, g in enumerate(shifted)
    ])
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
    lam, V = space.kept()
    inv_sqrt = 1.0 / np.sqrt(lam)
    T = (inv_sqrt[:, None] * (V.conj().T @ M @ V)) * inv_sqrt[None, :]
    T = np.real_if_close(T, tol=100)
    if exact:
        # projection coefficients b solve G b = M[:,k] on the kept space;
        # the projected norm must exhaust the shifted functional's norm
        proj = (V.conj().T @ M) * inv_sqrt[:, None]
        captured = np.real(np.sum(np.conj(proj) * proj, axis=0))
        for k in range(M.shape[1]):
            ref = max(self_norms[k], 1.0e-300)
            defect = abs(self_norms[k] - captured[k]) / ref
            if defect > REPRESENTABILITY_RTOL:
                raise RepresentabilityError(
                    "shifted functional %s is not representable in the basis "
                    "span (norm defect %.3e); use exact=False to compress"
                    % (space.basis[k].describe(), defect)
                )
        asym = float(np.max(np.abs(T - T.conj().T)))
        scale = float(np.max(np.abs(T))) or 1.0
        if asym > 1.0e-8 * scale:
            raise OperatorBoundError("transfer matrix asymmetry %.3e beyond tolerance" % asym)
        T = 0.5 * (T + T.conj().T)
    norm = float(np.linalg.norm(T, 2))
    if norm > 1.0 + contraction_tol:
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
    left = [_sites(lattice, f, reflect=True) for f in space.basis]
    n = len(space.basis)
    M = np.zeros((n, n), dtype=complex)
    for k, fk in enumerate(space.basis):
        if fk.kind != KIND_MONOMIAL:
            raise ValueError("multiplication compression requires monomial basis")
        for d, coeff in enumerate(coefficients):
            if coeff == 0.0:
                continue
            target = monomial(fk.times + (tau,), fk.degrees + (d,)) if d else fk
            target_sites = _sites(lattice, target)
            for j, fj in enumerate(space.basis):
                M[j, k] += coeff * _pairing(space.measure, fj, left[j], target, target_sites)
    lam, V = space.kept()
    inv_sqrt = 1.0 / np.sqrt(lam)
    A = (inv_sqrt[:, None] * (V.conj().T @ M @ V)) * inv_sqrt[None, :]
    return np.real_if_close(A, tol=100)


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
    Wick side evaluates E[prod q(t_k)^d_k] directly from the covariance.
    With n_samples > 0 a Monte-Carlo arm is added with its standard error.
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
    rhs = float(isserlis_moment(measure.covariance, idx, memo=measure.moment_memo))

    rhs_mc = None
    mc_se = None
    if n_samples:
        paths = sample_path_matrix(space.measure, n_samples, seed)
        vals = np.ones(paths.shape[0])
        for t, d in zip(times, degrees):
            vals = vals * paths[:, lattice.index_of_time(t)] ** d
        rhs_mc = float(np.mean(vals))
        mc_se = float(np.std(vals, ddof=1) / np.sqrt(n_samples))
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
    the L2 Gram under shifts and under reflection (Wick level).
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

    The family is q(t_j)^d over every site and 1 <= d <= max_degree.  Shifts
    and reflection act as index permutations, restricted to members whose
    shifted support stays on the grid; the Gram E[conj(F_j) F_k] supplies
    the Wick-level unitarity checks.  break_reflection flips the sign of
    one basis vector inside J, the documented negative control: the
    intertwining residual should then be of order one.
    """
    lattice = measure.lattice
    n = lattice.n_points
    family = [(j, d) for d in range(1, max_degree + 1) for j in range(n)]
    index = {fd: i for i, fd in enumerate(family)}
    N = len(family)

    J = np.zeros((N, N))
    for (j, d), i in index.items():
        J[index[(lattice.reflect_index(j), d)], i] = 1.0
    if break_reflection:
        J[:, index[(n - 1, 1)]] *= -1.0

    inv_defect = float(np.max(np.abs(J @ J - np.eye(N))))

    G = np.zeros((N, N))
    for (j, dj), a in index.items():
        for (k, dk), b in index.items():
            G[a, b] = isserlis_moment(
                measure.covariance, [j] * dj + [k] * dk, memo=measure.moment_memo
            )

    inter = 0.0
    unit = float(np.max(np.abs(J.T @ G @ J - G))) / (float(np.max(np.abs(G))) or 1.0)
    for s in shifts:
        ok = [i for (j, d), i in index.items() if 0 <= j + s < n and 0 <= j - s < n]
        U = np.zeros((N, N))
        Um = np.zeros((N, N))
        for (j, d), i in index.items():
            if 0 <= j + s < n:
                U[index[(j + s, d)], i] = 1.0
            if 0 <= j - s < n:
                Um[index[(j - s, d)], i] = 1.0
        D = (J @ U - Um @ J)[:, ok]
        inter = max(inter, float(np.max(np.abs(D))) if D.size else 0.0)
        sub = np.ix_(ok, ok)
        GU = (U.T @ G @ U)[sub]
        unit = max(unit, float(np.max(np.abs(GU - G[sub]))) / (float(np.max(np.abs(G))) or 1.0))
    return IntertwiningReport(
        involution_defect=inv_defect,
        intertwining_defect=inter,
        unitarity_defect=unit,
        shifts_checked=tuple(int(s) for s in shifts),
    )


# -- serialization ------------------------------------------------------------

def space_to_text(space: ReconstructedSpace) -> str:
    lines = [
        "format: oslab-space v1",
        "n_points: %d" % space.measure.lattice.n_points,
        "spacing: %s" % fmt(space.measure.lattice.spacing),
        "kernel: %s" % space.measure.kernel,
        "mass: %s" % fmt(space.measure.mass),
        "basis_size: %d" % len(space.basis),
        "physical_dim: %d" % space.physical_dim,
        "null_tolerance: %s" % fmt(space.null_tolerance),
        "basis:",
    ]
    lines.extend("  " + f.describe() for f in space.basis)
    lines.append("gram_eigenvalues:")
    lines.append("  " + " ".join(fmt(x) for x in np.sort(np.real(space.eigenvalues))))
    lines.append("gram:")
    lines.extend(matrix_lines(np.real(space.gram)))
    return "\n".join(lines) + "\n"


def write_space(path: str, space: ReconstructedSpace) -> None:
    atomic_write(path, space_to_text(space))
