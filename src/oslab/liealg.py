"""Finite-dimensional Lie algebras, involutive splits, and the c-dual.

An algebra is stored as structure constants c[i][j][k] with

    [X_i, X_j] = sum_k c[i][j][k] X_k.

An involutive automorphism tau splits the algebra into fixed (+1) and
anti-fixed (-1) eigenspaces,  g = h + q,  with the bracket relations
[h,h] in h, [h,q] in q, [q,q] in h.  The c-dual keeps h and replaces q by
i*q; in a split-adapted basis this negates the h-valued part of the
[q,q] brackets and leaves everything else alone, and applying it twice
returns the original structure constants.

Hyperbolic cone checks validate that sampled elements of a convex cone in
q have real-diagonalizable adjoint action (real spectrum plus equal ranks
of (ad X - lambda) and its square per eigenvalue cluster), that the
interior witness is a strictly positive combination of the generators,
and that the cone is numerically invariant under the fixed subgroup.

Built-in instances, addressable by name:

    sl2R-cartan   sl(2,R) with tau(X) = -X^T          h = span{E-F}
    sl2R-adH      sl(2,R) with tau = Ad(diag(1,-1))   h = span{H}, cone E,F >= 0
    heisenberg    [X,Y] = Z, tau negating X and Y
    abelian-N     N-dimensional abelian, tau = -id
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm
from scipy.optimize import nnls

from .textio import atomic_write, fmt, parse_kv_text

STRUCTURE_TOL = 1.0e-12
EIGENVALUE_REALITY_RTOL = 1.0e-8
CLUSTER_RTOL = 1.0e-6
RANK_RTOL = 1.0e-8
CONE_RESIDUAL_TOL = 1.0e-6


class StructureError(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class InvolutionError(ValueError):
    """The proposed involution is not an involutive automorphism."""


class ConeError(ValueError):
    """A cone sample failed validation against its split."""


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants plus basis labels."""

    dim: int
    labels: tuple
    structure: np.ndarray  # c[i, j, k]

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constants must be dim^3")
        if len(self.labels) != self.dim:
            raise ValueError("need one label per basis element")
        object.__setattr__(self, "structure", c)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x): column j holds [x, X_j] in basis coordinates."""
        return np.einsum("i,ijk->kj", x, self.structure)


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_residual: float
    jacobi_residual: float


def validate_algebra(
    algebra: LieAlgebra, tol: float = STRUCTURE_TOL
) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity componentwise."""
    c = algebra.structure
    anti = float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))
    # coefficient of X_m in [X_i,[X_j,X_k]] + cyclic
    term = np.einsum("jkl,ilm->ijkm", c, c)
    jac = term + np.einsum("kil,jlm->ijkm", c, c) + np.einsum("ijl,klm->ijkm", c, c)
    jac_res = float(np.max(np.abs(jac))) if c.size else 0.0
    if anti > tol:
        raise StructureError("antisymmetry residual %.3e exceeds %.1e" % (anti, tol))
    if jac_res > tol:
        raise StructureError("Jacobi residual %.3e exceeds %.1e" % (jac_res, tol))
    return ValidationReport(anti, jac_res)


def change_basis(algebra: LieAlgebra, B: np.ndarray, labels=None) -> LieAlgebra:
    """Structure constants in the basis Y_i = sum_j B[i,j] X_j."""
    Binv = np.linalg.inv(B)
    c = np.einsum("ai,bj,ijk,ke->abe", B, B, algebra.structure, Binv)
    c[np.abs(c) < 1.0e-14] = 0.0
    if labels is None:
        labels = tuple("Y%d" % i for i in range(algebra.dim))
    return LieAlgebra(algebra.dim, tuple(labels), c)


@dataclass(frozen=True)
class Involution:
    """Linear involution on the algebra; columns are basis images."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))


@dataclass(frozen=True)
class InvolutionSplit:
    """Eigenspace decomposition g = h + q for an involutive automorphism."""

    algebra: LieAlgebra
    involution: Involution
    h_basis: np.ndarray  # rows span the +1 eigenspace
    q_basis: np.ndarray  # rows span the -1 eigenspace
    bracket_residual: float

    @property
    def h_dim(self) -> int:
        return self.h_basis.shape[0]

    @property
    def q_dim(self) -> int:
        return self.q_basis.shape[0]

    def q_projector(self) -> np.ndarray:
        return 0.5 * (np.eye(self.algebra.dim) - self.involution.matrix)


def _rref_rows(mat: np.ndarray, tol: float = 1.0e-10) -> np.ndarray:
    """Reduced-row-echelon basis of the row space.

    Keeps small-integer structure for the built-in examples exact, so the
    recorded basis changes stay reproducible to the bit.
    """
    A = np.array(mat, dtype=float)
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = r + int(np.argmax(np.abs(A[r:, c])))
        if abs(A[pivot, c]) <= tol:
            continue
        A[[r, pivot]] = A[[pivot, r]]
        A[r] = A[r] / A[r, c]
        for other in range(rows):
            if other != r:
                A[other] -= A[other, c] * A[r]
        r += 1
    basis = A[:r]
    basis[np.abs(basis) < tol] = 0.0
    return basis


def split_by_involution(
    algebra: LieAlgebra, involution: Involution, tol: float = STRUCTURE_TOL
) -> InvolutionSplit:
    """Split along the +1/-1 eigenspaces of an involutive automorphism.

    Validates tau^2 = id, the automorphism property tau[X,Y] = [tau X, tau Y],
    dimensional exhaustion, and the three bracket inclusions.
    """
    t = involution.matrix
    n = algebra.dim
    if t.shape != (n, n):
        raise InvolutionError("involution matrix shape %r does not match dim %d" % (t.shape, n))
    if float(np.max(np.abs(t @ t - np.eye(n)))) > tol:
        raise InvolutionError("tau^2 differs from the identity beyond %.1e" % tol)
    c = algebra.structure
    # [tau X_i, tau X_j] versus tau([X_i, X_j])
    lhs = np.einsum("ai,bj,abk->ijk", t, t, c)
    rhs = np.einsum("ijl,kl->ijk", c, t)
    if float(np.max(np.abs(lhs - rhs))) > tol:
        raise InvolutionError(
            "tau is not an automorphism (residual %.3e)" % float(np.max(np.abs(lhs - rhs)))
        )
    h = _rref_rows((0.5 * (np.eye(n) + t)).T)
    q = _rref_rows((0.5 * (np.eye(n) - t)).T)
    if h.shape[0] + q.shape[0] != n:
        raise InvolutionError(
            "eigenspaces of dimension %d + %d do not fill dimension %d"
            % (h.shape[0], q.shape[0], n)
        )
    Pq = 0.5 * (np.eye(n) - t)
    Ph = 0.5 * (np.eye(n) + t)
    residual = 0.0
    for a in h:
        for b in h:
            residual = max(residual, float(np.max(np.abs(Pq @ algebra.bracket(a, b)))))
    for a in h:
        for b in q:
            residual = max(residual, float(np.max(np.abs(Ph @ algebra.bracket(a, b)))))
    for a in q:
        for b in q:
            residual = max(residual, float(np.max(np.abs(Pq @ algebra.bracket(a, b)))))
    if residual > tol:
        raise InvolutionError("bracket relations fail by %.3e" % residual)
    return InvolutionSplit(algebra, involution, h, q, residual)


def adapted_algebra(split: InvolutionSplit) -> tuple[LieAlgebra, np.ndarray]:
    """Structure constants in the (h-basis, q-basis) ordered basis."""
    B = np.vstack([split.h_basis, split.q_basis])
    labels = ["h%d" % i for i in range(split.h_dim)] + [
        "q%d" % i for i in range(split.q_dim)
    ]
    return change_basis(split.algebra, B, labels), B


def c_dual(split: InvolutionSplit) -> LieAlgebra:
    """The dual algebra h + i*q in the split-adapted basis.

    Brackets inside h and between h and i*q keep their coefficients; the
    bracket of two i*q elements negates its h-valued coefficients:
    [iY, iY'] = -[Y, Y'].  Labels mark the rotated directions.
    """
    adapted, _ = adapted_algebra(split)
    p = split.h_dim
    c = adapted.structure.copy()
    c[p:, p:, :] *= -1.0
    labels = tuple(
        list(adapted.labels[:p]) + ["i*%s" % l for l in adapted.labels[p:]]
    )
    dual = LieAlgebra(adapted.dim, labels, c)
    validate_algebra(dual)
    return dual


def c_dual_involution(split: InvolutionSplit) -> Involution:
    """tau in the adapted basis: +1 on h, -1 on q.  Splitting the dual
    algebra with it and dualizing again recovers the adapted original."""
    n = split.algebra.dim
    d = np.ones(n)
    d[split.h_dim :] = -1.0
    return Involution(np.diag(d))


# -- hyperbolic cone checks ---------------------------------------------------

@dataclass(frozen=True)
class ConeSample:
    """A convex cone in q: generators, an interior witness, sample points.

    All vectors are in algebra basis coordinates and must lie in the -1
    eigenspace of the split's involution.
    """

    generators: np.ndarray  # rows
    interior_witness: np.ndarray
    sampled_points: np.ndarray  # rows


@dataclass(frozen=True)
class PointCheck:
    point: np.ndarray
    eigenvalues: np.ndarray
    max_imag: float
    semisimple: bool
    hyperbolic: bool
    reason: str


@dataclass(frozen=True)
class ConeCheckReport:
    point_checks: tuple
    witness_combination: np.ndarray
    witness_strictly_positive: bool
    invariance_residual: float
    all_hyperbolic: bool


def _rank(mat: np.ndarray, rtol: float = RANK_RTOL) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def check_hyperbolic_point(algebra: LieAlgebra, x: np.ndarray) -> PointCheck:
    """Real spectrum plus semisimplicity of ad(x).

    Semisimplicity is decided per eigenvalue cluster (radius scaled by
    ||ad x||) by comparing the rank of (ad x - lambda) with the rank of its
    square; a rank drop means a nontrivial Jordan block.
    """
    A = algebra.ad(np.asarray(x, dtype=float))
    norm = float(np.linalg.norm(A, 2)) or 1.0
    eig = np.linalg.eigvals(A)
    max_imag = float(np.max(np.abs(eig.imag))) if eig.size else 0.0
    if max_imag > EIGENVALUE_REALITY_RTOL * norm:
        return PointCheck(
            np.asarray(x, float), eig, max_imag, False, False,
            "complex eigenvalues (max imaginary part %.3e)" % max_imag,
        )
    clusters: list[float] = []
    for lam in np.sort(eig.real):
        if not clusters or abs(lam - clusters[-1]) > CLUSTER_RTOL * norm:
            clusters.append(float(lam))
    for lam in clusters:
        B = A - lam * np.eye(A.shape[0])
        if _rank(B) != _rank(B @ B):
            return PointCheck(
                np.asarray(x, float), eig, max_imag, False, False,
                "nilpotent part detected at eigenvalue %s" % fmt(lam),
            )
    return PointCheck(np.asarray(x, float), eig, max_imag, True, True, "hyperbolic")


def _nnls_residual(generators: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    coeffs, res = nnls(np.asarray(generators, float).T, np.asarray(target, float))
    return coeffs, float(res)


def hyperbolic_cone_check(
    split: InvolutionSplit,
    cone: ConeSample,
    h_samples: int = 8,
    seed: int = 0,
) -> ConeCheckReport:
    """Validate a cone sample against its split.

    Checks membership of every vector in q, hyperbolicity of the witness
    and each sampled point, strict positivity of the witness combination,
    and numerical invariance of the sampled points under exp(ad Z) for
    random Z in h (nonnegative-least-squares residual against the
    generator hull).
    """
    algebra = split.algebra
    Pq = split.q_projector()
    vectors = [cone.interior_witness] + list(cone.generators) + list(cone.sampled_points)
    for i, v in enumerate(vectors):
        v = np.asarray(v, dtype=float)
        if float(np.max(np.abs(Pq @ v - v))) > STRUCTURE_TOL * max(1.0, float(np.max(np.abs(v)))):
            raise ConeError("cone vector %d is not in the -1 eigenspace" % i)

    coeffs, res = _nnls_residual(cone.generators, cone.interior_witness)
    scale = float(np.max(np.abs(cone.interior_witness))) or 1.0
    strictly_positive = bool(np.all(coeffs > 0.0)) and res <= CONE_RESIDUAL_TOL * scale

    checks = [check_hyperbolic_point(algebra, cone.interior_witness)]
    checks.extend(check_hyperbolic_point(algebra, p) for p in cone.sampled_points)

    rng = np.random.default_rng(seed)
    inv_residual = 0.0
    if split.h_dim and len(cone.sampled_points):
        for _ in range(h_samples):
            z = rng.uniform(-1.0, 1.0, size=split.h_dim) @ split.h_basis
            flow = expm(algebra.ad(z))
            for p in cone.sampled_points:
                moved = flow @ np.asarray(p, float)
                _, r = _nnls_residual(cone.generators, moved)
                inv_residual = max(
                    inv_residual, r / (float(np.max(np.abs(moved))) or 1.0)
                )
    return ConeCheckReport(
        point_checks=tuple(checks),
        witness_combination=coeffs,
        witness_strictly_positive=strictly_positive,
        invariance_residual=inv_residual,
        all_hyperbolic=all(c.hyperbolic for c in checks),
    )


# -- semigroup membership for the 2x2 built-in --------------------------------

SL2_H = np.array([[1.0, 0.0], [0.0, -1.0]])
SL2_E = np.array([[0.0, 1.0], [0.0, 0.0]])
SL2_F = np.array([[0.0, 0.0], [1.0, 0.0]])


def _sl2_cone_matrix(b: float, c: float) -> np.ndarray:
    return b * SL2_E + c * SL2_F


def sl2_cone_factorize(s: np.ndarray) -> tuple[float, float, float, float]:
    """Factor s = diag(exp(t), exp(-t)) * exp(b E + c F) with b, c >= 0.

    Exists exactly when s has nonnegative entries and determinant one.
    Returns (t, b, c, residual); raises ValueError when the factorization
    equations have no admissible solution.
    """
    s = np.asarray(s, dtype=float)
    if abs(np.linalg.det(s) - 1.0) > 1.0e-8:
        raise ValueError("matrix determinant %s is not 1" % fmt(np.linalg.det(s)))
    if np.min(s) < -1.0e-12:
        raise ValueError("matrix has negative entries; outside the semigroup")
    c1sq = s[0, 0] * s[1, 1]
    if c1sq < 1.0 - 1.0e-12:
        raise ValueError("diagonal product %s below 1; no hyperbolic angle" % fmt(c1sq))
    c1 = np.sqrt(max(c1sq, 1.0))
    lam = s[0, 0] / c1
    if lam <= 0.0:
        raise ValueError("nonpositive scaling factor")
    beta = s[0, 1] / lam
    gamma = s[1, 0] * lam
    theta = np.arccosh(c1)
    if theta < 1.0e-12:
        b, c = beta, gamma
    else:
        ratio = theta / np.sinh(theta)
        b, c = beta * ratio, gamma * ratio
    rebuilt = np.diag([lam, 1.0 / lam]) @ expm(_sl2_cone_matrix(b, c))
    residual = float(np.max(np.abs(rebuilt - s)))
    return float(np.log(lam)), float(b), float(c), residual


@dataclass(frozen=True)
class MembershipReport:
    n_products: int
    n_success: int
    worst_residual: float
    failures: tuple  # (index, reason)

    @property
    def success_rate(self) -> float:
        return self.n_success / self.n_products if self.n_products else 1.0


def semigroup_membership_sample(
    n_products: int,
    seed: int,
    cone: str = "quadrant",
    scale: float = 1.0,
) -> MembershipReport:
    """Draw products of factored elements and re-factor each product.

    cone='quadrant' uses the invariant cone b E + c F with b, c >= 0: every
    product of two members must factor again (closure), and the recovered
    cone coordinates must be admissible.  cone='wedge' replaces it with the
    non-invariant wedge b E - c F (b, c >= 0), whose elements rotate rather
    than stretch; their products routinely leave the factorizable family,
    and failures are reported per sample, not raised.
    """
    if cone not in ("quadrant", "wedge"):
        raise ValueError("unknown cone name %r" % (cone,))
    sign = 1.0 if cone == "quadrant" else -1.0
    rng = np.random.default_rng(seed)
    failures = []
    worst = 0.0
    n_success = 0
    for i in range(n_products):
        ts = rng.uniform(-scale, scale, size=2)
        xs = rng.uniform(0.0, scale, size=(2, 2))
        mats = [
            np.diag([np.exp(t), np.exp(-t)]) @ expm(_sl2_cone_matrix(b, sign * c))
            for t, (b, c) in zip(ts, xs)
        ]
        product = mats[0] @ mats[1]
        try:
            _, b, c, residual = sl2_cone_factorize(product)
            if min(b, c) < -1.0e-10:
                raise ValueError("recovered cone coordinates are negative")
            worst = max(worst, residual)
            n_success += 1
        except ValueError as exc:
            failures.append((i, str(exc)))
    return MembershipReport(n_products, n_success, worst, tuple(failures))


# -- commutant dimension ------------------------------------------------------

def commutant_dimension(matrices: Sequence[np.ndarray], rtol: float = RANK_RTOL) -> int:
    """Dimension of {A : A M_i = M_i A for all i}, via the stacked kernel.

    vec(A M - M A) = (M^T kron I - I kron M) vec(A); singular values below
    rtol times the largest count as kernel directions.
    """
    mats = [np.asarray(M, dtype=float) for M in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].shape[0]
    for M in mats:
        if M.shape != (d, d):
            raise ValueError("matrices must share one square shape")
    eye = np.eye(d)
    blocks = [np.kron(M.T, eye) - np.kron(eye, M) for M in mats]
    stacked = np.vstack(blocks)
    s = np.linalg.svd(stacked, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return d * d
    rank = int(np.sum(s > rtol * s[0]))
    return d * d - rank


# -- built-in instances -------------------------------------------------------

def _sl2_structure() -> LieAlgebra:
    # basis order (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    return LieAlgebra(3, ("H", "E", "F"), c)


def _heisenberg() -> LieAlgebra:
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return LieAlgebra(3, ("X", "Y", "Z"), c)


# Basis change taking the c-dual of the sl2R-cartan split to the standard
# su(2) table [X_i, X_j] = eps_ijk X_k.  Rows act on the adapted basis
# (h0, i*q0, i*q1) = (E-F, i*H, i*(E+F)).
SU2_BASIS_CHANGE = np.array(
    [
        [-0.5, 0.0, 0.0],
        [0.0, 0.5, 0.0],
        [0.0, 0.0, 0.5],
    ]
)


def su2_structure() -> np.ndarray:
    """The epsilon_ijk table: [X_i, X_j] = sum_k eps_ijk X_k."""
    c = np.zeros((3, 3, 3))
    for i, j, k, sign in (
        (0, 1, 2, 1.0), (1, 0, 2, -1.0),
        (1, 2, 0, 1.0), (2, 1, 0, -1.0),
        (2, 0, 1, 1.0), (0, 2, 1, -1.0),
    ):
        c[i, j, k] = sign
    return c


def builtin_algebra(name: str) -> tuple[LieAlgebra, Involution | None]:
    """Named instances.  abelian-N takes any positive integer N."""
    if name == "sl2R-cartan":
        # tau(X) = -X^T: H -> -H, E -> -F, F -> -E
        tau = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
        return _sl2_structure(), Involution(tau)
    if name == "sl2R-adH":
        # tau = Ad(diag(1,-1)): H -> H, E -> -E, F -> -F
        tau = np.diag([1.0, -1.0, -1.0])
        return _sl2_structure(), Involution(tau)
    if name == "heisenberg":
        tau = np.diag([-1.0, -1.0, 1.0])
        return _heisenberg(), Involution(tau)
    match = re.fullmatch(r"abelian-(\d+)", name)
    if match:
        n = int(match.group(1))
        if n < 1:
            raise ValueError("abelian dimension must be positive")
        labels = tuple("A%d" % i for i in range(n))
        alg = LieAlgebra(n, labels, np.zeros((n, n, n)))
        return alg, Involution(-np.eye(n))
    if name == "perturbed-jacobi":
        # [E,F] = H + eps*E with the antisymmetric partner: antisymmetry
        # stays exact, the Jacobi identity fails with residual 2*eps
        base = _sl2_structure()
        c = base.structure.copy()
        c[1, 2, 1] += 1.0e-3
        c[2, 1, 1] -= 1.0e-3
        return LieAlgebra(3, base.labels, c), None
    raise ValueError("unknown built-in algebra %r" % (name,))


def builtin_cone(name: str = "sl2R-adH") -> tuple[InvolutionSplit, ConeSample]:
    """The invariant quadrant cone in q = span{E, F} for the adH split.

    Interior points b E + c F with b, c > 0 have ad eigenvalues
    {0, +2 sqrt(bc), -2 sqrt(bc)} and are hyperbolic; the fixed subgroup
    exp(t ad H) rescales the two coordinates inversely and preserves the
    cone.
    """
    if name != "sl2R-adH":
        raise ValueError("the built-in cone is attached to sl2R-adH")
    algebra, tau = builtin_algebra("sl2R-adH")
    split = split_by_involution(algebra, tau)
    generators = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # E and F
    witness = np.array([0.0, 1.0, 1.0])  # E + F
    rng = np.random.default_rng(314159)
    bc = rng.uniform(0.2, 2.0, size=(12, 2))
    samples = np.zeros((12, 3))
    samples[:, 1:] = bc
    return split, ConeSample(generators, witness, samples)


def nilpotent_control_cone() -> tuple[InvolutionSplit, ConeSample]:
    """Negative control: the witness E is nilpotent in ad, so the
    hyperbolicity check must fail with the named reason."""
    algebra, tau = builtin_algebra("sl2R-adH")
    split = split_by_involution(algebra, tau)
    generators = np.array([[0.0, 1.0, 0.0]])
    witness = np.array([0.0, 1.0, 0.0])
    samples = np.array([[0.0, 0.5, 0.0]])
    return split, ConeSample(generators, witness, samples)


# -- structured text form -----------------------------------------------------

def algebra_to_text(
    algebra: LieAlgebra,
    involution: Involution | None = None,
    cone: ConeSample | None = None,
) -> str:
    lines = [
        "format: oslab-algebra v1",
        "dim: %d" % algebra.dim,
        "labels: %s" % " ".join(algebra.labels),
        "structure:",
    ]
    c = algebra.structure
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            for k in range(algebra.dim):
                if c[i, j, k] != 0.0:
                    lines.append("  %d %d %d %s" % (i, j, k, fmt(c[i, j, k])))
    if involution is not None:
        lines.append("involution:")
        for row in involution.matrix:
            lines.append("  " + " ".join(fmt(x) for x in row))
    if cone is not None:
        lines.append("cone_generators:")
        for row in cone.generators:
            lines.append("  " + " ".join(fmt(x) for x in row))
        lines.append("cone_witness:")
        lines.append("  " + " ".join(fmt(x) for x in cone.interior_witness))
        lines.append("cone_samples:")
        for row in cone.sampled_points:
            lines.append("  " + " ".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def algebra_from_text(text: str):
    """Parse the text form; returns (algebra, involution or None, cone or None)."""
    scalars, blocks = parse_kv_text(text)
    if scalars.get("format") != "oslab-algebra v1":
        raise ValueError("unrecognized algebra format: %r" % scalars.get("format"))
    dim = int(scalars["dim"])
    labels = tuple(scalars["labels"].split())
    c = np.zeros((dim, dim, dim))
    for line in blocks.get("structure", []):
        parts = line.split()
        i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
        c[i, j, k] = float(parts[3])
    algebra = LieAlgebra(dim, labels, c)
    involution = None
    if "involution" in blocks:
        rows = [[float(x) for x in line.split()] for line in blocks["involution"]]
        involution = Involution(np.array(rows))
    cone = None
    if "cone_generators" in blocks:
        gens = np.array([[float(x) for x in l.split()] for l in blocks["cone_generators"]])
        witness = np.array([float(x) for x in blocks["cone_witness"][0].split()])
        samples = np.array([[float(x) for x in l.split()] for l in blocks.get("cone_samples", [])])
        if samples.size == 0:
            samples = samples.reshape(0, dim)
        cone = ConeSample(gens, witness, samples)
    return algebra, involution, cone


def write_algebra(path: str, algebra: LieAlgebra, **kw) -> None:
    atomic_write(path, algebra_to_text(algebra, **kw))
