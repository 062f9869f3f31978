"""Finite-dimensional Lie algebras, involutive splits, and the c-dual.

An algebra is stored as structure constants c[i][j][k] with

    [X_i, X_j] = sum_k c[i][j][k] X_k.

An involutive automorphism tau splits the algebra into fixed (+1) and
anti-fixed (-1) eigenspaces,  g = h + q,  with the bracket relations
[h,h] in h, [h,q] in q, [q,q] in h.  The c-dual keeps h and replaces q by
i*q; in a split-adapted basis this negates the h-valued part of the
[q,q] brackets and leaves everything else alone, and applying it twice
returns the original structure constants.  Basis changes, the Jacobi sum
and the split's checks are pairwise contractions: O(N^5) work in dim N.

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

from .errors import CheckFailure
from .textio import fmt, parse_kv_text

STRUCTURE_TOL = 1.0e-12
EIGENVALUE_REALITY_RTOL = 1.0e-8
CLUSTER_RTOL = 1.0e-6
RANK_RTOL = 1.0e-8
CONE_RESIDUAL_TOL = 1.0e-6
# Entries of one block of the Jacobi sum (512 KB); see _jacobi_residual.
_JACOBI_BLOCK_ENTRIES = 1 << 16


class StructureError(CheckFailure):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class InvolutionError(CheckFailure):
    """The proposed involution is not an involutive automorphism."""


class ConeError(CheckFailure):
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
    jac_res = _jacobi_residual(c)
    if not anti <= tol:  # NaN fails
        raise StructureError("antisymmetry residual %.3e exceeds %.1e" % (anti, tol))
    if not jac_res <= tol:
        raise StructureError("Jacobi residual %.3e exceeds %.1e" % (jac_res, tol))
    return ValidationReport(anti, jac_res)


def _jacobi_residual(c: np.ndarray) -> float:
    """Largest coefficient of X_m in [X_i,[X_j,X_k]] + cyclic.

    With cc[a,b,d,m] = sum_l c[a,b,l] c[d,l,m], the sum is cc[j,k,i,m] +
    cc[k,i,j,m] + cc[i,j,k,m].  It is reduced over blocks of i, each from
    three slices of that one contraction, so memory stays O(N^3 * block)
    instead of N^4 and every entry is the same sum as the whole tensor's.
    The three slices cost three times the one contraction's products.
    """
    if not c.size:
        return 0.0
    n = c.shape[0]
    step = max(1, _JACOBI_BLOCK_ENTRIES // n**3)
    worst = []
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        jac = np.tensordot(c, c[blk], axes=(2, 1)).transpose(2, 0, 1, 3)
        jac = jac + np.tensordot(c[:, blk], c, axes=(2, 1)).transpose(1, 2, 0, 3)
        jac += np.tensordot(c[blk], c, axes=(2, 1))
        worst.append(np.max(np.abs(jac, out=jac)))
    return float(np.max(worst))  # NaN propagates, unlike the builtin max


def _brackets(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a_p, b_r] for every row a_p of a and b_r of b, as out[p, r, :]."""
    ac = np.tensordot(a, c, axes=(1, 0))  # p j k
    return np.tensordot(b, ac, axes=(1, 1)).transpose(1, 0, 2)


def change_basis(algebra: LieAlgebra, B: np.ndarray, labels=None) -> LieAlgebra:
    """Structure constants in the basis Y_i = sum_j B[i,j] X_j."""
    Binv = np.linalg.inv(B)
    c = _brackets(algebra.structure, B, B) @ Binv
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


def _bracket_residual(c, h, q, Ph, Pq) -> float:
    """Largest part of [a, b] outside its subspace: [h,h], [q,q] in h; [h,q] in q."""
    outside = [_brackets(c, a, b) @ P.T for a, b, P in ((h, h, Pq), (h, q, Ph), (q, q, Pq))]
    return float(np.max([np.max(np.abs(o)) for o in outside if o.size], initial=0.0))


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
    if not float(np.max(np.abs(t @ t - np.eye(n)))) <= tol:  # NaN fails
        raise InvolutionError("tau^2 differs from the identity beyond %.1e" % tol)
    c = algebra.structure
    # [tau X_i, tau X_j] versus tau([X_i, X_j])
    defect = float(np.max(np.abs(_brackets(c, t.T, t.T) - c @ t.T)))
    if not defect <= tol:
        raise InvolutionError("tau is not an automorphism (residual %.3e)" % defect)
    Ph, Pq = 0.5 * (np.eye(n) + t), 0.5 * (np.eye(n) - t)
    h, q = _rref_rows(Ph.T), _rref_rows(Pq.T)
    if h.shape[0] + q.shape[0] != n:
        raise InvolutionError(
            "eigenspaces of dimension %d + %d do not fill dimension %d"
            % (h.shape[0], q.shape[0], n)
        )
    residual = _bracket_residual(c, h, q, Ph, Pq)
    if not residual <= tol:
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
    eigenvalues: np.ndarray
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
    if not max_imag <= EIGENVALUE_REALITY_RTOL * norm:
        return PointCheck(
            eig, False, "complex eigenvalues (max imaginary part %.3e)" % max_imag
        )
    clusters: list[float] = []
    for lam in np.sort(eig.real):
        if not clusters or not abs(lam - clusters[-1]) <= CLUSTER_RTOL * norm:
            clusters.append(float(lam))
    for lam in clusters:
        if not np.isfinite(lam):
            return PointCheck(eig, False, "non-finite eigenvalue %s" % fmt(lam))
        B = A - lam * np.eye(A.shape[0])
        if _rank(B) != _rank(B @ B):
            return PointCheck(
                eig, False, "nilpotent part detected at eigenvalue %s" % fmt(lam)
            )
    return PointCheck(eig, True, "hyperbolic")


def _nnls_residual(generators: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    from scipy.optimize import nnls

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
    generator hull).  A cone without generators is refused with ValueError
    (scipy's nnls aborts the interpreter on an empty hull).
    """
    if len(cone.generators) == 0:
        raise ValueError("cone sample has no generators")
    from scipy.linalg import expm

    algebra = split.algebra
    Pq = split.q_projector()
    vectors = [cone.interior_witness] + list(cone.generators) + list(cone.sampled_points)
    for i, v in enumerate(vectors):
        v = np.asarray(v, dtype=float)
        outside = float(np.max(np.abs(Pq @ v - v)))
        if not outside <= STRUCTURE_TOL * max(1.0, float(np.max(np.abs(v)))):  # NaN fails
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
# |det - 1| allowed per unit of s00*s11 and s01*s10, the terms that cancel in it
SL2_DET_RTOL = 1.0e-8


def _sl2_cone_exp(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """exp(b E + c F) for every pair of entries of b and c, as (..., 2, 2).

    (b E + c F)^2 = bc I, so the exponential is cosh(s) I + sinh(s)/s (b E +
    c F) with s = sqrt(bc); for bc < 0 cos and sin of s = sqrt(-bc) replace
    cosh and sinh, and for bc = 0 it is I + b E + c F.
    """
    b, c = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(c, dtype=float))
    bc = b * c
    s = np.sqrt(np.abs(bc))
    hyperbolic = bc > 0.0
    even = np.where(hyperbolic, np.cosh(s), np.cos(s))
    odd = np.divide(np.where(hyperbolic, np.sinh(s), np.sin(s)), s,
                    out=np.ones_like(s), where=s > 0.0)
    out = np.empty(bc.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = even
    out[..., 0, 1] = odd * b
    out[..., 1, 0] = odd * c
    return out


def _sl2_cone_factor_stack(s: np.ndarray):
    """Factor each s[i] = diag(exp(t), exp(-t)) exp(b E + c F), b, c >= 0.

    Returns arrays t, b, c, residual over the stack and the (index, reason)
    pairs, in index order, of the rows without an admissible solution (their
    array entries mean nothing).  A row fails at the first gate it breaks:
    determinant one relative to the terms that cancel in it, nonnegative
    entries, diagonal product at least one, positive scaling factor,
    nonnegative recovered b and c.
    """
    s00, s01, s10, s11 = s[:, 0, 0], s[:, 0, 1], s[:, 1, 0], s[:, 1, 1]
    c1sq = s00 * s11
    det = c1sq - s01 * s10
    c1 = np.sqrt(np.maximum(c1sq, 1.0))
    lam = s00 / c1
    # rows that fail a gate may divide by zero or overflow; they are dropped
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta, gamma = s01 / lam, s10 * lam
        theta = np.arccosh(c1)
        ratio = np.divide(theta, np.sinh(theta), out=np.ones_like(theta),
                          where=theta >= 1.0e-12)
        b, c = beta * ratio, gamma * ratio
        t = np.log(lam)
        rebuilt = _sl2_cone_exp(b, c)
        rebuilt[:, 0] *= lam[:, None]
        rebuilt[:, 1] *= (1.0 / lam)[:, None]
        residual = np.max(np.abs(rebuilt - s), axis=(1, 2))
    gates = (
        (~(np.abs(det - 1.0) <= SL2_DET_RTOL * (np.abs(c1sq) + np.abs(s01 * s10))),
         lambda i: "matrix determinant %s is not 1" % fmt(det[i])),
        (np.min(s, axis=(1, 2)) < -1.0e-12,
         lambda i: "matrix has negative entries; outside the semigroup"),
        (c1sq < 1.0 - 1.0e-12,
         lambda i: "diagonal product %s below 1; no hyperbolic angle" % fmt(c1sq[i])),
        (lam <= 0.0, lambda i: "nonpositive scaling factor"),
        (np.minimum(b, c) < -1.0e-10, lambda i: "recovered cone coordinates are negative"),
    )
    failed = np.zeros(len(s), dtype=bool)
    failures = []
    for bad, reason in gates:
        bad &= ~failed
        failures += [(int(i), reason(i)) for i in np.flatnonzero(bad)]
        failed |= bad
    failures.sort()
    return t, b, c, residual, failures


def _membership_draws(n_products: int, seed: int, scale: float):
    """Per product, (t1, t2) uniform on [-scale, scale] then ((b1, c1), (b2,
    c2)) uniform on [0, scale], as arrays (n, 2) and (n, 2, 2).

    Generator.uniform(low, high) computes low + (high - low) * random(), so
    one (n, 6) random() draw mapped the same way is, bit for bit, the stream
    of per-product uniform(size=2) and uniform(size=(2, 2)) calls.
    """
    u = np.random.default_rng(seed).random((n_products, 6))
    ts = -scale + (scale - -scale) * u[:, :2]
    xs = 0.0 + (scale - 0.0) * u[:, 2:].reshape(n_products, 2, 2)
    return ts, xs


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

    Product i is diag(exp(t1), exp(-t1)) exp(b1 E + c1 F') times the same in
    (t2, b2, c2), F' = +-F by cone, drawn by _membership_draws.  All
    products are drawn, formed and re-factored as (n, 2, 2) stacks.
    """
    if cone not in ("quadrant", "wedge"):
        raise ValueError("unknown cone name %r" % (cone,))
    sign = 1.0 if cone == "quadrant" else -1.0
    ts, xs = _membership_draws(n_products, seed, scale)
    factors = _sl2_cone_exp(xs[..., 0], sign * xs[..., 1])  # (n, 2, 2, 2)
    factors[..., 0, :] *= np.exp(ts)[..., None]
    factors[..., 1, :] *= np.exp(-ts)[..., None]
    products = factors[:, 0] @ factors[:, 1]
    _, _, _, residual, failures = _sl2_cone_factor_stack(products)
    ok = np.ones(n_products, dtype=bool)
    ok[[i for i, _ in failures]] = False
    worst = float(np.max(residual[ok], initial=0.0))
    return MembershipReport(n_products, int(ok.sum()), worst, tuple(failures))


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
    stacked = np.vstack([np.kron(M.T, eye) - np.kron(eye, M) for M in mats])
    return d * d - _rank(stacked, rtol)


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

def structure_lines(c: np.ndarray) -> list:
    """One '  i j k value' line per nonzero c[i, j, k], in C order."""
    return ["  %d %d %d %s" % (i, j, k, fmt(c[i, j, k])) for i, j, k in np.argwhere(c != 0.0)]


def _finite(token: str) -> float:
    x = float(token)
    if not np.isfinite(x):
        raise ValueError("algebra file holds the non-finite number %r" % token)
    return x


def _rows(lines: list, dim: int, what: str) -> np.ndarray:
    """The finite float rows of a block, as a (rows, dim) array."""
    rows = [[_finite(x) for x in line.split()] for line in lines]
    if any(len(r) != dim for r in rows):
        raise ValueError("every %s row must hold dim = %d entries" % (what, dim))
    return np.array(rows, dtype=float).reshape(len(rows), dim)


def algebra_from_text(text: str):
    """Parse the text form; returns (algebra, involution or None, cone or None).

    A malformed file raises ValueError: a missing key, a non-finite
    number, a structure line that is not 'i j k value' with indices in
    0..dim-1, an involution that is not dim x dim, a cone without
    generators or without exactly one witness, a cone vector whose length
    is not dim.
    """
    scalars, blocks = parse_kv_text(text)
    if scalars.get("format") != "oslab-algebra v1":
        raise ValueError("unrecognized algebra format: %r" % scalars.get("format"))
    for key in ("dim", "labels"):
        if key not in scalars:
            raise ValueError("algebra file has no %r line" % key)
    dim = int(scalars["dim"])
    labels = tuple(scalars["labels"].split())
    c = np.zeros((dim, dim, dim))
    for line in blocks.get("structure", []):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError("structure line %r is not 'i j k value'" % line)
        i, j, k = (int(p) for p in parts[:3])
        if min(i, j, k) < 0 or max(i, j, k) >= dim:
            raise ValueError("structure line %r has an index outside 0..%d" % (line, dim - 1))
        c[i, j, k] = _finite(parts[3])
    algebra = LieAlgebra(dim, labels, c)
    involution = None
    if "involution" in blocks:
        t = _rows(blocks["involution"], dim, "involution")
        if t.shape[0] != dim:
            raise ValueError("involution must have dim = %d rows" % dim)
        involution = Involution(t)
    cone = None
    if "cone_generators" in blocks:
        generators = _rows(blocks["cone_generators"], dim, "cone_generators")
        witness = _rows(blocks.get("cone_witness", []), dim, "cone_witness")
        if not len(generators) or len(witness) != 1:
            raise ValueError("a cone needs at least one generator and exactly one witness row")
        cone = ConeSample(
            generators, witness[0], _rows(blocks.get("cone_samples", []), dim, "cone_samples")
        )
    return algebra, involution, cone
