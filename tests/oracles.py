"""Independent reference computations backing the test suite.

Every function recomputes a quantity through a route different from the
package implementation: cofactor inversion instead of numpy solves, a
banded boundary-value solve instead of a closed-form kernel, quadrature
diagonalization of the continuum step kernel instead of lattice
compression, the hand-expanded three-pairing sum instead of the recursive
moment evaluator, a sum over all subsets of factors instead of the
non-centred recursion for sourced moments, exact rational rank instead
of an SVD threshold, dense permutation matrices with an entrywise
Isserlis gram instead of index maps with a closed-form gram, one
many-operand einsum or a loop of single brackets instead of pairwise
structure-tensor contractions, per-product draws, scipy expm and a
scalar factorization instead of closed-form sl(2) exponentials on stacks,
the kernels' out-of-place expressions instead of their in-place builds,
and the sample second-moment matrix and exact Wick gram entries against
which drawn paths and sampled certificates are checked.
Tests freeze values produced here and compare package output against them.
"""
import itertools

import numpy as np
from scipy.linalg import solve_banded

from oslab.moments import isserlis_moment
from oslab.reconstruction import IntertwiningReport
from oslab.textio import fmt


# -- kernel expressions, out of place -----------------------------------------

def _distances(lattice):
    j = np.arange(lattice.n_points)
    return np.abs(j[:, None] - j[None, :]) * lattice.spacing


def ou_kernel_expression(mass, lattice):
    """exp(-m d) / (2m), one temporary per operation."""
    d = _distances(lattice)
    return np.exp(-mass * d) / (2.0 * mass)


def cosine_kernel_expression(mass, omega, lattice):
    """cos(w d) exp(-m d) / (2m), one temporary per operation."""
    d = _distances(lattice)
    return np.cos(omega * d) * np.exp(-mass * d) / (2.0 * mass)


def free_field_kernel_expression(mass, lattice):
    """inv(h K) for the Dirichlet action K, with h K a fresh product."""
    n, h = lattice.n_points, lattice.spacing
    K = np.zeros((n, n))
    np.fill_diagonal(K, 2.0 / h**2 + mass**2)
    idx = np.arange(n - 1)
    K[idx, idx + 1] = -1.0 / h**2
    K[idx + 1, idx] = -1.0 / h**2
    return np.linalg.inv(h * K)


# -- explicit 4x4 inversion ---------------------------------------------------

def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate_inverse_4x4(A):
    """Inverse via cofactor expansion; no numpy.linalg involved."""
    A = [[float(A[i][j]) for j in range(4)] for i in range(4)]
    cof = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            minor = [
                [A[r][c] for c in range(4) if c != j]
                for r in range(4) if r != i
            ]
            cof[i][j] = (-1.0) ** (i + j) * _det3(minor)
    det = sum(A[0][j] * cof[0][j] for j in range(4))
    return np.array([[cof[j][i] / det for j in range(4)] for i in range(4)])


def free_field_4x4_oracle(mass, spacing):
    """Covariance of the 4-site pinned-boundary field by hand.

    The quadratic form is spacing * sum over sites of
    ((x_{j+1}-x_j)/spacing)^2 contributions plus mass^2 x_j^2, with the
    field held at zero just outside the grid; its matrix is tridiagonal
    with diagonal 2/spacing^2 + mass^2 and off-diagonal -1/spacing^2,
    all scaled by spacing.  Inverted by the cofactor formula.
    """
    h = float(spacing)
    d = 2.0 / h**2 + mass**2
    o = -1.0 / h**2
    K = [[0.0] * 4 for _ in range(4)]
    for j in range(4):
        K[j][j] = h * d
        if j + 1 < 4:
            K[j][j + 1] = h * o
            K[j + 1][j] = h * o
    return adjugate_inverse_4x4(K)


# -- boundary-value Green's function solver -----------------------------------

def greens_function_value(mass, t, s, half_width=20.0, n_grid=16001):
    """Solve (-u'' + mass^2 u) = delta_s on a fine grid, return u(t).

    Finite differences on [-half_width, half_width] with zero far ends;
    second-order accurate, so it validates the closed-form kernel
    exp(-mass|t-s|)/(2 mass) to a few parts in 1e6 at these settings.
    """
    grid = np.linspace(-half_width, half_width, n_grid)
    dx = grid[1] - grid[0]
    n = n_grid - 2  # interior points
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0 / dx**2
    ab[1, :] = 2.0 / dx**2 + mass**2
    ab[2, :-1] = -1.0 / dx**2
    rhs = np.zeros(n)
    js = int(np.argmin(np.abs(grid[1:-1] - s)))
    rhs[js] = 1.0 / dx
    u = solve_banded((1, 1), ab, rhs)
    jt = int(np.argmin(np.abs(grid[1:-1] - t)))
    return float(u[jt])


# -- continuum step-kernel spectrum -------------------------------------------

def mehler_spectrum_oracle(mass, step, n_levels, n_quad=240, width_sigmas=10.0):
    """Excitation energies of the continuum one-step kernel by quadrature.

    The stationary process with covariance exp(-mass|t-s|)/(2 mass) steps
    by the transition density N(rho x, sigma^2 (1 - rho^2)), rho =
    exp(-mass step), sigma^2 = 1/(2 mass).  Reversibility makes
    sqrt(pi(x)) p(x,y) / sqrt(pi(y)) symmetric; diagonalizing it on a
    Gauss-Legendre grid gives the step eigenvalues, and
    -log(eigenvalue)/step gives energies.  Returns the first n_levels
    gaps above the ground level.
    """
    sigma2 = 1.0 / (2.0 * mass)
    rho = np.exp(-mass * step)
    s2 = sigma2 * (1.0 - rho**2)
    L = width_sigmas * np.sqrt(sigma2)
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    x = L * nodes
    w = L * weights

    def log_pi(v):
        return -v**2 / (2.0 * sigma2) - 0.5 * np.log(2.0 * np.pi * sigma2)

    X, Y = np.meshgrid(x, x, indexing="ij")
    log_p = -((Y - rho * X) ** 2) / (2.0 * s2) - 0.5 * np.log(2.0 * np.pi * s2)
    K = np.exp(0.5 * log_pi(X) + log_p - 0.5 * log_pi(Y))
    M = np.sqrt(w)[:, None] * K * np.sqrt(w)[None, :]
    eig = np.linalg.eigvalsh(0.5 * (M + M.T))[::-1]
    energies = -np.log(eig[: n_levels + 1]) / step
    return energies[1:] - energies[0]


# -- hand-expanded Gaussian moments -------------------------------------------

def four_point_wick(C, i, j, k, l):
    """The three-pairing sum, written out."""
    return C[i, j] * C[k, l] + C[i, k] * C[j, l] + C[i, l] * C[j, k]


def two_point_wick(C, i, j):
    return C[i, j]


def six_point_wick(C, idx):
    """All 15 pairings of six indices, enumerated explicitly."""
    a, b, c, d, e, f = idx
    pairings = [
        ((a, b), (c, d), (e, f)), ((a, b), (c, e), (d, f)), ((a, b), (c, f), (d, e)),
        ((a, c), (b, d), (e, f)), ((a, c), (b, e), (d, f)), ((a, c), (b, f), (d, e)),
        ((a, d), (b, c), (e, f)), ((a, d), (b, e), (c, f)), ((a, d), (b, f), (c, e)),
        ((a, e), (b, c), (d, f)), ((a, e), (b, d), (c, f)), ((a, e), (b, f), (c, d)),
        ((a, f), (b, c), (d, e)), ((a, f), (b, d), (c, e)), ((a, f), (b, e), (c, d)),
    ]
    return sum(C[p][q] * C[r][s] * C[t, u] for (p, q), (r, s), (t, u) in pairings)


def moment_with_source_1d(sigma2, s, degree):
    """E[x^degree exp(i s x)] for x ~ N(0, sigma2), degree <= 2, closed form."""
    damp = np.exp(-0.5 * s**2 * sigma2)
    if degree == 0:
        return damp
    if degree == 1:
        return 1j * s * sigma2 * damp
    if degree == 2:
        return (sigma2 - s**2 * sigma2**2) * damp
    raise ValueError("closed form written out only through degree 2")


def moment_with_source_subset_sum(cov, indices, source, magnitudes=False):
    """E[x_{i1}...x_{ik} exp(i sum_j source_j x_j)] by the complex shift,
    expanded over all 2^k subsets of factors.

    Each subset takes the imaginary mean i (C s)_p at its factors and a
    centered Isserlis moment of the rest, from a recursion of its own.
    magnitudes=True sums the absolute values of the expanded terms instead,
    the scale against which cancellation error is measured.
    """
    idx = tuple(int(i) for i in indices)
    s = np.asarray(source, dtype=complex)
    shift = cov @ s
    prefactor = np.exp(-0.5 * complex(s @ shift))
    unit = 1j
    if magnitudes:
        cov, shift, prefactor, unit = np.abs(cov), np.abs(shift), abs(prefactor), 1.0
    memo = {}

    def even_moment(t):
        if not t:
            return 1.0
        if len(t) % 2 == 1:
            return 0.0
        if t not in memo:
            first, rest = t[0], t[1:]
            memo[t] = sum(cov[first, rest[p]] * even_moment(rest[:p] + rest[p + 1:])
                          for p in range(len(rest)))
        return memo[t]

    total = 0.0 + 0.0j
    positions = range(len(idx))
    for r in range(len(idx) + 1):
        for taken in itertools.combinations(positions, r):
            mean_part = 1.0 + 0.0j
            for p in taken:
                mean_part *= unit * shift[idx[p]]
            rest = tuple(sorted(idx[p] for p in positions if p not in taken))
            total += mean_part * even_moment(rest)
    return complex(prefactor * total)


# -- sampled paths against exact moments -------------------------------------

# the degree of each polynomial factor of a sampled observable
POLYNOMIAL_DEGREE = {"1": 0, "q": 1, "q2": 2, "q3": 3, "q4": 4}


def empirical_covariance(paths):
    """Second-moment matrix of a count x n matrix of centered samples."""
    paths = np.asarray(paths, dtype=float)
    return (paths.T @ paths) / paths.shape[0]


def exact_sampled_gram_entry(measure, a, b):
    """Wick value of E[a(reflected paths) * b(paths)] for two sampled
    observables with polynomial factors; ValueError for any other factor."""
    lattice = measure.lattice
    idx = []
    for factors, sign in ((a.factors, -1.0), (b.factors, 1.0)):
        for t, name in factors:
            if name not in POLYNOMIAL_DEGREE:
                raise ValueError("exact entries are only available for polynomial factors")
            idx.extend([lattice.index_of_time(sign * t)] * POLYNOMIAL_DEGREE[name])
    return isserlis_moment(measure.covariance, idx, memo=measure.moment_memo)


# -- reversible cross-block factorization -------------------------------------

def cross_block_rank_one_defect(covariance, times):
    """Largest deviation of C(-t, s) from phi(t) phi(s) over positive times.

    For a reversible simple Markov chain the mirrored block factors
    through the innermost positive site; phi is read off the first row
    and column, so any genuine rank-two remainder shows up here.
    """
    times = np.asarray(times)
    pos = np.where(times > 0)[0]
    neg = len(times) - 1 - pos  # mirrored indices under exact reflection
    B = covariance[np.ix_(neg, pos)]
    phi_sq = B[0, 0]
    if phi_sq <= 0:
        return float("inf")
    outer = np.outer(B[:, 0], B[0, :]) / phi_sq
    return float(np.max(np.abs(B - outer)))


# -- exact commutant dimension ------------------------------------------------

def commutant_dimension_exact(matrices):
    """Kernel dimension of the stacked commutator system over the rationals.

    Entries must be exactly representable (integers or small dyadics);
    sympy's rank is exact, so there is no threshold to tune.
    """
    import sympy as sp

    def kron(A, B):
        n, m = A.shape
        p, q = B.shape
        out = sp.zeros(n * p, m * q)
        for i in range(n):
            for j in range(m):
                for k in range(p):
                    for l in range(q):
                        out[i * p + k, j * q + l] = A[i, j] * B[k, l]
        return out

    mats = [sp.Matrix([[sp.nsimplify(v, rational=True) for v in row]
                       for row in np.asarray(M)]) for M in matrices]
    d = mats[0].shape[0]
    eye = sp.eye(d)
    blocks = [kron(M.T, eye) - kron(eye, M) for M in mats]
    stacked = sp.Matrix.vstack(*blocks)
    return d * d - stacked.rank()


# -- structure constants from 2x2 commutators ---------------------------------

def sl2_structure_from_matrices():
    """Structure constants of the traceless 2x2 algebra from raw commutators.

    Basis (H, E, F) as matrices; brackets are computed as AB - BA and
    expanded in the basis by solving the 3-coefficient linear system
    entrywise (the basis is triangular in the entries, so coefficients
    read off directly).
    """
    H = np.array([[1.0, 0.0], [0.0, -1.0]])
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([[0.0, 0.0], [1.0, 0.0]])
    basis = [H, E, F]

    def expand(M):
        # coefficients: a H + b E + c F has entries [[a, b], [c, -a]]
        return np.array([M[0, 0], M[0, 1], M[1, 0]])

    c = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            c[i, j] = expand(basis[i] @ basis[j] - basis[j] @ basis[i])
    return c


# -- reflection / shift intertwining with dense matrices ----------------------

def dense_reflection_intertwining(measure, max_degree=2, shifts=(1, 2), break_reflection=False):
    """Verify J^2 = id and J U(t) = U(-t) J on single-site monomials.

    The reference for reconstruction.check_reflection_intertwining: J, U(s)
    and U(-s) as dense N x N matrices, N = n * max_degree, and the gram
    filled by one isserlis_moment call per entry.

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


# -- structure tensors: many-operand einsums and per-pair bracket loops -------

def einsum_change_basis(structure, B):
    """liealg.change_basis's structure constants from one unoptimized
    four-operand einsum (an N^6 loop), with the same 1e-14 clamp."""
    Binv = np.linalg.inv(B)
    c = np.einsum("ai,bj,ijk,ke->abe", B, B, structure, Binv)
    c[np.abs(c) < 1.0e-14] = 0.0
    return c


def einsum_jacobi_residual(c):
    """Largest coefficient of [X_i,[X_j,X_k]] + cyclic, three einsums."""
    term = np.einsum("jkl,ilm->ijkm", c, c)
    jac = term + np.einsum("kil,jlm->ijkm", c, c) + np.einsum("ijl,klm->ijkm", c, c)
    return float(np.max(np.abs(jac))) if c.size else 0.0


def einsum_automorphism_residual(c, t):
    """Largest component of [tau X_i, tau X_j] - tau [X_i, X_j]."""
    lhs = np.einsum("ai,bj,abk->ijk", t, t, c)
    rhs = np.einsum("ijl,kl->ijk", c, t)
    return float(np.max(np.abs(lhs - rhs)))


def looped_bracket_residual(c, h, q, Ph, Pq):
    """The split's bracket residual one pair of basis rows at a time: the
    largest component of [a, b] outside the subspace it must lie in
    ([h,h] and [q,q] in h, [h,q] in q), in the original coordinates."""
    def bracket(x, y):
        return np.einsum("i,j,ijk->k", x, y, c)

    residual = 0.0
    for a in h:
        for b in h:
            residual = max(residual, float(np.max(np.abs(Pq @ bracket(a, b)))))
    for a in h:
        for b in q:
            residual = max(residual, float(np.max(np.abs(Ph @ bracket(a, b)))))
    for a in q:
        for b in q:
            residual = max(residual, float(np.max(np.abs(Pq @ bracket(a, b)))))
    return residual


def looped_structure_lines(c):
    """'  i j k value' per nonzero entry, from three nested loops."""
    dim = c.shape[0]
    lines = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if c[i, j, k] != 0.0:
                    lines.append("  %d %d %d %s" % (i, j, k, fmt(c[i, j, k])))
    return lines


# -- sl(2) semigroup membership one product at a time -------------------------

def membership_draws_per_product(n_products, seed, scale=1.0):
    """The membership sample's draws as one uniform call per group:
    (t1, t2) on [-scale, scale], then ((b1, c1), (b2, c2)) on [0, scale]."""
    rng = np.random.default_rng(seed)
    ts, xs = [], []
    for _ in range(n_products):
        ts.append(rng.uniform(-scale, scale, size=2))
        xs.append(rng.uniform(0.0, scale, size=(2, 2)))
    return np.array(ts).reshape(n_products, 2), np.array(xs).reshape(n_products, 2, 2)


def sl2_cone_factorize_expm(s):
    """Factor s = diag(exp(t), exp(-t)) expm(b E + c F) with b, c >= 0, one
    matrix at a time: np.linalg.det for the determinant (gated relative to
    |s00 s11| + |s01 s10|) and scipy expm to rebuild.  Returns (t, b, c,
    residual) or raises ValueError with the package's reasons."""
    from scipy.linalg import expm

    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([[0.0, 0.0], [1.0, 0.0]])
    s = np.asarray(s, dtype=float)
    det = np.linalg.det(s)
    if abs(det - 1.0) > 1.0e-8 * (abs(s[0, 0] * s[1, 1]) + abs(s[0, 1] * s[1, 0])):
        raise ValueError("matrix determinant %s is not 1" % fmt(det))
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
    ratio = 1.0 if theta < 1.0e-12 else theta / np.sinh(theta)
    b, c = beta * ratio, gamma * ratio
    if min(b, c) < -1.0e-10:
        raise ValueError("recovered cone coordinates are negative")
    rebuilt = np.diag([lam, 1.0 / lam]) @ expm(b * E + c * F)
    return float(np.log(lam)), float(b), float(c), float(np.max(np.abs(rebuilt - s)))


def membership_products_expm(n_products, seed, cone="quadrant", scale=1.0):
    """The membership sample's products, each factor from scipy expm."""
    from scipy.linalg import expm

    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([[0.0, 0.0], [1.0, 0.0]])
    sign = 1.0 if cone == "quadrant" else -1.0
    products = []
    for ts, xs in zip(*membership_draws_per_product(n_products, seed, scale)):
        mats = [np.diag([np.exp(t), np.exp(-t)]) @ expm(b * E + sign * c * F)
                for t, (b, c) in zip(ts, xs)]
        products.append(mats[0] @ mats[1])
    return products


def membership_sample_looped(n_products, seed, cone="quadrant", scale=1.0):
    """liealg.semigroup_membership_sample one product at a time, through
    scipy expm: (n_success, worst_residual, failures)."""
    failures, worst, n_success = [], 0.0, 0
    for i, product in enumerate(membership_products_expm(n_products, seed, cone, scale)):
        try:
            residual = sl2_cone_factorize_expm(product)[3]
        except ValueError as exc:
            failures.append((i, str(exc)))
            continue
        worst = max(worst, residual)
        n_success += 1
    return n_success, worst, tuple(failures)
