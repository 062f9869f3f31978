"""Structure tensors, involution splits, sign-flipped duals, cone checks."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from oslab import liealg
from oslab.errors import CheckFailure
from oslab.liealg import (
    ConeError,
    ConeSample,
    Involution,
    InvolutionError,
    LieAlgebra,
    SL2_E,
    SL2_F,
    SL2_H,
    SU2_BASIS_CHANGE,
    StructureError,
    _bracket_residual,
    adapted_algebra,
    algebra_from_text,
    builtin_algebra,
    builtin_cone,
    c_dual,
    c_dual_involution,
    change_basis,
    check_hyperbolic_point,
    commutant_dimension,
    hyperbolic_cone_check,
    nilpotent_control_cone,
    semigroup_membership_sample,
    split_by_involution,
    structure_lines,
    su2_structure,
    validate_algebra,
)

SEED = 20260822


def cartan_split():
    alg, tau = builtin_algebra("sl2R-cartan")
    return split_by_involution(alg, tau)


def test_sl2_structure_matches_matrix_commutators():
    alg, _ = builtin_algebra("sl2R-cartan")
    want = oracles.sl2_structure_from_matrices()
    assert np.max(np.abs(alg.structure - want)) == 0.0


@pytest.mark.parametrize("name", ["sl2R-cartan", "sl2R-adH", "heisenberg", "abelian-3"])
def test_builtin_algebras_validate(name):
    alg, tau = builtin_algebra(name)
    rep = validate_algebra(alg)
    assert rep.antisymmetry_residual == 0.0
    assert rep.jacobi_residual < 1.0e-12
    assert tau is not None


def test_unknown_builtin_name():
    with pytest.raises(ValueError, match="unknown"):
        builtin_algebra("no-such-algebra")


def test_perturbed_structure_fails_jacobi_only():
    alg, _ = builtin_algebra("perturbed-jacobi")
    with pytest.raises(StructureError, match="Jacobi"):
        validate_algebra(alg)
    # the perturbation was chosen antisymmetric, so the first gate passes
    anti = alg.structure + np.swapaxes(alg.structure, 0, 1)
    assert np.max(np.abs(anti)) == 0.0


def test_bracket_and_ad_are_consistent():
    alg, _ = builtin_algebra("sl2R-cartan")
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    direct = alg.bracket(x, y)
    via_ad = alg.ad(x) @ y
    assert np.max(np.abs(direct - via_ad)) < 1.0e-14


def test_change_basis_by_scaling_rescales_structure():
    alg, _ = builtin_algebra("sl2R-cartan")
    B = np.diag([2.0, 1.0, 1.0])
    scaled = change_basis(alg, B)
    rep = validate_algebra(scaled)
    assert rep.jacobi_residual < 1.0e-12
    # doubling one generator doubles brackets out of it and halves those into it
    assert scaled.structure[0, 1, 1] == 2.0 * alg.structure[0, 1, 1]


def test_involution_must_be_involutive_automorphism():
    alg, _ = builtin_algebra("sl2R-cartan")
    with pytest.raises(InvolutionError):
        split_by_involution(alg, Involution(np.diag([1.0, 2.0, 1.0])))
    # an involutive linear map that is not an automorphism
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    defect = oracles.einsum_automorphism_residual(alg.structure, swap)
    with pytest.raises(InvolutionError, match=re.escape("residual %.3e" % defect)):
        split_by_involution(alg, Involution(swap))


def test_cartan_split_bases():
    split = cartan_split()
    assert split.h_basis.shape == (1, 3)
    assert split.q_basis.shape == (2, 3)
    assert split.bracket_residual < 1.0e-12
    # fixed line is spanned by the difference of the two nilpotent generators
    h = split.h_basis[0]
    assert abs(h[0]) < 1.0e-12
    assert abs(h[1] + h[2]) < 1.0e-12


def test_adapted_brackets_are_rotation_like():
    split = cartan_split()
    adapted, _ = adapted_algebra(split)
    c = adapted.structure
    # with u spanning the fixed part and (v, w) the flipped part:
    # [u, v] = -2 w, [v, w] = 2 u, [u, w] = 2 v
    assert abs(c[0, 1, 2] + 2.0) < 1.0e-12
    assert abs(c[1, 2, 0] - 2.0) < 1.0e-12
    assert abs(c[0, 2, 1] - 2.0) < 1.0e-12
    assert adapted.labels[0].startswith("h")
    assert adapted.labels[1].startswith("q")


def test_dual_negates_only_flipped_flipped_brackets():
    split = cartan_split()
    adapted, _ = adapted_algebra(split)
    dual = c_dual(split)
    p = split.h_basis.shape[0]
    c0, c1 = adapted.structure, dual.structure
    assert np.array_equal(c1[:p, :p, :], c0[:p, :p, :])
    assert np.array_equal(c1[:p, p:, :], c0[:p, p:, :])
    assert np.array_equal(c1[p:, p:, :], -c0[p:, p:, :])
    rep = validate_algebra(dual)
    assert rep.jacobi_residual < 1.0e-12


def test_dual_of_dual_recovers_adapted_algebra():
    split = cartan_split()
    adapted, _ = adapted_algebra(split)
    dual = c_dual(split)
    tau2 = c_dual_involution(split)
    split2 = split_by_involution(dual, tau2)
    dual2 = c_dual(split2)
    assert np.max(np.abs(dual2.structure - adapted.structure)) < 1.0e-12


def test_cartan_dual_is_compact_rotation_algebra():
    split = cartan_split()
    dual = c_dual(split)
    rotated = change_basis(dual, SU2_BASIS_CHANGE)
    assert np.max(np.abs(rotated.structure - su2_structure())) < 1.0e-10


def test_dual_involution_is_diagonal_sign_matrix():
    split = cartan_split()
    tau2 = c_dual_involution(split)
    p = split.h_basis.shape[0]
    want = np.diag([1.0] * p + [-1.0] * (3 - p))
    assert np.array_equal(tau2.matrix, want)


def test_hyperbolic_point_diagnostics():
    alg, _ = builtin_algebra("sl2R-adH")
    ok = check_hyperbolic_point(alg, np.array([1.0, 0.0, 0.0]))
    assert ok.hyperbolic
    assert sorted(np.round(ok.eigenvalues.real, 10).tolist()) == [-2.0, 0.0, 2.0]
    nil = check_hyperbolic_point(alg, np.array([0.0, 1.0, 0.0]))
    assert not nil.hyperbolic
    assert "nilpotent" in nil.reason
    rot = check_hyperbolic_point(alg, np.array([0.0, 1.0, -1.0]))
    assert not rot.hyperbolic
    assert "complex" in rot.reason


def test_hyperbolicity_invariant_under_inner_conjugation():
    alg, _ = builtin_algebra("sl2R-adH")
    from scipy.linalg import expm
    x = np.array([1.0, 0.3, 0.2])
    z = np.array([0.0, 0.4, -0.1])
    flowed = expm(alg.ad(z)) @ x
    a = np.sort(check_hyperbolic_point(alg, x).eigenvalues.real)
    b = np.sort(check_hyperbolic_point(alg, flowed).eigenvalues.real)
    assert np.max(np.abs(a - b)) < 1.0e-6


def test_builtin_cone_is_hyperbolic_and_invariant():
    split, cone = builtin_cone("sl2R-adH")
    rep = hyperbolic_cone_check(split, cone, h_samples=8, seed=SEED)
    assert rep.all_hyperbolic
    assert rep.witness_strictly_positive
    assert rep.invariance_residual < 1.0e-6
    assert all(pc.hyperbolic for pc in rep.point_checks)


def test_nilpotent_control_cone_fails_with_named_reason():
    split, cone = nilpotent_control_cone()
    rep = hyperbolic_cone_check(split, cone, h_samples=4, seed=SEED)
    assert not rep.all_hyperbolic
    bad = [pc for pc in rep.point_checks if not pc.hyperbolic]
    assert bad
    assert all("nilpotent" in pc.reason for pc in bad)


def test_cone_witness_outside_flipped_part_is_refused():
    split, cone = builtin_cone("sl2R-adH")
    bad = ConeSample(cone.generators, np.array([1.0, 1.0, 1.0]), cone.sampled_points)
    with pytest.raises(ConeError):
        hyperbolic_cone_check(split, bad, h_samples=4, seed=SEED)


def _nan_pair_cartan():
    """sl2R-cartan with one antisymmetric pair of structure constants NaN."""
    alg, tau = builtin_algebra("sl2R-cartan")
    c = alg.structure.copy()
    c[0, 1, 2] = c[1, 0, 2] = np.nan
    return LieAlgebra(alg.dim, alg.labels, c), tau


def _nan_tau_split():
    alg, tau = builtin_algebra("sl2R-cartan")
    t = tau.matrix.copy()
    t[0, 0] = np.nan
    return split_by_involution(alg, Involution(t))


def _nan_cone_witness():
    split, cone = builtin_cone("sl2R-adH")
    witness = np.array([0.0, np.nan, 1.0])
    return hyperbolic_cone_check(split, ConeSample(cone.generators, witness, cone.sampled_points))


# gate -> (error, its message, what runs it, the residual helper forced to NaN or None)
NAN_GATES = {
    "antisymmetry": (StructureError, "antisymmetry",
                     lambda: validate_algebra(_nan_pair_cartan()[0]), None),
    "jacobi": (StructureError, "Jacobi",
               lambda: validate_algebra(builtin_algebra("heisenberg")[0]), "_jacobi_residual"),
    "tau-squared": (InvolutionError, r"tau\^2", _nan_tau_split, None),
    "automorphism": (InvolutionError, "automorphism",
                     lambda: split_by_involution(*_nan_pair_cartan()), None),
    "bracket": (InvolutionError, "bracket", cartan_split, "_bracket_residual"),
    "cone-q-membership": (ConeError, "eigenspace", _nan_cone_witness, None),
}


@pytest.mark.parametrize("error, message, call, helper", NAN_GATES.values(),
                         ids=list(NAN_GATES))
def test_nan_residual_fails_its_gate(monkeypatch, error, message, call, helper):
    # a NaN residual compares false with every bound, so each gate is
    # written as not (residual <= tol) and a NaN fails it
    if helper is not None:
        monkeypatch.setattr(liealg, helper, lambda *_args: float("nan"))
    with pytest.raises(error, match=message) as info:
        call()
    assert isinstance(info.value, CheckFailure)


def test_jacobi_residual_propagates_nan():
    alg, _ = builtin_algebra("sl2R-cartan")
    c = alg.structure.copy()
    c[0, 1, 2] = np.nan
    assert np.isnan(liealg._jacobi_residual(c))


@pytest.mark.parametrize("generators", [np.empty((0, 3)), []], ids=["array", "list"])
def test_cone_without_generators_is_refused(generators):
    split, cone = builtin_cone("sl2R-adH")
    empty = ConeSample(generators, cone.interior_witness, cone.sampled_points)
    with pytest.raises(ValueError, match="no generators") as info:
        hyperbolic_cone_check(split, empty, h_samples=4, seed=SEED)
    assert not isinstance(info.value, ConeError)


def test_factorization_closed_form_roundtrip():
    rng = np.random.default_rng(SEED)
    from scipy.linalg import expm
    for _ in range(25):
        t, b, c = rng.uniform(0.05, 1.5, 3)
        s = expm(t * SL2_H) @ expm(b * SL2_E + c * SL2_F)
        t2, b2, c2, resid = oracles.sl2_cone_factorize(s)
        assert resid < 1.0e-10
        rebuilt = expm(t2 * SL2_H) @ expm(b2 * SL2_E + c2 * SL2_F)
        assert np.max(np.abs(rebuilt - s)) < 1.0e-9
        assert b2 >= 0.0 and c2 >= 0.0


def test_factorization_rejects_negative_entries():
    with pytest.raises(ValueError):
        oracles.sl2_cone_factorize(np.array([[1.0, -0.5], [0.0, 1.0]]))


def test_quadrant_products_always_factor():
    rep = semigroup_membership_sample(200, seed=SEED, cone="quadrant")
    assert rep.n_products == 200
    assert rep.n_success == 200
    assert rep.worst_residual < 1.0e-8
    assert len(rep.failures) == 0


def test_wedge_control_products_leave_the_family():
    rep = semigroup_membership_sample(200, seed=SEED, cone="wedge")
    assert rep.n_success < 200
    assert len(rep.failures) > 0


def test_membership_reproducible():
    a = semigroup_membership_sample(50, seed=SEED, cone="quadrant")
    b = semigroup_membership_sample(50, seed=SEED, cone="quadrant")
    assert a.worst_residual == b.worst_residual


def _assert_matches_expm(b, c):
    # expm's own error grows with the norm of its argument (1e-12 relative
    # at b = c = 8 against a 40-digit reference), hence the (1 + |b| + |c|)^2
    from scipy.linalg import expm

    want = expm(b * SL2_E + c * SL2_F)
    got = liealg._sl2_cone_exp(np.array(b), np.array(c))
    assert got.shape == (2, 2)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1.0e-14 * (1.0 + abs(b) + abs(c)) ** 2 * scale


@settings(max_examples=300, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
def test_closed_form_exponential_matches_expm(b, c):
    _assert_matches_expm(b, c)


@pytest.mark.parametrize("b, c", [
    (0.0, 0.0), (0.0, 3.0), (-2.5, 0.0), (0.0, -7.0), (5.0, -0.0),
    (1.0e-150, 1.0e-150), (1.0e-150, -1.0e-150), (-1.0e-300, 1.0),
    (1.0, 1.0e-300), (-1.0e-160, -1.0e-160), (4.0e-320, 2.0),
    (3.0, 4.0), (8.0, 8.0), (-8.0, 8.0), (7.9, -7.9), (8.0, -0.01),
])
def test_closed_form_exponential_at_vanishing_and_large_bc(b, c):
    import mpmath

    _assert_matches_expm(b, c)
    with mpmath.workdps(40):
        exact = np.array(mpmath.expm(mpmath.matrix([[0, b], [c, 0]])).tolist(), dtype=float)
    got = liealg._sl2_cone_exp(np.array(b), np.array(c))
    assert np.max(np.abs(got - exact)) <= 4.0e-16 * max(1.0, float(np.max(np.abs(exact))))


def test_closed_form_exponential_is_elementwise_on_stacks():
    rng = np.random.default_rng(SEED)
    b, c = rng.uniform(-3.0, 3.0, size=(2, 5, 4))
    stack = liealg._sl2_cone_exp(b, c)
    assert stack.shape == (5, 4, 2, 2)
    for i, j in np.ndindex(5, 4):
        assert np.array_equal(stack[i, j], liealg._sl2_cone_exp(b[i, j], c[i, j]))


@pytest.mark.parametrize("scale", [1.0, 0.5, 3])
def test_stacked_draw_is_the_per_product_uniform_stream(scale):
    ts, xs = liealg._membership_draws(257, SEED, scale)
    want_ts, want_xs = oracles.membership_draws_per_product(257, SEED, scale)
    assert ts.tobytes() == want_ts.tobytes()
    assert xs.tobytes() == want_xs.tobytes()


@pytest.mark.parametrize("seed", [0, 11, 2026, SEED])
@pytest.mark.parametrize("cone", ["quadrant", "wedge"])
def test_stacked_membership_matches_looped_expm_oracle(seed, cone):
    rep = semigroup_membership_sample(400, seed, cone=cone)
    n_success, worst, failures = oracles.membership_sample_looped(400, seed, cone=cone)
    assert rep.n_success == n_success
    assert rep.failures == failures
    assert abs(rep.worst_residual - worst) <= 1.0e-13


@pytest.mark.parametrize("scale", [1, 2, 3, 4, 5, 6, 7, 8])
def test_quadrant_products_refactor_at_large_scale(scale):
    # products reach |s| ~ 3e11 at scale 8, where det loses digits to the
    # cancellation of s00 s11 against s01 s10; the gate is relative to it
    rep = semigroup_membership_sample(300, 5, scale=scale)
    assert rep.n_success == 300 and rep.failures == ()
    for product in oracles.membership_products_expm(300, 5, scale=scale):
        residual = oracles.sl2_cone_factorize(product)[3]
        assert residual <= 1.0e-13 * float(np.max(np.abs(product)))


@pytest.mark.parametrize("s, reason", [
    (np.diag([2.0, 2.0]), "matrix determinant 4 is not 1"),
    (np.diag([1.0 - 1.0e-10, 1.0]), "diagonal product 0.99999999989999999 below 1"),
])
def test_factorization_names_the_gate_it_fails(s, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        oracles.sl2_cone_factorize(s)


@pytest.mark.parametrize("case", [0, 1, 2, 3])
def test_commutant_dimension_matches_exact_rational_oracle(case):
    H = np.array([[1.0, 0.0], [0.0, -1.0]])
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([[0.0, 0.0], [1.0, 0.0]])
    families = [
        [H, E, F],
        [H],
        [np.eye(2)],
        [np.diag([1.0, 2.0, 3.0])],
    ]
    fam = families[case]
    got = commutant_dimension(fam)
    want = oracles.commutant_dimension_exact(fam)
    assert got == want


def test_commutant_dimension_irreducible_pair_in_dim4():
    shift = np.eye(4, k=1) + np.eye(4, k=-3)
    diag = np.diag([1.0, 2.0, 3.0, 4.0])
    fam = [shift, diag]
    assert commutant_dimension(fam) == 1
    assert oracles.commutant_dimension_exact(fam) == 1


def test_text_roundtrip_with_involution_and_cone():
    alg, tau = builtin_algebra("sl2R-adH")
    _, cone = builtin_cone("sl2R-adH")
    text = oracles.algebra_to_text(alg, involution=tau, cone=cone)
    back_alg, back_tau, back_cone = algebra_from_text(text)
    assert np.array_equal(back_alg.structure, alg.structure)
    assert back_alg.labels == alg.labels
    assert np.array_equal(back_tau.matrix, tau.matrix)
    assert np.array_equal(back_cone.generators, cone.generators)
    assert np.array_equal(back_cone.sampled_points, cone.sampled_points)


def test_text_rejects_unknown_format():
    with pytest.raises(ValueError):
        algebra_from_text("format: something-else v9\ndim: 1\n")


# -- pairwise contractions against the einsum and per-pair loop forms ---------
#
# Both routes add the same exact terms in different orders, so they differ by
# at most (gamma_m + gamma_m') * S, where m and m' count the roundings along
# each route and S is the same sum over absolute values (Higham, Accuracy and
# Stability of Numerical Algorithms, section 3.1).  The bounds follow from
# the arithmetic alone, whatever basis is drawn.

EPS = np.finfo(float).eps
REBASED = ("sl2R-cartan", "sl2R-adH", "heisenberg", "abelian-1", "abelian-4",
           "perturbed-jacobi")


def gamma(m):
    return m * EPS / (1.0 - m * EPS)


@st.composite
def rebased_builtin(draw):
    """(built-in, its involution or None, B): Y = B X with B = I + E and
    |E_ij| <= 0.15, so ||B^-1|| <= 2.5 for every drawn basis."""
    alg, tau = builtin_algebra(draw(st.sampled_from(REBASED)))
    n = alg.dim
    E = draw(arrays(float, (n, n), elements=st.floats(-0.15, 0.15)))
    return alg, tau, np.eye(n) + E


@settings(max_examples=60, deadline=None)
@given(rebased_builtin())
def test_change_basis_matches_einsum_form(case):
    alg, _, B = case
    n = alg.dim
    got = change_basis(alg, B).structure
    want = oracles.einsum_change_basis(alg.structure, B)
    S = np.einsum("ai,bj,ijk,ke->abe", np.abs(B), np.abs(B), np.abs(alg.structure),
                  np.abs(np.linalg.inv(B)))
    # plus 1e-14: an entry near the clamp may be zeroed on one route only
    bound = (gamma(n**3 + 3) + gamma(3 * n + 3)) * S + 1.0e-14
    assert np.all(np.abs(got - want) <= bound)
    assert structure_lines(got) == oracles.looped_structure_lines(got)


@settings(max_examples=60, deadline=None)
@given(rebased_builtin())
def test_jacobi_residual_matches_einsum_form(case):
    alg, _, B = case
    c = change_basis(alg, B).structure
    got = validate_algebra(LieAlgebra(alg.dim, alg.labels, c), tol=np.inf).jacobi_residual
    want = oracles.einsum_jacobi_residual(c)
    S = oracles.einsum_jacobi_residual(np.abs(c))
    assert abs(got - want) <= 2.0 * gamma(alg.dim + 3) * S


@settings(max_examples=60, deadline=None)
@given(rebased_builtin(), st.integers(1, 4))
def test_blocked_jacobi_residual_matches_einsum_form(case, step):
    alg, _, B = case
    c = change_basis(alg, B).structure
    whole = liealg._jacobi_residual(c)
    # blocks of `step` values of the first index, the last one ragged
    saved = liealg._JACOBI_BLOCK_ENTRIES
    liealg._JACOBI_BLOCK_ENTRIES = step * alg.dim**3
    try:
        got = liealg._jacobi_residual(c)
    finally:
        liealg._JACOBI_BLOCK_ENTRIES = saved
    assert got == whole
    S = oracles.einsum_jacobi_residual(np.abs(c))
    assert abs(got - oracles.einsum_jacobi_residual(c)) <= 2.0 * gamma(alg.dim + 3) * S


def test_jacobi_residual_memory_is_below_one_n4_array():
    alg, _ = builtin_algebra("abelian-40")
    tracemalloc.start()
    try:
        validate_algebra(alg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 40^4 array of float64 is 20 MB
    assert peak < 5 * 2**20


@settings(max_examples=60, deadline=None)
@given(rebased_builtin().filter(lambda case: case[1] is not None))
def test_bracket_residual_matches_loop_form(case):
    alg, tau, B = case
    n = alg.dim
    split = split_by_involution(alg, tau)
    c = change_basis(alg, B).structure
    # the same split in the coordinates y = B^-T x of the basis Y = B X
    h, q = split.h_basis @ np.linalg.inv(B), split.q_basis @ np.linalg.inv(B)
    t = np.linalg.solve(B.T, tau.matrix @ B.T)
    Ph, Pq = 0.5 * (np.eye(n) + t), 0.5 * (np.eye(n) - t)
    got = _bracket_residual(c, h, q, Ph, Pq)
    want = oracles.looped_bracket_residual(c, h, q, Ph, Pq)
    S = oracles.looped_bracket_residual(*(np.abs(x) for x in (c, h, q, Ph, Pq)))
    assert abs(got - want) <= (gamma(n * n + n + 3) + gamma(3 * n + 3)) * S


@pytest.mark.parametrize("name", ["sl2R-cartan", "sl2R-adH", "heisenberg", "abelian-5"])
def test_builtin_split_and_dual_match_loop_forms(name):
    alg, tau = builtin_algebra(name)
    split = split_by_involution(alg, tau)
    t = tau.matrix
    n = alg.dim
    assert split.bracket_residual == oracles.looped_bracket_residual(
        alg.structure, split.h_basis, split.q_basis, 0.5 * (np.eye(n) + t), 0.5 * (np.eye(n) - t))
    adapted, B = adapted_algebra(split)
    assert np.array_equal(adapted.structure, oracles.einsum_change_basis(alg.structure, B))
    dual = c_dual(split)
    assert validate_algebra(dual).jacobi_residual == oracles.einsum_jacobi_residual(dual.structure)
    assert structure_lines(dual.structure) == oracles.looped_structure_lines(dual.structure)
