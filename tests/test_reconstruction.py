"""Physical Hilbert space, transfer semigroup, Hamiltonian, n-point identity."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oslab import reconstruction
from oslab.lattice import (
    GaussianEuclideanMeasure,
    TestFunction,
    TimeLattice,
    cosine_damped_covariance,
    free_field_covariance,
    ou_covariance,
)
from oslab.moments import isserlis_moment
from oslab.reconstruction import (
    GRAM_SYMMETRY_RTOL,
    HamiltonianResult,
    ReflectionPositivityError,
    RepresentabilityError,
    ShiftRangeError,
    SpectrumError,
    build_physical_space,
    check_reflection_intertwining,
    constant_functional,
    extract_hamiltonian,
    monomial,
    monomial_basis,
    multiplication_operator,
    reflected_gram,
    transfer_operator,
    verify_npoint_identity,
)

SEED = 20260822

LAT = TimeLattice(16, 0.25)
T0 = float(LAT.times[8])

# frozen: reflected pairing of q(0.125) with itself at unit mass,
# exp(-2 * 0.125) / 2
JGRAM_QQ = 0.38940039153570244

# frozen: operator-route values of the embedded two- and four-point
# functions on the degree-4 single-time space (16 sites, spacing 0.25)
NPOINT_2PT = 0.3894003915357038
NPOINT_4PT = 0.3355723855138807


def test_monomial_validation_and_merging():
    with pytest.raises(ValueError):
        monomial([-0.125], [1])
    with pytest.raises(ValueError):
        monomial([0.125], [-1])
    o = monomial([0.125, 0.125], [1, 1])
    assert o.times == (0.125,)
    assert o.degrees == (2,)
    assert o.total_degree == 2
    assert o.describe() == "q(0.125)^2"
    assert o.shifted(0.25).describe() == "q(0.375)^2"
    assert constant_functional().total_degree == 0


def test_monomial_basis_is_graded_with_constant_first():
    b = monomial_basis([0.125, 0.375], 2)
    assert [o.describe() for o in b] == [
        "1", "q(0.125)", "q(0.375)", "q(0.125)^2", "q(0.125)*q(0.375)", "q(0.375)^2",
    ]
    assert len(monomial_basis([0.125, 0.375, 0.625], 3)) == 20


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
def test_reflected_gram_closed_form(mass):
    m = ou_covariance(mass, LAT)
    g = reflected_gram(m, [constant_functional(), monomial([T0], [1])])
    want = np.array([[1.0, 0.0], [0.0, np.exp(-2.0 * mass * T0) / (2.0 * mass)]])
    assert np.max(np.abs(g - want)) < 1.0e-15
    if mass == 1.0:
        assert abs(g[1, 1] - JGRAM_QQ) < 1.0e-16


def test_physical_space_collapses_to_boundary_germ():
    # the decaying kernel is nearest-neighbor Markov, so three times and
    # degree 3 reduce to polynomials of degree <= 3 in the germ variable
    m = ou_covariance(1.0, LAT)
    times = [float(x) for x in LAT.times[8:11]]
    sp = build_physical_space(m, times=times, max_degree=3)
    assert len(sp.basis) == 20
    assert sp.physical_dim == 4
    assert abs(np.linalg.norm(sp.vacuum) - 1.0) < 1.0e-12


def test_duplicate_basis_entry_only_adds_null_direction():
    m = ou_covariance(1.0, LAT)
    b = monomial_basis([T0], 2)
    sp1 = build_physical_space(m, basis=b)
    sp2 = build_physical_space(m, basis=b + [b[1]])
    assert sp1.physical_dim == sp2.physical_dim == 3


def test_non_reflection_positive_measure_is_refused():
    m = cosine_damped_covariance(1.0, 4.0, LAT)
    with pytest.raises(ReflectionPositivityError):
        build_physical_space(m, times=[T0, float(LAT.times[9])], max_degree=2)


def test_transfer_is_diagonal_on_two_element_basis():
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, basis=[constant_functional(), monomial([T0], [1])])
    T = transfer_operator(sp, 0.25)
    want = np.diag([1.0, np.exp(-0.25)])
    assert np.max(np.abs(T - want)) < 1.0e-12


def test_transfer_semigroup_contraction_and_identity():
    m = ou_covariance(1.0, LAT)
    times = [float(x) for x in LAT.times[8:11]]
    sp = build_physical_space(m, times=times, max_degree=3)
    T1 = transfer_operator(sp, 0.25)
    T2 = transfer_operator(sp, 0.5)
    assert np.linalg.norm(T1, 2) <= 1.0 + 1.0e-10
    assert np.max(np.abs(T1 @ T1 - T2)) < 1.0e-12
    T0_op = transfer_operator(sp, 0.0)
    assert np.max(np.abs(T0_op - np.eye(sp.physical_dim))) < 1.0e-12


def test_transfer_step_must_stay_on_grid():
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, times=[T0], max_degree=2)
    with pytest.raises(ShiftRangeError):
        transfer_operator(sp, 16.0)
    with pytest.raises(ShiftRangeError):
        transfer_operator(sp, -0.25)
    with pytest.raises(ValueError, match="multiple of the spacing"):
        transfer_operator(sp, 0.1)


def test_hamiltonian_spectrum_is_harmonic_ladder():
    m = ou_covariance(1.0, LAT)
    times = [float(x) for x in LAT.times[8:11]]
    sp = build_physical_space(m, times=times, max_degree=3)
    res = extract_hamiltonian(sp, transfer_operator(sp, 0.25), 0.25)
    assert isinstance(res, HamiltonianResult)
    assert abs(res.ground_energy) < 1.0e-10
    gaps = res.spectrum[1:] - res.spectrum[0]
    assert np.max(np.abs(gaps - np.array([1.0, 2.0, 3.0]))) < 1.0e-10
    assert np.linalg.norm(res.matrix @ sp.vacuum) < 1.0e-10


def test_hamiltonian_matches_integral_operator_oracle():
    # independent route: quadrature spectrum of the reversible one-step
    # kernel of the same process
    m = ou_covariance(1.0, LAT)
    times = [float(x) for x in LAT.times[8:11]]
    sp = build_physical_space(m, times=times, max_degree=3)
    res = extract_hamiltonian(sp, transfer_operator(sp, 0.25), 0.25)
    gaps = res.spectrum[1:] - res.spectrum[0]
    want = oracles.mehler_spectrum_oracle(1.0, 0.25, 3)
    assert np.max(np.abs(gaps - want) / want) < 1.0e-6


def test_hamiltonian_step_independent():
    m = ou_covariance(1.0, LAT)
    times = [float(x) for x in LAT.times[8:11]]
    sp = build_physical_space(m, times=times, max_degree=3)
    h1 = extract_hamiltonian(sp, transfer_operator(sp, 0.25), 0.25)
    h2 = extract_hamiltonian(sp, transfer_operator(sp, 0.5), 0.5)
    assert np.max(np.abs(h1.spectrum - h2.spectrum)) < 1.0e-10


def test_nonpositive_transfer_has_no_hamiltonian():
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, times=[T0], max_degree=3)
    bad = np.diag([1.0, -0.2, 0.5, 0.3])
    with pytest.raises(SpectrumError):
        extract_hamiltonian(sp, bad, 0.25)


def test_exact_transfer_refuses_shift_asymmetric_measure():
    # pinned ends break shift invariance; the exact route must reject the
    # visibly non-symmetric compression instead of averaging it away
    ff = free_field_covariance(1.0, TimeLattice(8, 0.5))
    lat = ff.lattice
    sp = build_physical_space(ff, times=[float(lat.times[4]), float(lat.times[5])], max_degree=2)
    with pytest.raises(ValueError):
        transfer_operator(sp, 0.5, exact=True)
    raw = transfer_operator(sp, 0.5, exact=False, contraction_tol=1.0e-2)
    assert np.linalg.norm(raw, 2) <= 1.0 + 1.0e-2
    assert np.max(np.abs(raw - raw.T)) > 1.0e-8


def test_exact_transfer_refuses_unrepresentable_shift():
    m = ou_covariance(1.0, LAT)
    c = np.zeros(16)
    c[8] = 3.0
    sp = build_physical_space(m, times=[T0], max_degree=2,
                              exponentials=(TestFunction(LAT, c),))
    with pytest.raises(RepresentabilityError):
        transfer_operator(sp, 0.25, exact=True)


def test_exact_transfer_refuses_non_markov_monomial_shift():
    # a sum of two OU kernels is reflection positive but not Markov: the
    # shifted q(T0) leaves the span of {1, q(T0)} with a norm defect ~2e-2
    d = np.abs(LAT.times[:, None] - LAT.times[None, :])
    C = np.exp(-d) / 2.0 + np.exp(-3.0 * d) / 6.0
    sp = build_physical_space(GaussianEuclideanMeasure(LAT, C, mass=1.0),
                              times=[T0], max_degree=1)
    with pytest.raises(RepresentabilityError, match=r"shifted functional q\(0\.375\)"):
        transfer_operator(sp, 0.25)


def test_multiplication_by_one_is_identity():
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, times=[T0], max_degree=2)
    I = multiplication_operator(sp, [1.0], at_time=T0)
    assert np.max(np.abs(I - np.eye(sp.physical_dim))) < 1.0e-12


def test_npoint_identity_frozen_values():
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, times=[T0], max_degree=4)
    assert sp.physical_dim == 5
    rep2 = verify_npoint_identity(sp, (T0, T0 + 0.25), (1, 1))
    assert abs(rep2.lhs_operator - NPOINT_2PT) < 1.0e-14
    assert abs(rep2.lhs_operator - rep2.rhs_wick) < 1.0e-12 * abs(rep2.rhs_wick)
    rep4 = verify_npoint_identity(sp, (T0, T0 + 0.25, T0 + 0.5, T0 + 0.75), (1, 1, 1, 1))
    assert abs(rep4.lhs_operator - NPOINT_4PT) < 1.0e-14
    assert abs(rep4.lhs_operator - rep4.rhs_wick) < 1.0e-12 * abs(rep4.rhs_wick)


def test_npoint_wick_side_matches_pairing_oracle():
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, times=[T0], max_degree=4)
    ts = (T0, T0 + 0.25, T0 + 0.5, T0 + 0.75)
    rep = verify_npoint_identity(sp, ts, (1, 1, 1, 1))
    idx = [LAT.index_of_time(t) for t in ts]
    cov = m.covariance[np.ix_(idx, idx)]
    want = oracles.four_point_wick(cov, 0, 1, 2, 3)
    assert abs(rep.rhs_wick - want) < 1.0e-13


def test_npoint_monte_carlo_arm():
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, times=[T0], max_degree=4)
    rep = verify_npoint_identity(sp, (T0, T0 + 0.25), (1, 1), n_samples=20000, seed=SEED)
    assert rep.n_samples == 20000
    assert rep.mc_se > 0.0
    assert abs(rep.rhs_mc - rep.rhs_wick) < 4.0 * rep.mc_se


def test_npoint_rejects_bad_time_arguments():
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, times=[T0], max_degree=4)
    with pytest.raises(ValueError):
        verify_npoint_identity(sp, (T0 + 0.25, T0), (1, 1))
    with pytest.raises(ValueError):
        verify_npoint_identity(sp, (-T0, T0), (1, 1))


def test_reflection_intertwining_exact_for_stationary_kernel():
    m = ou_covariance(1.0, LAT)
    rep = check_reflection_intertwining(m, max_degree=2, shifts=(1, 2))
    assert rep.involution_defect == 0.0
    assert rep.intertwining_defect < 1.0e-10
    assert rep.unitarity_defect < 1.0e-10
    assert tuple(rep.shifts_checked) == (1, 2)


def test_reflection_intertwining_broken_control_is_loud():
    m = ou_covariance(1.0, LAT)
    rep = check_reflection_intertwining(m, max_degree=2, shifts=(1, 2), break_reflection=True)
    assert rep.intertwining_defect > 0.1


def _random_psd_measure(lattice, seed):
    a = np.random.default_rng(seed).standard_normal((lattice.n_points, lattice.n_points))
    return GaussianEuclideanMeasure(lattice, a @ a.T / lattice.n_points, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from(("ou", "free-field", "cosine", "random")),
    half=st.integers(2, 32),
    spacing=st.sampled_from((0.1, 0.25, 0.5)),
    mass=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**32 - 1),
    max_degree=st.integers(1, 3),
    break_reflection=st.booleans(),
    data=st.data(),
)
def test_intertwining_index_maps_match_dense_oracle(
    kernel, half, spacing, mass, seed, max_degree, break_reflection, data
):
    lat = TimeLattice(2 * half, spacing)
    m = {
        "ou": lambda: ou_covariance(mass, lat),
        "free-field": lambda: free_field_covariance(mass, lat),
        "cosine": lambda: cosine_damped_covariance(mass, 4.0, lat),
        "random": lambda: _random_psd_measure(lat, seed),
    }[kernel]()
    # every shift keeps some member on the grid: |s| <= n/2 - 1
    shifts = tuple(data.draw(st.lists(st.integers(1 - half, half - 1), min_size=1, max_size=3)))
    got = check_reflection_intertwining(m, max_degree, shifts, break_reflection)
    assert not m.moment_memo
    want = oracles.dense_reflection_intertwining(m, max_degree, shifts, break_reflection)
    assert got.involution_defect == want.involution_defect
    assert got.intertwining_defect == want.intertwining_defect
    # the closed-form gram sums its pairing terms in another order, so the
    # two grams differ by rounding: 1e-12 relative to a defect above that,
    # 1e-14 of the gram scale for one at rounding level itself (the free
    # field under shift 0 reads ~1e-15 on both routes)
    assert got.unitarity_defect == pytest.approx(want.unitarity_defect, rel=1.0e-12, abs=1.0e-14)
    assert got.shifts_checked == want.shifts_checked


def test_intertwining_rejects_a_shift_with_no_member_on_the_grid():
    m = ou_covariance(1.0, LAT)
    with pytest.raises(ShiftRangeError):
        check_reflection_intertwining(m, max_degree=2, shifts=(1, 8))
    with pytest.raises(ValueError):
        oracles.dense_reflection_intertwining(m, max_degree=2, shifts=(1, 8))


def test_intertwining_at_n1024_uses_no_moment_engine():
    m = ou_covariance(1.0, TimeLattice(1024, 0.25))
    rep = check_reflection_intertwining(m, max_degree=2, shifts=(1, 2))
    broken = check_reflection_intertwining(m, max_degree=2, shifts=(1,), break_reflection=True)
    assert (rep.involution_defect, rep.intertwining_defect, rep.unitarity_defect) == (0.0, 0.0, 0.0)
    assert broken.involution_defect == 2.0
    assert broken.intertwining_defect == 2.0
    assert m.moment_memo == {}


# -- the shared moment memo ----------------------------------------------------

def fresh_pairing(measure, left, right):
    """<left, right> for monomials, one fresh-memo Isserlis call per entry."""
    idx = [LAT.index_of_time(-t) for t, d in zip(left.times, left.degrees) for _ in range(d)]
    idx += [LAT.index_of_time(t) for t, d in zip(right.times, right.degrees) for _ in range(d)]
    return isserlis_moment(measure.covariance, idx)


def test_shared_memo_matrices_are_bitwise_entrywise():
    m = ou_covariance(0.8, LAT)
    sp = build_physical_space(m, times=[float(t) for t in LAT.times[8:10]], max_degree=5)
    basis = sp.basis
    shifted = [f.shifted(0.25) for f in basis]
    G_ref = np.array([[fresh_pairing(m, f, g) for g in basis] for f in basis])
    M_ref = np.array([[fresh_pairing(m, f, g) for g in shifted] for f in basis])
    norms_ref = np.array([fresh_pairing(m, g, g) for g in shifted])
    assert len(m.moment_memo) > 0
    assert np.array_equal(sp.gram, G_ref)
    assert np.array_equal(reflected_gram(m, basis), G_ref)
    M, norms = reconstruction._shift_pairing_matrix(sp, 0.25)
    assert np.array_equal(M, M_ref)
    assert np.array_equal(norms, norms_ref)


def test_measure_covariance_is_read_only():
    m = ou_covariance(1.0, LAT)
    with pytest.raises(ValueError):
        m.covariance[0, 0] = 2.0
    assert m.covariance[0, 0] == 0.5


def test_npoint_builds_each_factor_once(monkeypatch):
    m = ou_covariance(1.0, LAT)
    sp = build_physical_space(m, times=[T0], max_degree=4)
    calls = {"multiply": [], "transfer": []}
    multiply, transfer = reconstruction.multiplication_operator, reconstruction.transfer_operator

    def counted_multiply(space, coefficients, at_time=None):
        calls["multiply"].append(tuple(coefficients))
        return multiply(space, coefficients, at_time)

    def counted_transfer(space, step, **kwargs):
        calls["transfer"].append(step)
        return transfer(space, step, **kwargs)

    monkeypatch.setattr(reconstruction, "multiplication_operator", counted_multiply)
    monkeypatch.setattr(reconstruction, "transfer_operator", counted_transfer)
    ts, ds = (T0, T0 + 0.25, T0 + 0.5, T0 + 1.0), (1, 1, 1, 1)
    rep = verify_npoint_identity(sp, ts, ds)
    assert sorted(calls["multiply"]) == [(0.0, 1.0)]
    assert sorted(calls["transfer"]) == [0.25, 0.5]
    monkeypatch.undo()
    # the chain with every factor rebuilt gives the same number
    vec = sp.vacuum.copy()
    for k in range(3, -1, -1):
        vec = multiplication_operator(sp, [0.0, 1.0]) @ vec
        if k:
            vec = transfer_operator(sp, ts[k] - ts[k - 1]) @ vec
    assert rep.lhs_operator == float(np.real(np.vdot(sp.vacuum, vec)))


KINDS = {
    "ou": lambda mass: ou_covariance(mass, LAT),
    "free-field": lambda mass: free_field_covariance(mass, LAT),
}


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    mass=st.floats(0.3, 2.0),
    degree=st.integers(1, 4),
    sites=st.sets(st.integers(8, 15), min_size=1, max_size=3),
)
def test_reflected_gram_is_hermitian(kind, mass, degree, sites):
    m = KINDS[kind](mass)
    G = reflected_gram(m, monomial_basis([float(LAT.times[j]) for j in sites], degree))
    assert np.max(np.abs(G - G.conj().T)) <= GRAM_SYMMETRY_RTOL * np.max(np.abs(G))
