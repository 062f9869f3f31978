"""Grid, kernels, generating functional, sampling."""
import dataclasses

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oslab import lattice
from oslab.lattice import (
    CovarianceError,
    GaussianEuclideanMeasure,
    KERNEL_CUSTOM,
    PSD_RTOL,
    TestFunction,
    TimeLattice,
    check_stationarity,
    check_time_reflection_symmetry,
    cosine_damped_covariance,
    covariance_bilinear,
    free_field_covariance,
    ou_covariance,
    sample_path_matrix,
)

SEED = 20260822

# frozen: exp(-0.0025) for the 0.4-amplitude spike on the 0.25-spaced grid
# at mass 1, derived from the closed-form kernel value C(t,t) = 1/(2m)
SPIKE_VALUE = 0.9975031223974601

# frozen: max stationarity deviation of the 4-site pinned-boundary field at
# mass 1, spacing 1, from the cofactor-inversion oracle
FF_STATIONARITY_DEV = 0.05454545454545451


def test_lattice_geometry():
    lat = TimeLattice(8, 0.5)
    assert lat.times.tolist() == [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75]
    assert 0.0 not in lat.times
    for j in range(8):
        r = lat.reflect_index(j)
        assert lat.times[r] == -lat.times[j]
        assert lat.reflect_index(r) == j
    assert lat.positive_indices.tolist() == [4, 5, 6, 7]


def test_lattice_rejects_odd_size():
    with pytest.raises(ValueError):
        TimeLattice(7, 0.5)


def test_index_of_time_roundtrip():
    lat = TimeLattice(16, 0.25)
    for j in range(16):
        assert lat.index_of_time(float(lat.times[j])) == j
    with pytest.raises(ValueError):
        lat.index_of_time(0.0)
    with pytest.raises(ValueError):
        lat.index_of_time(0.3)


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
def test_ou_kernel_matches_closed_form(mass):
    lat = TimeLattice(16, 0.25)
    m = ou_covariance(mass, lat)
    T, S = np.meshgrid(lat.times, lat.times, indexing="ij")
    want = np.exp(-mass * np.abs(T - S)) / (2.0 * mass)
    assert np.max(np.abs(m.covariance - want)) == 0.0


def test_ou_kernel_against_boundary_value_oracle():
    # independent route: solve the defining differential equation on a fine
    # grid and compare pointwise
    lat = TimeLattice(8, 0.5)
    m = ou_covariance(1.0, lat)
    for (i, j) in ((0, 7), (2, 5), (4, 4)):
        got = m.covariance[i, j]
        want = oracles.greens_function_value(1.0, float(lat.times[i]), float(lat.times[j]))
        assert abs(got - want) / abs(want) < 1.0e-5


def test_ou_stationary_and_reflection_symmetric():
    m = ou_covariance(1.0, TimeLattice(16, 0.25))
    flag, dev = check_stationarity(m)
    assert flag and dev == 0.0
    flag, dev = check_time_reflection_symmetry(m)
    assert flag and dev == 0.0


def test_free_field_matches_cofactor_oracle():
    lat = TimeLattice(4, 1.0)
    m = free_field_covariance(1.0, lat)
    want = oracles.free_field_4x4_oracle(1.0, 1.0)
    assert np.max(np.abs(m.covariance - want)) < 1.0e-14
    assert np.linalg.eigvalsh(want)[0] > 0.0


def test_free_field_boundary_breaks_stationarity():
    m = free_field_covariance(1.0, TimeLattice(4, 1.0))
    flag, dev = check_stationarity(m)
    assert not flag
    assert abs(dev - FF_STATIONARITY_DEV) < 1.0e-12
    # reflection symmetry survives the pinned ends
    flag, _ = check_time_reflection_symmetric_helper(m)
    assert flag


def check_time_reflection_symmetric_helper(m):
    return check_time_reflection_symmetry(m)


def test_free_field_interior_approaches_decaying_kernel():
    # fine spacing, wide grid: interior entries converge to the continuum
    # kernel; corners stay distorted by the pinned ends
    lat = TimeLattice(256, 0.05)
    m = free_field_covariance(1.0, lat)
    mid = 128
    for k in (0, 4, 16):
        got = m.covariance[mid, mid + k]
        want = np.exp(-abs(lat.times[mid] - lat.times[mid + k])) / 2.0
        assert abs(got - want) / want < 0.01


def test_cosine_kernel_is_psd_and_stationary():
    lat = TimeLattice(16, 0.25)
    m = cosine_damped_covariance(1.0, 4.0, lat)
    w = np.linalg.eigvalsh(m.covariance)
    assert w[0] >= -1.0e-10 * np.linalg.norm(m.covariance, 2)
    flag, _ = check_stationarity(m)
    assert flag


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("build", [ou_covariance, free_field_covariance])
def test_measure_keeps_its_spectrum_read_only(build, monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    m = build(0.7, TimeLattice(24, 0.25))
    assert calls == []  # proven PSD at construction: no spectrum yet
    w = m.eigenvalues
    assert m.eigenvalues is w
    assert calls == [(24, 24)]  # computed once, on first read
    assert np.array_equal(w, np.linalg.eigvalsh(m.covariance))
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.eigenvalues = w.copy()
    assert "eigenvalues" not in repr(m)


@pytest.mark.parametrize(
    "build, expression",
    [
        (ou_covariance, oracles.ou_kernel_expression),
        (free_field_covariance, oracles.free_field_kernel_expression),
        (lambda m, lat: cosine_damped_covariance(m, 4.0, lat),
         lambda m, lat: oracles.cosine_kernel_expression(m, 4.0, lat)),
    ],
    ids=["ou", "free-field", "cosine"],
)
@pytest.mark.parametrize("n, h", [(4, 1.0), (16, 0.25), (64, 0.1), (256, 0.3)])
@pytest.mark.parametrize("mass", [0.05, 0.7, 2.0])
def test_in_place_kernel_builds_equal_their_expressions(build, expression, n, h, mass):
    lat = TimeLattice(n, h)
    C = expression(mass, lat)
    got = build(mass, lat).covariance
    assert np.array_equal(got, GaussianEuclideanMeasure(lat, C, mass).covariance)
    assert np.array_equal(got, 0.5 * (C + C.T))


@pytest.mark.parametrize("n", [4, 256, 300])  # one partial tile, whole tiles, a ragged edge
def test_tiled_symmetric_part_equals_the_whole_matrix_expression(n):
    C = np.random.default_rng(n).standard_normal((n, n))
    S, asym = lattice._symmetric_part(np.asfortranarray(C))
    assert np.array_equal(S, 0.5 * (C + C.T))
    assert asym == np.max(np.abs(C - C.T))


def test_indefinite_covariance_rejected():
    lat = TimeLattice(4, 0.5)
    bad = np.diag([1.0, 1.0, 1.0, -0.5])
    with pytest.raises(CovarianceError, match="min eigenvalue -5.000000e-01$"):
        GaussianEuclideanMeasure(lat, bad, mass=1.0, kernel=KERNEL_CUSTOM)


def test_unproven_covariance_is_decided_by_its_spectrum(monkeypatch):
    # a zero diagonal entry is outside the Cholesky test: the spectrum decides
    # at construction, and a later read reuses it
    calls = _count_eigvalsh(monkeypatch)
    m = GaussianEuclideanMeasure(TimeLattice(4, 0.5), np.diag([1.0, 1.0, 1.0, 0.0]), mass=1.0)
    assert calls == [(4, 4)]
    assert m.eigenvalues.tolist() == [0.0, 1.0, 1.0, 1.0]
    assert calls == [(4, 4)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("site", [(0, 0), (1, 2)])
def test_non_finite_covariance_rejected(value, site):
    C = np.eye(4)
    C[site] = C[site[::-1]] = value
    with pytest.raises(CovarianceError, match="non-finite"):
        GaussianEuclideanMeasure(TimeLattice(4, 0.5), C, mass=1.0)


def _known_spectrum(n, seed, offset):
    # Q diag(lam) Q^T with the smallest eigenvalue placed at offset * tau,
    # tau = PSD_RTOL * max_i A_ii, and the others in [0.1, 1]
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.1, 1.0, n)
    lam[0] = 0.0
    lam[0] = offset * PSD_RTOL * float(np.max(np.diag((Q * lam) @ Q.T)))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.one_of(st.floats(-3.0, 3.0), st.floats(-1.0 - 1.0e-4, -1.0 + 1.0e-4)),
)
def test_psd_proof_never_passes_below_the_threshold(n, seed, offset):
    A = _known_spectrum(n, seed, offset)
    before = A.copy()
    proven = lattice._proves_psd(A)
    assert np.array_equal(A, before)  # the shifted diagonal is restored bitwise
    # exact verdict on the rounded matrix, in rationals: lambda_min(A) >= -tau
    # exactly when A + tau I is positive semidefinite
    exact = sp.Matrix(n, n, [sp.Rational(float(x)) for x in A.ravel()])
    tau = sp.Rational(PSD_RTOL) * sp.Rational(float(A.diagonal().max()))
    if proven:
        assert (exact + tau * sp.eye(n)).is_positive_semidefinite
    if offset >= -0.999:
        assert proven  # a margin of 1e-3 tau is far above the proof's delta here


def test_generating_functional_spike_frozen_value():
    lat = TimeLattice(16, 0.25)
    m = ou_covariance(1.0, lat)
    c = np.zeros(16)
    c[9] = 0.4
    val = m.generating_functional(TestFunction(lat, c))
    assert val.imag == 0.0
    assert abs(val.real - SPIKE_VALUE) < 1.0e-14


def test_generating_functional_is_even_and_complex_bilinear():
    lat = TimeLattice(16, 0.25)
    m = ou_covariance(1.0, lat)
    rng = np.random.default_rng(SEED)
    c = rng.standard_normal(16)
    f = TestFunction(lat, c)
    assert m.generating_functional(f) == m.generating_functional(TestFunction(lat, -c))
    # no conjugation inside the quadratic form: purely imaginary arguments
    # flip the sign of the exponent
    g = TestFunction(lat, 1j * c)
    b = covariance_bilinear(m, f, f)
    assert abs(m.generating_functional(g) - np.exp(0.5 * b)) < 1.0e-12


def test_sampling_reproducible_and_seed_sensitive():
    lat = TimeLattice(16, 0.25)
    m = ou_covariance(1.0, lat)
    a = sample_path_matrix(m, 64, seed=SEED)
    b = sample_path_matrix(m, 64, seed=SEED)
    c = sample_path_matrix(m, 64, seed=SEED + 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        sample_path_matrix(m, 0, seed=SEED)


def test_sample_memo_returns_the_same_read_only_array():
    m = ou_covariance(1.0, TimeLattice(16, 0.25))
    a = sample_path_matrix(m, 64, seed=SEED)
    assert sample_path_matrix(m, 64, seed=SEED) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    assert set(m.sample_memo) == {(64, SEED)}


def test_sample_memo_draws_anew_for_a_new_key(monkeypatch):
    m = ou_covariance(1.0, TimeLattice(16, 0.25))
    calls = []
    draw = lattice._standard_normal
    monkeypatch.setattr(lattice, "_standard_normal", lambda *a: calls.append(1) or draw(*a))
    a = sample_path_matrix(m, 64, seed=SEED)
    b = sample_path_matrix(m, 64, seed=SEED + 1)
    c = sample_path_matrix(m, 32, seed=SEED)
    sample_path_matrix(m, 64, seed=SEED)
    assert len(calls) == 3
    assert b is not a and not np.array_equal(a, b)
    assert c.shape == (32, 16)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 80), st.integers(0, 2**63 - 1))
def test_sample_memo_hit_equals_a_fresh_draw(half, count, seed):
    lat = TimeLattice(2 * half, 0.25)
    m = ou_covariance(0.7, lat)
    sample_path_matrix(m, count, seed)
    hit = sample_path_matrix(m, count, seed)
    fresh = sample_path_matrix(ou_covariance(0.7, lat), count, seed)
    assert np.array_equal(hit, fresh)


def test_normal_block_drawn_alone_equals_its_entries_of_the_full_draw():
    # 150 x 1024 normals fill two blocks and part of a third
    full = lattice._standard_normal(SEED, 150, 1024).reshape(-1)
    size = lattice.NORMAL_BLOCK
    for b in range(3):
        entries = full[b * size:(b + 1) * size]
        alone = lattice._normal_block(SEED, b).standard_normal(len(entries))
        assert np.array_equal(alone, entries)
    # fewer paths are a prefix of the same draw, and so are their OU paths
    assert np.array_equal(lattice._standard_normal(SEED, 70, 1024).reshape(-1), full[:70 * 1024])
    m = ou_covariance(0.8, TimeLattice(1024, 0.25))
    assert np.array_equal(sample_path_matrix(m, 70, SEED), sample_path_matrix(m, 150, SEED)[:70])


@pytest.mark.parametrize("n", [2, 16, 128, 1024])
@pytest.mark.parametrize("mh", [1.0e-7, 1.0e-4, 1.0e-2, 0.25, 1.0, 10.0])
def test_ou_recursion_factor_reproduces_the_covariance(n, mh):
    # rows of the identity give the rows of L^T; the bound is about n*u at n 1024
    spacing = 0.25
    m = ou_covariance(mh / spacing, TimeLattice(n, spacing))
    Lt = lattice._ou_paths(np.eye(n), m.mass, spacing)
    C = m.covariance
    assert np.max(np.abs(Lt.T @ Lt - C)) <= 1.0e-12 * np.max(C)
    # the diagonal, sigma then sigma sqrt(1 - rho^2), to a few ulps: 1 - rho^2
    # formed by subtraction would lose about 7 digits at mh 1e-7
    mass = mpmath.mpf(m.mass)
    sigma = mpmath.sqrt(1 / (2 * mass))
    innovation = sigma * mpmath.sqrt(-mpmath.expm1(-2 * mass * mpmath.mpf(spacing)))
    want = np.array([float(sigma)] + [float(innovation)] * (n - 1))
    assert np.max(np.abs(np.diag(Lt) / want - 1.0)) <= 1.0e-15


def _assert_empirical_covariance_converges(m):
    paths = sample_path_matrix(m, 40000, seed=SEED)
    emp = oracles.empirical_covariance(paths)
    # entry variance for Gaussians: (C_ii C_jj + C_ij^2)/N
    se = np.sqrt((np.outer(np.diag(m.covariance), np.diag(m.covariance))
                  + m.covariance**2) / 40000.0)
    assert np.all(np.abs(emp - m.covariance) < 4.0 * se + 1.0e-12)


def test_empirical_covariance_converges():
    _assert_empirical_covariance_converges(ou_covariance(1.0, TimeLattice(8, 0.5)))


@pytest.mark.parametrize("build", [
    lambda lat: free_field_covariance(1.0, lat),
    lambda lat: cosine_damped_covariance(1.0, 3.0, lat),
], ids=["free-field", "cosine-damped"])
def test_other_kernels_sample_through_the_eigendecomposition(build):
    m = build(TimeLattice(8, 0.5))
    L = lattice._covariance_factor(m)
    assert np.max(np.abs(L @ L.T - m.covariance)) <= 1.0e-12 * np.max(np.abs(m.covariance))
    _assert_empirical_covariance_converges(m)


def test_test_function_flags_and_arithmetic():
    lat = TimeLattice(8, 0.5)
    c = np.zeros(8)
    c[5] = 1.0
    f = TestFunction(lat, c)
    assert f.in_dplus
    assert not TestFunction(lat, 1j * c).in_dplus
    c2 = np.zeros(8)
    c2[1] = 1.0
    kneg = TestFunction(lat, c2)
    assert not kneg.in_dplus
    # membership is derived from the coefficients, never claimed by a caller
    with pytest.raises(TypeError):
        TestFunction(lat, c2, in_dplus=True)
    d = f - f
    assert np.all(d.coeffs == 0.0)
