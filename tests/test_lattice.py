"""Grid, kernels, generating functional, sampling, serialization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oslab import lattice
from oslab.lattice import (
    CovarianceError,
    GaussianEuclideanMeasure,
    KERNEL_CUSTOM,
    TestFunction,
    TimeLattice,
    check_stationarity,
    check_time_reflection_symmetry,
    cosine_damped_covariance,
    covariance_bilinear,
    empirical_covariance,
    free_field_covariance,
    measure_from_text,
    measure_to_text,
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


@pytest.mark.parametrize("build", [ou_covariance, free_field_covariance])
def test_measure_keeps_its_spectrum_read_only(build):
    m = build(0.7, TimeLattice(24, 0.25))
    assert np.array_equal(m.eigenvalues, np.linalg.eigvalsh(m.covariance))
    with pytest.raises(ValueError):
        m.eigenvalues[0] = 1.0
    assert "eigenvalues" not in repr(m)


def test_indefinite_covariance_rejected():
    lat = TimeLattice(4, 0.5)
    bad = np.diag([1.0, 1.0, 1.0, -0.5])
    with pytest.raises(CovarianceError):
        GaussianEuclideanMeasure(lat, bad, mass=1.0, kernel=KERNEL_CUSTOM)


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
    assert m.generating_functional(f) == m.generating_functional(f.scaled(-1.0))
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
    factor = lattice._covariance_factor
    monkeypatch.setattr(lattice, "_covariance_factor", lambda meas: calls.append(1) or factor(meas))
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


def test_empirical_covariance_converges():
    lat = TimeLattice(8, 0.5)
    m = ou_covariance(1.0, lat)
    paths = sample_path_matrix(m, 40000, seed=SEED)
    emp = empirical_covariance(paths)
    # entry variance for Gaussians: (C_ii C_jj + C_ij^2)/N
    se = np.sqrt((np.outer(np.diag(m.covariance), np.diag(m.covariance))
                  + m.covariance**2) / 40000.0)
    assert np.all(np.abs(emp - m.covariance) < 4.0 * se + 1.0e-12)


def test_measure_serialization_roundtrip():
    lat = TimeLattice(8, 0.5)
    for m in (ou_covariance(2.0, lat), cosine_damped_covariance(1.0, 3.0, lat)):
        back = measure_from_text(measure_to_text(m))
        assert back.kernel == m.kernel
        assert back.lattice == m.lattice
        assert np.max(np.abs(back.covariance - m.covariance)) < 1.0e-12


def test_measure_serialization_custom_covariance():
    lat = TimeLattice(4, 0.5)
    cov = np.diag([1.0, 2.0, 2.0, 1.0])
    m = GaussianEuclideanMeasure(lat, cov, mass=1.0, kernel=KERNEL_CUSTOM)
    back = measure_from_text(measure_to_text(m))
    assert np.max(np.abs(back.covariance - cov)) == 0.0


def test_test_function_flags_and_arithmetic():
    lat = TimeLattice(8, 0.5)
    c = np.zeros(8)
    c[5] = 1.0
    f = TestFunction(lat, c)
    assert f.is_real and f.in_dplus
    g = TestFunction(lat, 1j * c)
    assert not g.is_real
    c2 = np.zeros(8)
    c2[1] = 1.0
    kneg = TestFunction(lat, c2)
    assert not kneg.in_dplus
    with pytest.raises(ValueError):
        TestFunction(lat, c2, in_dplus=True)
    s = f + f.scaled(2.0)
    assert s.coeffs[5] == 3.0
    d = f - f
    assert np.all(d.coeffs == 0.0)
