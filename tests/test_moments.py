"""Gaussian moment engine against independent pairing-sum oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oslab.moments import gaussian_monomial_with_source, isserlis_moment, site_power_moments

SEED = 20260822


def random_spd(dim, rng):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def test_odd_moments_vanish():
    rng = np.random.default_rng(SEED)
    cov = random_spd(4, rng)
    assert isserlis_moment(cov, (0,)) == 0.0
    assert isserlis_moment(cov, (1, 2, 3)) == 0.0
    assert isserlis_moment(cov, (0, 0, 0, 1, 2)) == 0.0


def test_second_moment_is_covariance():
    rng = np.random.default_rng(SEED)
    cov = random_spd(5, rng)
    for i in range(5):
        for j in range(5):
            assert isserlis_moment(cov, (i, j)) == cov[i, j]


@pytest.mark.parametrize("indices", [(0, 1, 2, 3), (0, 0, 1, 1), (2, 2, 2, 2), (3, 1, 0, 2)])
def test_fourth_moment_matches_pairing_oracle(indices):
    rng = np.random.default_rng(SEED + 1)
    cov = random_spd(4, rng)
    got = isserlis_moment(cov, indices)
    want = oracles.four_point_wick(cov, *indices)
    assert abs(got - want) < 1.0e-12 * abs(want)


@pytest.mark.parametrize("indices", [(0, 1, 2, 3, 4, 5), (0, 0, 1, 1, 2, 2), (5, 5, 5, 5, 5, 5)])
def test_sixth_moment_matches_pairing_oracle(indices):
    rng = np.random.default_rng(SEED + 2)
    cov = random_spd(6, rng)
    got = isserlis_moment(cov, indices)
    want = oracles.six_point_wick(cov, indices)
    assert abs(got - want) < 1.0e-12 * abs(want)


def test_moment_ordering_irrelevant():
    rng = np.random.default_rng(SEED + 3)
    cov = random_spd(4, rng)
    a = isserlis_moment(cov, (0, 1, 2, 2))
    b = isserlis_moment(cov, (2, 0, 2, 1))
    assert a == b


def test_source_free_reduces_to_plain_moment():
    rng = np.random.default_rng(SEED + 4)
    cov = random_spd(3, rng)
    for idx in ((0, 1), (0, 1, 2, 2)):
        plain = isserlis_moment(cov, idx)
        with_none = gaussian_monomial_with_source(cov, idx, None)
        with_zero = gaussian_monomial_with_source(cov, idx, np.zeros(3))
        assert abs(with_none - plain) < 1.0e-13 * abs(plain)
        assert abs(with_zero - plain) < 1.0e-13 * abs(plain)


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("s", [0.3, -1.1])
def test_single_site_source_matches_closed_form(degree, s):
    sigma2 = 0.7
    cov = np.array([[sigma2]])
    src = np.array([s])
    got = gaussian_monomial_with_source(cov, (0,) * degree, src)
    want = oracles.moment_with_source_1d(sigma2, s, degree)
    assert abs(got - want) < 1.0e-14


def test_two_site_source_matches_hand_expansion():
    # E[x0 x1 exp(i s x2)] under a centered Gaussian: shifting by the
    # imaginary mean mu_j = i s C_{j2} gives
    # exp(-s^2 C_22 / 2) * (C_01 - s^2 C_02 C_12)
    rng = np.random.default_rng(SEED + 5)
    cov = random_spd(3, rng)
    s = 0.45
    src = np.array([0.0, 0.0, s])
    got = gaussian_monomial_with_source(cov, (0, 1), src)
    want = np.exp(-0.5 * s * s * cov[2, 2]) * (cov[0, 1] - s * s * cov[0, 2] * cov[1, 2])
    assert abs(got - want) < 1.0e-12 * abs(want)


def test_source_moment_monte_carlo_cross_check():
    rng = np.random.default_rng(SEED + 6)
    cov = random_spd(2, rng)
    chol = np.linalg.cholesky(cov)
    draws = rng.standard_normal((200000, 2)) @ chol.T
    src = np.array([0.25, -0.4])
    vals = draws[:, 0] * draws[:, 1] ** 2 * np.exp(1j * draws @ src)
    est = np.mean(vals)
    se = np.std(vals) / np.sqrt(len(vals))
    want = gaussian_monomial_with_source(cov, (0, 1, 1), src)
    assert abs(est - want) < 4.0 * se


# -- properties on random covariances -----------------------------------------

def spd_from_seed(dim, seed):
    return random_spd(dim, np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_engine_matches_hand_expanded_pairings(seed, data):
    cov = spd_from_seed(6, seed)
    memo = {}
    four = data.draw(st.lists(st.integers(0, 5), min_size=4, max_size=4))
    six = data.draw(st.lists(st.integers(0, 5), min_size=6, max_size=6))
    # pairing terms may cancel: compare against the sum of their magnitudes
    for indices, want, scale in (
        (four, oracles.four_point_wick(cov, *four), oracles.four_point_wick(np.abs(cov), *four)),
        (six, oracles.six_point_wick(cov, six), oracles.six_point_wick(np.abs(cov), six)),
    ):
        for m in (None, memo):
            got = isserlis_moment(cov, indices, memo=m)
            assert abs(got - want) <= 1.0e-13 * scale


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(st.lists(st.integers(0, 4), max_size=8), min_size=1, max_size=25),
)
def test_shared_memo_is_bitwise_fresh(seed, calls):
    cov = spd_from_seed(5, seed)
    src = np.random.default_rng(seed).uniform(-0.5, 0.5, 5)
    shared = {}
    for indices in calls:
        fresh = isserlis_moment(cov, indices)
        reused = isserlis_moment(cov, indices, memo=shared)
        assert np.float64(reused).tobytes() == np.float64(fresh).tobytes()
        via_source = gaussian_monomial_with_source(cov, indices, None, memo=shared)
        assert via_source == complex(fresh)
        # a sourced call ignores the memo and must leave it as it was
        before = dict(shared)
        sourced = gaussian_monomial_with_source(cov, indices, src, memo=shared)
        assert shared == before
        assert sourced == gaussian_monomial_with_source(cov, indices, src)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    indices=st.lists(st.integers(0, 3), max_size=7),
    complex_source=st.booleans(),
)
def test_sourced_recursion_matches_subset_sum(seed, indices, complex_source):
    rng = np.random.default_rng(seed)
    cov = random_spd(4, rng)
    src = rng.uniform(-0.5, 0.5, 4)
    if complex_source:
        src = src + 1j * rng.uniform(-0.5, 0.5, 4)
    got = gaussian_monomial_with_source(cov, indices, src)
    want = oracles.moment_with_source_subset_sum(cov, indices, src)
    # subset terms can cancel (relative error up to ~4e-12 of the value
    # in 3000 draws), so compare against the sum of the terms' magnitudes
    scale = abs(oracles.moment_with_source_subset_sum(cov, indices, src, magnitudes=True))
    assert abs(got - want) <= 1.0e-13 * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_site_power_closed_form_matches_engine(seed):
    # within a block of even total degree every pairing term has the sign
    # of C_jk^p with p of one parity, so the terms never cancel and an
    # entrywise relative bound holds
    cov = spd_from_seed(6, seed)
    for a in range(1, 5):
        for b in range(1, 5):
            block = site_power_moments(cov, a, b)
            for j in range(6):
                for k in range(6):
                    want = isserlis_moment(cov, [j] * a + [k] * b)
                    if (a + b) % 2:
                        assert block[j, k] == 0.0 == want
                    else:
                        assert abs(block[j, k] - want) <= 1.0e-13 * abs(want)
