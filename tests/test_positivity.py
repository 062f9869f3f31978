"""Positive-definiteness and reflection-positivity certificates."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oslab.lattice import (
    LatticeMismatchError,
    TestFunction,
    TimeLattice,
    cosine_damped_covariance,
    free_field_covariance,
    ou_covariance,
)
from oslab.positivity import (
    DplusMembershipError,
    HermiticityError,
    SampledObservable,
    certificate_to_text,
    delta_family,
    exact_sampled_gram_entry,
    find_rp_violation,
    pd_gram_certificate,
    project_dplus,
    reflect,
    rp_gram_certificate,
    rp_sampled_certificate,
    write_certificate,
)

SEED = 20260822

# frozen: smallest gram eigenvalue of the two-function family {0, spike}
# under the offset-corrupted functional, equal to 1/2 - exp(-0.000625)
CORRUPTED_MIN_EIG = -0.4993751952718163

# frozen: smallest eigenvalue (and its norm-relative value) of the
# reflection gram for the full positive-site spike family under the
# cosine-damped kernel at frequency 4, amplitude 2, on the 16-site grid
NON_RP_MIN_EIG = -0.08504290423064036
NON_RP_REL_EIG = -0.012062258223688694

LAT = TimeLattice(16, 0.25)


def corrupted(measure):
    def functional(f):
        val = measure.generating_functional(f)
        if np.max(np.abs(f.coeffs)) != 0.0:
            return val + 0.5
        return val
    return functional


def random_dplus_family(lattice, rng, size, scale=0.5):
    half = len(lattice.positive_indices)
    out = []
    for _ in range(size):
        c = np.zeros(lattice.n_points)
        c[lattice.positive_indices] = scale * rng.standard_normal(half)
        out.append(TestFunction(lattice, c))
    return out


def random_complex_family(lattice, rng, size, scale=0.35):
    out = []
    for _ in range(size):
        c = scale * (rng.standard_normal(lattice.n_points)
                     + 1j * rng.standard_normal(lattice.n_points))
        out.append(TestFunction(lattice, c))
    return out


def test_reflect_is_involution_and_mirrors_support():
    c = np.zeros(16)
    c[11] = 1.0
    f = TestFunction(LAT, c)
    g = reflect(f)
    assert g.coeffs[16 - 1 - 11] == 1.0
    assert np.array_equal(reflect(g).coeffs, f.coeffs)


def test_project_dplus_zeroes_negative_halfline():
    rng = np.random.default_rng(SEED)
    f = TestFunction(LAT, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    p = project_dplus(f)
    assert p.in_dplus
    assert np.all(p.coeffs[:8] == 0.0)
    assert np.all(p.coeffs.imag == 0.0)


def test_pd_zero_function_gives_unit_gram():
    m = ou_covariance(1.0, LAT)
    cert = pd_gram_certificate(m.generating_functional, [TestFunction(LAT, np.zeros(16))])
    assert cert.gram.shape == (1, 1)
    assert cert.gram[0, 0] == 1.0
    assert cert.verdict == "positive"


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("maker", [ou_covariance, free_field_covariance])
def test_pd_random_complex_families(mass, maker):
    m = maker(mass, LAT)
    rng = np.random.default_rng(SEED + int(10 * mass))
    for k in range(6):
        fam = random_complex_family(LAT, rng, int(rng.integers(1, 7)))
        cert = pd_gram_certificate(m.generating_functional, fam)
        assert cert.verdict == "positive"
        assert cert.min_eigenvalue >= -cert.tolerance * cert.norm


def test_pd_duplicate_function_is_degenerate_not_indefinite():
    m = ou_covariance(1.0, LAT)
    f = delta_family(LAT, [9], 0.3)[0]
    cert = pd_gram_certificate(m.generating_functional, [f, f])
    assert cert.verdict == "positive"
    assert abs(cert.min_eigenvalue) < 1.0e-12


def test_pd_corrupted_functional_frozen_eigenvalue_and_witness():
    m = ou_covariance(1.0, LAT)
    fam = [TestFunction(LAT, np.zeros(16)), delta_family(LAT, [9], 0.2)[0]]
    cert = pd_gram_certificate(corrupted(m), fam)
    assert cert.verdict == "indefinite"
    assert abs(cert.min_eigenvalue - CORRUPTED_MIN_EIG) < 1.0e-12
    w = cert.witness
    quad = np.real(np.conj(w) @ cert.gram @ w)
    assert abs(quad - cert.min_eigenvalue) < 1.0e-10
    assert abs(np.linalg.norm(w) - 1.0) < 1.0e-12


def test_pd_rejects_non_hermitian_functional():
    m = ou_covariance(1.0, LAT)

    def skewed(f):
        return m.generating_functional(f) + 1j * float(np.real(f.coeffs[9]) ** 2)

    fam = delta_family(LAT, [9, 11], 0.3)
    with pytest.raises(HermiticityError):
        pd_gram_certificate(skewed, fam)


def test_rp_single_function_positive():
    m = ou_covariance(1.0, LAT)
    cert = rp_gram_certificate(m.generating_functional, delta_family(LAT, [8], 0.5))
    assert cert.verdict == "positive"
    assert cert.gram[0, 0] > 0.0


@pytest.mark.parametrize("maker", [ou_covariance, free_field_covariance])
def test_rp_random_positive_time_families(maker):
    m = maker(1.0, LAT)
    rng = np.random.default_rng(SEED + 7)
    for k in range(8):
        fam = random_dplus_family(LAT, rng, int(rng.integers(1, 9)))
        cert = rp_gram_certificate(m.generating_functional, fam)
        assert cert.verdict == "positive"


def test_rp_mechanism_is_rank_one_cross_block():
    # independent explanation of the two positive verdicts above: for both
    # kernels the negative-positive covariance block factors through the
    # boundary value, so reflection grams are squares
    times = TimeLattice(16, 0.25).times
    ou = ou_covariance(1.0, LAT).covariance
    ff = free_field_covariance(1.0, LAT).covariance
    cos = cosine_damped_covariance(1.0, 4.0, LAT).covariance
    assert oracles.cross_block_rank_one_defect(ou, times) < 1.0e-12
    assert oracles.cross_block_rank_one_defect(ff, times) < 1.0e-12
    assert oracles.cross_block_rank_one_defect(cos, times) > 0.1


def test_rp_requires_positive_time_support():
    m = ou_covariance(1.0, LAT)
    c = np.zeros(16)
    c[2] = 1.0
    with pytest.raises(DplusMembershipError):
        rp_gram_certificate(m.generating_functional, [TestFunction(LAT, c)])


def test_rp_rejects_mixed_lattices():
    m = ou_covariance(1.0, LAT)
    other = TimeLattice(8, 0.25)
    c = np.zeros(8)
    c[6] = 1.0
    with pytest.raises(LatticeMismatchError):
        rp_gram_certificate(m.generating_functional,
                            delta_family(LAT, [9], 0.5) + [TestFunction(other, c)])


def test_non_rp_kernel_frozen_violation():
    m = cosine_damped_covariance(1.0, 4.0, LAT)
    fam = delta_family(LAT, list(LAT.positive_indices), 2.0)
    cert = rp_gram_certificate(m.generating_functional, fam)
    assert cert.verdict == "indefinite"
    assert abs(cert.min_eigenvalue - NON_RP_MIN_EIG) < 1.0e-12
    assert abs(cert.min_eigenvalue / cert.norm - NON_RP_REL_EIG) < 1.0e-12


def test_non_rp_witness_is_reproducible():
    m = cosine_damped_covariance(1.0, 4.0, LAT)
    fam = delta_family(LAT, list(LAT.positive_indices), 2.0)
    a = rp_gram_certificate(m.generating_functional, fam)
    b = rp_gram_certificate(m.generating_functional, fam)
    assert np.array_equal(a.witness, b.witness)
    quad = np.real(np.conj(a.witness) @ a.gram @ a.witness)
    assert abs(quad - a.min_eigenvalue) < 1.0e-10 * max(1.0, abs(a.min_eigenvalue))


# -- closed-form grams against the entrywise loop ------------------------------

KERNELS = {
    "ou": lambda lat: ou_covariance(1.0, lat),
    "free-field": lambda lat: free_field_covariance(1.0, lat),
    "cosine": lambda lat: cosine_damped_covariance(1.0, 4.0, lat),
}


def parity_families(lattice, rng):
    """A random family scaled so that B(f, f) stays of order 0.1 at every
    size, and the eight spikes nearest t = 0 at amplitude 2.  The cosine
    kernel's reflection form rejects both."""
    scale = 2.0 / np.sqrt(lattice.n_points)
    spikes = delta_family(lattice, list(lattice.positive_indices[:8]), 2.0)
    return [
        ("pd", random_complex_family(lattice, rng, 6, scale)),
        ("rp", random_dplus_family(lattice, rng, 6, scale)),
        ("pd", spikes),
        ("rp", spikes),
    ]


@pytest.mark.parametrize("n", [16, 512, 1024])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_closed_form_gram_matches_entrywise_loop(kernel, n):
    lattice = TimeLattice(n, 0.25)
    m = KERNELS[kernel](lattice)
    rng = np.random.default_rng(SEED + n)
    verdicts = []
    for kind, fam in parity_families(lattice, rng):
        certify = pd_gram_certificate if kind == "pd" else rp_gram_certificate
        fast = certify(m.generating_functional, fam)
        slow = certify(lambda f: m.generating_functional(f), fam)
        assert fast.gram.dtype == slow.gram.dtype
        scale = np.max(np.abs(slow.gram))
        assert np.max(np.abs(fast.gram - slow.gram)) <= 1.0e-12 * scale
        assert fast.verdict == slow.verdict
        verdicts.append(fast.verdict)
    rp = "indefinite" if kernel == "cosine" else "positive"
    assert verdicts == ["positive", rp, "positive", rp]


@pytest.mark.parametrize("closed_form", [True, False])
def test_both_gram_paths_raise_the_same_errors(closed_form):
    m = ou_covariance(1.0, LAT)
    functional = m.generating_functional if closed_form else (
        lambda f: m.generating_functional(f))
    other = TimeLattice(8, 0.25)
    stray = delta_family(other, [6], 0.5)
    home = delta_family(LAT, [9, 10], 0.5)
    for certify in (pd_gram_certificate, rp_gram_certificate):
        with pytest.raises(LatticeMismatchError, match="does not match measure"):
            certify(functional, stray + home)
        with pytest.raises(LatticeMismatchError, match="different lattices"):
            certify(functional, home + stray)
    c = np.zeros(16)
    c[2] = 1.0
    with pytest.raises(DplusMembershipError):
        rp_gram_certificate(functional, home + [TestFunction(LAT, c)])


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from(sorted(KERNELS)),
    size=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 1.0),
)
def test_closed_form_grams_are_hermitian(kernel, size, seed, scale):
    m = KERNELS[kernel](LAT)
    rng = np.random.default_rng(seed)
    pd = pd_gram_certificate(
        m.generating_functional, random_complex_family(LAT, rng, size, scale)).gram
    assert np.max(np.abs(pd - pd.conj().T)) <= 1.0e-12 * np.max(np.abs(pd))
    rp = rp_gram_certificate(
        m.generating_functional, random_dplus_family(LAT, rng, size, scale)).gram
    assert not np.iscomplexobj(rp)
    assert np.max(np.abs(rp - rp.T)) <= 1.0e-12 * np.max(np.abs(rp))


def test_certificate_verdict_matches_eigenvalue_rule():
    m = cosine_damped_covariance(1.0, 4.0, LAT)
    good = rp_gram_certificate(m.generating_functional, delta_family(LAT, [8, 9], 0.1))
    bad = rp_gram_certificate(m.generating_functional,
                              delta_family(LAT, list(LAT.positive_indices), 2.0))
    for cert in (good, bad):
        expected = "positive" if cert.min_eigenvalue >= -cert.tolerance * cert.norm else "indefinite"
        assert cert.verdict == expected


def test_find_rp_violation_scan():
    hit = find_rp_violation(LAT, 1.0, [4.0], [2.0])
    assert hit is not None
    omega, scale, cert = hit
    assert (omega, scale) == (4.0, 2.0)
    assert cert.verdict == "indefinite"
    # frequency zero degenerates to the plain decaying kernel, which passes
    assert find_rp_violation(LAT, 1.0, [0.0], [2.0]) is None


def test_sampled_certificate_constant_observable():
    m = ou_covariance(1.0, LAT)
    t0 = float(LAT.times[8])
    cert = rp_sampled_certificate(m, [SampledObservable(((t0, "1"),))], 2000, seed=SEED)
    assert cert.gram.shape == (1, 1)
    assert cert.gram[0, 0] == 1.0
    assert cert.n_samples == 2000


def test_sampled_certificate_positive_for_decaying_kernel():
    m = ou_covariance(1.0, LAT)
    t0, t1 = float(LAT.times[8]), float(LAT.times[10])
    obs = [
        SampledObservable(((t0, "1"),)),
        SampledObservable(((t0, "q"),)),
        SampledObservable(((t1, "q"),)),
        SampledObservable(((t0, "q2"),)),
        SampledObservable(((t0, "tanh"),)),
    ]
    cert = rp_sampled_certificate(m, obs, 4000, seed=SEED)
    assert cert.verdict == "positive"
    assert cert.min_eigenvalue_se > 0.0


def test_sampled_certificate_duplicate_observable_degenerates():
    m = ou_covariance(1.0, LAT)
    t0 = float(LAT.times[8])
    q = SampledObservable(((t0, "q"),))
    cert = rp_sampled_certificate(m, [q, q], 2000, seed=SEED)
    assert cert.min_eigenvalue >= -1.0e-10
    assert cert.min_eigenvalue < 1.0e-10


def test_sampled_certificate_reproducible_and_seed_sensitive():
    m = ou_covariance(1.0, LAT)
    t0 = float(LAT.times[8])
    obs = [SampledObservable(((t0, "q"),)), SampledObservable(((t0, "q2"),))]
    a = rp_sampled_certificate(m, obs, 1500, seed=SEED)
    b = rp_sampled_certificate(m, obs, 1500, seed=SEED)
    c = rp_sampled_certificate(m, obs, 1500, seed=SEED + 1)
    assert np.array_equal(a.gram, b.gram)
    assert not np.array_equal(a.gram, c.gram)


def test_sampled_gram_entries_match_exact_moments():
    m = ou_covariance(1.0, LAT)
    t0, t1 = float(LAT.times[8]), float(LAT.times[11])
    obs = [SampledObservable(((t0, "q"),)), SampledObservable(((t1, "q"),)),
           SampledObservable(((t0, "q2"),))]
    cert = rp_sampled_certificate(m, obs, 60000, seed=SEED)
    for i in range(3):
        for j in range(3):
            exact = exact_sampled_gram_entry(m, obs[i], obs[j])
            assert abs(cert.gram[i, j] - exact) < 0.05 * max(1.0, abs(exact))


def test_exact_entry_frozen_value_and_polynomial_guard():
    m = ou_covariance(1.0, LAT)
    t0 = float(LAT.times[8])
    q = SampledObservable(((t0, "q"),))
    # exp(-2 * t0) / 2 at unit mass
    assert abs(exact_sampled_gram_entry(m, q, q) - 0.38940039153570244) < 1.0e-15
    th = SampledObservable(((t0, "tanh"),))
    assert q.is_polynomial()
    assert not th.is_polynomial()
    with pytest.raises(ValueError):
        exact_sampled_gram_entry(m, q, th)


def test_certificate_text_and_file(tmp_path):
    m = ou_covariance(1.0, LAT)
    cert = rp_gram_certificate(m.generating_functional, delta_family(LAT, [8, 9], 0.5))
    text = certificate_to_text(cert)
    assert "verdict: positive" in text
    assert "min_eigenvalue:" in text
    out = tmp_path / "cert.txt"
    write_certificate(str(out), cert)
    assert out.read_text() == text
