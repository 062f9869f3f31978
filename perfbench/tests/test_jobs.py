from collections import Counter

import pytest

import jobs


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_stream_is_deterministic_for_a_seed(workload):
    assert jobs.cycles(workload, 7, 3) == jobs.cycles(workload, 7, 3)
    assert jobs.cycles(workload, 7, 3) != jobs.cycles(workload, 8, 3)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_no_two_jobs_share_a_configuration(workload):
    drawn = jobs.cycles(workload, 3, 25)
    assert len({job.config for job in drawn}) == len(drawn)
    assert len({job.key() for job in drawn}) == len(drawn)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_cycle_has_the_same_mix(workload):
    n = jobs.cycle_length(workload)
    for seed in (1, 2):
        drawn = jobs.cycles(workload, seed, 4)
        mixes = [Counter(j.kind for j in drawn[k:k + n]) for k in range(0, len(drawn), n)]
        assert all(mix == mixes[0] for mix in mixes)


def test_reconstruct_jobs_use_the_default_basis_times():
    # a config with times but no degrees exits 2 (see the README)
    for job in jobs.cycles("reconstruct", 11, 3):
        if job.command == "reconstruct":
            assert job.param("times") is None and job.param("degrees") is None
        else:
            assert len(job.param("times").split()) == len(job.param("degrees").split())


def test_mass_grid_includes_its_lower_end():
    masses = [float(j.param("mass")) for j in jobs.cycles("reconstruct", 2, 2)
              if j.command == "reconstruct"]
    assert min(masses) == 0.5 and max(masses) <= 1.5


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        next(jobs.stream("nope", 1))
