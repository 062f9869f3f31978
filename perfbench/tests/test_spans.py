import numpy as np
import pytest

import jobs
import run
import spans


@pytest.fixture(scope="module")
def cli():
    return run.import_oslab()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / run.WORK / "work").mkdir(parents=True)
    return tmp_path


def first_of_each_kind(workload, seed=4, cycles=1):
    picked = {}
    for job in jobs.cycles(workload, seed, cycles):
        if job.kind not in picked and job.param("max_degree", "4") in ("4", "5"):
            picked[job.kind] = job
    return list(picked.values())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_job_writes_identical_reports(cli, workdir, workload):
    for job in first_of_each_kind(workload):
        _, _, code, plain, _ = run.run_job(cli, job)
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            _, _, traced_code, traced, _ = run.run_job(cli, job, tracer)
        finally:
            restore()
        assert (traced_code, traced) == (code, plain)
        assert plain and code == job.expect_exit


def test_self_times_sum_to_job_wall_time(cli, workdir):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for i, job in enumerate(first_of_each_kind("reconstruct") + first_of_each_kind("certify")):
            tracer.job_id = i
            run.run_job(cli, job, tracer)
    finally:
        restore()
    dur, self_t = tracer.self_times()
    job = np.frombuffer(tracer.job, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    roots = np.flatnonzero(parent < 0)
    assert len(roots) == job.max() + 1
    for r in roots:
        mine = job == job[r]
        assert self_t[mine].sum() == pytest.approx(dur[r], rel=1e-9)
        assert (self_t[mine] >= -1e-9).all()
    # every layer the two workloads load shows up
    names = {tracer.names[i] for i in np.frombuffer(tracer.name, dtype=np.uint16)}
    assert {"lattice.generating_functional", "positivity.pd_gram_certificate",
            "moments.gaussian_monomial_with_source", "reconstruction.transfer_operator",
            "textio.atomic_write"} <= names


def test_wrappers_reach_every_import_site_and_come_off(cli):
    import oslab
    from oslab import lattice, reconstruction

    originals = (cli.ou_covariance, reconstruction.sample_path_matrix, oslab.c_dual)
    restore = spans.install(spans.Tracer())
    try:
        assert cli.ou_covariance is lattice.ou_covariance
        assert cli.ou_covariance.__wrapped__ is originals[0]
        assert reconstruction.sample_path_matrix.__wrapped__ is originals[1]
        assert oslab.c_dual.__wrapped__ is originals[2]
    finally:
        restore()
    assert (cli.ou_covariance, reconstruction.sample_path_matrix, oslab.c_dual) == originals


def test_counts_and_distinct_ratios(cli, workdir):
    job = next(j for j in jobs.cycles("sample", 1, 1) if int(j.param("n_points")) < 600)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        tracer.job_id = 0
        run.run_job(cli, job, tracer)
    finally:
        restore()
    m = spans.layer_metrics(tracer, 1, "sample")
    samples, n = int(job.param("samples")), int(job.param("n_points"))
    # npoint draws the same path matrix for both of its cases
    assert m["lattice.paths_drawn"][0] == 2 * samples
    assert m["lattice.normals_drawn"][0] == 2 * samples * n
    assert m["lattice.sample_distinct_ratio"][0] == 0.5
    assert m["lattice.measures"][0] == 1
    assert 0.0 < m["trace.assigned_share"][0] <= 1.0
