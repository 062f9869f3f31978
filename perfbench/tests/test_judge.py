import math

import pytest

import jobs
import judge
import run


@pytest.fixture(scope="module")
def cli():
    return run.import_oslab()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / run.WORK / "work").mkdir(parents=True)
    return tmp_path


def run_and_judge(cli, job):
    _, _, code, files, _ = run.run_job(cli, job)
    return code, files, judge.judge(job, code, files)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_drawn_jobs_pass_their_judge(cli, workdir, workload):
    seen = set()
    for job in jobs.cycles(workload, 5, 1):
        if job.kind in seen or job.param("max_degree") == "6":
            continue
        seen.add(job.kind)
        code, files, verdict = run_and_judge(cli, job)
        assert verdict.ok, (job, verdict.problems)


def test_tampered_reports_fail(cli, workdir):
    job = next(j for j in jobs.cycles("reconstruct", 5, 1) if j.kind == "npoint-exact")
    code, files, verdict = run_and_judge(cli, job)
    assert verdict.ok and verdict.errors
    text = files["npoint_report.txt"].decode()
    rhs = next(l for l in text.splitlines() if "rhs_wick" in l).split(":")[1].strip()
    bad = dict(files, **{"npoint_report.txt": text.replace(rhs, repr(float(rhs) * 1.001)).encode()})
    assert not judge.judge(job, code, bad).ok
    assert not judge.judge(job, 2, files).ok
    assert not judge.judge(job, code, {}).ok


def test_control_must_fail_with_a_witness(cli, workdir):
    job = next(j for j in jobs.cycles("certify", 5, 1) if j.kind == "corrupted")
    code, files, verdict = run_and_judge(cli, job)
    assert code == 1 and verdict.ok
    assert not judge.judge(job, code, {k: v for k, v in files.items() if k != "witness.txt"}).ok


def test_monte_carlo_excursions_are_counted_apart():
    job = jobs.Job("npoint-mc", "npoint", (("instance", "ou"), ("n_points", "64"),
                                            ("mass", "1.0"), ("samples", "1000")), 0)
    t0 = 0.125
    wick = [judge.ou_wick_moment(t, d, 1.0, 0.25) for t, d in
            (([t0, t0 + 0.25], [1, 1]), ([t0 + 0.25 * k for k in range(4)], [1] * 4))]

    def report(sigma):
        lines = ["format: oslab-npoint v1", "cases: 2"]
        for k, w in enumerate(wick):
            s = sigma if k == 0 else 0.5
            lines += ["q(%d)^1:" % k, "  lhs_operator: %r" % w, "  rhs_wick: %r" % w,
                      "  rel_dev: 0", "  rhs_mc: %r" % (w + s * 0.01), "  mc_se: 0.01",
                      "  sigma_dev: %r" % (s * 0.01 / 0.01)]
        if sigma > 3:
            lines += ["verdict: fail", "failure: q0: Monte Carlo off by %g sigma" % sigma]
        else:
            lines.append("verdict: pass")
        return {"npoint_report.txt": "\n".join(lines).encode(), "npoint_comparison.csv": b""}

    assert judge.judge(job, 0, report(1.0)).ok
    v = judge.judge(job, 1, report(4.0))
    assert v.ok and v.excursions == 1
    assert not judge.judge(job, 1, report(6.0)).ok


def test_wick_oracle_matches_the_closed_form():
    m, h = 0.7, 0.25
    two = judge.ou_wick_moment([0.125, 0.625], [1, 1], m, h)
    assert two == pytest.approx(math.exp(-m * 0.5) / (2 * m), rel=1e-14)
    four = judge.ou_wick_moment([0.125], [4], m, h)
    assert four == pytest.approx(3 * (1 / (2 * m)) ** 2, rel=1e-14)
    assert judge.ou_wick_moment([0.125, 0.375], [1, 2], m, h) == 0.0


def test_accuracy_digits_floor():
    assert judge.accuracy_digits([]) == 16.0
    assert judge.accuracy_digits([0.0, 1e-11]) == pytest.approx(11.0)


def test_import_times_charge_each_module_its_own_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        10 |         10 |       oslab.textio",
        "import time:        50 |        160 |     oslab.lattice",
        "import time:        20 |         20 |     oslab.moments",
        "import time:         5 |        185 |   oslab",
        "import time:        30 |        215 | oslab.cli",
    ])
    got = run.import_times(text)
    assert got["lattice"] == pytest.approx(150e-6)
    assert got["cli"] == pytest.approx(30e-6)
