"""oslab benchmark: closed-loop streams of seeded CLI jobs, one client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports oslab from ./src.  Each
job is one call of the public entry point `oslab.cli.main(argv)` on a
generated config file, timed alone; its reports are then judged (judge.py).
The loop runs whole cycles of the workload's job mix (jobs.py) until
--seconds have passed and at least MIN_JOBS jobs are done, so the p90 has
ten samples beyond it.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced, replays the same jobs traced (spans.py), and prints the
per-layer metrics with the tracing overhead.  The last stdout line is the
result object; the machine is recorded on the line before it, and a run
summary (plus the spans, when traced) is written under .perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench"  # relative to ROOT, which is the working directory
MIN_JOBS = 100
LOOP_CAP_S = 120.0  # a slow machine still ends well inside the run limit
SETUP_SPAWNS = 3
# one BLAS thread: with two on two shared cores, a stall of either core holds
# up every BLAS call, and same-seed runs spread by 28% instead of 10%
BLAS_THREADS = 1
IMPORT_METRICS = ("lattice", "liealg", "positivity", "reconstruction", "cli")

# BLAS reads its thread count once, when numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import judge  # noqa: E402
import spans  # noqa: E402


class Record:
    """One timed job and what it left behind."""

    def __init__(self, job, wall, seconds, code, files, note=""):
        self.job, self.wall, self.seconds, self.code, self.files = job, wall, seconds, code, files
        self.verdict = judge.Verdict()
        if note:
            self.verdict.problems.append(note)


def import_oslab():
    if not os.path.isfile(os.path.join(SRC, "oslab", "cli.py")):
        raise FileNotFoundError("no oslab source at %s" % SRC)
    sys.path.insert(0, SRC)
    import oslab.cli

    if not os.path.abspath(oslab.cli.__file__).startswith(SRC + os.sep):
        raise ImportError("oslab imported from %s, not %s" % (oslab.cli.__file__, SRC))
    return oslab.cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- set-up time --------------------------------------------------------------

def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_import(importtime: bool = False):
    """CPU time of a fresh interpreter running `import oslab.cli`."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import oslab.cli"]
    c0 = children_cpu_seconds()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=60)
    seconds = children_cpu_seconds() - c0
    if proc.returncode != 0:
        raise RuntimeError("import oslab.cli failed:\n%s" % proc.stderr)
    return seconds, proc.stderr


def import_times(stderr: str) -> dict:
    """Import time charged to each oslab module from `-X importtime`: its
    cumulative time less that of the oslab modules it imports, so packages
    such as scipy count against the oslab module that first imports them."""
    rows = []  # (depth, name, cumulative seconds)
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
    own = {}
    for i, (depth, name, cum) in enumerate(rows):
        if not name.startswith("oslab"):
            continue
        own[name] = own.get(name, 0.0) + cum
        # the nearest enclosing oslab module pays for this one no longer
        for pdepth, pname, _ in rows[i + 1:]:
            if pdepth < depth:
                if pname.startswith("oslab"):
                    own[pname] = own.get(pname, 0.0) - cum
                    break
                depth = pdepth
    return {m: own.get("oslab." + m, 0.0) for m in IMPORT_METRICS}


# -- jobs ---------------------------------------------------------------------

def run_job(cli, job, tracer=None):
    """Run one job; returns (wall seconds, CPU seconds, exit code,
    {report name: bytes}, note).

    Job time is the process's CPU time: with one BLAS thread it is the
    job's compute, free of the time a shared host gives to other guests."""
    cfg = os.path.join(WORK, "work", "job.cfg")
    out = os.path.join(WORK, "work", "out")
    shutil.rmtree(out, ignore_errors=True)
    with open(cfg, "w") as fh:
        fh.write(job.config_text())
    argv = [job.command, "--config", cfg, "--out", out, "--quiet"]
    note = ""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = tracer.span(spans.ROOT, cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, not a failed benchmark
        code, note = -1, "raised: %s" % traceback.format_exc().strip().splitlines()[-1]
        traceback.print_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return wall, cpu, code, files, note


def run_cycles(cli, gen, workload, seconds, min_jobs=MIN_JOBS):
    """Whole cycles of the stream, until `seconds` have passed with at least
    `min_jobs` jobs."""
    records = []
    t0 = time.perf_counter()
    while True:
        for _ in range(jobs.cycle_length(workload)):
            job = next(gen)
            records.append(Record(job, *run_job(cli, job)))
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and len(records) >= min_jobs) or elapsed >= LOOP_CAP_S:
            return records


def replay_traced(cli, tracer, plain):
    """The same jobs again with every layer wrapped; each must write the
    reports its untraced run wrote."""
    traced = []
    restore = spans.install(tracer)
    try:
        for i, r in enumerate(plain):
            tracer.job_id = i
            traced.append(Record(r.job, *run_job(cli, r.job, tracer)))
    finally:
        restore()
    for r, t in zip(plain, traced):
        t.verdict.require((t.code, t.files) == (r.code, r.files),
                          "traced reports differ from untraced: %s" % r.job.config_text().strip())
    return traced


def warm_up(cli) -> None:
    """First calls into LAPACK, scipy and every subcommand, before timing."""
    from scipy.linalg import expm
    from scipy.special import ndtri

    rng = np.random.default_rng(0)
    for n in (512, 1024):
        a = rng.standard_normal((n, n))
        a = a @ a.T + n * np.eye(n)
        np.linalg.eigvalsh(a), np.linalg.eigh(a), np.linalg.inv(a)
        a @ (a + 1j)
    expm(np.eye(3)), ndtri(rng.random(1000))
    warm = [
        jobs.Job("warm", "rp-check", (("n_points", "64"), ("families", "1"), ("seed", "1")), 0),
        jobs.Job("warm", "rp-check", (("instance", "non-rp"), ("n_points", "16")), 1),
        jobs.Job("warm", "reconstruct", (("max_degree", "2"),), 0),
        jobs.Job("warm", "npoint", (("n_points", "64"), ("samples", "1000")), 0),
        jobs.Job("warm", "cdual", (), 0),
        jobs.Job("warm", "cone-check", (("samples", "1000"),), 0),
    ]
    for job in warm:
        run_job(cli, job)


def judge_all(records) -> None:
    for r in records:
        if not r.verdict.problems:
            r.verdict = judge.judge(r.job, r.code, r.files)


def sentinel(cli, record) -> Record:
    """Re-run a job untraced; reports must be byte-identical for its seed."""
    again = Record(record.job, *run_job(cli, record.job))
    again.verdict.require(again.files == record.files,
                          "reports differ on re-run: %s" % record.job.config_text().strip())
    return again


# -- metrics ------------------------------------------------------------------

def end_to_end(records, check, setup) -> dict:
    """Timings over the loop's jobs; correctness over those and the sentinel."""
    times = [r.seconds for r in records]
    judged = records + [check]
    failed = sum(1 for r in judged if not r.verdict.ok)
    errors = [e for r in judged for e in r.verdict.errors]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "pass_ratio": ((len(judged) - failed) / len(judged), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy_digits": (judge.accuracy_digits(errors), "digits"),
    }


def machine() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        vendor = "unknown"
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return {
        "cpu": cpu, "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "blas": vendor, "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }


def write_summary(args, host, records, metrics, tracer=None) -> None:
    runs = os.path.join(WORK, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    summary = {
        "machine": host,
        "metrics": metrics,
        "jobs": [
            {"kind": r.job.kind, "command": r.job.command, "config": dict(r.job.config),
             "seconds": r.seconds, "wall_seconds": r.wall, "exit": r.code, "problems": r.verdict.problems,
             "worst_error": max(r.verdict.errors, default=None),
             "excursions": r.verdict.excursions}
            for r in records
        ],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.npz")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        cli = import_oslab()
    except (FileNotFoundError, ImportError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(WORK, "work"), ignore_errors=True)
    os.makedirs(os.path.join(WORK, "work"))
    warm_up(cli)

    gen = jobs.stream(args.workload, args.seed)
    tracer = None
    if not args.trace:
        setup = [time_import()[0] for _ in range(SETUP_SPAWNS)]
        records = run_cycles(cli, gen, args.workload, args.seconds)
        judge_all(records)
        check = sentinel(cli, min(records, key=lambda r: r.seconds))
        metrics = end_to_end(records, check, setup)
        records.append(check)
    else:
        per_module = [import_times(time_import(importtime=True)[1]) for _ in range(SETUP_SPAWNS)]
        plain = run_cycles(cli, gen, args.workload, args.seconds / 2.0, min_jobs=1)
        tracer = spans.Tracer()
        traced = replay_traced(cli, tracer, plain)
        metrics = spans.layer_metrics(tracer, len(traced), args.workload)
        for m in IMPORT_METRICS:
            metrics["%s.import_s" % m] = (statistics.median(p[m] for p in per_module), "s")
        plain_rate = len(plain) / sum(r.seconds for r in plain)
        traced_rate = len(traced) / sum(r.seconds for r in traced)
        metrics["trace.untraced_jobs_per_s"] = (plain_rate, "1/s")
        metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = ((plain_rate - traced_rate) / plain_rate, "ratio")
        judge_all(plain)
        records = plain + traced

    failed = sum(1 for r in records if not r.verdict.ok)
    for r in records:
        for problem in r.verdict.problems:
            print("perfbench: %s job failed: %s" % (r.job.kind, problem), file=sys.stderr)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    host = machine()
    write_summary(args, host, records, metrics, tracer)
    excursions = sum(r.verdict.excursions for r in records)
    print("perfbench machine: %s" % json.dumps(host))
    print("perfbench jobs: %d, failed %d, Monte Carlo excursions (3-5 sigma) %d"
          % (len(records), failed, excursions))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
