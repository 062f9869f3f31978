"""Regenerate the golden report corpus under tests/golden/.

Each case is one seeded CLI invocation.  Its report files go to
tests/golden/<case>/, and its exit code to tests/golden/exit_codes.txt.
tests/test_golden.py reruns the same cases and compares against this
corpus.  This script is not a test.

    PYTHONPATH=src python tests/golden/regenerate.py
    git diff --exit-code tests/golden      # no diff: reports byte-identical

BLAS is held to one thread, so reruns on one machine write the same bytes.
A change that moves report bytes on purpose regenerates the corpus in the
same commit, and the diff of tests/golden/ shows what moved.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
EXIT_CODES = os.path.join(GOLDEN_DIR, "exit_codes.txt")

# case name -> (argv without --out and --quiet, config file text or None)
CASES = {
    "suite": (["suite"], None),
    "suite-n128": (["suite"], "n_points: 128\n"),
    "rp-check-ou": (["rp-check", "--instance", "ou"], None),
    "rp-check-free-field": (["rp-check", "--instance", "free-field"], None),
    "rp-check-non-rp": (["rp-check", "--instance", "non-rp"], None),
    "rp-check-corrupted": (["rp-check", "--instance", "corrupted"], None),
    "reconstruct-ou": (["reconstruct", "--instance", "ou"], None),
    "reconstruct-free-field": (["reconstruct", "--instance", "free-field"], None),
    "npoint": (["npoint"], None),
    "npoint-samples-2000": (["npoint", "--samples", "2000"], None),
    "cdual-sl2R-cartan": (["cdual", "sl2R-cartan"], None),
    "cdual-sl2R-adH": (["cdual", "sl2R-adH"], None),
    "cdual-heisenberg": (["cdual", "heisenberg"], None),
    "cdual-abelian-6": (["cdual", "abelian-6"], None),
    "cone-check-sl2R-adH": (["cone-check", "sl2R-adH"], None),
    "cone-check-nilpotent-control": (["cone-check", "nilpotent-control"], None),
}


def run_case(name: str, out: str) -> int:
    """Run one case with its reports in `out`; returns the exit code."""
    from oslab.cli import main

    argv, config = CASES[name]
    argv = list(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "case.cfg")
            with open(path, "w") as fh:
                fh.write(config)
            argv += ["--config", path]
        return main(argv + ["--out", out, "--quiet"])


def read_exit_codes() -> dict:
    with open(EXIT_CODES) as fh:
        return {name: int(rc) for name, rc in (line.split(": ") for line in fh)}


def regenerate() -> None:
    codes = []
    for name in CASES:
        out = os.path.join(GOLDEN_DIR, name)
        shutil.rmtree(out, ignore_errors=True)
        codes.append("%s: %d\n" % (name, run_case(name, out)))
    with open(EXIT_CODES, "w") as fh:
        fh.writelines(codes)


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads
    sys.path.insert(0, os.path.join(GOLDEN_DIR, os.pardir, os.pardir, "src"))
    regenerate()
