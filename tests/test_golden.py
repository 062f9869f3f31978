"""Golden report corpus: every case of tests/golden/regenerate.py, rerun
and compared against the committed reports.

Exact: the exit code, the set of report files, and every non-numeric
token.  Numeric tokens agree to RTOL relative with an absolute floor of
ATOL, so a different numpy, scipy or BLAS build that moves the last digits
still passes.  A witness eigenvector block may also match with every sign
flipped.  To prove byte identity instead, rerun the regeneration script
and run `git diff --exit-code tests/golden`.
"""
import importlib.util
import os
import re

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", os.path.join(GOLDEN_DIR, "regenerate.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RTOL = 1.0e-9
ATOL = 1.0e-12

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
EIGENVECTOR_BLOCKS = ("witness:",)


def split_tokens(line: str):
    """(non-numeric text between the numbers, the numbers)."""
    return NUMBER.split(line), [float(x) for x in NUMBER.findall(line)]


def numbers_close(got, want, sign=1.0) -> bool:
    return len(got) == len(want) and all(
        abs(g - sign * w) <= max(ATOL, RTOL * abs(w)) for g, w in zip(got, want))


def compare_report(got_text: str, want_text: str, where: str) -> None:
    got_lines, want_lines = got_text.split("\n"), want_text.split("\n")
    assert len(got_lines) == len(want_lines), "%s: line count differs" % where
    block = None
    for n, (got, want) in enumerate(zip(got_lines, want_lines), start=1):
        got_text_parts, got_nums = split_tokens(got)
        want_text_parts, want_nums = split_tokens(want)
        assert got_text_parts == want_text_parts, "%s:%d: %r != %r" % (where, n, got, want)
        if not want.startswith(" "):
            block = want.strip()
        signs = (1.0, -1.0) if block in EIGENVECTOR_BLOCKS and want.startswith(" ") else (1.0,)
        assert any(numbers_close(got_nums, want_nums, s) for s in signs), (
            "%s:%d: %r != %r" % (where, n, got, want))


@pytest.mark.parametrize("case", list(golden.CASES))
def test_golden_case(case, tmp_path):
    out = tmp_path / "out"
    rc = golden.run_case(case, str(out))
    assert rc == golden.read_exit_codes()[case]
    want_dir = os.path.join(GOLDEN_DIR, case)
    names = sorted(os.listdir(want_dir))
    assert sorted(os.listdir(out)) == names
    for name in names:
        with open(os.path.join(want_dir, name)) as fh:
            want = fh.read()
        compare_report((out / name).read_text(), want, "%s/%s" % (case, name))


def test_cases_match_corpus():
    on_disk = {d for d in os.listdir(GOLDEN_DIR)
               if os.path.isdir(os.path.join(GOLDEN_DIR, d)) and d != "__pycache__"}
    assert on_disk == set(golden.CASES) == set(golden.read_exit_codes())


def test_comparison_tolerates_digits_and_sign_only():
    base = "norm: 1.25\nwitness:\n  0.5 -0.25\nverdict: pass\n"
    compare_report(base.replace("1.25", "1.2500000000001"), base, "tol")
    compare_report(base.replace("0.5 -0.25", "-0.5 0.25"), base, "sign")
    for bad in (base.replace("1.25", "1.26"), base.replace("pass", "fail"),
                base.replace("0.5 -0.25", "-0.5 -0.25"), base.replace("norm: 1.25", "norm: 1e-13")):
        with pytest.raises(AssertionError):
            compare_report(bad, base, "bad")
