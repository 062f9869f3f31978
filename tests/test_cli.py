"""Command-line interface: exit codes, reports, determinism."""
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oslab
from oslab import cli, lattice
from oslab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    MATH_ERRORS,
    SUITE_CHECKS,
    ConfigError,
    main,
)
from oslab.lattice import GaussianEuclideanMeasure, LatticeMismatchError
from oslab.positivity import DplusMembershipError
from oslab.reconstruction import ShiftRangeError


def run(tmp_path, *args, sub=""):
    out = tmp_path / (sub or "out")
    rc = main(list(args) + ["--out", str(out), "--quiet"])
    return rc, out


def test_rp_check_default_passes(tmp_path):
    rc, out = run(tmp_path, "rp-check")
    assert rc == EXIT_OK
    text = (out / "rp_check_report.txt").read_text()
    assert "format: oslab-rp-check v1" in text
    assert "instance: ou" in text
    assert "verdict: pass" in text
    assert not (out / "witness.txt").exists()


def test_rp_check_free_field_passes(tmp_path):
    rc, out = run(tmp_path, "rp-check", "--instance", "free-field")
    assert rc == EXIT_OK


def test_rp_check_corrupted_fails_with_witness(tmp_path):
    rc, out = run(tmp_path, "rp-check", "--instance", "corrupted")
    assert rc == EXIT_CHECK_FAILED
    text = (out / "rp_check_report.txt").read_text()
    assert "indefinite" in text
    wit = (out / "witness.txt").read_text()
    assert "min_eigenvalue:" in wit
    assert "witness:" in wit


def test_rp_check_non_rp_fails(tmp_path):
    rc, out = run(tmp_path, "rp-check", "--instance", "non-rp")
    assert rc == EXIT_CHECK_FAILED
    assert (out / "witness.txt").exists()


def test_rp_check_report_byte_identical_and_seed_sensitive(tmp_path):
    _, a = run(tmp_path, "rp-check", sub="a")
    _, b = run(tmp_path, "rp-check", sub="b")
    _, c = run(tmp_path, "rp-check", "--seed", "7", sub="c")
    ta = (a / "rp_check_report.txt").read_bytes()
    tb = (b / "rp_check_report.txt").read_bytes()
    tc = (c / "rp_check_report.txt").read_bytes()
    assert ta == tb
    assert ta != tc


def test_missing_config_is_usage_error(tmp_path):
    rc, _ = run(tmp_path, "rp-check", "--config", str(tmp_path / "nope.cfg"))
    assert rc == EXIT_USAGE


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_points: 16\nwibble: 3\n")
    rc, _ = run(tmp_path, "rp-check", "--config", str(cfg))
    assert rc == EXIT_USAGE


def test_odd_lattice_size_is_usage_error(tmp_path):
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("n_points: 15\n")
    rc, _ = run(tmp_path, "rp-check", "--config", str(cfg))
    assert rc == EXIT_USAGE


def test_small_sample_count_is_usage_error(tmp_path):
    rc, _ = run(tmp_path, "npoint", "--samples", "500")
    assert rc == EXIT_USAGE


def test_config_file_applies_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_points: 16\nspacing: 0.5\n")
    rc, out = run(tmp_path, "rp-check", "--config", str(cfg), sub="cfgonly")
    assert rc == EXIT_OK
    assert "n_points: 16" in (out / "rp_check_report.txt").read_text()
    rc, out = run(tmp_path, "reconstruct", "--config", str(cfg), "--n-points", "32",
                  sub="flagwins")
    assert rc == EXIT_OK
    assert "n_points: 32" in (out / "reconstruct_report.txt").read_text()


def test_out_env_variable_is_honored(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("OSLAB_OUT", str(target))
    rc = main(["rp-check", "--quiet"])
    assert rc == EXIT_OK
    assert (target / "rp_check_report.txt").exists()


def test_out_flag_beats_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("OSLAB_OUT", str(tmp_path / "envout"))
    rc, out = run(tmp_path, "rp-check", sub="flagout")
    assert rc == EXIT_OK
    assert (out / "rp_check_report.txt").exists()
    assert not (tmp_path / "envout").exists()


def test_reconstruct_default(tmp_path):
    rc, out = run(tmp_path, "reconstruct")
    assert rc == EXIT_OK
    text = (out / "reconstruct_report.txt").read_text()
    assert "format: oslab-reconstruct v1" in text
    assert "physical_dim: 4" in text
    assert "verdict: pass" in text
    lines = (out / "reconstruct_comparison.csv").read_text().splitlines()
    assert lines[0] == "case,lhs_operator,rhs_wick,rel_dev_wick"
    assert len(lines) > 1


def test_reconstruct_free_field_uses_compression(tmp_path):
    rc, out = run(tmp_path, "reconstruct", "--instance", "free-field")
    assert rc == EXIT_OK
    text = (out / "reconstruct_report.txt").read_text()
    assert "instance: free-field" in text
    assert "verdict: pass" in text


def test_reconstruct_refuses_fixture_instances(tmp_path):
    # the two deliberately broken measures are rp-check fixtures; asking
    # for a reconstruction on them is a usage error, not a math failure
    rc, _ = run(tmp_path, "reconstruct", "--instance", "non-rp")
    assert rc == EXIT_USAGE


def test_reconstruct_oversized_step_is_usage_error(tmp_path):
    rc, _ = run(tmp_path, "reconstruct", "--step", "64.0")
    assert rc == EXIT_USAGE


def test_reconstruct_off_grid_step_is_usage_error(tmp_path):
    rc, _ = run(tmp_path, "reconstruct", "--step", "0.1")
    assert rc == EXIT_USAGE


def test_reconstruct_transfer_norm_failure_is_check_failure(tmp_path, capsys):
    # at this small mass the degree-4 transfer compresses to a norm just
    # above 1: a mathematical failure on valid input, not a usage error
    cfg = tmp_path / "light.cfg"
    cfg.write_text("instance: ou\nmax_degree: 4\nmass: 0.05\n")
    rc, _ = run(tmp_path, "reconstruct", "--config", str(cfg))
    assert rc == EXIT_CHECK_FAILED
    assert "transfer operator norm" in capsys.readouterr().err


def test_reconstruct_times_without_degrees(tmp_path):
    cfg = tmp_path / "times.cfg"
    cfg.write_text("times: 0.125 0.375\n")
    rc, out = run(tmp_path, "reconstruct", "--config", str(cfg))
    assert rc == EXIT_OK
    assert "basis_times: 0.125 0.375" in (out / "reconstruct_report.txt").read_text()


def test_npoint_mismatched_times_and_degrees_is_usage_error(tmp_path):
    rc, _ = run(tmp_path, "npoint", "--times", "0.125 0.375", "--degrees", "1")
    assert rc == EXIT_USAGE


def test_npoint_default_two_cases(tmp_path):
    rc, out = run(tmp_path, "npoint")
    assert rc == EXIT_OK
    lines = (out / "npoint_comparison.csv").read_text().splitlines()
    assert lines[0] == "case,lhs_operator,rhs_wick,rel_dev_wick"
    assert len(lines) == 3


def test_npoint_with_monte_carlo_columns(tmp_path):
    rc, out = run(tmp_path, "npoint", "--samples", "2000")
    assert rc == EXIT_OK
    header = (out / "npoint_comparison.csv").read_text().splitlines()[0]
    assert "rhs_mc" in header
    assert "sigma_dev" in header


def test_npoint_cases_share_one_path_draw(tmp_path, monkeypatch):
    calls = []
    factor = lattice._covariance_factor
    monkeypatch.setattr(lattice, "_covariance_factor", lambda m: calls.append(1) or factor(m))
    rc, out = run(tmp_path, "npoint", "--samples", "1000")
    assert rc == EXIT_OK
    assert "cases: 2" in (out / "npoint_report.txt").read_text()
    assert len(calls) == 1


def test_npoint_explicit_case(tmp_path):
    rc, out = run(tmp_path, "npoint", "--times", "0.125 0.375",
                  "--degrees", "1 1")
    assert rc == EXIT_OK
    assert len((out / "npoint_comparison.csv").read_text().splitlines()) == 2


def test_npoint_free_field_refused(tmp_path):
    rc, _ = run(tmp_path, "npoint", "--instance", "free-field")
    assert rc == EXIT_USAGE


def test_cdual_default_reaches_compact_form(tmp_path):
    rc, out = run(tmp_path, "cdual")
    assert rc == EXIT_OK
    text = (out / "cdual_report.txt").read_text()
    assert "format: oslab-cdual v1" in text
    assert "algebra: sl2R-cartan" in text
    assert "su2_match_residual: 0" in text
    assert "verdict: pass" in text


def test_cdual_named_instances(tmp_path):
    for name in ("sl2R-adH", "heisenberg", "abelian-3"):
        rc, _ = run(tmp_path, "cdual", name, sub=name)
        assert rc == EXIT_OK


def test_cdual_perturbed_structure_fails(tmp_path):
    rc, _ = run(tmp_path, "cdual", "perturbed-jacobi")
    assert rc == EXIT_CHECK_FAILED


def test_cdual_unknown_name_is_usage_error(tmp_path):
    rc, _ = run(tmp_path, "cdual", "definitely-not-an-algebra")
    assert rc == EXIT_USAGE


def test_cdual_accepts_algebra_file(tmp_path):
    from oslab.liealg import builtin_algebra, write_algebra
    alg, tau = builtin_algebra("sl2R-cartan")
    path = tmp_path / "myalg.txt"
    write_algebra(str(path), alg, involution=tau)
    rc, out = run(tmp_path, "cdual", str(path))
    assert rc == EXIT_OK


def test_cone_check_default_passes(tmp_path):
    rc, out = run(tmp_path, "cone-check")
    assert rc == EXIT_OK
    text = (out / "cone_check_report.txt").read_text()
    assert "format: oslab-cone-check v1" in text
    assert "verdict: pass" in text
    assert "membership_rate: 1" in text
    assert "wedge_control_rate: 0" in text


def test_cone_check_nilpotent_control_fails_namely(tmp_path):
    rc, out = run(tmp_path, "cone-check", "nilpotent-control")
    assert rc == EXIT_CHECK_FAILED
    assert "nilpotent" in (out / "cone_check_report.txt").read_text()


def test_suite_all_checks_pass(tmp_path):
    rc, out = run(tmp_path, "suite")
    assert rc == EXIT_OK
    text = (out / "suite_summary.txt").read_text()
    assert "format: oslab-suite v1" in text
    assert text.count(": PASS") == 15
    assert "FAIL" not in text
    assert "failed: 0/15" in text
    assert "verdict: pass" in text


def test_suite_byte_identical(tmp_path):
    _, a = run(tmp_path, "suite", sub="sa")
    _, b = run(tmp_path, "suite", sub="sb")
    assert (a / "suite_summary.txt").read_bytes() == (b / "suite_summary.txt").read_bytes()


@pytest.mark.parametrize("name", SUITE_CHECKS)
def test_suite_injected_failure_is_loud(tmp_path, name):
    rc, out = run(tmp_path, "suite", "--inject-failure", name)
    assert rc == EXIT_CHECK_FAILED
    text = (out / "suite_summary.txt").read_text()
    failed = [line for line in text.splitlines() if ": FAIL" in line]
    assert failed == ["check %s: FAIL (injected failure (diagnostic))" % name]
    assert "failed: 1/%d" % len(SUITE_CHECKS) in text
    assert "verdict: fail" in text


def _fields(path):
    """key: value lines of a report, first occurrence wins."""
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields.setdefault(key, value)
    return fields


def _suite_numbers(text, name):
    """The numbers in a suite check's detail, in order."""
    line = next(l for l in text.splitlines() if l.startswith("check %s:" % name))
    detail = line.split(" (", 1)[1]
    return [float(tok) for tok in re.findall(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?", detail)]


def test_suite_agrees_with_subcommands(tmp_path):
    # suite and the subcommands share their check code, so with one config
    # the suite's six-digit details equal the subcommands' reported figures
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_points: 24\nmass: 0.8\nseed: 5\nfamilies: 3\nfamily_size: 4\n")
    args = ("--config", str(cfg))
    _, suite = run(tmp_path, "suite", *args, sub="suite")
    text = (suite / "suite_summary.txt").read_text()
    assert "verdict: pass" in text

    def same(suite_value, report_value):
        assert suite_value == pytest.approx(float(report_value), rel=1e-5, abs=0.0)

    assert run(tmp_path, "reconstruct", *args, sub="rec")[0] == EXIT_OK
    rec = _fields(tmp_path / "rec" / "reconstruct_report.txt")
    gap_dev, vacuum = _suite_numbers(text, "reconstruction-spectrum")
    same(gap_dev, rec["gap_deviation"])
    same(vacuum, rec["vacuum_energy_norm"])

    assert run(tmp_path, "rp-check", *args, sub="rp")[0] == EXIT_OK
    sections = (tmp_path / "rp" / "rp_check_report.txt").read_text().split("\n[")[1:]
    worst = {"pd": np.inf, "rp": np.inf}
    for section in sections:
        label = section.split("]", 1)[0]
        cert = dict(l.split(": ", 1) for l in section.splitlines()[1:] if ": " in l)
        kind = label.split()[0]
        worst[kind] = min(worst[kind], float(cert["min_eigenvalue"]) / float(cert["norm"]))
    assert len(sections) == 6
    for kind in ("pd", "rp"):
        families, relative = _suite_numbers(text, "%s-certificates" % kind)
        assert families == 3
        same(relative, worst[kind])

    assert run(tmp_path, "cdual", *args, sub="cdual")[0] == EXIT_OK
    cdual = _fields(tmp_path / "cdual" / "cdual_report.txt")
    jacobi, double, compact = _suite_numbers(text, "cdual-involution")
    same(jacobi, cdual["dual_jacobi_residual"])
    same(double, cdual["double_dual_residual"])
    same(compact, cdual["su2_match_residual"])

    assert run(tmp_path, "cone-check", *args, sub="cone")[0] == EXIT_OK
    cone = _fields(tmp_path / "cone" / "cone_check_report.txt")
    same(_suite_numbers(text, "cone-hyperbolic")[0], cone["invariance_residual"])
    rate, worst_residual, wedge = _suite_numbers(text, "semigroup-membership")
    same(rate, cone["membership_rate"])
    same(worst_residual, cone["membership_worst_residual"])
    same(wedge, cone["wedge_control_rate"])


@pytest.mark.parametrize(
    "error, code",
    [(cls, EXIT_CHECK_FAILED) for cls in MATH_ERRORS]
    + [(cls, EXIT_USAGE) for cls in (
        ConfigError, ShiftRangeError, LatticeMismatchError, DplusMembershipError, ValueError)],
)
def test_exit_code_follows_the_error_class(tmp_path, monkeypatch, capsys, error, code):
    # a mathematical failure exits 1, every other value error is a usage error
    def fail(*_args, **_kwargs):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "load_config", fail)
    rc, _ = run(tmp_path, "rp-check")
    assert rc == code
    prefix = "check failed: " if code == EXIT_CHECK_FAILED else "error: "
    assert capsys.readouterr().err == prefix + "raised on purpose\n"


def test_suite_check_that_raises_fails_alone(tmp_path):
    # at this mass the degree-4 transfer norm overshoots 1 by 2e-10, a
    # round-off failure of the raw null cut, and transfer_operator raises
    # OperatorBoundError; only the two checks that build the transfer fail,
    # and the summary is still written
    cfg = tmp_path / "small-mass.cfg"
    cfg.write_text("mass: 0.05\nmax_degree: 4\n")
    rc, out = run(tmp_path, "suite", "--config", str(cfg))
    assert rc == EXIT_CHECK_FAILED
    text = (out / "suite_summary.txt").read_text()
    checks = [line for line in text.splitlines() if line.startswith("check ")]
    assert len(checks) == 15
    failed = [line for line in checks if ": FAIL (" in line]
    assert [line.split(":")[0] for line in failed] == [
        "check reconstruction-spectrum", "check contraction-semigroup"]
    assert all("FAIL (OperatorBoundError: transfer operator norm" in line for line in failed)
    assert "check cdual-involution: PASS (" in text
    assert "failed: 2/15" in text
    assert "verdict: fail" in text


@pytest.mark.parametrize("n_points, rc", [(8, EXIT_USAGE), (12, EXIT_USAGE), (14, EXIT_OK)])
def test_suite_refuses_lattices_its_transfers_leave(tmp_path, capsys, n_points, rc):
    # the default basis reaches 2.5 spacings; contraction-semigroup shifts it
    # by 4 more, which needs n_points/2 - 0.5 >= 6.5
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_points: %d\n" % n_points)
    got, out = run(tmp_path, "suite", "--config", str(cfg))
    assert got == rc
    if rc == EXIT_USAGE:
        assert "the smallest n_points that fits is 14" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert "verdict: pass" in (out / "suite_summary.txt").read_text()


def test_suite_eigensolves_each_covariance_once(tmp_path, monkeypatch):
    calls = {"eigvalsh": 0, "measures": 0}
    eigvalsh, post_init = np.linalg.eigvalsh, GaussianEuclideanMeasure.__post_init__

    def counting_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_post_init(self):
        calls["measures"] += 1
        post_init(self)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(GaussianEuclideanMeasure, "__post_init__", counting_post_init)
    rc, _ = run(tmp_path, "suite")
    assert rc == EXIT_OK
    # ou, free field and the cosine control
    assert calls == {"eigvalsh": 3, "measures": 3}


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(oslab.__file__)))
    code = "import sys, oslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_suite_unknown_injection_is_usage_error(tmp_path):
    rc, _ = run(tmp_path, "suite", "--inject-failure", "no-such-check")
    assert rc == EXIT_USAGE


def test_quiet_flag_silences_stdout(tmp_path, capsys):
    main(["rp-check", "--out", str(tmp_path / "q"), "--quiet"])
    assert capsys.readouterr().out == ""
    main(["rp-check", "--out", str(tmp_path / "loud")])
    assert "rp-check: PASS" in capsys.readouterr().out
