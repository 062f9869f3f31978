"""Command-line interface: exit codes, reports, determinism."""
import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
import oslab
from oslab import cli, lattice, liealg
from oslab.cli import (
    CONFIG_PARSERS,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    SUITE_CHECKS,
    ConfigError,
    main,
)
from oslab.lattice import GaussianEuclideanMeasure
from oslab.textio import fmt6


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


@pytest.mark.parametrize("command, config", [
    ("reconstruct", "spacing: nan\n"),
    ("reconstruct", "spacing: inf\n"),
    ("rp-check", "instance: free-field\nmass: inf\n"),
    ("rp-check", "instance: ou\nmass: inf\n"),
    ("rp-check", "mass: nan\n"),
    ("reconstruct", "step: nan\n"),
    ("reconstruct", "step: inf\n"),
    ("reconstruct", "times: nan 0.375\n"),
    ("reconstruct", "times: inf 0.375\n"),
    ("reconstruct", "times: -0.125 0.375\n"),
    ("npoint", "degrees: 1 1\ntimes: nan 0.375\n"),
    ("npoint", "degrees: 1 1\ntimes: 0 0.375\n"),
], ids=lambda v: v.strip().replace("\n", ",").replace(": ", "-"))
def test_non_finite_config_value_is_usage_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    rc, out = run(tmp_path, command, "--config", str(cfg))
    assert rc == EXIT_USAGE
    key = config.splitlines()[-1].split(":")[0]
    assert capsys.readouterr().err == "error: %s must be positive and finite\n" % key
    assert not out.exists()


# every config key that has a flag: (command, flag, bad values)
FLAG_KEYS = {
    "seed": ("rp-check", "--seed", ("x",)),
    "samples": ("npoint", "--samples", ("x",)),
    "step": ("reconstruct", "--step", ("x", "nan")),
    "n_points": ("reconstruct", "--n-points", ("x",)),
    "spacing": ("reconstruct", "--spacing", ("x", "nan")),
    "mass": ("reconstruct", "--mass", ("x", "nan")),
    "times": ("npoint", "--times", ("x", "nan 0.375", "inf")),
    "degrees": ("npoint", "--degrees", ("x",)),
}


@pytest.mark.parametrize("key, value", [(k, v) for k, (_, _, vs) in FLAG_KEYS.items() for v in vs])
def test_flag_and_file_values_share_one_parser(tmp_path, capsys, key, value):
    # one parser reads a flag and a file line, so a bad value fails alike
    command, flag, _ = FLAG_KEYS[key]
    assert key in CONFIG_PARSERS
    rc, _ = run(tmp_path, command, flag, value, sub="flag")
    by_flag = capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s: %s\n" % (key, value))
    assert run(tmp_path, command, "--config", str(cfg), sub="file")[0] == rc == EXIT_USAGE
    assert capsys.readouterr().err == by_flag
    if value == "x":
        assert by_flag == "error: bad value for %s: 'x'\n" % key
    else:
        assert by_flag == "error: %s must be positive and finite\n" % key


@pytest.mark.parametrize("argv", [
    ("rp-check", "--tolerance", "1"),
    ("suite", "--inject-failure", "covariance-psd"),
], ids=["tolerance", "inject-failure"])
def test_removed_flags_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == EXIT_USAGE


def test_tolerance_config_key_is_unknown(tmp_path, capsys):
    # a certificate's tolerance is fixed (PSD_RTOL); no request can set it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance: 1\n")
    rc, out = run(tmp_path, "rp-check", "--instance", "non-rp", "--config", str(cfg))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown config key 'tolerance'\n"
    assert not out.exists()


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
    draw = lattice._standard_normal
    monkeypatch.setattr(lattice, "_standard_normal", lambda *a: calls.append(1) or draw(*a))
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


def _ou_doubled(gap):
    """A table entry: OU at doubled mass, stating its ladder gap as gap(cfg)."""
    return cli.Instance(lambda cfg, lattice: cli.ou_covariance(2.0 * cfg.mass, lattice), True,
                        gap=gap)


@pytest.mark.parametrize("command", ["rp-check", "reconstruct", "npoint"])
def test_registered_instance_runs_by_name(tmp_path, monkeypatch, command):
    # adding an instance touches only the table
    monkeypatch.setitem(cli.INSTANCES, "ou-2m", _ou_doubled(lambda cfg: 2.0 * cfg.mass))
    rc, out = run(tmp_path, command, "--instance", "ou-2m")
    assert rc == EXIT_OK
    fields = _fields(out / ("%s_report.txt" % command.replace("-", "_")))
    assert fields["instance"] == "ou-2m"
    assert fields["verdict"] == "pass"
    if command == "reconstruct":
        assert float(fields["  gap 1"]) == pytest.approx(2.0, rel=1e-6)


def test_ladder_reads_its_gap_from_the_table(tmp_path, monkeypatch):
    # the same measure with the gap stated as the mass fails the ladder
    monkeypatch.setitem(cli.INSTANCES, "ou-2m", _ou_doubled(lambda cfg: cfg.mass))
    rc, out = run(tmp_path, "reconstruct", "--instance", "ou-2m")
    assert rc == EXIT_CHECK_FAILED
    assert re.search(r"^failure: spectrum gaps deviate 1(\.\d+)? from harmonic ladder$",
                     (out / "reconstruct_report.txt").read_text(), re.M)


@pytest.mark.parametrize("registered", [False, True], ids=["table", "with-ou-2m"])
def test_instance_names_and_refusals_follow_the_table(tmp_path, monkeypatch, capsys,
                                                      registered):
    extra = ""
    if registered:
        monkeypatch.setitem(cli.INSTANCES, "ou-2m", _ou_doubled(lambda cfg: 2.0 * cfg.mass))
        extra = ", ou-2m"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("instance: wibble\n")
    assert run(tmp_path, "rp-check", "--config", str(cfg))[0] == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: unknown instance 'wibble'; choose from ou, free-field, non-rp, corrupted%s\n"
        % extra)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "rp-check", "--instance", "wibble")
    assert exc.value.code == EXIT_USAGE
    assert ("'corrupted', 'ou-2m')" in capsys.readouterr().err) == registered
    for instance in ("non-rp", "corrupted"):
        assert run(tmp_path, "reconstruct", "--instance", instance)[0] == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: reconstruct expects a reflection-positive instance: ou, free-field%s\n"
            % extra)
    for instance in ("free-field", "non-rp", "corrupted"):
        assert run(tmp_path, "npoint", "--instance", instance)[0] == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: npoint expects an instance with an exact transfer: ou%s\n" % extra)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, built", [
    (("rp-check", "--instance", "corrupted"), ["ou_covariance"]),
    (("rp-check", "--instance", "non-rp"), ["cosine_damped_covariance"]),
    (("reconstruct", "--instance", "free-field"), ["free_field_covariance"]),
    (("npoint",), ["ou_covariance"]),
    (("suite",), ["ou_covariance", "free_field_covariance", "cosine_damped_covariance"]),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else "")
def test_builders_look_up_the_constructors_when_called(tmp_path, monkeypatch, argv, built):
    # a wrapper bound in the cli module, as a tracer binds its spans, sees
    # every measure a job builds: one per job, the suite's corrupted
    # control sharing the OU measure
    calls = []

    def counting(name, real):
        def build(*args):
            calls.append(name)
            return real(*args)
        return build

    for name in ("ou_covariance", "free_field_covariance", "cosine_damped_covariance"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    run(tmp_path, *argv)
    assert calls == built


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
    alg, tau = liealg.builtin_algebra("sl2R-cartan")
    path = tmp_path / "myalg.txt"
    path.write_text(oracles.algebra_to_text(alg, involution=tau))
    rc, out = run(tmp_path, "cdual", str(path))
    assert rc == EXIT_OK


HEAD2 = "format: oslab-algebra v1\ndim: 2\nlabels: A B\n"
TAU2 = "involution:\n  -1 0\n  0 -1\n"
MALFORMED_ALGEBRAS = {
    "no-format": ("cdual", "dim: 2\nlabels: A B\n" + TAU2),
    "no-dim": ("cdual", "format: oslab-algebra v1\nlabels: A B\n" + TAU2),
    "no-labels": ("cdual", "format: oslab-algebra v1\ndim: 2\n" + TAU2),
    "short-structure-line": ("cdual", HEAD2 + "structure:\n  0 1\n" + TAU2),
    "index-beyond-dim": ("cdual", HEAD2 + "structure:\n  0 1 5 1.0\n" + TAU2),
    "negative-index": ("cdual", HEAD2 + "structure:\n  -1 0 1 1.0\n" + TAU2),
    "nan-structure-constant": ("cdual", HEAD2 + "structure:\n  0 1 1 nan\n" + TAU2),
    "infinite-involution-entry": ("cdual", HEAD2 + "involution:\n  -inf 0\n  0 -1\n"),
    "involution-not-dim-square": (
        "cdual", "format: oslab-algebra v1\ndim: 3\nlabels: A B C\n" + TAU2),
    "cone-without-witness": ("cone-check", HEAD2 + TAU2 + "cone_generators:\n  1 0\n"),
    "cone-without-generators": (
        "cone-check", HEAD2 + TAU2 + "cone_generators:\ncone_witness:\n  1 0\n"),
    "cone-vector-length": (
        "cone-check", HEAD2 + TAU2 + "cone_generators:\n  1 0 0\ncone_witness:\n  1 0\n"),
}


@pytest.mark.parametrize("command, text", MALFORMED_ALGEBRAS.values(),
                         ids=list(MALFORMED_ALGEBRAS))
def test_malformed_algebra_file_is_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "alg.txt"
    path.write_text(text)
    rc, _ = run(tmp_path, command, str(path))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def _with_nan(target, name, field, call=None):
    """target.name with the dataclass field `field` of its result set to
    NaN (an all-NaN array for an array field), on every call or only on
    call number `call`, counted from 0."""
    real = getattr(target, name)
    calls = []

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(name)
        if call is not None and len(calls) != call + 1:
            return out
        value = getattr(out, field)
        nan = np.full_like(value, np.nan) if isinstance(value, np.ndarray) else float("nan")
        return dataclasses.replace(out, **{field: nan})

    return fake


# report gate -> (command, module, function whose result goes NaN, field, call or None)
NAN_RESIDUALS = {
    "reconstruct-gap-deviation": ("reconstruct", cli, "extract_hamiltonian", "spectrum", None),
    "npoint-operator-vs-wick": ("npoint", cli, "verify_npoint_identity", "lhs_operator", None),
    "cdual-double-dual": ("cdual", liealg, "c_dual", "structure", 1),
    "cone-invariance": ("cone-check", liealg, "hyperbolic_cone_check", "invariance_residual",
                        None),
    "cone-membership": ("cone-check", liealg, "semigroup_membership_sample", "worst_residual",
                        None),
}


@pytest.mark.parametrize("command, target, name, field, call", NAN_RESIDUALS.values(),
                         ids=list(NAN_RESIDUALS))
def test_nan_residual_fails_the_report(tmp_path, monkeypatch, command, target, name, field,
                                       call):
    # every report gate is Check.gate, which fails unless residual <= tol, so a
    # NaN residual fails; the gates inside _ladder and _double_dual get NaN
    # at their input: a NaN spectrum, and a NaN structure from the second
    # c_dual call (the dual of the dual)
    monkeypatch.setattr(target, name, _with_nan(target, name, field, call))
    rc, out = run(tmp_path, command)
    assert rc == EXIT_CHECK_FAILED
    report = out / ("%s_report.txt" % command.replace("-", "_"))
    assert "verdict: fail" in report.read_text()


@pytest.mark.parametrize("command", ["reconstruct", "npoint"])
def test_monte_carlo_arm_beyond_three_sigma_fails(tmp_path, monkeypatch, command):
    # reconstruct's two-point case runs npoint's gates, the 3-sigma arm too
    real = cli.verify_npoint_identity

    def four_sigma_off(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, rhs_mc=rep.rhs_wick + 4.0 * rep.mc_se)

    monkeypatch.setattr(cli, "verify_npoint_identity", four_sigma_off)
    rc, out = run(tmp_path, command, "--samples", "1000")
    assert rc == EXIT_CHECK_FAILED
    text = (out / ("%s_report.txt" % command)).read_text()
    assert "verdict: fail" in text
    assert re.search(r"^failure: q\(0\.125\)\^1q\(0\.375\)\^1: Monte Carlo off by 4 sigma$",
                     text, re.M)


@pytest.mark.parametrize("n_points,mass,samples,seed", [
    (544, "1.242441", 1250, 1753258627),
    (544, "1.286543", 1210, 808566046),
    (544, "1.230288", 1240, 1693333056),
])
def test_heavy_tailed_four_point_arm_stays_within_five_sigma(tmp_path, n_points, mass,
                                                              samples, seed):
    # three benchmark sample jobs whose 4-point arm once read 6.37, 5.39 and
    # 5.13 sigma against the sample standard error; against the exact one
    # they read 0.57, 0.01 and 1.09
    cfg = tmp_path / "sample.cfg"
    cfg.write_text("instance: ou\nn_points: %d\nmass: %s\nsamples: %d\nseed: %d\n"
                   % (n_points, mass, samples, seed))
    rc, out = run(tmp_path, "npoint", "--config", str(cfg))
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    text = (out / "npoint_report.txt").read_text()
    sigmas = [float(x) for x in re.findall(r"^  sigma_dev: (\S+)$", text, re.M)]
    assert len(sigmas) == 2
    assert all(s <= 5.0 for s in sigmas), sigmas


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
def test_suite_injected_failure_is_loud(tmp_path, monkeypatch, name):
    # a check fails exactly when its record has a failure line, and that
    # line reaches the check's summary line and the report's failure lines
    injected = cli.Check({"figure": 0.5}, ["injected failure (diagnostic)"])
    monkeypatch.setitem(SUITE_CHECKS, name, lambda _: injected)
    rc, out = run(tmp_path, "suite")
    assert rc == EXIT_CHECK_FAILED
    text = (out / "suite_summary.txt").read_text()
    failed = [line for line in text.splitlines() if ": FAIL" in line]
    assert failed == ["check %s: FAIL (figure 0.5; injected failure (diagnostic))" % name]
    assert "failed: 1/%d" % len(SUITE_CHECKS) in text
    assert text.endswith("verdict: fail\nfailure: %s: injected failure (diagnostic)\n" % name)


def test_every_suite_check_returns_the_record(tmp_path):
    results = cli._suite_results(cli.load_config(None, {}))
    assert [name for name, _ in results] == list(SUITE_CHECKS)
    for name, result in results:
        assert isinstance(result, cli.Check), name
        assert result.figures and result.failures == [], name


def _fields(path):
    """key: value lines of a report, first occurrence wins."""
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields.setdefault(key, value)
    return fields


def _suite_figures(text, name):
    """A suite check's named figures, key -> six-digit text, in order."""
    line = next(l for l in text.splitlines() if l.startswith("check %s:" % name))
    figures = line.split(" (", 1)[1].rstrip(")").split("; ")[0]
    return dict(item.rsplit(" ", 1) for item in figures.split(", "))


def _worst_relative_min_eig(report):
    """kind -> the least min_eigenvalue / norm over an rp-check report's
    certificate sections of that kind ("pd" or "rp")."""
    worst = {"pd": np.inf, "rp": np.inf}
    for section in report.read_text().split("\n[")[1:]:
        cert = dict(l.split(": ", 1) for l in section.splitlines()[1:] if ": " in l)
        kind = section.split()[0]
        worst[kind] = min(worst[kind], float(cert["min_eigenvalue"]) / float(cert["norm"]))
    return worst


def test_suite_agrees_with_subcommands(tmp_path):
    # suite and the subcommands share their check code, so with one config
    # each suite figure equals the subcommand's report figure of its key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_points: 24\nmass: 0.8\nseed: 5\nfamilies: 3\nfamily_size: 4\n")
    args = ("--config", str(cfg))
    _, suite = run(tmp_path, "suite", *args, sub="suite")
    text = (suite / "suite_summary.txt").read_text()
    assert "verdict: pass" in text

    def same(name, command):
        report = tmp_path / command / ("%s_report.txt" % command.replace("-", "_"))
        assert run(tmp_path, command, *args, sub=command)[0] == EXIT_OK
        fields = _fields(report)
        figures = _suite_figures(text, name)
        for key, value in figures.items():
            assert float(value) == pytest.approx(float(fields[key]), rel=1e-5, abs=0.0), key
        return figures

    assert list(same("reconstruction-spectrum", "reconstruct")) == [
        "gap_deviation", "vacuum_energy_norm"]
    assert len(same("cdual-involution", "cdual")) == 3
    assert list(same("cone-hyperbolic", "cone-check")) == ["invariance_residual"]
    assert len(same("semigroup-membership", "cone-check")) == 5

    assert run(tmp_path, "rp-check", *args, sub="rp")[0] == EXIT_OK
    report = tmp_path / "rp" / "rp_check_report.txt"
    assert _fields(report)["certificates"] == "6"
    worst = _worst_relative_min_eig(report)
    for kind in ("pd", "rp"):
        figures = _suite_figures(text, "%s-certificates" % kind)
        assert figures["certificates"] == "3"
        assert float(figures["worst_min_eig_over_norm"]) == pytest.approx(worst[kind], rel=1e-5)


def test_suite_figures_equal_the_subcommands_at_default_config(tmp_path):
    # each suite check that mirrors a subcommand calls that subcommand's
    # function, so at the default config each of its figures equals the
    # report's figure of the same key at six digits
    _, suite = run(tmp_path, "suite", sub="suite")
    text = (suite / "suite_summary.txt").read_text()

    def report(command, *args):
        assert run(tmp_path, command, *args, sub=command)[0] == EXIT_OK
        return tmp_path / command / ("%s_report.txt" % command.replace("-", "_"))

    def agree(name, fields, keys):
        figures = _suite_figures(text, name)
        assert list(figures) == keys
        assert figures == {k: fmt6(float(fields[k])) for k in keys}

    agree("reconstruction-spectrum", _fields(report("reconstruct")),
          ["gap_deviation", "vacuum_energy_norm"])
    agree("cdual-involution", _fields(report("cdual", "sl2R-cartan")),
          ["dual_jacobi_residual", "double_dual_residual", "su2_match_residual"])
    cone = _fields(report("cone-check"))
    agree("cone-hyperbolic", cone, ["invariance_residual"])
    agree("semigroup-membership", cone, ["membership_products", "membership_rate",
                                         "membership_worst_residual", "wedge_control_rate",
                                         "wedge_control_failures"])

    npoint = report("npoint").read_text()
    cases = re.findall(r"^(q\S+):\n(?:  .*\n)*?  rel_dev: (\S+)$", npoint, re.M)
    assert len(cases) == 2
    agree("npoint-identity", {"%s rel_dev" % label: v for label, v in cases},
          ["%s rel_dev" % label for label, _ in cases])

    worst = _worst_relative_min_eig(report("rp-check", "--instance", "ou"))
    for kind in ("pd", "rp"):
        assert _suite_figures(text, "%s-certificates" % kind) == {
            "certificates": "8", "indefinite": "0", "worst_min_eig_over_norm": fmt6(worst[kind])}


def test_nan_transfer_fails_contraction_semigroup(tmp_path, monkeypatch):
    # the semigroup residual is reduced with np.max, so a NaN T(4) fails
    # the check instead of dropping out of a Python max
    transfer = cli._SuiteInputs.transfer

    def nan_at_four(self, steps):
        T = transfer(self, steps)
        return np.full_like(T, np.nan) if steps == 4 else T

    monkeypatch.setattr(cli._SuiteInputs, "transfer", nan_at_four)
    rc, out = run(tmp_path, "suite")
    assert rc == EXIT_CHECK_FAILED
    failed = [line for line in (out / "suite_summary.txt").read_text().splitlines()
              if ": FAIL" in line]
    assert failed == ["check contraction-semigroup: FAIL (transfer_norm 1, semigroup_residual nan; "
                      "semigroup residual nan exceeds 1e-08)"]


# the exit code of every exported error class, plus ConfigError and a plain
# ValueError: 1 for a mathematical failure, 2 for a malformed request
EXIT_CODE_OF = {
    oslab.CheckFailure: EXIT_CHECK_FAILED,
    oslab.CovarianceError: EXIT_CHECK_FAILED,
    oslab.HermiticityError: EXIT_CHECK_FAILED,
    oslab.ReflectionPositivityError: EXIT_CHECK_FAILED,
    oslab.RepresentabilityError: EXIT_CHECK_FAILED,
    oslab.SpectrumError: EXIT_CHECK_FAILED,
    oslab.OperatorBoundError: EXIT_CHECK_FAILED,
    oslab.StructureError: EXIT_CHECK_FAILED,
    oslab.InvolutionError: EXIT_CHECK_FAILED,
    oslab.ConeError: EXIT_CHECK_FAILED,
    ConfigError: EXIT_USAGE,
    oslab.ShiftRangeError: EXIT_USAGE,
    oslab.LatticeMismatchError: EXIT_USAGE,
    oslab.DplusMembershipError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
}


def test_every_exported_error_class_has_an_exit_code():
    exported = {obj for obj in map(oslab.__dict__.get, oslab.__all__)
                if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert exported | {ConfigError, ValueError} == set(EXIT_CODE_OF)
    for cls, code in EXIT_CODE_OF.items():
        assert (code == EXIT_CHECK_FAILED) == issubclass(cls, oslab.CheckFailure), cls


@pytest.mark.parametrize("error, code", EXIT_CODE_OF.items())
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


OVERFLOW = "gram has a non-finite entry: the generating functional overflowed"


def test_overflowing_pd_gram_fails_rp_check(tmp_path, capsys):
    # at this mass the pd gram's entries overflow to inf; the certificate
    # refuses them (exit 1) instead of reaching an eigensolver that does not
    # converge (exit 2).  The measure is positive definite, so this is still
    # a false failure until the gram is built in the log domain.
    cfg = tmp_path / "tiny-mass.cfg"
    cfg.write_text("mass: 1e-3\n")
    rc, _ = run(tmp_path, "rp-check", "--config", str(cfg))
    assert rc == EXIT_CHECK_FAILED
    assert "check failed: %s\n" % OVERFLOW in capsys.readouterr().err


def test_overflowing_pd_gram_leaves_the_suite_running(tmp_path):
    cfg = tmp_path / "tiny-mass.cfg"
    cfg.write_text("mass: 1e-3\n")
    rc, out = run(tmp_path, "suite", "--config", str(cfg))
    assert rc == EXIT_CHECK_FAILED
    checks = [line for line in (out / "suite_summary.txt").read_text().splitlines()
              if line.startswith("check ")]
    assert len(checks) == len(SUITE_CHECKS)
    assert "check pd-certificates: FAIL (CheckFailure: %s)" % OVERFLOW in checks
    # the rp families are certified on their own, and none of their grams overflows
    assert any(line.startswith("check rp-certificates: PASS (") for line in checks)
    assert any(line.startswith("check cdual-involution: PASS (") for line in checks)


# command -> (argv of a failing run, None or (module, function, field, call)
# whose result goes NaN as in _with_nan)
FAILING_RUNS = {
    "rp-check": (("rp-check", "--instance", "non-rp"), None),
    "reconstruct": (("reconstruct",), (cli, "extract_hamiltonian", "spectrum", None)),
    "npoint": (("npoint",), (cli, "verify_npoint_identity", "lhs_operator", None)),
    "cdual": (("cdual",), (liealg, "c_dual", "structure", 1)),
    "cone-check": (("cone-check", "nilpotent-control"), None),
    "suite": (("suite",), (cli, "extract_hamiltonian", "spectrum", None)),
}


@pytest.mark.parametrize("failing", [False, True], ids=["pass", "fail"])
@pytest.mark.parametrize("command", FAILING_RUNS)
def test_exit_code_verdict_failure_lines_and_stdout_agree(tmp_path, monkeypatch, capsys,
                                                          command, failing):
    # one function closes every report, so on every run the exit code, the
    # verdict line, the failure: lines and the last stdout line agree
    argv, fault = FAILING_RUNS[command] if failing else ((command,), None)
    if fault is not None:
        target, name, field, call = fault
        monkeypatch.setattr(target, name, _with_nan(target, name, field, call))
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)])
    name = "suite_summary.txt" if command == "suite" else "%s_report.txt" % command.replace("-", "_")
    report = (out / name).read_text().splitlines()
    assert rc == (EXIT_CHECK_FAILED if failing else EXIT_OK)
    assert ("verdict: fail" if failing else "verdict: pass") in report
    assert any(line.startswith("failure: ") for line in report) == failing
    assert capsys.readouterr().out.splitlines()[-1] == (
        "%s: %s" % (command, "FAIL" if failing else "PASS"))


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
    # ou, free field and the cosine control, each proven PSD without a
    # spectrum; only the covariance-psd line reads those of ou and free field
    assert calls == {"eigvalsh": 2, "measures": 3}


@pytest.mark.parametrize("command, config", [
    ("rp-check", "instance: ou\n"),
    ("rp-check", "instance: free-field\n"),
    ("reconstruct", "instance: ou\nmax_degree: 2\n"),
    ("npoint", ""),
], ids=lambda v: v.strip().replace("\n", ",").replace(": ", "-"))
def test_jobs_at_n512_never_eigensolve_the_covariance(tmp_path, monkeypatch, command, config):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_points: 512\n" + config)
    rc, _ = run(tmp_path, command, "--config", str(cfg))
    assert rc == EXIT_OK
    assert calls == []


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's oslab on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oslab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60, **kwargs)


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # neither the import nor a sampled run loads scipy
    code = ("import sys, oslab.cli\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "rc = oslab.cli.main(['npoint', '--samples', '2000', '--quiet', '--out', sys.argv[1]])\n"
            "print(rc, scipy())\n")
    proc = _python("-c", code, str(tmp_path / "out"), check=True)
    assert proc.stdout.splitlines() == ["[]", "%d []" % EXIT_OK]


def test_overflowing_pd_gram_writes_only_its_failure_to_stderr(tmp_path):
    cfg = tmp_path / "tiny-mass.cfg"
    cfg.write_text("mass: 1e-3\n")
    proc = _python("-m", "oslab.cli", "rp-check", "--config", str(cfg), "--quiet",
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CHECK_FAILED
    assert proc.stderr == "check failed: %s\n" % OVERFLOW


def test_quiet_flag_silences_stdout(tmp_path, capsys):
    main(["rp-check", "--out", str(tmp_path / "q"), "--quiet"])
    assert capsys.readouterr().out == ""
    main(["rp-check", "--out", str(tmp_path / "loud")])
    assert "rp-check: PASS" in capsys.readouterr().out
