"""Command-line front end: configure instances, run checks, emit reports.

Subcommands
    rp-check     positivity certificates over configured families
    reconstruct  physical space, transfer contraction, spectrum
    npoint       multi-time moment identity, three-way comparison table
    cdual        involutive split and dual structure constants
    cone-check   hyperbolic cone diagnostics and semigroup membership
    suite        every check above plus controls, one summary table

Exit codes: 0 all checks pass; 1 a mathematical check failed, either in a
report's verdict or by raising a CheckFailure (oslab.errors); 2 any other
ValueError, which is a malformed request (a bad configuration value or
flag, an off-grid time or step, a shift off the lattice, mismatched
lattices, a test function outside D+), and any argument argparse rejects.

Reports are plain text written atomically; tables carry 17 significant
digits, summaries 6.  With a fixed seed and config, repeated runs produce
byte-identical files: no timestamps, no absolute paths, fixed iteration
order.  Every check fills one Check record: its named figures in report
order and its failure lines, each bound decided once by Check.gate (NaN
fails).  A subcommand and the suite check that mirrors it share the
function that returns the record, so their figures are equal.  A check
passes exactly when it has no failure line; _finish writes every verdict,
failure line and exit code.  A suite check that raises a CheckFailure
fails with the error as its failure line, and the other checks still run.

Configuration is a key: value text file; command-line flags win over file
values, and one parser per key (CONFIG_PARSERS) reads both.  The default
output directory comes from --out, then the OSLAB_OUT environment
variable, then ./oslab-reports.

One table, INSTANCES, holds each measure's builder, ladder gap, expected
verdict and control; the measure subcommands and suite checks read it, so
adding an instance touches only the table and its builder.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import liealg
from .errors import CheckFailure
from .lattice import (
    PSD_RTOL,
    SIGMA_TOL,
    GaussianEuclideanMeasure,
    TestFunction,
    TimeLattice,
    check_stationarity,
    check_time_reflection_symmetry,
    cosine_damped_covariance,
    free_field_covariance,
    ou_covariance,
)
from .positivity import (
    KIND_PD,
    SampledObservable,
    certificate_to_text,
    delta_family,
    pd_gram_certificate,
    rp_gram_certificate,
    rp_sampled_certificate,
)
from .reconstruction import (
    CONTRACTION_TOL,
    build_physical_space,
    check_reflection_intertwining,
    extract_hamiltonian,
    transfer_operator,
    verify_npoint_identity,
)
from .textio import atomic_write, fmt, fmt6

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

OUT_ENV_VAR = "OSLAB_OUT"
DEFAULT_OUT_DIR = "oslab-reports"

# documented negative-control parameters: the cosine-damped kernel at this
# frequency is positive definite but not reflection positive for the
# full positive-site spike family at this amplitude
NON_RP_OMEGA = 4.0
NON_RP_SCALE = 2.0

# documented corrupted-functional fixture: adding a constant to every
# nonzero argument breaks positive-definiteness against the zero function
CORRUPTION_OFFSET = 0.5
CORRUPTED_SPIKE_SITE = 9
CORRUPTED_SPIKE_SCALE = 0.2

# bound on a residual that vanishes exactly in theory: semigroup, vacuum
# energy, re-factorization, intertwining and unitarity defects
RESIDUAL_TOL = 1.0e-8
# bound on a relative deviation: harmonic-ladder gaps, operator vs Wick
REL_DEV_TOL = 0.01
# bound on the distance of the sl2R-cartan dual from su(2)
SU2_MATCH_TOL = 1.0e-10


class ConfigError(ValueError):
    """Invalid configuration value, file, or flag combination."""


@dataclass
class RunConfig:
    """Validated run parameters shared by every subcommand."""

    instance: str = "ou"
    n_points: int = 32
    spacing: float = 0.25
    mass: float = 1.0
    max_degree: int = 3
    times: tuple = ()
    degrees: tuple = ()
    step: float | None = None
    samples: int = 0
    seed: int = 2026
    out: str | None = None
    algebra: str | None = None  # per-command default when unset
    families: int = 8
    family_size: int = 6

    def validate(self) -> None:
        if self.instance not in INSTANCES:
            raise ConfigError(
                "unknown instance %r; choose from %s" % (self.instance, ", ".join(INSTANCES))
            )
        if self.n_points % 2 != 0 or not 4 <= self.n_points <= 4096:
            raise ConfigError("n_points must be even and between 4 and 4096")
        if not _positive_finite(self.spacing):
            raise ConfigError("spacing must be positive and finite")
        if not _positive_finite(self.mass):
            raise ConfigError("mass must be positive and finite")
        if self.max_degree < 1:
            raise ConfigError("max_degree must be at least 1")
        if self.samples != 0 and self.samples < 1000:
            raise ConfigError(
                "samples must be 0 (Monte Carlo disabled) or at least 1000"
            )
        if self.step is not None and not _positive_finite(self.step):
            raise ConfigError("step must be positive and finite")
        if self.families < 1:
            raise ConfigError("families must be at least 1")
        if not 1 <= self.family_size <= 16:
            raise ConfigError("family_size must be between 1 and 16")
        if not all(_positive_finite(t) for t in self.times):
            raise ConfigError("times must be positive and finite")
        if any(d < 1 for d in self.degrees):
            raise ConfigError("degrees must be positive integers")

    def out_dir(self) -> str:
        return self.out or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT_DIR


def _positive_finite(x: float) -> bool:
    return 0.0 < x < np.inf  # False for NaN


def _split(kind):
    return lambda raw: tuple(kind(x) for x in raw.split())


# every config key and how its text is read, from a file line or a flag
CONFIG_PARSERS = {
    "instance": str, "n_points": int, "spacing": float, "mass": float,
    "max_degree": int, "times": _split(float), "degrees": _split(int),
    "step": float, "samples": int, "seed": int, "out": str, "algebra": str,
    "families": int, "family_size": int,
}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from an optional file plus flag overrides, both
    given as text; a flag wins over the same key in the file."""
    from .textio import parse_kv_text

    scalars: dict = {}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError("config file not found: %s" % path)
        with open(path) as fh:
            scalars, blocks = parse_kv_text(fh.read())
        if blocks:
            raise ConfigError("config file takes only key: value lines")
    values: dict = {}
    for key, raw in [*scalars.items(), *overrides.items()]:
        if key not in CONFIG_PARSERS:
            raise ConfigError("unknown config key %r" % key)
        try:
            values[key] = CONFIG_PARSERS[key](raw)
        except ValueError:
            raise ConfigError("bad value for %s: %r" % (key, raw)) from None
    cfg = replace(RunConfig(), **values)
    cfg.validate()
    return cfg


def _family_certificates(cfg: RunConfig, lattice: TimeLattice, functional):
    """Labelled certificates over the seeded random families: cfg.families
    pd certificates over complex functions, then as many rp certificates
    over real D+ functions, all drawn from one generator seeded with
    cfg.seed; [(label, certificate)] for each kind."""
    rng = np.random.default_rng(cfg.seed)
    n, pos = lattice.n_points, lattice.positive_indices

    def complex_coeffs():
        return 0.35 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def dplus_coeffs():
        c = np.zeros(n)
        c[pos] = 0.5 * rng.standard_normal(len(pos))
        return c

    runs = []
    for kind, certify, draw in (("pd", pd_gram_certificate, complex_coeffs),
                                ("rp", rp_gram_certificate, dplus_coeffs)):
        runs.append([])
        for i in range(cfg.families):
            size = int(rng.integers(1, cfg.family_size + 1))
            family = [TestFunction(lattice, draw()) for _ in range(size)]
            runs[-1].append(("%s family %d" % (kind, i), certify(functional, family)))
    return runs


def _certificates(runs) -> Check:
    """The count of the (label, certificate) runs and of their indefinite
    ones, and one failure line per indefinite certificate."""
    bad = [(label, cert) for label, cert in runs if cert.verdict != "positive"]
    return Check({"certificates": len(runs), "indefinite": len(bad)},
                 ["%s: indefinite, min_eig %s" % (label, fmt6(cert.min_eigenvalue))
                  for label, cert in bad])


def _spike_control(measure: GaussianEuclideanMeasure):
    """The non-rp control: the plain functional on a spike at every positive site."""
    spikes = delta_family(measure.lattice, list(measure.lattice.positive_indices), NON_RP_SCALE)
    return "rp spike family", rp_gram_certificate, measure.generating_functional, spikes


def _corrupted_control(measure: GaussianEuclideanMeasure):
    """The corrupted control: the functional with a constant added off the
    origin, on the zero function and one spike."""
    def corrupted(f: TestFunction) -> complex:
        base = measure.generating_functional(f)
        return base + CORRUPTION_OFFSET if float(np.max(np.abs(f.coeffs))) != 0.0 else base

    lattice = measure.lattice
    c = np.zeros(lattice.n_points)
    c[min(CORRUPTED_SPIKE_SITE, lattice.n_points - 1)] = CORRUPTED_SPIKE_SCALE
    family = [TestFunction(lattice, np.zeros_like(c)), TestFunction(lattice, c)]
    return "pd fixture", pd_gram_certificate, corrupted, family


@dataclass(frozen=True)
class Instance:
    """A measure instance.  Builders look up the covariance constructors in
    this module when called, so a wrapper bound here reaches every build."""

    build: Callable  # (cfg, lattice) -> measure
    reflection_positive: bool  # the verdict its certificates must give
    # cfg -> the gap m of the ladder m, 2m, ... its transfer must show; None
    # when that is only the raw compression, gated on its norm at 1e-3
    gap: Callable = lambda cfg: None
    # a fixture's measure -> (label, certificate function, functional,
    # family): the certificate that leads those of its kind
    control: Callable | None = None


def _ou(cfg: RunConfig, lattice: TimeLattice) -> GaussianEuclideanMeasure:
    return ou_covariance(cfg.mass, lattice)


# every measure instance, in --instance's order
INSTANCES = {
    "ou": Instance(_ou, True, gap=lambda cfg: cfg.mass),
    "free-field": Instance(lambda cfg, lattice: free_field_covariance(cfg.mass, lattice), True),
    "non-rp": Instance(lambda cfg, lattice: cosine_damped_covariance(
        cfg.mass, NON_RP_OMEGA, lattice), False, control=_spike_control),
    "corrupted": Instance(_ou, False, control=_corrupted_control),
}


def _accepted(cfg: RunConfig, command: str, what: str, accepts) -> Instance:
    """cfg's instance entry, refused unless accepts(entry) holds."""
    names = [name for name, inst in INSTANCES.items() if accepts(inst)]
    if cfg.instance not in names:
        raise ConfigError("%s expects %s: %s" % (command, what, ", ".join(names)))
    return INSTANCES[cfg.instance]


def _control(inst: Instance, measure: GaussianEuclideanMeasure):
    """The functional rp-check certifies on `measure`, and the instance's
    control as (label, certificate), or None when it has none."""
    if inst.control is None:
        return measure.generating_functional, None
    label, certify, functional, family = inst.control(measure)
    return functional, (label, certify(functional, family))


def _say(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


def _config_lines(cfg: RunConfig, keys) -> list:
    def render(v):
        return v if isinstance(v, str) else "%d" % v if isinstance(v, int) else fmt(v)

    return ["%s: %s" % (k, render(getattr(cfg, k))) for k in keys]


@dataclass
class Check:
    """One check's outcome: its named figures in report order, keyed as its
    report names them, and its failure lines.  It passes exactly when it
    has no failure line."""

    figures: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def gate(self, key: str, value: float, bound: float, text: str) -> None:
        """Record the figure `key`, and the failure `text` unless value <= bound (NaN fails)."""
        self.figures[key] = value
        if not value <= bound:
            self.failures.append(text)

    def require(self, ok: bool, text: str) -> None:
        """Record the failure line `text` unless ok."""
        if not ok:
            self.failures.append(text)

    def merge(self, other: "Check") -> "Check":
        self.figures.update(other.figures)
        self.failures += other.failures
        return self

    def summary(self) -> str:
        """`key value, ...` with six digits, then each failure line after `; `."""
        figures = ", ".join("%s %s" % (k, fmt6(v)) for k, v in self.figures.items())
        return "; ".join(filter(None, [figures, *self.failures]))


def _finish(cfg: RunConfig, quiet: bool, command: str, filename: str, lines: list,
            check: Check, sections: tuple = ()) -> int:
    """Close a report with its verdict, a line per failure of `check` and the
    sections; write it, print the failures and verdict, return the exit code."""
    lines.append("verdict: %s" % ("pass" if not check.failures else "fail"))
    lines += ["failure: %s" % f for f in check.failures]
    lines += ["", *sections]
    atomic_write(os.path.join(cfg.out_dir(), filename), "\n".join(lines))
    for f in check.failures:
        _say(quiet, "%s FAIL: %s" % (command, f))
    _say(quiet, "%s: %s" % (command, "PASS" if not check.failures else "FAIL"))
    return EXIT_OK if not check.failures else EXIT_CHECK_FAILED


# -- rp-check -----------------------------------------------------------------

def cmd_rp_check(cfg: RunConfig, quiet: bool = False) -> int:
    inst = INSTANCES[cfg.instance]
    measure = inst.build(cfg, TimeLattice(cfg.n_points, cfg.spacing))
    functional, control = _control(inst, measure)
    pd_runs, rp_runs = _family_certificates(cfg, measure.lattice, functional)
    if control is not None:  # it leads the certificates of its kind
        (pd_runs if control[1].kind == KIND_PD else rp_runs).insert(0, control)
    runs = pd_runs + rp_runs
    check = _certificates(runs)

    lines = ["format: oslab-rp-check v1"]
    lines += _config_lines(cfg, ("instance", "n_points", "spacing", "mass", "seed", "families",
                                 "family_size"))
    lines += ["tolerance: %s" % fmt(PSD_RTOL), "certificates: %d" % check.figures["certificates"]]
    for label, cert in runs:
        lines.append("%s: %s size=%d min_eig=%s norm=%s" % (
            label, cert.verdict, cert.gram.shape[0], fmt6(cert.min_eigenvalue), fmt6(cert.norm)))
        _say(quiet, "rp-check %s: %s (min eig %s)" % (label, cert.verdict, fmt6(cert.min_eigenvalue)))
    lines.append("indefinite: %d" % check.figures["indefinite"])
    sections = [line for label, cert in runs
                for line in ("[%s]" % label, certificate_to_text(cert).rstrip("\n"), "")]
    first_bad = next((cert for _, cert in runs if cert.verdict != "positive"), None)
    if first_bad is not None:
        atomic_write(os.path.join(cfg.out_dir(), "witness.txt"), certificate_to_text(first_bad))
    return _finish(cfg, quiet, "rp-check", "rp_check_report.txt", lines, check, sections)


# -- reconstruct --------------------------------------------------------------

def _positive_times(lattice: TimeLattice, count: int) -> tuple:
    """The first `count` positive site times (fewer on a smaller lattice)."""
    return tuple(float(t) for t in lattice.times[lattice.positive_indices[:count]])


def _basis_times(cfg: RunConfig, lattice: TimeLattice):
    return tuple(cfg.times) if cfg.times else _positive_times(lattice, 3)


def _comparison_rows(reports, with_mc: bool):
    mc = ("rhs_mc,mc_se,", ",sigma_dev") if with_mc else ("", "")
    rows = ["case,lhs_operator,rhs_wick,%srel_dev_wick%s" % mc]
    for label, rep in reports:
        mc = ((rep.rhs_mc, rep.mc_se), (rep.mc_sigma_deviation,)) if with_mc else ((), ())
        values = (rep.lhs_operator, rep.rhs_wick, *mc[0], rep.operator_vs_wick, *mc[1])
        rows.append(",".join([label, *map(fmt, values)]))
    return "\n".join(rows) + "\n"


def _ladder(space, ham, gap: float | None) -> Check:
    """The check of the Hamiltonian's excitation gaps over the ground state
    against the harmonic ladder gap, 2 gap, ...: their worst relative
    deviation and the vacuum energy |H vacuum|; with gap None (a raw
    compression) only the vacuum energy, ungated."""
    gaps = ham.spectrum[1:] - ham.spectrum[0]
    vacuum = float(np.linalg.norm(ham.matrix @ space.vacuum))
    if gap is None:
        return Check({"vacuum_energy_norm": vacuum})
    expected = gap * np.arange(1, len(gaps) + 1)
    gap_dev = float(np.max(np.abs(gaps - expected) / expected)) if len(gaps) else 0.0
    check = Check()
    check.gate("gap_deviation", gap_dev, REL_DEV_TOL,
               "spectrum gaps deviate %s from harmonic ladder" % fmt6(gap_dev))
    check.gate("vacuum_energy_norm", vacuum, RESIDUAL_TOL,
               "vacuum energy %s exceeds %g" % (fmt6(vacuum), RESIDUAL_TOL))
    return check


def _semigroup(transfer, pairs) -> Check:
    """The worst norm of T(a) and the worst semigroup residual
    |T(a) T(b) - T(a + b)| over the step-count pairs (a, b), reduced with
    np.max so NaN propagates, gated at the exact transfer's bounds."""
    norm = float(np.max([np.linalg.norm(transfer(a), 2) for a, _ in pairs]))
    semi = float(np.max([np.max(np.abs(transfer(a) @ transfer(b) - transfer(a + b)))
                         for a, b in pairs]))
    check = Check()
    check.gate("transfer_norm", norm, 1.0 + CONTRACTION_TOL,
               "contraction norm %s exceeds bound" % fmt6(norm))
    check.gate("semigroup_residual", semi, RESIDUAL_TOL,
               "semigroup residual %s exceeds %g" % (fmt6(semi), RESIDUAL_TOL))
    return check


def _moment_cases(measure, times, degrees, max_degree: int, samples: int = 0, seed: int = 0):
    """The moment identity on the case (times, degrees), or without times on
    npoint's default cases q q and q q q q one spacing apart from the first
    positive site t0, each over a space at t0 (where the compressed
    multiplication chain telescopes exactly) of degree max(max_degree, total
    degree): [(label, report)] and the check of each case's operator-vs-Wick
    deviation (`<label> rel_dev`) and, with samples, of its Monte Carlo arm
    (`<label> sigma_dev`)."""
    t0, = _positive_times(measure.lattice, 1)
    h = measure.lattice.spacing
    cases = ([(times, degrees)] if times else
             [((t0, t0 + h), (1, 1)), ((t0, t0 + h, t0 + 2 * h, t0 + 3 * h), (1, 1, 1, 1))])
    reports, check = [], Check()
    for case_times, case_degrees in cases:
        need = max(max_degree, sum(case_degrees))
        space = build_physical_space(measure, times=(t0,), max_degree=need)
        rep = verify_npoint_identity(space, case_times, case_degrees, n_samples=samples, seed=seed)
        label = "".join("q(%s)^%d" % (fmt6(t), d) for t, d in zip(case_times, case_degrees))
        reports.append((label, rep))
        check.gate("%s rel_dev" % label, rep.operator_vs_wick, REL_DEV_TOL,
                   "%s: operator vs Wick off by %s" % (label, fmt6(rep.operator_vs_wick)))
        if rep.mc_sigma_deviation is not None:
            check.gate("%s sigma_dev" % label, rep.mc_sigma_deviation, SIGMA_TOL,
                       "%s: Monte Carlo off by %s sigma" % (label, fmt6(rep.mc_sigma_deviation)))
    return reports, check


def cmd_reconstruct(cfg: RunConfig, quiet: bool = False) -> int:
    inst = _accepted(cfg, "reconstruct", "a reflection-positive instance",
                     lambda entry: entry.reflection_positive)
    measure = inst.build(cfg, TimeLattice(cfg.n_points, cfg.spacing))
    lattice = measure.lattice
    gap = inst.gap(cfg)
    exact = gap is not None
    contraction_tol = CONTRACTION_TOL if exact else 1.0e-3
    times = _basis_times(cfg, lattice)
    space = build_physical_space(measure, times=times, max_degree=cfg.max_degree)

    step = cfg.step if cfg.step is not None else cfg.spacing
    transfers = {k: transfer_operator(space, k * step, exact=exact, contraction_tol=contraction_tol)
                 for k in (1, 2)}
    T = transfers[1]
    check = _semigroup(transfers.__getitem__, ((1, 1),))
    if not exact:
        # a raw compression is gated on its norm alone, at its looser bound, by transfer_operator
        check.failures.clear()
    asymmetry = float(np.max(np.abs(T - T.T)))
    ham = extract_hamiltonian(space, T, step)
    gaps = ham.spectrum[1:] - ham.spectrum[0]
    figures = check.merge(_ladder(space, ham, gap)).figures
    if exact:
        t0, = _positive_times(lattice, 1)
        [(_, two_point)], moments = _moment_cases(
            measure, (t0, t0 + step), (1, 1), cfg.max_degree, cfg.samples, cfg.seed)
        check.merge(moments)

    lines = ["format: oslab-reconstruct v1"]
    lines += _config_lines(cfg, ("instance", "n_points", "spacing", "mass", "max_degree", "seed"))
    lines += ["basis_times: %s" % " ".join(fmt(t) for t in times), "step: %s" % fmt(step),
              "basis_size: %d" % len(space.basis), "physical_dim: %d" % space.physical_dim]
    lines += ["gram_eigenvalues:"] + ["  %s" % fmt(float(w)) for w in space.eigenvalues]
    lines += ["transfer_norm: %s" % fmt(figures["transfer_norm"]),
              "transfer_asymmetry: %s" % fmt(asymmetry),
              "semigroup_residual: %s" % fmt(figures["semigroup_residual"])]
    if not exact:
        lines.append("note: raw orthogonal compression; finite-volume effects reported, not hidden")
    lines += ["raw_spectrum:"] + ["  %s" % fmt(float(w)) for w in ham.raw_spectrum]
    lines += ["shifted_spectrum:"] + ["  %s" % fmt(float(w)) for w in ham.spectrum]
    lines += ["spectrum_gaps:"] + ["  gap %d: %s" % (k, fmt(float(g)))
                                   for k, g in enumerate(gaps, start=1)]
    lines += ["%s: %s" % (k, fmt(figures[k]))
              for k in ("gap_deviation", "vacuum_energy_norm") if k in figures]
    if exact:
        lines.append("two_point_rel_dev: %s" % fmt(two_point.operator_vs_wick))
        label = "q(%s)q(%s)" % (fmt6(t0), fmt6(t0 + step))
        atomic_write(os.path.join(cfg.out_dir(), "reconstruct_comparison.csv"),
                     _comparison_rows([(label, two_point)], with_mc=cfg.samples > 0))
    _say(quiet, "reconstruct physical_dim=%d transfer_norm=%s"
         % (space.physical_dim, fmt6(figures["transfer_norm"])))
    return _finish(cfg, quiet, "reconstruct", "reconstruct_report.txt", lines, check)


# -- npoint -------------------------------------------------------------------

def cmd_npoint(cfg: RunConfig, quiet: bool = False) -> int:
    inst = _accepted(cfg, "npoint", "an instance with an exact transfer",
                     lambda entry: entry.gap(cfg) is not None)
    if len(cfg.times) != len(cfg.degrees):
        raise ConfigError("times and degrees must have equal length")
    measure = inst.build(cfg, TimeLattice(cfg.n_points, cfg.spacing))
    reports, check = _moment_cases(
        measure, cfg.times, cfg.degrees, cfg.max_degree, cfg.samples, cfg.seed)

    lines = ["format: oslab-npoint v1"]
    lines += _config_lines(cfg, ("instance", "n_points", "spacing", "mass", "samples", "seed"))
    lines.append("cases: %d" % len(reports))
    for label, rep in reports:
        rel_dev = check.figures["%s rel_dev" % label]
        lines += ["%s:" % label, "  lhs_operator: %s" % fmt(rep.lhs_operator),
                  "  rhs_wick: %s" % fmt(rep.rhs_wick), "  rel_dev: %s" % fmt(rel_dev)]
        mc = ""
        if cfg.samples > 0:
            sigma_dev = check.figures["%s sigma_dev" % label]
            lines += ["  rhs_mc: %s" % fmt(rep.rhs_mc), "  mc_se: %s" % fmt(rep.mc_se),
                      "  sigma_dev: %s" % fmt(sigma_dev)]
            mc = ", mc %s sigma" % fmt6(sigma_dev)
        _say(quiet, "npoint %s: rel dev %s%s" % (label, fmt6(rel_dev), mc))
    atomic_write(os.path.join(cfg.out_dir(), "npoint_comparison.csv"),
                 _comparison_rows(reports, with_mc=cfg.samples > 0))
    return _finish(cfg, quiet, "npoint", "npoint_report.txt", lines, check)


# -- cdual --------------------------------------------------------------------

def _load_algebra(name: str):
    """(algebra, involution or None, cone or None) from a file or a built-in name."""
    if os.path.isfile(name):
        with open(name) as fh:
            return liealg.algebra_from_text(fh.read())
    algebra, involution = liealg.builtin_algebra(name)
    return algebra, involution, None


def _double_dual(name: str, algebra, involution):
    """The involutive split, the adapted algebra and the c-dual, and the
    check of the dual's Jacobi residual (reported; c_dual itself raises
    StructureError on it), the drift of the dual applied twice and, for
    sl2R-cartan, the distance of the dual from su(2)."""
    split = liealg.split_by_involution(algebra, involution)
    adapted, _ = liealg.adapted_algebra(split)
    dual = liealg.c_dual(split)
    check = Check({"dual_jacobi_residual": liealg.validate_algebra(dual).jacobi_residual})
    dual_split = liealg.split_by_involution(dual, liealg.c_dual_involution(split))
    double = float(np.max(np.abs(liealg.c_dual(dual_split).structure - adapted.structure)))
    check.gate("double_dual_residual", double, liealg.STRUCTURE_TOL,
               "applying the dual twice drifts by %s" % fmt6(double))
    if name == "sl2R-cartan":
        su2 = float(np.max(np.abs(
            liealg.change_basis(dual, liealg.SU2_BASIS_CHANGE).structure - liealg.su2_structure())))
        check.gate("su2_match_residual", su2, SU2_MATCH_TOL,
                   "compact-form identification off by %s" % fmt6(su2))
    return (split, adapted, dual), check


def cmd_cdual(cfg: RunConfig, quiet: bool = False) -> int:
    name = cfg.algebra or "sl2R-cartan"
    algebra, involution, _ = _load_algebra(name)
    report = liealg.validate_algebra(algebra)
    if involution is None:
        raise ConfigError("algebra %r carries no involution; cannot form the dual" % name)
    (split, adapted, dual), check = _double_dual(name, algebra, involution)

    lines = ["format: oslab-cdual v1", "algebra: %s" % name, "dim: %d" % algebra.dim,
             "antisymmetry_residual: %s" % fmt(report.antisymmetry_residual),
             "jacobi_residual: %s" % fmt(report.jacobi_residual),
             "h_dim: %d" % split.h_dim, "q_dim: %d" % split.q_dim,
             "bracket_residual: %s" % fmt(split.bracket_residual),
             "adapted_labels: %s" % " ".join(adapted.labels),
             "dual_labels: %s" % " ".join(dual.labels), "dual_structure:"]
    lines += liealg.structure_lines(dual.structure)
    lines += ["%s: %s" % (k, fmt(v)) for k, v in check.figures.items()]

    _say(quiet, "cdual %s: h_dim=%d q_dim=%d double_dual_residual=%s"
         % (name, split.h_dim, split.q_dim, fmt6(check.figures["double_dual_residual"])))
    return _finish(cfg, quiet, "cdual", "cdual_report.txt", lines, check)


# -- cone-check ---------------------------------------------------------------

def _cone(report) -> Check:
    """The check of a hyperbolic cone report: its invariance residual under
    the fixed subgroup, and failure lines for a non-hyperbolic point and a
    witness that is not strictly positive."""
    check = Check()
    if not report.all_hyperbolic:
        bad = next(pc for pc in report.point_checks if not pc.hyperbolic)
        check.failures.append("non-hyperbolic cone point: %s" % bad.reason)
    check.require(report.witness_strictly_positive,
                  "interior witness is not a strictly positive combination")
    check.gate("invariance_residual", report.invariance_residual, liealg.CONE_RESIDUAL_TOL,
               "cone not invariant under the fixed subgroup (residual %s)"
               % fmt6(report.invariance_residual))
    return check


def _membership(cfg: RunConfig) -> Check:
    """Quadrant semigroup products and the wedge control, cfg.samples of
    each (200 when unset): the quadrant's rate must be 1 and its worst
    re-factorization residual within bound; the wedge is expected to fail
    and is diagnostic only."""
    n_products = cfg.samples if cfg.samples > 0 else 200
    membership = liealg.semigroup_membership_sample(n_products, cfg.seed, cone="quadrant")
    control = liealg.semigroup_membership_sample(n_products, cfg.seed, cone="wedge")
    check = Check({"membership_products": membership.n_products,
                   "membership_rate": membership.success_rate})
    check.require(membership.n_success == membership.n_products,
                  "quadrant products failed to re-factor (%d of %d)"
                  % (membership.n_products - membership.n_success, membership.n_products))
    check.gate("membership_worst_residual", membership.worst_residual, RESIDUAL_TOL,
               "re-factorization residual %s" % fmt6(membership.worst_residual))
    check.figures.update(wedge_control_rate=control.success_rate,
                         wedge_control_failures=len(control.failures))
    return check


def cmd_cone_check(cfg: RunConfig, quiet: bool = False) -> int:
    name = cfg.algebra or "sl2R-adH"
    if name == "nilpotent-control":
        split, cone = liealg.nilpotent_control_cone()
    elif name == "sl2R-adH":
        split, cone = liealg.builtin_cone("sl2R-adH")
    elif os.path.isfile(name):
        algebra, involution, cone = _load_algebra(name)
        if involution is None or cone is None:
            raise ConfigError("algebra file must carry an involution and a cone")
        liealg.validate_algebra(algebra)
        split = liealg.split_by_involution(algebra, involution)
    else:
        raise ConfigError("cone-check takes sl2R-adH, nilpotent-control, "
                          "or an algebra file with a cone")

    report = liealg.hyperbolic_cone_check(split, cone, h_samples=8, seed=cfg.seed)
    check = _cone(report)

    lines = ["format: oslab-cone-check v1", "algebra: %s" % name, "h_dim: %d" % split.h_dim,
             "q_dim: %d" % split.q_dim, "points_checked: %d" % len(report.point_checks),
             "all_hyperbolic: %s" % str(report.all_hyperbolic).lower(),
             "witness_strictly_positive: %s" % str(report.witness_strictly_positive).lower(),
             "witness_combination: %s" % " ".join(fmt(x) for x in report.witness_combination),
             "invariance_residual: %s" % fmt(check.figures["invariance_residual"])]
    lines += ["point %d: %s [%s]" % (i, pc.reason, " ".join(map(fmt, np.sort(pc.eigenvalues.real))))
              for i, pc in enumerate(report.point_checks)]
    if name == "sl2R-adH":
        membership = _membership(cfg)
        check.merge(membership)
        lines += ["%s: %s" % (k, fmt(v)) for k, v in membership.figures.items()]
        lines.append("note: the wedge control is expected to fail; it is diagnostic only")

    _say(quiet, "cone-check %s: hyperbolic=%s invariance_residual=%s"
         % (name, report.all_hyperbolic, fmt6(check.figures["invariance_residual"])))
    return _finish(cfg, quiet, "cone-check", "cone_check_report.txt", lines, check)


# -- suite --------------------------------------------------------------------

class _SuiteInputs:
    """What several suite checks share, each part built on first use: a
    part whose construction raises fails the check that asked for it, and
    the next check that needs it tries again."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.lattice = TimeLattice(cfg.n_points, cfg.spacing)
        self._measures: dict = {}
        self._transfers: dict = {}

    def measure(self, name: str) -> GaussianEuclideanMeasure:
        """The measure of instance `name`, built once per builder (corrupted shares OU's)."""
        build = INSTANCES[name].build
        if build not in self._measures:
            self._measures[build] = build(self.cfg, self.lattice)
        return self._measures[build]

    ou = property(lambda self: self.measure("ou"))
    ff = property(lambda self: self.measure("free-field"))

    @cached_property
    def families(self):
        return _family_certificates(self.cfg, self.lattice, self.ou.generating_functional)

    @cached_property
    def space(self):
        return build_physical_space(self.ou, times=_basis_times(self.cfg, self.lattice),
                                    max_degree=self.cfg.max_degree)

    def transfer(self, steps: int) -> np.ndarray:
        """The transfer operator over `steps` lattice spacings, built once."""
        if steps not in self._transfers:
            self._transfers[steps] = transfer_operator(self.space, steps * self.cfg.spacing)
        return self._transfers[steps]


def _check_covariance_psd(run: _SuiteInputs) -> Check:
    check = Check()
    for name, measure in (("ou", run.ou), ("free_field", run.ff)):
        # the spectral norm of a symmetric matrix is its largest |eigenvalue|
        margin = float(measure.eigenvalues[0] / np.max(np.abs(measure.eigenvalues)))
        check.figures["%s_min_eig_over_norm" % name] = margin
        check.require(margin >= -PSD_RTOL, "%s covariance is indefinite" % name)
    return check


def _check_stationarity_reflection(run: _SuiteInputs) -> Check:
    check = Check()
    # the boundary-pinned free field is not stationary: its deviation is reported, not gated
    for name, m, gated in (("ou", run.ou, True), ("free_field", run.ff, False)):
        stationary, check.figures[name + "_stationarity_deviation"] = check_stationarity(m)
        check.require(stationary or not gated, "%s covariance is not stationary" % name)
        symmetric, check.figures[name + "_reflection_deviation"] = check_time_reflection_symmetry(m)
        check.require(symmetric, "%s covariance is not reflection symmetric" % name)
    return check


def _family_check(runs) -> Check:
    """Every family certificate of one kind is positive."""
    check = _certificates(runs)
    check.figures["worst_min_eig_over_norm"] = min(c.min_eigenvalue / c.norm for _, c in runs)
    return check


def _control_check(run: _SuiteInputs, name: str) -> Check:
    """A fixture's control gives the verdict its entry expects."""
    inst = INSTANCES[name]
    _, (label, cert) = _control(inst, run.measure(name))
    expected = "positive" if inst.reflection_positive else "indefinite"
    check = Check({"min_eig": cert.min_eigenvalue, "norm": cert.norm})
    check.require(cert.verdict == expected, "%s: %s, %s expected" % (label, cert.verdict, expected))
    return check


def _check_sampled_rp(run: _SuiteInputs) -> Check:
    t0, t1 = _positive_times(run.lattice, 2)
    obs = [SampledObservable(((t, kind),))
           for t, kind in ((t0, "q"), (t1, "q"), (t0, "q2"), (t0, "tanh"))]
    n_mc = run.cfg.samples if run.cfg.samples > 0 else 2000
    cert = rp_sampled_certificate(run.ou, obs, n_mc, run.cfg.seed)
    check = Check({"paths": n_mc, "min_eig": cert.min_eigenvalue,
                   "min_eig_se": cert.min_eigenvalue_se})
    check.require(cert.verdict == "positive", "sampled gram is indefinite")
    return check


def _check_reconstruction_spectrum(run: _SuiteInputs) -> Check:
    ham = extract_hamiltonian(run.space, run.transfer(1), run.cfg.spacing)
    return _ladder(run.space, ham, INSTANCES["ou"].gap(run.cfg))


def _check_npoint_identity(run: _SuiteInputs) -> Check:
    _, check = _moment_cases(run.ou, (), (), run.cfg.max_degree)
    return check


def _check_reflection_intertwining(run: _SuiteInputs) -> Check:
    rep = check_reflection_intertwining(run.ou, max_degree=2, shifts=(1, 2))
    broken = check_reflection_intertwining(run.ou, max_degree=2, shifts=(1,),
                                           break_reflection=True)
    check = Check()
    for key in ("intertwining_defect", "unitarity_defect"):
        value = getattr(rep, key)
        check.gate(key, value, RESIDUAL_TOL,
                   "%s %s exceeds %g" % (key, fmt6(value), RESIDUAL_TOL))
    check.figures["involution_defect"] = rep.involution_defect
    check.require(rep.involution_defect == 0.0, "the reflection is not an involution")
    check.figures["broken_control_defect"] = broken.intertwining_defect
    check.require(broken.intertwining_defect >= 0.1, "a broken reflection still intertwines")
    return check


def _check_cdual_involution(run: _SuiteInputs) -> Check:
    algebra, tau = liealg.builtin_algebra("sl2R-cartan")
    _, check = _double_dual("sl2R-cartan", algebra, tau)
    return check


def _check_cone_hyperbolic(run: _SuiteInputs) -> Check:
    c_split, c_cone = liealg.builtin_cone()
    check = _cone(liealg.hyperbolic_cone_check(c_split, c_cone, h_samples=8, seed=run.cfg.seed))
    n_split, n_cone = liealg.nilpotent_control_cone()
    n_rep = liealg.hyperbolic_cone_check(n_split, n_cone, h_samples=2, seed=run.cfg.seed)
    check.require(not n_rep.all_hyperbolic and
                  any("nilpotent" in pc.reason for pc in n_rep.point_checks),
                  "the nilpotent control is not rejected as nilpotent")
    return check


def _check_semigroup_membership(run: _SuiteInputs) -> Check:
    check = _membership(run.cfg)
    check.require(check.figures["wedge_control_rate"] < 1.0, "the wedge control always re-factors")
    return check


def _check_commutant_dimension(run: _SuiteInputs) -> Check:
    H, E, F = liealg.SL2_H, liealg.SL2_E, liealg.SL2_F
    cases = (("sl2", [H, E, F], 1), ("cartan", [H], 2), ("identity", [np.eye(2)], 4),
             ("diagonal", [np.diag([1.0, 2.0, 3.0])], 3))
    check = Check()
    for name, mats, want in cases:
        got = check.figures["%s_commutant_dim" % name] = liealg.commutant_dimension(mats)
        check.require(got == want, "%s commutant has dimension %d, not %d" % (name, got, want))
    return check


# every suite check, in report order; each returns its Check
SUITE_CHECKS = {
    "covariance-psd": _check_covariance_psd,
    "stationarity-reflection": _check_stationarity_reflection,
    "pd-certificates": lambda run: _family_check(run.families[0]),
    "rp-certificates": lambda run: _family_check(run.families[1]),
    "non-rp-control": lambda run: _control_check(run, "non-rp"),
    "corrupted-control": lambda run: _control_check(run, "corrupted"),
    "sampled-rp": _check_sampled_rp,
    "reconstruction-spectrum": _check_reconstruction_spectrum,
    "contraction-semigroup": lambda run: _semigroup(run.transfer, ((1, 1), (1, 2), (2, 2))),
    "npoint-identity": _check_npoint_identity,
    "reflection-intertwining": _check_reflection_intertwining,
    "cdual-involution": _check_cdual_involution,
    "cone-hyperbolic": _check_cone_hyperbolic,
    "semigroup-membership": _check_semigroup_membership,
    "commutant-dimension": _check_commutant_dimension,
}


def _suite_results(cfg: RunConfig):
    """[(name, Check)] of every suite check in order; a check that raises a
    CheckFailure fails with the error as its failure line, and the others run."""
    run = _SuiteInputs(cfg)
    results = []
    for name, check in SUITE_CHECKS.items():
        try:
            result = check(run)
        except CheckFailure as exc:
            result = Check(failures=["%s: %s" % (type(exc).__name__, exc)])
        results.append((name, result))
    return results


# the longest transfer a suite check builds: T(2) T(2) = T(4) in contraction-semigroup
SUITE_MAX_STEPS = 4


def _suite_fits(cfg: RunConfig, n_points: int) -> bool:
    """Whether the suite's basis times, shifted SUITE_MAX_STEPS spacings, stay on the lattice."""
    lattice = TimeLattice(n_points, cfg.spacing)
    reach = max(_basis_times(cfg, lattice)) + SUITE_MAX_STEPS * cfg.spacing
    return reach <= lattice.max_time + 1.0e-12


def cmd_suite(cfg: RunConfig, quiet: bool = False, config_note: str = "built-in defaults") -> int:
    if not _suite_fits(cfg, cfg.n_points):
        fits = (n for n in range(cfg.n_points, 4097, 2) if _suite_fits(cfg, n))
        raise ConfigError(
            "suite shifts its basis times by up to %d spacings, off the lattice at n_points %d; "
            "the smallest n_points that fits is %s"
            % (SUITE_MAX_STEPS, cfg.n_points, next(fits, "none up to 4096")))
    results = _suite_results(cfg)

    lines = ["format: oslab-suite v1", "config: %s" % config_note]
    lines += _config_lines(cfg, ("n_points", "spacing", "mass", "seed"))
    failed = Check()
    for name, result in results:
        line = "%s: %s (%s)" % (name, "PASS" if not result.failures else "FAIL", result.summary())
        lines.append("check " + line)
        _say(quiet, "suite " + line)
        failed.failures += ["%s: %s" % (name, f) for f in result.failures]
    lines.append("failed: %d/%d" % (sum(bool(r.failures) for _, r in results), len(results)))
    return _finish(cfg, quiet, "suite", "suite_summary.txt", lines, failed)


# -- argument parsing ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oslab",
        description="Finite-lattice reflection-positivity laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_instance=False, with_algebra=None):
        p.add_argument("--config", help="key: value configuration file")
        p.add_argument("--seed", help="random seed")
        p.add_argument("--samples",
                       help="Monte-Carlo sample count (0 disables; else at least 1000)")
        p.add_argument("--out", help="output directory (default: $%s or %s)"
                       % (OUT_ENV_VAR, DEFAULT_OUT_DIR))
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
        if with_instance:
            p.add_argument("--instance", choices=tuple(INSTANCES), help="measure instance")
        if with_algebra is not None:
            p.add_argument("algebra", nargs="?", default=None,
                           help="built-in algebra name or algebra file (default: %s)" % with_algebra)

    p = sub.add_parser("rp-check", help="certify positivity over random families")
    common(p, with_instance=True)
    p = sub.add_parser("reconstruct", help="build the physical space and spectrum")
    common(p, with_instance=True)
    p.add_argument("--step", help="transfer step (default: lattice spacing)")
    p.add_argument("--n-points", dest="n_points", help="lattice size (even)")
    p.add_argument("--spacing", help="lattice spacing")
    p.add_argument("--mass", help="mass parameter")
    p = sub.add_parser("npoint", help="verify the multi-time moment identity")
    common(p, with_instance=True)
    p.add_argument("--times", help="observable times, space separated")
    p.add_argument("--degrees", help="observable degrees, space separated")
    p = sub.add_parser("cdual", help="involutive split and dual structure constants")
    common(p, with_algebra="sl2R-cartan")
    p = sub.add_parser("cone-check", help="hyperbolic cone diagnostics")
    common(p, with_algebra="sl2R-adH")
    p = sub.add_parser("suite", help="run every check, one summary")
    common(p)

    return parser


COMMANDS = {
    "rp-check": cmd_rp_check,
    "reconstruct": cmd_reconstruct,
    "npoint": cmd_npoint,
    "cdual": cmd_cdual,
    "cone-check": cmd_cone_check,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in CONFIG_PARSERS
                 if getattr(args, key, None) is not None}
    try:
        cfg = load_config(args.config, overrides)
        extra = {}
        if args.command == "suite":
            user = args.config is not None or any(k != "out" for k in overrides)
            extra = {"config_note": "user-supplied" if user else "built-in defaults"}
        return COMMANDS[args.command](cfg, quiet=args.quiet, **extra)
    except CheckFailure as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        # every other value error is a malformed request: a bad config, an
        # off-grid time or step, a shift off the lattice, a mismatched lattice
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
