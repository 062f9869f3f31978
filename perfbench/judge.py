"""Judge one job from its exit code and the report files it wrote.

Every check reads the reports only: the expected exit code, the verdict
line, the contractual thresholds the reports print, and where the report
gives enough to recompute a number independently (a certificate's minimum
eigenvalue from its printed gram, a Wick moment from the Ornstein-Uhlenbeck
kernel, the harmonic ladder from the printed gaps), that number too.

A Monte Carlo arm between 3 and 5 standard errors off is an expected
excursion (about 0.3% of arms), counted apart from failures; beyond 5 it
fails the job.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from jobs import CDUAL_DIMS, Job

# thresholds the CLI applies and prints against (src/oslab/cli.py)
PSD_TOL = 1.0e-10
CONTRACTION_TOL = {"ou": 1.0e-10, "free-field": 1.0e-3}
RESIDUAL_TOL = 1.0e-8
RELATIVE_TOL = 0.01
STRUCTURE_TOL = 1.0e-12
SU2_TOL = 1.0e-10
CONE_RESIDUAL_TOL = 1.0e-6
SIGMA_EXPECTED, SIGMA_FAIL = 3.0, 5.0
# independent recomputations agree with the printed figures to this much
EIG_RTOL = 1.0e-9
WICK_RTOL = 1.0e-9
DEFAULT_SPACING = 0.25
BASIS_TIMES = 3  # the CLI's default basis: the first three positive sites


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # relative errors against a reference
    excursions: int = 0  # Monte Carlo arms between 3 and 5 sigma

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, what: str) -> bool:
        if not cond:
            self.problems.append(what)
        return bool(cond)


# -- report parsing -----------------------------------------------------------

def parse_kv(lines):
    """`key: value` lines plus `name:` blocks of indented lines."""
    scalars, blocks, current = {}, {}, None
    for raw in lines:
        if not raw.strip():
            continue
        if raw[0] == " ":
            if current is not None:
                current.append(raw.strip())
            continue
        key, _, val = raw.partition(":")
        val = val.strip()
        if val:
            scalars.setdefault(key.strip(), val)
            current = None
        else:
            current = blocks.setdefault(key.strip(), [])
    return scalars, blocks


def split_sections(text: str):
    """Header lines and [label] sections of an rp-check report."""
    header, sections, current = [], [], None
    for line in text.split("\n"):
        if line.startswith("[") and line.endswith("]"):
            current = []
            sections.append((line[1:-1], current))
        elif current is None:
            header.append(line)
        else:
            current.append(line)
    return header, sections


def _complex(tok: str) -> complex:
    if tok.startswith("("):
        re_s, im_s = tok[1:-1].split(",")
        return complex(float(re_s), float(im_s))
    return complex(float(tok))


def failure_lines(text: str) -> list:
    return [l[len("failure: "):] for l in text.split("\n") if l.startswith("failure: ")]


# -- independent Wick oracle --------------------------------------------------

def ou_wick_moment(times, degrees, mass: float, spacing: float) -> float:
    """E[prod q(t_k)^d_k] for the OU kernel exp(-m|t-s|)/(2m) on the lattice,
    by pairing sums over site indices (distances are exact multiples of the
    spacing, as in the lattice covariance)."""
    sites = []
    for t, d in zip(times, degrees):
        sites += [int(round(t / spacing - 0.5))] * int(d)
    if len(sites) % 2:
        return 0.0
    memo = {}

    def rec(rest: tuple) -> float:
        if not rest:
            return 1.0
        if rest not in memo:
            first, tail = rest[0], rest[1:]
            memo[rest] = sum(
                math.exp(-mass * abs(first - tail[p]) * spacing) / (2.0 * mass)
                * rec(tail[:p] + tail[p + 1:])
                for p in range(len(tail))
            )
        return memo[rest]

    return rec(tuple(sorted(sites)))


# -- per-command judges -------------------------------------------------------

def _certificate(v: Verdict, label: str, lines: list) -> dict:
    scalars, blocks = parse_kv(lines)
    min_eig, tol, norm = (float(scalars[k]) for k in ("min_eigenvalue", "tolerance", "norm"))
    positive = min_eig >= -tol * norm
    v.require(scalars["verdict"] == ("positive" if positive else "indefinite"),
              "%s: verdict does not match min_eigenvalue against tolerance" % label)
    gram = np.array([[_complex(t) for t in row.split()] for row in blocks["gram"]])
    v.require(gram.shape == (int(scalars["size"]),) * 2, "%s: gram shape" % label)
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    v.require(abs(lam[0] - min_eig) <= EIG_RTOL * max(norm, 1e-300),
              "%s: printed min_eigenvalue differs from the printed gram's" % label)
    return scalars


def judge_rp_check(job: Job, code: int, files: dict, v: Verdict) -> None:
    text = files["rp_check_report.txt"].decode()
    header, sections = split_sections(text)
    top, _ = parse_kv(header)
    v.require(top.get("format") == "oslab-rp-check v1", "format line")
    certs = [(label, _certificate(v, label, lines)) for label, lines in sections]
    bad = [label for label, c in certs if c["verdict"] == "indefinite"]
    v.require(int(top["certificates"]) == len(certs), "certificate count")
    v.require(int(top["indefinite"]) == len(bad), "indefinite count")
    v.require(float(top["tolerance"]) == PSD_TOL, "default tolerance")
    v.require(all(1 <= int(c["size"]) <= 16 for label, c in certs if " family " in label),
              "family sizes within 1..16")
    instance = job.param("instance")
    if instance in ("ou", "free-field"):
        v.require(not bad, "reflection-positive measure gave indefinite certificates %s" % bad)
        v.require(top.get("verdict") == "pass", "verdict line")
        v.require("witness.txt" not in files, "no witness on a pass")
        return
    fixture = "rp spike family" if instance == "non-rp" else "pd fixture"
    v.require(fixture in bad, "%s control: %s not indefinite" % (instance, fixture))
    v.require(top.get("verdict") == "fail", "verdict line")
    if v.require("witness.txt" in files, "witness written") and bad:
        first = dict(sections)[bad[0]]
        v.require(files["witness.txt"].decode() == "\n".join(first).rstrip("\n") + "\n",
                  "witness is the first indefinite certificate")


def judge_reconstruct(job: Job, code: int, files: dict, v: Verdict) -> None:
    text = files["reconstruct_report.txt"].decode()
    top, blocks = parse_kv(text.split("\n"))
    v.require(top.get("format") == "oslab-reconstruct v1", "format line")
    v.require(top.get("verdict") == "pass" and not failure_lines(text),
              "verdict: %s" % "; ".join(failure_lines(text)))
    instance = job.param("instance")
    degree = int(job.param("max_degree"))
    mass = float(job.param("mass"))
    v.require(int(top["basis_size"]) == math.comb(BASIS_TIMES + degree, degree), "basis size")
    v.require(float(top["transfer_norm"]) <= 1.0 + CONTRACTION_TOL[instance], "contraction")
    if instance != "ou":
        return
    # the OU measure is Markov: the physical space over the default basis
    # is spanned by q(t0)^k, k = 0..degree
    v.require(int(top["physical_dim"]) == degree + 1,
              "physical_dim %s, Markov rank is %d" % (top["physical_dim"], degree + 1))
    for key in ("semigroup_residual", "vacuum_energy_norm"):
        v.require(float(top[key]) <= RESIDUAL_TOL, "%s %s" % (key, top[key]))
    gaps = [float(g.split(":")[1]) for g in blocks.get("spectrum_gaps", [])]
    v.require(len(gaps) == int(top["physical_dim"]) - 1, "one gap per excitation")
    ladder = max((abs(g - k * mass) / (k * mass) for k, g in enumerate(gaps, 1)), default=0.0)
    v.require(ladder <= RELATIVE_TOL, "gaps off the harmonic ladder by %.3g" % ladder)
    for key in ("gap_deviation", "two_point_rel_dev"):
        err = float(top[key])
        v.require(err <= RELATIVE_TOL, "%s %s" % (key, top[key]))
        v.errors.append(err)
    v.require("reconstruct_comparison.csv" in files, "comparison table written")


def _npoint_cases(job: Job):
    spacing = float(job.param("spacing", DEFAULT_SPACING))
    if job.param("times") is not None:
        times = [float(t) for t in job.param("times").split()]
        return [(times, [int(d) for d in job.param("degrees").split()])], spacing
    t0 = 0.5 * spacing
    return [([t0, t0 + spacing], [1, 1]),
            ([t0 + k * spacing for k in range(4)], [1, 1, 1, 1])], spacing


def judge_npoint(job: Job, code: int, files: dict, v: Verdict) -> None:
    text = files["npoint_report.txt"].decode()
    top, blocks = parse_kv(text.split("\n"))
    v.require(top.get("format") == "oslab-npoint v1", "format line")
    cases, spacing = _npoint_cases(job)
    reports = [parse_kv(lines)[0] for name, lines in blocks.items() if name.startswith("q(")]
    if not v.require(len(reports) == len(cases) == int(top["cases"]), "case count"):
        return
    mass = float(job.param("mass"))
    with_mc = int(job.param("samples", "0")) > 0
    sigmas = []
    for (times, degrees), rep in zip(cases, reports):
        lhs, rhs, rel = (float(rep[k]) for k in ("lhs_operator", "rhs_wick", "rel_dev"))
        oracle = ou_wick_moment(times, degrees, mass, spacing)
        v.require(abs(rhs - oracle) <= WICK_RTOL * abs(oracle), "rhs_wick %r vs oracle %r" % (rhs, oracle))
        v.require(rel <= RELATIVE_TOL, "operator vs Wick rel_dev %r" % rel)
        v.errors.append(rel)
        if with_mc:
            sigma = abs(float(rep["rhs_mc"]) - rhs) / float(rep["mc_se"])
            v.require(math.isclose(sigma, float(rep["sigma_dev"]), rel_tol=1e-9, abs_tol=1e-12),
                      "sigma_dev does not match rhs_mc, rhs_wick and mc_se")
            sigmas.append(sigma)
    v.require(all(s <= SIGMA_FAIL for s in sigmas), "Monte Carlo beyond %g sigma" % SIGMA_FAIL)
    v.excursions = sum(1 for s in sigmas if SIGMA_EXPECTED < s <= SIGMA_FAIL)
    # the CLI fails a job on any arm beyond 3 sigma; only those may explain exit 1
    mc_only = all("Monte Carlo off by" in f for f in failure_lines(text))
    if v.excursions:
        v.require(code == 1 and top.get("verdict") == "fail" and mc_only, "excursion reported")
    else:
        v.require(top.get("verdict") == "pass" and not failure_lines(text),
                  "verdict: %s" % "; ".join(failure_lines(text)))
    v.require("npoint_comparison.csv" in files, "comparison table written")


def judge_cdual(job: Job, code: int, files: dict, v: Verdict) -> None:
    text = files["cdual_report.txt"].decode()
    top, _ = parse_kv(text.split("\n"))
    name = job.param("algebra")
    v.require(top.get("format") == "oslab-cdual v1" and top.get("algebra") == name, "header")
    v.require(top.get("verdict") == "pass", "verdict line")
    if name.startswith("abelian-"):
        dims = (0, int(name.split("-")[1]))
    else:
        dims = CDUAL_DIMS[name]
    v.require((int(top["h_dim"]), int(top["q_dim"])) == dims, "split dimensions")
    for key in ("antisymmetry_residual", "jacobi_residual", "bracket_residual",
                "dual_jacobi_residual", "double_dual_residual"):
        v.require(float(top[key]) <= STRUCTURE_TOL, "%s %s" % (key, top[key]))
    v.errors.append(float(top["double_dual_residual"]))
    if name == "sl2R-cartan":
        v.require(float(top["su2_match_residual"]) <= SU2_TOL, "compact-form match")


def judge_cone_check(job: Job, code: int, files: dict, v: Verdict) -> None:
    text = files["cone_check_report.txt"].decode()
    top, _ = parse_kv(text.split("\n"))
    v.require(top.get("format") == "oslab-cone-check v1", "format line")
    if job.param("algebra") == "nilpotent-control":
        v.require(top.get("verdict") == "fail" and top.get("all_hyperbolic") == "false",
                  "nilpotent control rejected")
        v.require("nilpotent part detected" in text, "rejection names the nilpotent part")
        return
    v.require(top.get("verdict") == "pass", "verdict line")
    v.require(top.get("all_hyperbolic") == "true" and top.get("witness_strictly_positive") == "true",
              "hyperbolic points and positive witness")
    v.require(int(top["points_checked"]) == 13, "witness plus twelve sampled points")
    v.require(float(top["invariance_residual"]) <= CONE_RESIDUAL_TOL, "cone invariance")
    v.require(int(top["membership_products"]) == int(job.param("samples")), "product count")
    v.require(float(top["membership_rate"]) == 1.0, "every quadrant product re-factors")
    v.require(float(top["wedge_control_rate"]) < 1.0, "wedge control fails somewhere")
    worst = float(top["membership_worst_residual"])
    v.require(worst <= RESIDUAL_TOL, "membership residual %r" % worst)
    v.errors.append(worst)


JUDGES = {
    "rp-check": judge_rp_check,
    "reconstruct": judge_reconstruct,
    "npoint": judge_npoint,
    "cdual": judge_cdual,
    "cone-check": judge_cone_check,
}


def judge(job: Job, code: int, files: dict) -> Verdict:
    """files maps report file names to their bytes."""
    v = Verdict()
    # npoint exits 1 on a Monte Carlo excursion; judge_npoint decides
    v.require(code == job.expect_exit or (job.command == "npoint" and code == 1),
              "exit code %d, expected %d" % (code, job.expect_exit))
    try:
        JUDGES[job.command](job, code, files, v)
    except (KeyError, ValueError, IndexError) as exc:
        v.problems.append("report unreadable: %s: %s" % (type(exc).__name__, exc))
    return v


def accuracy_digits(errors) -> float:
    """-log10 of the worst relative error, floored at 1e-16."""
    return -math.log10(max(max(errors, default=0.0), 1.0e-16))
