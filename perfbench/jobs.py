"""Seeded job streams for the four benchmark workloads.

A workload is a cycle of slots.  A slot names a job class and a size
quantile; each cycle shuffles its slots and draws every job's parameters
from the workload seed.  Every run therefore sees the same mix of classes
and sizes, while no two jobs in a run share a configuration (a real user
runs each job in a fresh process, so a cache surviving between jobs could
never help them).

Jobs are plain data: the harness writes `config` as a `key: value` file
and calls `oslab <command> --config FILE`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("certify", "reconstruct", "sample", "algebra")


@dataclass(frozen=True)
class Job:
    kind: str  # job class, e.g. "rp-ou" or "reconstruct-ff"
    command: str  # oslab subcommand
    config: tuple  # ((key, value text), ...), the --config file in order
    expect_exit: int  # 0 pass, 1 a negative control that must fail

    def config_text(self) -> str:
        return "".join("%s: %s\n" % kv for kv in self.config)

    def param(self, key: str, default=None):
        for k, v in self.config:
            if k == key:
                return v
        return default

    def key(self) -> tuple:
        """Identity of the job within a run.  reconstruct and exact npoint
        ignore the seed, so it is left out and their drawn spacing and mass
        must differ.  cdual also ignores it, but there are only a few
        built-ins: those jobs differ in seed alone and repeat their work."""
        seedless = self.command == "reconstruct" or (
            self.command == "npoint" and self.param("samples", "0") == "0"
        )
        if seedless:
            return (self.command,) + tuple(kv for kv in self.config if kv[0] != "seed")
        return (self.command,) + self.config


# -- shared helpers -----------------------------------------------------------

def _even(x: float) -> int:
    return 2 * int(round(x / 2.0))


def _num(x: float) -> str:
    return repr(float(x))


def _size(rng, slot: int, n_slots: int, lo: float, hi: float, power: float = 1.0) -> float:
    """Stratified size: slot k of n covers quantiles [k/n, (k+1)/n); power > 1
    leans the range toward `lo`."""
    q = (slot + rng.random()) / n_slots
    return lo + (hi - lo) * q**power


# -- certify: rp-check --------------------------------------------------------

CERTIFY_SLOTS = (
    ("rp-ou", 0), ("rp-ff", 1), ("rp-ou", 2), ("rp-ff", 3),
    ("rp-ou", 4), ("rp-ff", 5), ("rp-ou", 6),
    ("non-rp", 0), ("non-rp", 1), ("corrupted", 0),
)


def _certify_job(rng, kind: str, slot: int) -> Job:
    seed = int(rng.integers(1, 2**31))
    if kind in ("rp-ou", "rp-ff"):
        n = 32 * int(round(_size(rng, slot, 7, 512, 1024, power=2.0) / 32))
        instance = "ou" if kind == "rp-ou" else "free-field"
        mass = round(float(rng.uniform(0.5, 2.0)), 6)
        expect = 0
    elif kind == "non-rp":
        n = _even(_size(rng, slot, 2, 64, 160))
        instance, mass, expect = "non-rp", round(float(rng.uniform(0.5, 1.5)), 6), 1
    else:
        n = _even(_size(rng, slot, 1, 64, 256))
        instance, mass, expect = "corrupted", round(float(rng.uniform(0.5, 2.0)), 6), 1
    config = (
        ("instance", instance), ("n_points", "%d" % n), ("mass", _num(mass)),
        ("families", "1"), ("family_size", "16"), ("seed", "%d" % seed),
    )
    return Job(kind, "rp-check", config, expect)


# -- reconstruct: reconstruct and exact npoint --------------------------------

# reconstruct slots carry max_degree; npoint-exact slots carry a point-count step
RECONSTRUCT_SLOTS = (
    ("npoint-exact", 0), ("npoint-exact", 1), ("npoint-exact", 2), ("npoint-exact", 3),
    ("npoint-exact", 4), ("npoint-exact", 5), ("npoint-exact", 6),
    ("reconstruct-ou", 4), ("reconstruct-ou", 4), ("reconstruct-ou", 4),
    ("reconstruct-ou", 4), ("reconstruct-ou", 4), ("reconstruct-ff", 4),
    ("reconstruct-ou", 5), ("reconstruct-ou", 5), ("reconstruct-ff", 5),
    ("reconstruct-ou", 6),
)
# one reconstruct slot per cycle sits exactly at the lower end of the mass grid
MASS_FLOOR_SLOT = RECONSTRUCT_SLOTS.index(("reconstruct-ou", 5))


def _npoint_times(rng, slot: int, spacing: float):
    """4 to 6 strictly increasing positive sites, total degree even and <= 6.

    Total degree 8 is left out: at mass near 0.5 it exits 2 (see the README)."""
    points = 4 + (slot * 3) // 7  # slots 0..6 cover 4..6 points
    degrees = [1] * points
    if points % 2 == 1:
        degrees[int(rng.integers(points))] = 2
    sites = np.cumsum(rng.integers(1, 3, size=points)) - 1
    times = [(int(k) + 0.5) * spacing for k in sites]
    return times, degrees, int(sites[-1])


def _reconstruct_job(rng, kind: str, slot: int, mass_floor: bool) -> Job:
    spacing = round(float(rng.uniform(0.2, 0.3)), 6)
    mass = 0.5 if mass_floor else round(float(rng.uniform(0.5, 1.5)), 6)
    seed = int(rng.integers(1, 2**31))
    if kind == "npoint-exact":
        times, degrees, last_site = _npoint_times(rng, slot, spacing)
        n = max(_even(rng.integers(32, 65)), 2 * (last_site + 2))
        config = (
            ("instance", "ou"), ("n_points", "%d" % n), ("spacing", _num(spacing)),
            ("mass", _num(mass)), ("times", " ".join(_num(t) for t in times)),
            ("degrees", " ".join("%d" % d for d in degrees)), ("seed", "%d" % seed),
        )
        return Job(kind, "npoint", config, 0)
    n = _even(rng.integers(32, 65))
    instance = "ou" if kind == "reconstruct-ou" else "free-field"
    # default basis times with max_degree: see the README on times/degrees
    config = (
        ("instance", instance), ("n_points", "%d" % n), ("spacing", _num(spacing)),
        ("mass", _num(mass)), ("max_degree", "%d" % slot), ("seed", "%d" % seed),
    )
    return Job(kind, "reconstruct", config, 0)


# -- sample: npoint with a Monte Carlo arm ------------------------------------

SAMPLE_SLOTS = tuple(("npoint-mc", k) for k in range(10))


def _sample_job(rng, slot: int) -> Job:
    n = 32 * int(round(_size(rng, slot, 10, 512, 1024, power=4.0) / 32))
    samples = int(round(_size(rng, 9 - slot, 10, 1000, 1500), -1))
    config = (
        ("instance", "ou"), ("n_points", "%d" % n),
        ("mass", _num(round(float(rng.uniform(0.5, 1.5)), 6))),
        ("samples", "%d" % samples), ("seed", "%d" % int(rng.integers(1, 2**31))),
    )
    return Job("npoint-mc", "npoint", config, 0)


# -- algebra: cone-check and cdual --------------------------------------------

ALGEBRA_SLOTS = (
    ("cone", 0), ("cone", 1), ("cone", 2), ("cone", 3), ("cone", 4), ("cone", 5),
    ("cone-nilpotent", 0), ("cdual", 0), ("cdual", 1), ("cdual", 2),
)
# (h_dim, q_dim) of each built-in split; abelian-N splits as (0, N)
CDUAL_DIMS = {"sl2R-cartan": (1, 2), "sl2R-adH": (1, 2), "heisenberg": (1, 2)}


def _algebra_job(rng, kind: str, slot: int) -> Job:
    seed = "%d" % int(rng.integers(1, 2**31))
    if kind == "cone":
        samples = int(round(_size(rng, slot, 6, 1000, 2000), -1))
        config = (("algebra", "sl2R-adH"), ("samples", "%d" % samples), ("seed", seed))
        return Job(kind, "cone-check", config, 0)
    if kind == "cone-nilpotent":
        return Job(kind, "cone-check", (("algebra", "nilpotent-control"), ("seed", seed)), 1)
    if slot == 0:
        name = "sl2R-cartan"
    elif slot == 1:
        name = ("sl2R-adH", "heisenberg")[int(rng.integers(2))]
    else:
        name = "abelian-%d" % int(rng.integers(4, 11))
    return Job("cdual", "cdual", (("algebra", name), ("seed", seed)), 0)


# -- streams ------------------------------------------------------------------

_SLOTS = {
    "certify": CERTIFY_SLOTS,
    "reconstruct": RECONSTRUCT_SLOTS,
    "sample": SAMPLE_SLOTS,
    "algebra": ALGEBRA_SLOTS,
}


def _draw(workload: str, rng, index: int, kind: str, slot: int) -> Job:
    if workload == "certify":
        return _certify_job(rng, kind, slot)
    if workload == "reconstruct":
        return _reconstruct_job(rng, kind, slot, index == MASS_FLOOR_SLOT)
    if workload == "sample":
        return _sample_job(rng, slot)
    return _algebra_job(rng, kind, slot)


def cycle_length(workload: str) -> int:
    return len(_SLOTS[workload])


def stream(workload: str, seed: int):
    """Endless job stream, one shuffled cycle of slots at a time."""
    if workload not in _SLOTS:
        raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    slots = _SLOTS[workload]
    seen = set()
    while True:
        for index in rng.permutation(len(slots)):
            kind, slot = slots[index]
            for _ in range(1000):
                job = _draw(workload, rng, int(index), kind, slot)
                if job.key() not in seen:
                    break
            else:
                raise RuntimeError("%s slot %s ran out of distinct configurations" % (workload, kind))
            seen.add(job.key())
            yield job


def cycles(workload: str, seed: int, count: int) -> list:
    """The first `count` whole cycles of a stream, as a list."""
    gen = stream(workload, seed)
    return [next(gen) for _ in range(count * cycle_length(workload))]
