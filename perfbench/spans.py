"""Traced runs: spans around the calls into each oslab layer.

`install` replaces each function in LAYERS by a wrapper, in its defining
module and in every oslab module that bound it with `from .x import f`,
and returns a callable that puts the originals back.  Spans live in flat
in-memory arrays (name, start, end, parent, job id) and are written out
once, at the end of the run.  Counters and the keys behind the
distinct-work ratios are recorded by the same wrappers, where the work
happens; keys carry the job id, because nothing survives between jobs for
a real user.

Formatting helpers (`fmt`, `fmt6`) are left unwrapped: they run once per
printed number and a wrapper would cost more than the call.  Their time,
like all job time no layer span covers, is the cli layer's self time.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT = "cli.main"

# (module, function, layer group); a group's time is the self time of its spans
LAYERS = (
    ("lattice", "ou_covariance", "lattice.measure"),
    ("lattice", "free_field_covariance", "lattice.measure"),
    ("lattice", "cosine_damped_covariance", "lattice.measure"),
    ("lattice", "generating_functional", "lattice.functional"),
    ("lattice", "sample_path_matrix", "lattice.sample"),
    ("positivity", "pd_gram_certificate", "positivity"),
    ("positivity", "rp_gram_certificate", "positivity"),
    ("positivity", "rp_sampled_certificate", "positivity"),
    ("positivity", "delta_family", "positivity"),
    ("positivity", "certificate_to_text", "positivity"),
    ("moments", "isserlis_moment", "moments"),
    ("moments", "gaussian_monomial_with_source", "moments"),
    ("reconstruction", "build_physical_space", "reconstruction.space"),
    ("reconstruction", "transfer_operator", "reconstruction.transfer"),
    ("reconstruction", "multiplication_operator", "reconstruction.multiplication"),
    ("reconstruction", "extract_hamiltonian", "reconstruction.hamiltonian"),
    ("reconstruction", "verify_npoint_identity", "reconstruction.npoint"),
    ("liealg", "semigroup_membership_sample", "liealg.membership"),
    ("liealg", "hyperbolic_cone_check", "liealg.cone"),
    ("liealg", "builtin_cone", "liealg.cone"),
    ("liealg", "nilpotent_control_cone", "liealg.cone"),
    ("liealg", "builtin_algebra", "liealg.dual"),
    ("liealg", "validate_algebra", "liealg.dual"),
    ("liealg", "split_by_involution", "liealg.dual"),
    ("liealg", "adapted_algebra", "liealg.dual"),
    ("liealg", "c_dual", "liealg.dual"),
    ("liealg", "c_dual_involution", "liealg.dual"),
    ("liealg", "change_basis", "liealg.dual"),
    ("liealg", "su2_structure", "liealg.dual"),
    ("textio", "atomic_write", "textio.write"),
)

# per-layer time metric -> layer groups it sums
TIME_METRICS = {
    "lattice.measure_s": ("lattice.measure",),
    "lattice.functional_s": ("lattice.functional",),
    "lattice.sample_s": ("lattice.sample",),
    "positivity.self_s": ("positivity",),
    "moments.s": ("moments",),
    "reconstruction.space_s": ("reconstruction.space",),
    "reconstruction.transfer_s": ("reconstruction.transfer",),
    "reconstruction.multiplication_s": ("reconstruction.multiplication",),
    "reconstruction.hamiltonian_s": ("reconstruction.hamiltonian",),
    "reconstruction.npoint_s": ("reconstruction.npoint",),
    "liealg.membership_s": ("liealg.membership",),
    "liealg.cone_s": ("liealg.cone",),
    "liealg.dual_s": ("liealg.dual",),
    "textio.write_s": ("textio.write",),
    "cli.self_s": (ROOT,),
}
COUNT_METRICS = (
    "lattice.measures", "lattice.functional_calls", "lattice.paths_drawn",
    "lattice.normals_drawn", "positivity.certificates", "positivity.gram_entries",
    "moments.calls", "liealg.products", "textio.bytes_written",
)
# ratio metric -> (key set, call counter)
DISTINCT_METRICS = {
    "lattice.sample_distinct_ratio": "lattice.sample",
    "moments.distinct_ratio": "moments",
    "reconstruction.transfer_distinct_ratio": "reconstruction.transfer",
    "reconstruction.multiplication_distinct_ratio": "reconstruction.multiplication",
}
# the layers each workload is built to load (the shared textio and cli aside)
ASSIGNED = {
    "certify": ("lattice.measure", "lattice.functional", "positivity"),
    "reconstruct": ("moments", "reconstruction.space", "reconstruction.transfer",
                    "reconstruction.multiplication", "reconstruction.hamiltonian",
                    "reconstruction.npoint"),
    "sample": ("lattice.measure", "lattice.sample"),
    "algebra": ("liealg.membership", "liealg.cone", "liealg.dual"),
}


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.job = array("q")
        self.stack: list = []
        self.job_id = -1
        self.counts: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.keys: dict = defaultdict(set)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def caller_is(self, nids) -> bool:
        return bool(self.stack) and self.name[self.stack[-1]] in nids

    def distinct(self, group: str, key) -> None:
        self.calls[group] += 1
        self.keys[group].add((self.job_id, key))

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the harness uses it for the per-job root."""
        i = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    # -- aggregation ----------------------------------------------------------

    def self_times(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        return dur, dur - covered

    def group_times(self, groups: dict) -> dict:
        """Total self time per layer group; groups maps span name -> group."""
        _, self_t = self.self_times()
        names = np.frombuffer(self.name, dtype=np.uint16)
        totals = defaultdict(float)
        for nid, name in enumerate(self.names):
            totals[groups.get(name, name)] += float(self_t[names == nid].sum())
        return totals

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int64),
        )


# -- counting hooks, called with the wrapped function's arguments -------------

def _measure_key(m) -> tuple:
    lat = m.lattice
    return (m.kernel, lat.n_points, lat.spacing, m.mass, tuple(sorted(m.params.items())))


def _space_key(space) -> tuple:
    basis = tuple((f.kind, f.times, f.degrees, id(f.test_function)) for f in space.basis)
    return (id(space.measure), basis, space.null_tolerance)


def _hooks(tracer: Tracer, module: dict) -> dict:
    """{function name: hook(args, kwargs)}; a hook runs before its span
    opens and keeps the counters."""
    counts = tracer.counts
    moment_ids = {tracer.name_id("moments." + f) for m, f, _ in LAYERS if m == "moments"}

    def bound(fn, args, kwargs):
        b = inspect.signature(fn).bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    def measure(args, kwargs):
        counts["lattice.measures"] += 1

    def functional(args, kwargs):
        counts["lattice.functional_calls"] += 1

    def sample(args, kwargs):
        a = bound(module["lattice"].sample_path_matrix, args, kwargs)
        m, count = a["measure"], int(a["count"])
        counts["lattice.paths_drawn"] += count
        counts["lattice.normals_drawn"] += count * m.lattice.n_points
        tracer.distinct("lattice.sample", (_measure_key(m), count, int(a["seed"])))

    def certificate(args, kwargs):
        family = args[1] if len(args) > 1 else kwargs.get("functions", kwargs.get("observables"))
        counts["positivity.certificates"] += 1
        counts["positivity.gram_entries"] += len(family) ** 2

    def moment(args, kwargs):
        if tracer.caller_is(moment_ids):
            return  # the plain moment a source-free call delegates to
        cov, indices = args[0], args[1]
        source = args[2] if len(args) > 2 else kwargs.get("source")
        counts["moments.calls"] += 1
        key = (id(cov), tuple(sorted(int(i) for i in indices)),
               None if source is None else np.asarray(source).tobytes())
        tracer.distinct("moments", key)

    def transfer(args, kwargs):
        a = bound(module["reconstruction"].transfer_operator, args, kwargs)
        tracer.distinct("reconstruction.transfer",
                        (_space_key(a["space"]), float(a["step"]), a["exact"], a["contraction_tol"]))

    def multiplication(args, kwargs):
        a = bound(module["reconstruction"].multiplication_operator, args, kwargs)
        tracer.distinct("reconstruction.multiplication",
                        (_space_key(a["space"]), tuple(a["coefficients"]), a["at_time"]))

    def membership(args, kwargs):
        n = args[0] if args else kwargs["n_products"]
        counts["liealg.products"] += int(n)

    def write(args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        counts["textio.bytes_written"] += len(text.encode())

    hooks = {
        "ou_covariance": measure, "free_field_covariance": measure,
        "cosine_damped_covariance": measure, "generating_functional": functional,
        "sample_path_matrix": sample, "pd_gram_certificate": certificate,
        "rp_gram_certificate": certificate, "rp_sampled_certificate": certificate,
        "isserlis_moment": moment,
        "gaussian_monomial_with_source": moment, "transfer_operator": transfer,
        "multiplication_operator": multiplication,
        "semigroup_membership_sample": membership, "atomic_write": write,
    }
    return hooks


def _wrap(tracer: Tracer, nid: int, fn, hook):
    if hook is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook(args, kwargs)
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
    return traced


def install(tracer: Tracer):
    """Wrap every LAYERS function at every oslab import site.

    Returns restore(), which puts the original functions back.
    """
    modules = {name.split(".")[1]: mod for name, mod in sys.modules.items()
               if name.startswith("oslab.") and mod is not None}
    hooks = _hooks(tracer, modules)
    patched = []
    for mod_name, fn_name, _ in LAYERS:
        original = getattr(modules[mod_name], fn_name)
        nid = tracer.name_id("%s.%s" % (mod_name, fn_name))
        wrapper = _wrap(tracer, nid, original, hooks.get(fn_name))
        for mod in list(modules.values()) + [sys.modules["oslab"]]:
            for attr, value in vars(mod).items():
                if value is original:
                    patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore():
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)

    return restore


def span_groups() -> dict:
    groups = {"%s.%s" % (m, f): g for m, f, g in LAYERS}
    groups[ROOT] = ROOT
    return groups


def layer_metrics(tracer: Tracer, n_jobs: int, workload: str) -> dict:
    """Per-layer metrics of a traced phase of n_jobs jobs."""
    totals = tracer.group_times(span_groups())
    out = {}
    for metric, groups in TIME_METRICS.items():
        out[metric] = (sum(totals.get(g, 0.0) for g in groups) / n_jobs, "s/job")
    for metric in COUNT_METRICS:
        out[metric] = (tracer.counts.get(metric, 0) / n_jobs, "count/job")
    for metric, group in DISTINCT_METRICS.items():
        calls = tracer.calls.get(group, 0)
        out[metric] = (len(tracer.keys[group]) / calls if calls else 1.0, "ratio")
    job_time = totals.get(ROOT, 0.0) + sum(v for k, v in totals.items() if k != ROOT)
    assigned = sum(totals.get(g, 0.0) for g in ASSIGNED[workload])
    out["trace.assigned_share"] = (assigned / job_time if job_time else 0.0, "ratio")
    return out
