"""Span tracing of fiem's public functions, installed from outside the package.

:func:`install` wraps the functions listed in :data:`TARGETS` in every fiem
module that holds a reference to them, so calls through ``from .x import f``
bindings are traced too.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; counts (rows, bytes, violations) are
recorded at the same boundaries.  Nothing is written until :meth:`dump`.

:func:`layer_metrics` turns a dumped trace into the per-layer metrics.  A
layer is a package module, named by the first component of a span name.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

clock = time.perf_counter

# layers that run inside the replicated-run phase; stepsize and cli run only
# before and after it
RUN_LAYERS = ("rng", "algorithms", "toy", "gmm", "experiments")
RUN_ALGORITHMS = ("online-em", "fiem", "opt-fiem")
# spans that delimit the replicated-run phase
PHASE_SPANS = ("experiments.run_replicated", "experiments.table_report")


class Recorder:
    """Spans in flat arrays plus named counters; one per traced process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = defaultdict(float)
        self.first_job = None

    def name_id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, label=None, after=None):
        """Traced version of ``fn``.  ``label(args)`` names the span per call;
        ``after(recorder, args, result)`` records counts once the span has closed."""
        fixed = self.name_id_of(name) if label is None else None
        stack, ids, parents, starts, ends = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1])
            ids.append(fixed if label is None else self.name_id_of(label(args)))
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write spans (``.npz``) and counters (``.json``) next to each other."""
        counters = dict(self.counters)
        if self.first_job is not None:
            counters["experiments.job.pickle_bytes"] = float(len(pickle.dumps(self.first_job)))
        np.savez(path + ".npz", name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "counters": counters}, fh)


def load(path: str):
    """(names, spans dict, counters) of a dumped trace."""
    with np.load(path + ".npz") as z:
        spans = {k: z[k] for k in z.files}
    with open(path + ".json") as fh:
        doc = json.load(fh)
    return doc["names"], spans, doc["counters"]


# -- counts recorded at the span boundaries ----------------------------------
# Flops and bytes are computed from array sizes (8-byte floats, each operand
# counted once per pass), not measured.


def _count(key, amount_fn):
    def after(rec, args, result):
        rec.counters[key] += amount_fn(args, result)
    return after


def _memory_write(rec, args, result):
    batch = args[3]
    rec.counters["algorithms.memory_write.drawn"] += len(batch)
    rec.counters["algorithms.memory_write.rows"] += 1 if len(batch) == 1 else np.unique(batch).size


def _memory_init(rec, args, result):
    key = "algorithms.memory_table.bytes_computed"
    rec.counters[key] = max(rec.counters[key], float(result.rows.nbytes))


def _opt_lambda(rec, args, result):
    n, q = args[0].n, args[0].q
    rec.counters["algorithms.opt_lambda.rows"] += n
    # stat_rows (n q adds), diff (n q), two contractions (2 n q each)
    rec.counters["algorithms.opt_lambda.flops_computed"] += 6 * n * q
    # rows written and read twice, memory rows read, diff written and read 3x
    rec.counters["algorithms.opt_lambda.bytes_computed"] += 8 * 8 * n * q


def _posterior_rows(rec, args, result):
    g = args[0].g
    b, p = args[1].shape
    rec.counters["gmm.posterior_rows.rows"] += b
    # per component: diff (b p), quadratic form (2 b p^2 + 2 b p), 3 b for the
    # affine shift; softmax 5 b g
    rec.counters["gmm.posterior_rows.flops_computed"] += b * g * (2 * p * p + 3 * p + 8)
    # per component: rows read, diff written and read twice, precision read,
    # column written; softmax passes over the (b, g) block
    rec.counters["gmm.posterior_rows.bytes_computed"] += 8 * (g * (4 * b * p + p * p + 3 * b) + 7 * b * g)


def _run(rec, args, result):
    rec.counters["algorithms.iterations"] += len(args[2])
    rec.counters[f"algorithms.run.iterations.{args[0]}"] += len(args[2])


def _replicated(rec, args, result):
    rec.counters["experiments.replicas.completed"] += sum(result.completed.values())
    rec.counters["experiments.replicas.aborted"] += sum(len(v) for v in result.aborted.values())


def _table_report(rec, args, result):
    rec.counters["experiments.replicas.completed"] += sum(len(v) for v in result[1].values())


def _replica_job(rec, args, result):
    if rec.first_job is None:
        rec.first_job = args[0]


def _file_bytes(key, path_arg):
    def after(rec, args, result):
        path = args[path_arg] if len(args) > path_arg else None
        if path:
            rec.counters[key] += os.path.getsize(path)
    return after


# (module, attribute, span name, label, after); attributes may name methods
TARGETS = (
    ("fiem.rng", "SeedTree.stream", "rng.stream", None, None),
    ("fiem.rng", "SeedTree.child", "rng.child", None, None),
    ("fiem.algorithms", "draw_batch", "algorithms.draw_batch", None, None),
    ("fiem.algorithms", "TerminationRule.sample", "algorithms.termination", None, None),
    ("fiem.algorithms", "MemoryTable.init", "algorithms.memory_init", None, _memory_init),
    ("fiem.algorithms", "MemoryTable.write", "algorithms.memory_write", None, _memory_write),
    ("fiem.algorithms", "MemoryTable.refresh", "algorithms.memory_refresh", None, None),
    ("fiem.algorithms", "opt_fiem_lambda", "algorithms.opt_lambda", None, _opt_lambda),
    ("fiem.algorithms", "online_em_step", "algorithms.online_em_step", None, None),
    ("fiem.algorithms", "iem_step", "algorithms.iem_step", None, None),
    ("fiem.algorithms", "fiem_step", "algorithms.fiem_step", None, None),
    ("fiem.algorithms", "opt_fiem_step", "algorithms.opt_fiem_step", None, None),
    ("fiem.algorithms", "run", "algorithms.run", lambda a: f"algorithms.run.{a[0]}", _run),
    ("fiem.toy", "generate_toy", "toy.generate", None, None),
    ("fiem.toy", "ToyModel.stat_rows", "toy.stat_rows", None,
     _count("toy.stat_rows.rows", lambda a, r: len(a[2]))),
    ("fiem.toy", "ToyModel.stat_mean", "toy.stat_mean", None, None),
    ("fiem.toy", "ToyModel.tmap", "toy.tmap", None, None),
    ("fiem.toy", "ToyModel.objective", "toy.objective", None, None),
    ("fiem.toy", "ToyModel.bmat", "toy.bmat", None, None),
    ("fiem.toy", "ToyModel.admissible", "toy.admissible", None, None),
    ("fiem.toy", "ToyModel.constants", "toy.constants", None, None),
    ("fiem.gmm", "generate_gmm_synthetic", "gmm.generate", None, None),
    ("fiem.gmm", "init_params", "gmm.init_params", None, None),
    ("fiem.gmm", "posterior_rows", "gmm.posterior_rows", None, _posterior_rows),
    ("fiem.gmm", "gmm_loglik", "gmm.loglik", None, None),
    ("fiem.gmm", "gmm_tmap", "gmm.tmap_eval", None, None),
    ("fiem.gmm", "GmmModel.tmap", "gmm.tmap", None, None),
    ("fiem.gmm", "GmmModel.sbar", "gmm.sbar", None, None),
    ("fiem.gmm", "GmmModel.sbar_rows", "gmm.sbar_rows", None, None),
    ("fiem.gmm", "GmmModel.stat_rows", "gmm.stat_rows", None, None),
    ("fiem.gmm", "GmmModel.stat_mean", "gmm.stat_mean", None, None),
    ("fiem.gmm", "GmmModel.admissible", "gmm.admissible", None, None),
    ("fiem.gmm", "gmm_iem_step", "gmm.iem_step", None, None),
    ("fiem.gmm", "gmm_onlineem_step", "gmm.onlineem_step", None,
     _count("gmm.proxy_violations", lambda a, r: r[-1])),
    ("fiem.gmm", "gmm_fiem_step", "gmm.fiem_step", None,
     _count("gmm.proxy_violations", lambda a, r: r[-1])),
    ("fiem.stepsize", "PlannerInputs.from_constants", "stepsize.inputs", None, None),
    ("fiem.stepsize", "plan_case1", "stepsize.plan_case1", None, None),
    ("fiem.stepsize", "karimi_plan", "stepsize.karimi_plan", None, None),
    ("fiem.stepsize", "theorem1_coeffs", "stepsize.theorem1_coeffs", None, None),
    ("fiem.experiments", "run_replicated", "experiments.run_replicated", None, _replicated),
    ("fiem.experiments", "_replica_job", "experiments.replica", None, _replica_job),
    ("fiem.experiments", "verify_theorem1", "experiments.verify_theorem1", None, None),
    ("fiem.experiments", "table_report", "experiments.table_report", None, _table_report),
    ("fiem.experiments", "_gmm_replica_job", "experiments.replica", None, _replica_job),
    ("fiem.experiments", "gmm_epoch_path", "experiments.gmm_epoch_path", None,
     _count("algorithms.iterations", lambda a, r: r.iterations)),
    ("fiem.experiments", "write_aggregates_csv", "experiments.csv", None,
     _file_bytes("experiments.csv.bytes", 0)),
    ("fiem.experiments", "write_diagnostics_csv", "experiments.csv", None,
     _file_bytes("experiments.csv.bytes", 0)),
    ("fiem.cli", "main", "cli.main", None, None),
    ("fiem.cli", "_write_rows_csv", "cli.write", None, _file_bytes("cli.write.bytes", 0)),
    ("fiem.cli", "_json_dump", "cli.write", None, _file_bytes("cli.write.bytes", 1)),
)


def replace_everywhere(module_name: str, attr: str, make):
    """Replace ``module.attr`` (``Class.method`` allowed) by ``make(original)``
    and rebind every fiem module global that referred to the original."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = next(vars(k)[meth] for k in cls.__mro__ if meth in vars(k))
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "fiem" or name.startswith("fiem."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install(rec: Recorder) -> None:
    for module_name, attr, name, label, after in TARGETS:
        replace_everywhere(module_name, attr,
                           lambda fn, n=name, l=label, a=after: rec.wrap(fn, n, l, a))


# -- analysis -----------------------------------------------------------------


def self_times(parent, start, end):
    """Span duration minus the durations of its direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


def phase_roots(names, spans):
    """Indices of the outermost run-phase spans."""
    ids = [names.index(n) for n in PHASE_SPANS if n in names]
    roots = np.flatnonzero(np.isin(spans["name_id"], ids))
    # a phase span nested in another phase span belongs to the outer one
    return [r for r in roots if not np.any((spans["start"][roots] < spans["start"][r])
                                           & (spans["end"][roots] > spans["end"][r]))]


def layer_metrics(names, spans, counters) -> dict:
    """Per-layer metrics (name -> value) of one traced process."""
    start, end, nid = spans["start"], spans["end"], spans["name_id"]
    dur = end - start
    own = self_times(spans["parent"], start, end)
    size = len(names)
    n_calls = np.bincount(nid, minlength=size)
    dur_sum = np.bincount(nid, weights=dur, minlength=size)
    own_sum = np.bincount(nid, weights=own, minlength=size)

    def total(per_name, name):
        return float(per_name[names.index(name)]) if name in names else 0.0

    def calls(name):
        return total(n_calls, name)

    def us(name):
        return total(dur_sum, name) * 1e6

    def self_us(name):
        return total(own_sum, name) * 1e6

    # the run phase: self times inside it add up to its duration
    in_phase = np.zeros(nid.size, dtype=bool)
    run_s = 0.0
    for r in phase_roots(names, spans):
        in_phase[r:np.searchsorted(start, end[r], side="left")] = True
        run_s += float(dur[r])
    phase_own = np.bincount(nid[in_phase], weights=own[in_phase], minlength=size)

    c = defaultdict(float, counters)
    m = {}
    for fn in ("rng.stream", "algorithms.memory_init", "toy.stat_rows", "toy.stat_mean",
               "gmm.posterior_rows", "gmm.tmap", "gmm.loglik", "gmm.sbar", "gmm.admissible"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.us"] = us(fn)
    for fn in ("algorithms.draw_batch", "algorithms.memory_write", "algorithms.opt_lambda"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.self_us"] = self_us(fn)
    m["algorithms.opt_lambda.us"] = us("algorithms.opt_lambda")
    for step in ("online_em_step", "iem_step", "fiem_step", "opt_fiem_step"):
        m[f"algorithms.{step}.self_us"] = self_us(f"algorithms.{step}")
    for fn in ("algorithms.memory_refresh", "toy.tmap", "toy.objective"):
        m[f"{fn}.calls"] = calls(fn)
    for fn in ("toy.generate", "gmm.generate", "stepsize.plan_case1", "stepsize.karimi_plan",
               "stepsize.theorem1_coeffs", "experiments.csv", "cli.write"):
        m[f"{fn}.us"] = us(fn)
    for key in ("algorithms.memory_write.rows", "algorithms.memory_table.bytes_computed",
                "algorithms.opt_lambda.rows", "algorithms.opt_lambda.flops_computed",
                "algorithms.opt_lambda.bytes_computed", "algorithms.iterations",
                "toy.stat_rows.rows", "gmm.posterior_rows.rows",
                "gmm.posterior_rows.flops_computed", "gmm.posterior_rows.bytes_computed",
                "gmm.proxy_violations", "experiments.job.pickle_bytes",
                "experiments.csv.bytes", "cli.write.bytes",
                "experiments.replicas.completed", "experiments.replicas.aborted"):
        m[key] = float(c[key])
    drawn = c["algorithms.memory_write.drawn"]
    m["algorithms.memory_write.unique_ratio"] = c["algorithms.memory_write.rows"] / drawn if drawn else 0.0
    tmap_calls = m["gmm.tmap.calls"]
    m["gmm.tmap.compute_ratio"] = calls("gmm.tmap_eval") / tmap_calls if tmap_calls else 0.0
    for alg in RUN_ALGORITHMS:
        iters = c[f"algorithms.run.iterations.{alg}"]
        m[f"algorithms.run.self_us_per_iter.{alg}"] = \
            self_us(f"algorithms.run.{alg}") / iters if iters else 0.0
    replica_id = names.index("experiments.replica") if "experiments.replica" in names else -1
    replica = dur[nid == replica_id] * 1e6
    m["experiments.replica.us_p50"] = float(np.percentile(replica, 50)) if replica.size else 0.0
    m["experiments.replica.us_p90"] = float(np.percentile(replica, 90)) if replica.size else 0.0
    m["experiments.aggregate.self_us"] = self_us("experiments.run_replicated") + \
        self_us("experiments.table_report")
    m["cli.main.self_us"] = self_us("cli.main")
    for layer in RUN_LAYERS:
        m[f"layer.{layer}.self_s"] = float(sum(
            phase_own[i] for i, n in enumerate(names) if n.split(".")[0] == layer))
    m["trace.run_s"] = run_s
    m["trace.spans"] = float(nid.size)
    return m
