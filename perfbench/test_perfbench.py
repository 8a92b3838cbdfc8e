"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the
repository root."""
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gate
import run
import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _trace(rows):
    """names, spans from (name, parent, start, end) rows in start order."""
    names = []
    for name, *_ in rows:
        if name not in names:
            names.append(name)
    cols = list(zip(*rows))
    return names, {"name_id": np.array([names.index(n) for n in cols[0]]),
                   "parent": np.array(cols[1]), "start": np.array(cols[2], dtype=float),
                   "end": np.array(cols[3], dtype=float)}


# setup span outside the run phase, then a phase root with nested children
TREE = [
    ("toy.generate", -1, 0.0, 1.0),
    ("experiments.run_replicated", -1, 2.0, 12.0),
    ("experiments.replica", 1, 2.5, 11.0),
    ("algorithms.fiem_step", 2, 3.0, 7.0),
    ("toy.stat_rows", 3, 4.0, 5.5),
    ("rng.stream", 2, 8.0, 10.0),
]


def test_self_times_subtract_direct_children_only():
    _, sp = _trace(TREE)
    own = spans.self_times(sp["parent"], sp["start"], sp["end"])
    np.testing.assert_allclose(own, [1.0, 1.5, 2.5, 2.5, 1.5, 2.0])


def test_layer_self_times_add_up_to_the_run_phase():
    names, sp = _trace(TREE)
    m = spans.layer_metrics(names, sp, {})
    assert m["trace.run_s"] == 10.0
    assert m["layer.experiments.self_s"] == 4.0
    assert m["layer.algorithms.self_s"] == 2.5
    assert m["layer.toy.self_s"] == 1.5          # toy.generate is setup, not run
    assert m["layer.rng.self_s"] == 2.0
    assert sum(m[f"layer.{l}.self_s"] for l in spans.RUN_LAYERS) == m["trace.run_s"]
    assert m["toy.generate.us"] == 1e6
    assert m["experiments.replica.us_p50"] == 8.5e6


def _toy_outputs(outdir, replicas=4, value="1.5"):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "aggregates.csv"), "w") as fh:
        fh.write("algorithm,k,metric,mean,std,q25,q75\nfiem,0,h_sq,1.0,0.1,0.5,1.5\n")
    with open(os.path.join(outdir, "constants.json"), "w") as fh:
        json.dump({"n": 10, "gamma_plan": 0.25}, fh)
    with open(os.path.join(outdir, "diagnostics.csv"), "w") as fh:
        fh.write("algorithm,replica,k,metric,value\n")
        for alg in ("online-em", "fiem", "opt-fiem"):
            for r in range(replicas):
                fh.write(f"{alg},{r},0,h_sq,{value}\n")


@pytest.fixture
def toy_run(tmp_path):
    w = WORKLOADS["toy-large-n"]
    outdir = str(tmp_path / "out")
    _toy_outputs(outdir)
    phase = {"aborted": 0, "examples": w.examples, "completed": dict(w.replicas)}
    return w, outdir, phase, gate.output_digests(outdir, b"")


def test_gate_accepts_a_clean_run(toy_run):
    w, outdir, phase, digests = toy_run
    assert gate.check_run(w, 0, b"", outdir, phase, digests) == []


def test_gate_trips_on_a_one_byte_change(toy_run):
    w, outdir, phase, digests = toy_run
    path = os.path.join(outdir, "aggregates.csv")
    data = bytearray(open(path, "rb").read())
    data[-2] ^= 1                                  # "1.5" -> "1.4"
    open(path, "wb").write(bytes(data))
    failures = gate.check_run(w, 0, b"", outdir, phase, digests)
    assert failures == ["digest mismatch: ['aggregates.csv']"]


def test_gate_trips_on_a_missing_replica(toy_run, tmp_path):
    w, outdir, phase, _ = toy_run
    _toy_outputs(outdir, replicas=3)
    failures = gate.check_run(w, 0, b"", outdir, phase)
    assert len(failures) == 3 and all("replicas [0, 1, 2]" in f for f in failures)


def test_gate_trips_on_a_missing_replica_in_the_run_result():
    w = WORKLOADS["mc-certify"]
    verdict = b"[PASS] master inequality within 3 sigma (lhs=1e-01 deltaV=2e-01 margin=7.5 sigma)\n"
    phase = {"aborted": 1, "examples": w.examples - 100, "completed": {"fiem": 1999}}
    failures = gate.check_run(w, 0, verdict, "/nonexistent", phase)
    assert [f.split()[0] for f in failures] == ["1", "examples", "completed"]


def test_gate_trips_on_non_finite_values_failures_and_exit_codes(toy_run):
    w, outdir, phase, _ = toy_run
    _toy_outputs(outdir, value="nan")
    assert "12 non-finite values in diagnostics.csv" in gate.check_run(w, 0, b"", outdir, phase)
    mc = WORKLOADS["mc-certify"]
    verdict = b"[FAIL] master inequality within 3 sigma (lhs=nan deltaV=2e-01 margin=-inf sigma)\n"
    failures = gate.check_run(mc, 1, verdict, "/nonexistent",
                              {"aborted": 0, "examples": mc.examples, "completed": mc.replicas})
    assert failures == ["exit code 1", "[FAIL] line", "no [PASS] verdict"]


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _synthetic_samples():
    names, sp = _trace(TREE)
    layers = spans.layer_metrics(names, sp, {})
    plain = {"mode": "plain1", "wall_s": 3.0, **{k: 1.0 for k in run.END_TO_END}}
    return [plain, {"mode": "traced", "wall_s": 4.0, "layers": layers}]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    declared = _benchmark()[section]
    printed = run.summarize(_synthetic_samples(), trace)
    assert set(printed) == {m["name"] for m in declared}
    for m in declared:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m


def test_declared_workloads_exist():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(WORKLOADS)


def test_traced_process_closes_its_split(tmp_path):
    """A small traced toy run through child.py: the layer split adds up to
    the traced run phase and the counts match the configuration."""
    prefix, record = str(tmp_path / "spans"), str(tmp_path / "record.json")
    spec = {"src": os.path.join(ROOT, "src"), "record": record, "trace": prefix,
            "setup_only": False,
            "argv": ["toy", "--n", "20", "--kmax", "40", "--replicas", "2", "--threads", "1",
                     "--seed", "3", "--out", str(tmp_path / "out")]}
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                   check=True, timeout=120, env={**os.environ, **run.BLAS_ENV})
    m = spans.layer_metrics(*spans.load(prefix))
    split = sum(m[f"layer.{l}.self_s"] for l in spans.RUN_LAYERS)
    assert split == pytest.approx(m["trace.run_s"], rel=1e-9)
    assert m["algorithms.iterations"] == 2 * 3 * 40
    assert m["algorithms.opt_lambda.calls"] == 2 * 40
    assert m["algorithms.opt_lambda.rows"] == 2 * 40 * 20
    assert m["algorithms.draw_batch.calls"] == 2 * (40 + 2 * 40 + 2 * 40)
    assert m["experiments.replicas.completed"] == 6
    assert m["algorithms.memory_table.bytes_computed"] == 20 * 20 * 8
    phase = json.load(open(record))
    assert phase["examples"] == 2 * 40 * (1 + 2 + 2)
    (start, end), = phase["phases"]
    assert end - start >= m["trace.run_s"]
