"""fiem benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout (the directory holding ``src/fiem``).
Each workload run is ``fiem.cli.main`` in a fresh process with BLAS pinned
to one thread; runs repeat, one at a time, until T seconds have passed (at
least three untraced runs).  Every run goes through the correctness gate in
``gate.py``.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(medians over the runs); with ``--trace 1`` untraced and traced runs
alternate and the metrics are the per-layer ones, taken from the traced run
whose run phase is the median one, plus the tracing overhead.  toy-large-n runs its pool with one
worker when traced, because spans are not collected from pool workers, and
its overhead is taken against untraced one-worker runs.

Quartiles, every sample, the failures and the environment record go to
standard error and to ``.perfbench_out/`` in the checkout.

``--record-digests`` runs the workload once at the default seed and stores
the sha256 of its outputs in ``perfbench/digests.json``; do this only when a
change to the outputs is intended.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy

import gate
import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = {0: 3, 1: 1}
# extra set-up-only processes per untraced round, so setup_s is a median of many
SETUP_PROBES = 5
PROCESS_TIMEOUT_S = 120.0
# no new round starts once another one could end past this
RUN_LIMIT_S = 150.0
END_TO_END = ("wall_s", "setup_s", "run_s", "examples_per_s", "peak_rss_mb", "output_bytes")


def benchmark_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _commit():
    head_file = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_file):
        return None
    with open(head_file) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = os.path.join(ROOT, ".git", head[5:])
    if os.path.exists(ref):
        with open(ref) as fh:
            return fh.read().strip()
    return head[5:]


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fiem")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": 1,
        "commit": _commit(), "src_sha256": _source_digest(),
    }


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_once(workload, seed: int, mode: str, expected_digests) -> dict:
    """One workload process; ``mode`` is plain, plain1 (one worker), traced,
    or setup (stopped where the run phase would start)."""
    traced = mode == "traced"
    workers = min(workload.workers, os.cpu_count() or 1) if mode == "plain" else 1
    rundir = os.path.join(WORK, mode)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    outdir = os.path.join(rundir, "out")
    spec = {"src": SRC, "argv": workload.argv(seed, outdir, workers),
            "record": os.path.join(rundir, "record.json"),
            "trace": os.path.join(rundir, "spans") if traced else None,
            "setup_only": mode == "setup"}
    launch = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
                            env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        out, err = proc.communicate()
    wall = time.monotonic() - launch
    _kill_group(proc.pid)  # pool workers left behind by a crash

    phase = None
    if os.path.exists(spec["record"]):
        with open(spec["record"]) as fh:
            phase = json.load(fh)
    if mode == "setup":
        if proc.returncode == 0 and phase is not None and phase["phases"]:
            return {"mode": mode, "failures": [], "setup_s": phase["phases"][0][0] - launch}
        return {"mode": mode, "failures": [f"set-up probe: exit code {proc.returncode}"]}
    sample = {"mode": mode, "workers": workers, "rc": proc.returncode, "wall_s": wall,
              "failures": gate.check_run(workload, proc.returncode, out, outdir, phase,
                                         expected_digests),
              "digests": gate.output_digests(outdir, out)}
    if proc.returncode != 0:
        sample["stderr"] = err.decode("utf-8", "replace")[-2000:]
    if phase is not None and phase["phases"]:
        run_s = sum(end - start for start, end in phase["phases"])
        sample.update(setup_s=phase["phases"][0][0] - launch, run_s=run_s,
                      examples_per_s=phase["examples"] / run_s,
                      peak_rss_mb=phase["maxrss_kb"] / 1024.0,
                      output_bytes=gate.output_bytes(outdir, out))
    if traced and not sample["failures"]:
        layers = spans.layer_metrics(*spans.load(spec["trace"]))
        split = sum(layers[f"layer.{l}.self_s"] for l in spans.RUN_LAYERS)
        if abs(split - layers["trace.run_s"]) > 1e-6 * layers["trace.run_s"] + 1e-6:
            sample["failures"].append(f"layer self times {split} != traced run_s "
                                      f"{layers['trace.run_s']}")
        sample["layers"] = layers
    return sample


def summarize(samples, trace: int) -> dict:
    """Metric name -> the values whose median is reported."""
    if trace == 0:
        return {key: [s[key] for s in samples if key in s] for key in END_TO_END}
    # every layer metric from the traced run with the median run phase, so
    # the printed split adds up to the printed trace.run_s
    traced = sorted((s for s in samples if "layers" in s), key=lambda s: s["layers"]["trace.run_s"])
    series = {key: [value] for key, value in traced[(len(traced) - 1) // 2]["layers"].items()} \
        if traced else {}
    plain_wall = statistics.median(s["wall_s"] for s in samples if s["mode"] == "plain1")
    series["trace.untraced_wall_s"] = [plain_wall]
    if traced:
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        series["trace.wall_s"] = [traced_wall]
        series["trace.overhead_s"] = [traced_wall - plain_wall]
    return series


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.exists(os.path.join(SRC, "fiem", "__init__.py")):
        print(f"no fiem package under {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)

    if args.record_digests:
        sample = run_once(workload, gate.DEFAULT_SEED, "plain", None)
        if sample["failures"]:
            print(f"not recorded, the run failed: {sample['failures']}", file=sys.stderr)
            return 1
        doc = {}
        if os.path.exists(gate.DIGEST_FILE):
            with open(gate.DIGEST_FILE) as fh:
                doc = json.load(fh)
        doc[workload.name] = sample["digests"]
        with open(gate.DIGEST_FILE, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0

    env = environment(args)
    print("# environment " + json.dumps(env, sort_keys=True), file=sys.stderr)
    expected = gate.load_digests(workload.name) if args.seed == gate.DEFAULT_SEED else None
    if args.seed == gate.DEFAULT_SEED and expected is None:
        print(f"no recorded digests for {workload.name}", file=sys.stderr)
        return 1
    # compile the package once, as an installed package would be
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); "
                    "import fiem.cli"], env={**os.environ, **BLAS_ENV}, check=True,
                   timeout=PROCESS_TIMEOUT_S)

    modes = ("plain",) + ("setup",) * SETUP_PROBES if args.trace == 0 else ("plain1", "traced")
    samples = []
    start = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for mode in modes:
            samples.append(run_once(workload, args.seed, mode, expected))
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= MIN_ROUNDS[args.trace] and elapsed >= args.seconds:
            break
        if elapsed + 1.5 * (time.monotonic() - round_start) > RUN_LIMIT_S:
            break

    failed = sum(bool(s["failures"]) for s in samples)
    units = benchmark_units()
    series = summarize(samples, args.trace)

    metrics = {}
    for key, values in series.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[key] = {"value": med, "unit": units[key]}
        print(f"# {key:48s} {med:14.6g} {units[key]:6s} [{q1:.6g}, {q3:.6g}] n={len(values)}",
              file=sys.stderr)
    for i, s in enumerate(samples):
        if s["failures"]:
            print(f"# run {i} ({s['mode']}) failed: {s['failures']}", file=sys.stderr)
    print(f"# failed_frac {failed / len(samples):.4f} ({failed}/{len(samples)})", file=sys.stderr)

    expected_names = {m for m in units if (m in END_TO_END) == (args.trace == 0)}
    complete = set(metrics) == expected_names
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"environment": env, "samples": samples, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
