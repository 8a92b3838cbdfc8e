"""Correctness gate applied to every workload run.

A run fails on a non-zero exit, a ``[FAIL]`` line, a missing ``[PASS]``
verdict, a missing output file, a non-finite written value, fewer completed
replicas than requested (counted from the outputs themselves), an aborted
replica, a wrong example count, or, at the default seed, an output whose
sha256 differs from the digest recorded in ``digests.json``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
DEFAULT_SEED = 0
STDOUT_KEY = "<stdout>"

_NUMBER = re.compile(r"=\s*([-+]?(?:[0-9.]+(?:e[-+]?[0-9]+)?|inf|nan))", re.IGNORECASE)


def output_digests(outdir: str, stdout: bytes) -> dict:
    """sha256 of the verdict text and of every file the run wrote."""
    digests = {STDOUT_KEY: hashlib.sha256(stdout).hexdigest()}
    if os.path.isdir(outdir):
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def output_bytes(outdir: str, stdout: bytes) -> int:
    total = len(stdout)
    if os.path.isdir(outdir):
        total += sum(os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))
    return total


def load_digests(workload: str):
    """Recorded digests of ``workload`` at the default seed, or None."""
    if not os.path.exists(DIGEST_FILE):
        return None
    with open(DIGEST_FILE) as fh:
        return json.load(fh).get(workload)


def _walk_json(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _walk_json(v)
    elif isinstance(node, list):
        for v in node:
            yield from _walk_json(v)
    elif isinstance(node, float):
        yield node


def _non_finite(path: str) -> int:
    """Count non-finite numbers written to a CSV or JSON output."""
    bad = 0
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            return sum(not math.isfinite(v) for v in _walk_json(json.load(fh)))
        for row in csv.reader(fh):
            for cell in row:
                try:
                    bad += not math.isfinite(float(cell))
                except ValueError:
                    pass
    return bad


def _replicas_in(path: str) -> dict:
    seen: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            seen.setdefault(row["algorithm"], set()).add(int(row["replica"]))
    return seen


def check_run(workload, rc, stdout: bytes, outdir: str, phase, expected_digests=None) -> list:
    """Failure reasons of one run; an empty list means the run is correct.

    ``phase`` is the record the workload process wrote about its run phase
    (None when the process died before writing it).
    """
    failures = []
    text = stdout.decode("utf-8", "replace")
    if rc != 0:
        failures.append(f"exit code {rc}")
    if "[FAIL]" in text:
        failures.append("[FAIL] line")
    if workload.verdict_prefix is not None:
        verdicts = [l for l in text.splitlines() if l.startswith(workload.verdict_prefix)]
        if not verdicts:
            failures.append("no [PASS] verdict")
        for v in verdicts:
            if any(not math.isfinite(float(x)) for x in _NUMBER.findall(v)):
                failures.append("non-finite value in the verdict")
    if phase is None:
        failures.append("no run-phase record from the workload process")
    else:
        if phase["aborted"]:
            failures.append(f"{phase['aborted']} aborted replicas")
        if phase["examples"] != workload.examples:
            failures.append(f"examples {phase['examples']} != {workload.examples}")
        if workload.replica_file is None and phase["completed"] != workload.replicas:
            failures.append(f"completed replicas {phase['completed']} != {workload.replicas}")

    written = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
    if written != sorted(workload.files):
        failures.append(f"output files {written} != {sorted(workload.files)}")
    for name in written:
        bad = _non_finite(os.path.join(outdir, name))
        if bad:
            failures.append(f"{bad} non-finite values in {name}")
    if workload.replica_file in written:
        seen = _replicas_in(os.path.join(outdir, workload.replica_file))
        for alg, count in workload.replicas.items():
            if seen.get(alg, set()) != set(range(count)):
                failures.append(f"{alg}: replicas {sorted(seen.get(alg, ()))} in "
                                f"{workload.replica_file}, expected 0..{count - 1}")

    if expected_digests is not None:
        got = output_digests(outdir, stdout)
        differ = sorted(k for k in set(got) | set(expected_digests)
                        if got.get(k) != expected_digests.get(k))
        if differ:
            failures.append(f"digest mismatch: {differ}")
    return failures
