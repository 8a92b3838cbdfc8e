"""One workload run in a fresh process: ``fiem.cli.main`` on the given argv.

Usage: ``python3 perfbench/child.py SPEC`` where SPEC is a JSON object with
``src`` (the directory holding the ``fiem`` package), ``argv`` (CLI
arguments), ``record`` (path of the run-phase record to write), ``trace``
(span file prefix, or null for an untraced run) and ``setup_only`` (stop at
the start of the run phase, to sample the set-up time alone).

The run phase is every call of ``run_replicated`` or ``table_report``; its
start and end times (CLOCK_MONOTONIC, comparable with the parent's clock)
go into the record together with the replica and example counts read from
the returned results and the peak resident memory.  The process exits with
the CLI's exit code.
"""
import json
import os
import resource
import sys
import time

# examples processed per iteration under the paper's epoch accounting
_PER_ITERATION = {"em": lambda n, b: n, "iem": lambda n, b: b, "online-em": lambda n, b: b,
                  "fiem": lambda n, b: 2 * b, "opt-fiem": lambda n, b: 2 * b}


def _count_replicated(config, table):
    completed = {alg: len(runs) for alg, runs in table.runs.items()}
    aborted = sum(len(v) for v in table.aborted.values())
    examples = sum(_PER_ITERATION[alg](config.model.n, config.batch_size) * d.k_max
                   for alg, runs in table.runs.items() for d in runs)
    return completed, aborted, examples


def _count_table_report(config, result):
    paths = result[1]
    completed = {alg: len(p) for alg, p in paths.items()}
    examples = sum(p.examples_processed for plist in paths.values() for p in plist)
    return completed, 0, examples


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import fiem.cli  # imports every fiem module
    import spans

    recorder = None
    if spec["trace"]:
        recorder = spans.Recorder()
        spans.install(recorder)

    record = {"phases": [], "completed": {}, "aborted": 0, "examples": 0}

    def phase(counter):
        def make(fn):
            def timed(config, *args, **kwargs):
                t0 = time.monotonic()
                if spec["setup_only"]:
                    record["phases"].append([t0, t0])
                    _write(spec["record"], record)
                    os._exit(0)
                result = fn(config, *args, **kwargs)
                record["phases"].append([t0, time.monotonic()])
                completed, aborted, examples = counter(config, result)
                for alg, c in completed.items():
                    record["completed"][alg] = record["completed"].get(alg, 0) + c
                record["aborted"] += aborted
                record["examples"] += examples
                return result
            return timed
        return make

    # installed after the spans, so the phase timer is the outermost wrapper
    spans.replace_everywhere("fiem.experiments", "run_replicated", phase(_count_replicated))
    spans.replace_everywhere("fiem.experiments", "table_report", phase(_count_table_report))

    rc = fiem.cli.main(spec["argv"])
    sys.stdout.flush()
    if recorder is not None:
        recorder.dump(spec["trace"])
    record["maxrss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    _write(spec["record"], record)
    return rc


def _write(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
