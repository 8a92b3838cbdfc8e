"""The three benchmark workloads: the CLI call each one makes and what its
outputs must hold.

Every workload runs ``fiem.cli.main`` in a fresh process.  The sizes are fixed
here; only the seed varies between runs, and it changes the generated data,
never the amount of work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, str, int], list]   # (seed, outdir, workers) -> CLI argv
    # algorithm -> replicas the outputs must contain
    replicas: dict
    # examples processed under the paper's epoch accounting; repeats exactly
    examples: int
    # pool workers for the timed runs (capped by nproc); traced runs use 1
    workers: int = 1
    # output files the CLI writes into ``--out`` (mc-certify writes none)
    files: tuple = ()
    # CSV with (algorithm, replica) columns that completed replicas are counted
    # from; None means the run-phase result is counted instead
    replica_file: Optional[str] = None
    verdict_prefix: Optional[str] = None


def _mc_certify(seed, outdir, workers):
    # desk scale: toy n=10, q=3, K=50, R=2000 FIEM replicas with the E2 diagnostic
    return ["check", "--suite", "theorem1", "--scale", "desk", "--seed", str(seed)]


TOY_N, TOY_K, TOY_R = 10_000, 1_000, 4
TOY_ALGOS = ("online-em", "fiem", "opt-fiem")


def _toy_large_n(seed, outdir, workers):
    return ["toy", "--n", str(TOY_N), "--kmax", str(TOY_K), "--replicas", str(TOY_R),
            "--threads", str(workers), "--seed", str(seed), "--out", outdir]


GMM_N, GMM_EPOCHS = 20_000, 10
GMM_ALGOS = ("em", "iem", "online-em", "fiem", "h-fiem")


def _gmm_fit(seed, outdir, workers):
    return ["gmm", "--synthetic", f"{seed},{GMM_N},5,10,3.0", "--g", "5",
            "--algos", ",".join(GMM_ALGOS), "--batch", "100",
            "--epochs", str(GMM_EPOCHS), "--kswitch", "2", "--threads", str(workers),
            "--seed", str(seed), "--out", outdir]


# Epoch accounting: Online EM processes b examples per iteration, FIEM and
# opt-FIEM 2b (b = 1 in the toy runs); every mixture algorithm processes n
# examples per epoch.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # certification is the purpose: per-call overhead of tiny numpy calls
            name="mc-certify",
            argv=_mc_certify,
            replicas={"fiem": 2000},
            examples=2 * 50 * 2000,
            verdict_prefix="[PASS] master inequality within 3 sigma",
        ),
        Workload(
            # the exact n-row opt-FIEM lambda pass dominates; pool pickling and CSV
            name="toy-large-n",
            argv=_toy_large_n,
            replicas={a: TOY_R for a in TOY_ALGOS},
            examples=TOY_R * TOY_K * (1 + 2 + 2),
            workers=2,
            files=("aggregates.csv", "constants.json", "diagnostics.csv"),
            replica_file="diagnostics.csv",
        ),
        Workload(
            # bound by the posterior kernels; wide memory table; third SA loop
            name="gmm-fit",
            argv=_gmm_fit,
            replicas={a: 1 for a in GMM_ALGOS},
            examples=len(GMM_ALGOS) * GMM_EPOCHS * GMM_N,
            files=("epoch_accounting.csv", "epoch_table.csv", "fitted_params.json",
                   "weights_trajectories.csv"),
            replica_file="epoch_accounting.csv",
        ),
    )
}
