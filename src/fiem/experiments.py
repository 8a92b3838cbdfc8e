"""Seeded, replicated Monte Carlo harness.

Replica r of a configured experiment runs every requested algorithm from the
seed-tree child(r), so all algorithms inside one replica share their index
streams while replicas stay mutually independent.  Aggregation is a
deterministic reduction in replica order, so serial and parallel execution
produce identical tables.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algorithms import (
    RunDiagnostics,
    RunOptions,
    StepSchedule,
    TerminationRule,
    run,
    sa_path,
)
from .errors import RunAbortError
from .gmm import GmmModel, gmm_loglik, init_params
from .model import FiniteSumModel
from .rng import SeedTree, as_seed_tree
from .stepsize import Theorem1Coefficients, theorem1_coeffs

Array = np.ndarray

_CHECKPOINT_FRACTIONS = tuple(
    [0.005, 0.025]
    + [0.05 + 0.025 * j for j in range(11)]   # 0.05 .. 0.30
    + [0.35 + 0.05 * j for j in range(14)]    # 0.35 .. 1.00
)


def default_checkpoints(k_max: int) -> list[int]:
    """Iteration grid mirroring the reference experiment's checkpoints,
    rescaled to ``k_max``."""
    ks = sorted({min(k_max - 1, max(0, int(round(f * k_max)) - 1)) for f in _CHECKPOINT_FRACTIONS})
    return ks


def update_magnitude_window(n: int, k_max: int) -> tuple[int, int]:
    """Early-iteration window for the scaled update magnitude
    gamma^{-2} ||S^{k+1} - S^k||^2, proportional to the data size: the
    reference window is [1.5e3, 5e3] at n = 1e3, i.e. [1.5 n, 5 n] clipped to
    the horizon."""
    lo = min(k_max - 1, int(round(1.5 * n)))
    hi = min(k_max - 1, 5 * n)
    return lo, hi


@dataclass
class ExperimentConfig:
    model: FiniteSumModel
    algorithms: Sequence[str]
    schedule: StepSchedule
    termination: TerminationRule
    s0: Array
    replicas: int
    seed: int
    batch_size: int = 1
    compute_e2: bool = False
    compute_e0: bool = False
    track_v: bool = False
    theta_ref: object = None
    checkpoints: Optional[Sequence[int]] = None
    workers: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need replicas >= 1")
        if len(self.schedule) < 1:
            raise ValueError("schedule must be non-empty")

    def run_options(self) -> RunOptions:
        return RunOptions(
            s0=np.asarray(self.s0, dtype=float),
            batch_size=self.batch_size,
            compute_h=True,
            compute_e2=self.compute_e2,
            compute_e0=self.compute_e0,
            track_v=self.track_v,
            theta_ref=self.theta_ref,
        )


@dataclass
class ResultTable:
    """Aggregates per (algorithm, checkpoint, metric) plus the raw runs."""

    aggregates: list[dict]
    runs: dict[str, list[RunDiagnostics]]
    checkpoints: list[int]
    completed: dict[str, int]
    aborted: dict[str, list[tuple[int, str]]]

    @property
    def complete(self) -> bool:
        return all(not v for v in self.aborted.values())


_METRICS = ("h_sq", "cv_gap_sq", "step_sq", "vdot_sq", "lambdas", "v", "theta_err")


def _replica_job(args):
    model, algorithms, schedule, termination, seed, r, opts = args
    child = SeedTree(seed).child(r)
    out = {}
    for alg in algorithms:
        try:
            out[alg] = run(alg, model, schedule, termination, child, opts)
        except RunAbortError as exc:
            out[alg] = (exc.iteration, exc.condition)
    return r, out


def run_replicated(config: ExperimentConfig) -> ResultTable:
    """R independent replicas per algorithm under the shared-seed protocol."""
    opts = config.run_options()
    jobs = [
        (config.model, tuple(config.algorithms), config.schedule, config.termination,
         config.seed, r, opts)
        for r in range(config.replicas)
    ]
    results: dict[int, dict] = {}
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for r, out in pool.map(_replica_job, jobs, chunksize=max(1, len(jobs) // (4 * config.workers))):
                results[r] = out
    else:
        for job in jobs:
            r, out = _replica_job(job)
            results[r] = out

    runs: dict[str, list[RunDiagnostics]] = {alg: [] for alg in config.algorithms}
    aborted: dict[str, list[tuple[int, str]]] = {alg: [] for alg in config.algorithms}
    for r in range(config.replicas):  # fixed reduction order
        for alg in config.algorithms:
            item = results[r][alg]
            if isinstance(item, RunDiagnostics):
                runs[alg].append(item)
            else:
                aborted[alg].append(item)

    checkpoints = list(config.checkpoints) if config.checkpoints is not None \
        else default_checkpoints(len(config.schedule))
    aggregates = []
    gammas = config.schedule.gammas
    for alg in config.algorithms:
        diags = runs[alg]
        if not diags:
            continue
        metric_arrays = {m: [d.metric(m) for d in diags] for m in _METRICS}
        # derived: update magnitude scaled by the squared step size
        if metric_arrays["step_sq"][0] is not None:
            metric_arrays["step_sq_scaled"] = [a / gammas**2 for a in metric_arrays["step_sq"]]
        for metric, arrays in metric_arrays.items():
            if arrays[0] is None:
                continue
            stacked = np.stack(arrays)  # (R, len)
            for k in checkpoints:
                if k >= stacked.shape[1]:
                    continue
                col = stacked[:, k]
                aggregates.append({
                    "algorithm": alg,
                    "k": int(k),
                    "metric": metric,
                    "mean": float(col.mean()),
                    "std": float(col.std(ddof=1)) if col.size > 1 else 0.0,
                    "q25": float(np.quantile(col, 0.25)),
                    "q75": float(np.quantile(col, 0.75)),
                })

    completed = {alg: len(runs[alg]) for alg in config.algorithms}
    return ResultTable(aggregates=aggregates, runs=runs, checkpoints=checkpoints,
                       completed=completed, aborted=aborted)


@dataclass
class EEstimates:
    """Monte Carlo estimates of the termination-index criteria."""

    e1: float
    se1: float
    e0: Optional[float] = None
    se0: Optional[float] = None
    e2: Optional[float] = None
    se2: Optional[float] = None


def _mean_se(x: Array) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    se = float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
    return float(x.mean()), se


def estimate_e(diags: Sequence[RunDiagnostics], v_max: Optional[float] = None) -> EEstimates:
    """Estimates at the per-replica random termination index K.

    E1 averages ||h(S^K)||^2; E2 (when tracked) the control-variate gap at K;
    E0 (when the runs tracked the scaled gradient and ``v_max`` is given)
    averages ||grad V(S^K)||^2 / v_max^2.
    """
    if any(d.terminal_k is None for d in diags):
        raise ValueError("runs lack a termination index")
    if any(d.h_sq is None for d in diags):
        raise ValueError("runs lack the mean-field diagnostic")
    e1_vals = np.array([d.h_sq[d.terminal_k] for d in diags])
    e1, se1 = _mean_se(e1_vals)
    out = EEstimates(e1=e1, se1=se1)
    if diags[0].cv_gap_sq is not None:
        e2, se2 = _mean_se(np.array([d.cv_gap_sq[d.terminal_k] for d in diags]))
        out.e2, out.se2 = e2, se2
    if diags[0].vdot_sq is not None:
        if v_max is None:
            raise ValueError("E0 needs v_max")
        e0, se0 = _mean_se(np.array([d.vdot_sq[d.terminal_k] for d in diags]) / v_max**2)
        out.e0, out.se0 = e0, se0
    return out


@dataclass
class BoundReport:
    """One verified bound: estimated criterion against its certified value."""

    strategy: str
    lhs: float
    rhs: float
    margin_sigmas: float

    @property
    def holds(self) -> bool:
        return self.margin_sigmas >= -3.0 or self.lhs <= self.rhs


def paired_margin(lhs_values: Array, rhs_values: Array) -> float:
    """Mean of (rhs - lhs) in units of its standard error; +inf when the
    margin has zero spread (deterministic comparisons)."""
    d = np.asarray(rhs_values, dtype=float) - np.asarray(lhs_values, dtype=float)
    mean, se = _mean_se(d)
    if se == 0.0:
        return float("inf") if mean >= 0.0 else float("-inf")
    return mean / se


def verify_bound(diags: Sequence[RunDiagnostics], model: FiniteSumModel,
                 coefficient: float, strategy: str) -> BoundReport:
    """Check E1_hat <= coefficient * DeltaV_hat with a per-replica paired margin.

    ``coefficient`` is the bound without its DeltaV factor (for the constant
    step strategies, n^a K_max^-b times the bound constant); DeltaV is
    estimated from the same runs as V(S^0) - V(S^Kmax)."""
    lhs = np.array([d.h_sq[d.terminal_k] for d in diags])
    v0 = model.objective(model.tmap(np.asarray(diags[0].s0, dtype=float)))
    rhs = coefficient * np.array([v0 - model.objective(model.tmap(d.s_final)) for d in diags])
    return BoundReport(
        strategy=strategy,
        lhs=float(lhs.mean()),
        rhs=float(rhs.mean()),
        margin_sigmas=paired_margin(lhs, rhs),
    )


@dataclass
class Theorem1Report:
    lhs: float
    delta_v: float
    margin_sigmas: float
    coeffs: Theorem1Coefficients

    @property
    def holds(self) -> bool:
        return self.margin_sigmas >= -3.0 or self.lhs <= self.delta_v


def verify_theorem1(
    model: FiniteSumModel,
    schedule: StepSchedule,
    s0: Array,
    replicas: int,
    seed: int,
    betas=None,
    lam: float = 0.5,
    workers: int = 1,
) -> Theorem1Report:
    """Estimate both sides of the master inequality on variance-reduced runs.

    LHS = sum_k alpha_k E||h(S^k)||^2 + sum_k delta_k E||cv gap||^2 against
    DeltaV = E V(S^0) - E V(S^Kmax); the margin is reported in per-replica
    paired standard errors (infinite when deterministic, e.g. n = 1).
    """
    constants = model.constants()
    coeffs = theorem1_coeffs(
        schedule, model.n, constants.lipschitz_rms, constants.v_min,
        constants.lipschitz_gradv, betas=betas, lam=lam,
    )
    k_max = len(schedule)
    config = ExperimentConfig(
        model=model,
        algorithms=("fiem",),
        schedule=schedule,
        termination=TerminationRule.uniform(k_max),
        s0=s0,
        replicas=replicas,
        seed=seed,
        compute_e2=True,
        workers=workers,
    )
    table = run_replicated(config)
    diags = table.runs["fiem"]
    v0 = model.objective(model.tmap(np.asarray(s0, dtype=float)))
    lhs_r = np.array([
        coeffs.alphas @ d.h_sq + coeffs.deltas @ d.cv_gap_sq for d in diags
    ])
    dv_r = np.array([v0 - model.objective(model.tmap(d.s_final)) for d in diags])
    return Theorem1Report(
        lhs=float(lhs_r.mean()),
        delta_v=float(dv_r.mean()),
        margin_sigmas=paired_margin(lhs_r, dv_r),
        coeffs=coeffs,
    )


# -- GMM epoch experiments --------------------------------------------------

GMM_ALGORITHMS = ("em", "iem", "online-em", "fiem", "h-fiem")
DEFAULT_TABLE_EPOCHS = (1, 15, 25, 50, 100)


@dataclass
class GmmPath:
    algorithm: str
    loglik: Array            # per epoch, entry e = after epoch e+1
    weights: Array           # (epochs + 1, g), entry 0 = initial
    violations: int
    examples_processed: int
    iterations: int
    final_params: object = None


def gmm_epoch_path(
    model: GmmModel,
    algorithm: str,
    theta0,
    gamma: float,
    batch_size: int,
    epochs: int,
    seed,
    kswitch: int = 0,
) -> GmmPath:
    """One path of a mixture fit, bookkept in epochs (n examples each).

    EM runs one iteration per epoch; iEM and Online EM n/b iterations; FIEM
    n/(2b).  h-FIEM runs ``kswitch`` Online EM epochs then FIEM epochs, with
    the memory table initialized at the switch point from the current state.
    Every epoch is one :func:`~fiem.algorithms.sa_path` phase, and the
    log-likelihood and weights are recorded at its end.  iEM asserts the
    domain proxies (a violation aborts the path); the other algorithms count
    violations.
    """
    if algorithm not in GMM_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    n, b = model.n, int(batch_size)
    if algorithm == "em":
        per_epoch = {"em": 1}
    else:
        if n % b != 0:
            raise ValueError("epoch accounting requires n divisible by the batch size")
        if algorithm in ("fiem", "h-fiem") and n % (2 * b) != 0:
            raise ValueError("FIEM epoch accounting requires n divisible by 2*batch")
        per_epoch = {"iem": n // b, "online-em": n // b, "fiem": n // (2 * b)}
    if algorithm != "h-fiem":
        epoch_algorithms = [algorithm] * epochs
    elif not (0 <= kswitch <= epochs):
        raise ValueError("need 0 <= kswitch <= epochs")
    else:
        epoch_algorithms = ["online-em"] * kswitch + ["fiem"] * (epochs - kswitch)
    phases = [(alg, per_epoch[alg]) for alg in epoch_algorithms]
    k_max = sum(iters for _, iters in phases)

    s0 = model.initial_statistic(theta0)
    loglik = []
    weights = [model.tmap(s0).weights]

    def record(s):
        params = model.tmap(s)
        loglik.append(gmm_loglik(params, model.dataset))
        weights.append(params.weights)

    opts = RunOptions(s0=s0, batch_size=b, compute_h=False,
                      domain_policy="abort" if algorithm == "iem" else "warn")
    diag = sa_path(algorithm, model, phases, np.full(k_max, float(gamma)), seed, opts,
                   on_phase_end=record)
    return GmmPath(
        algorithm=algorithm,
        loglik=np.array(loglik),
        weights=np.array(weights),
        violations=diag.violations,
        examples_processed=epochs * n,
        iterations=k_max,
        final_params=model.tmap(diag.s_final),
    )


@dataclass
class GmmExperimentConfig:
    model: GmmModel
    algorithms: Sequence[str]
    gamma: float
    batch_size: int
    epochs: int
    replicas: int
    seed: int
    kswitch: int = 6
    iem_gamma: float = 1.0
    table_epochs: Sequence[int] = DEFAULT_TABLE_EPOCHS
    workers: int = 1


def _gmm_replica_job(args):
    config, r = args
    child = SeedTree(config.seed).child(r)
    theta0 = init_params(config.model.dataset, config.model.g, child)
    out = {}
    for alg in config.algorithms:
        gamma = config.iem_gamma if alg == "iem" else config.gamma
        out[alg] = gmm_epoch_path(
            config.model, alg, theta0, gamma, config.batch_size,
            config.epochs, child, kswitch=config.kswitch,
        )
    return r, out


def table_report(config: GmmExperimentConfig) -> tuple[list[dict], dict[str, list[GmmPath]]]:
    """Epoch table rows (algorithm, epoch, mean, std over replicas) plus the
    raw paths.  Initialization is re-randomized per replica from child seeds;
    within a replica all algorithms start from the same parameter and share
    index streams.  Replicas run in parallel when ``workers`` > 1; the
    reduction order is fixed either way."""
    epochs = [e for e in config.table_epochs if e <= config.epochs]
    jobs = [(config, r) for r in range(config.replicas)]
    results: dict[int, dict] = {}
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for r, out in pool.map(_gmm_replica_job, jobs):
                results[r] = out
    else:
        for job in jobs:
            r, out = _gmm_replica_job(job)
            results[r] = out
    paths: dict[str, list[GmmPath]] = {alg: [] for alg in config.algorithms}
    for r in range(config.replicas):
        for alg in config.algorithms:
            paths[alg].append(results[r][alg])

    rows = []
    for alg in config.algorithms:
        stacked = np.stack([p.loglik for p in paths[alg]])  # (R, epochs)
        for e in epochs:
            col = stacked[:, e - 1]
            rows.append({
                "algorithm": alg,
                "epoch": int(e),
                "mean": float(col.mean()),
                "std": float(col.std(ddof=1)) if col.size > 1 else 0.0,
            })
    return rows, paths


# -- CSV emission ------------------------------------------------------------


def write_aggregates_csv(path, table: ResultTable) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["algorithm", "k", "metric", "mean", "std", "q25", "q75"])
        for row in table.aggregates:
            w.writerow([row["algorithm"], row["k"], row["metric"],
                        repr(row["mean"]), repr(row["std"]), repr(row["q25"]), repr(row["q75"])])


def write_diagnostics_csv(path, table: ResultTable) -> None:
    """Per-replica diagnostic values at the checkpoint grid."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["algorithm", "replica", "k", "metric", "value"])
        for alg, diags in table.runs.items():
            for r, d in enumerate(diags):
                for metric in _METRICS:
                    arr = d.metric(metric)
                    if arr is None:
                        continue
                    for k in table.checkpoints:
                        if k < len(arr):
                            w.writerow([alg, r, k, metric, repr(float(arr[k]))])


def write_bound_csv(path, reports: Sequence[BoundReport]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["strategy", "lhs", "rhs", "margin_sigmas"])
        for rep in reports:
            w.writerow([rep.strategy, repr(rep.lhs), repr(rep.rhs), repr(rep.margin_sigmas)])
