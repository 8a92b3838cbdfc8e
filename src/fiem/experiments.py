"""Seeded, replicated Monte Carlo harness.

Replica r of a configured experiment runs every requested algorithm from the
seed-tree child(r), so all algorithms inside one replica share their index
streams while replicas stay mutually independent.  Aggregation is a
deterministic reduction in replica order, so serial and parallel execution
produce identical tables.
"""
from __future__ import annotations

import csv
from concurrent import futures
from dataclasses import dataclass
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
from .gmm import GmmModel, init_params
from .model import FiniteSumModel, objective_v
from .rng import SeedTree
from .stepsize import theorem1_coeffs

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


@dataclass
class ExperimentConfig:
    """R replicas of each algorithm, every path started and switched by ``options``."""

    model: FiniteSumModel
    algorithms: Sequence[str]
    schedule: StepSchedule
    termination: TerminationRule
    options: RunOptions
    replicas: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need replicas >= 1")

    @property
    def batch_size(self) -> int:
        return self.options.batch_size


# per algorithm, the aborted replicas as (replica, iteration, condition)
Aborts = dict[str, list[tuple[int, int, str]]]


@dataclass
class ResultTable:
    """Aggregates per (algorithm, checkpoint, metric) plus the raw runs.

    Aggregates cover completed runs only; ``aborted`` lists every other run
    as (replica, iteration, condition)."""

    aggregates: list[dict]
    runs: dict[str, list[RunDiagnostics]]
    checkpoints: list[int]
    aborted: Aborts

    @property
    def completed(self) -> dict[str, int]:
        return {alg: len(diags) for alg, diags in self.runs.items()}

    def raise_on_abort(self) -> None:
        """Raise :class:`RunAbortError` naming the first aborted replica, for
        estimates that the surviving replicas alone would bias."""
        for alg, aborts in self.aborted.items():
            if aborts:
                r, k, condition = aborts[0]
                total = self.completed[alg] + len(aborts)
                raise RunAbortError(k, f"replica {r}: {condition} ({len(aborts)} of {total} replicas aborted)")


_METRICS = ("h_sq", "cv_gap_sq", "step_sq", "vdot_sq", "lambdas", "theta_err")


def _outcomes(algorithms, path) -> dict:
    """``path(alg)`` for every algorithm of one replica; an aborted path is
    recorded as (iteration, condition) instead of raised."""
    out = {}
    for alg in algorithms:
        try:
            out[alg] = path(alg)
        except RunAbortError as exc:
            out[alg] = (exc.iteration, exc.condition)
    return out


def _replicate(job, config) -> tuple[dict, Aborts]:
    """Run ``job((config, r))`` for every replica r, serially or on
    ``config.workers`` processes, and split the outcomes in replica order (a
    fixed reduction order) into completed results and aborts per algorithm."""
    jobs = [(config, r) for r in range(config.replicas)]
    algorithms, workers = config.algorithms, config.workers
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(job, jobs, chunksize=max(1, len(jobs) // (4 * workers))))
    else:
        results = dict(map(job, jobs))
    done = {alg: [] for alg in algorithms}
    aborted = {alg: [] for alg in algorithms}
    for r in range(len(jobs)):
        for alg in algorithms:
            item = results[r][alg]
            if isinstance(item, tuple):
                aborted[alg].append((r, *item))
            else:
                done[alg].append(item)
    return done, aborted


def _replica_job(args):
    config, r = args
    child = SeedTree(config.seed).child(r)
    return r, _outcomes(config.algorithms, lambda alg: run(
        alg, config.model, config.schedule, config.termination, child, config.options))


def run_replicated(config: ExperimentConfig) -> ResultTable:
    """R independent replicas per algorithm under the shared-seed protocol."""
    runs, aborted = _replicate(_replica_job, config)

    checkpoints = default_checkpoints(len(config.schedule))
    aggregates = []
    gammas = config.schedule.gammas
    for alg in config.algorithms:
        diags = runs[alg]
        if not diags:
            continue
        metric_arrays = {m: [getattr(d, m) for d in diags] for m in _METRICS}
        # derived: update magnitude scaled by the squared step size
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

    return ResultTable(aggregates=aggregates, runs=runs, checkpoints=checkpoints, aborted=aborted)


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
    """One verified bound: estimated criterion against its certified value.

    ``vacuous`` says why the comparison certifies nothing (a non-positive
    alpha_k or mean DeltaV, under which any lhs can pass); such a bound does
    not hold."""

    strategy: str
    lhs: float
    rhs: float
    margin_sigmas: float
    vacuous: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.vacuous is None and (self.margin_sigmas >= -3.0 or self.lhs <= self.rhs)

    @classmethod
    def paired(cls, strategy: str, lhs: Array, rhs: Array, delta_v: Array,
               alphas: Optional[Array] = None) -> "BoundReport":
        """Means of the per-replica sides and their paired margin, vacuous
        when the mean of the per-replica ``delta_v`` or some of ``alphas``
        is not positive."""
        reasons = []
        if alphas is not None and not alphas.min() > 0.0:
            reasons.append(f"min alpha_k={alphas.min():.3e} <= 0")
        if not delta_v.mean() > 0.0:
            reasons.append(f"mean deltaV={delta_v.mean():.3e} <= 0")
        return cls(strategy, float(lhs.mean()), float(rhs.mean()), paired_margin(lhs, rhs),
                   "; ".join(reasons) or None)


def paired_margin(lhs_values: Array, rhs_values: Array) -> float:
    """Mean of (rhs - lhs) in units of its standard error; +inf when the
    margin has zero spread (deterministic comparisons)."""
    d = np.asarray(rhs_values, dtype=float) - np.asarray(lhs_values, dtype=float)
    mean, se = _mean_se(d)
    if se == 0.0:
        return float("inf") if mean >= 0.0 else float("-inf")
    return mean / se


def _delta_v(model: FiniteSumModel, diags: Sequence[RunDiagnostics]) -> Array:
    """Per-replica DeltaV = V(S^0) - V(S^Kmax) of runs from one start, with
    ``V(s) = F(T(s))``."""
    v0 = objective_v(model, diags[0].s0)
    return np.array([v0 - objective_v(model, d.s_final) for d in diags])


def verify_bound(diags: Sequence[RunDiagnostics], model: FiniteSumModel,
                 coefficient: float, strategy: str) -> BoundReport:
    """Check E1_hat <= coefficient * DeltaV_hat with a per-replica paired margin.

    ``coefficient`` is the bound without its DeltaV factor (for the constant
    step strategies, n^a K_max^-b times the bound constant); DeltaV is
    estimated from the same runs by :func:`_delta_v`, and the check is vacuous
    when its mean is not positive."""
    lhs = np.array([d.h_sq[d.terminal_k] for d in diags])
    delta_v = _delta_v(model, diags)
    return BoundReport.paired(strategy, lhs, coefficient * delta_v, delta_v)


def verify_theorem1(
    model: FiniteSumModel,
    schedule: StepSchedule,
    s0: Array,
    replicas: int,
    seed: int,
    betas=None,
    workers: int = 1,
) -> BoundReport:
    """Estimate both sides of the master inequality on variance-reduced runs.

    LHS = sum_k alpha_k E||h(S^k)||^2 + sum_k delta_k E||cv gap||^2 against
    rhs = DeltaV = E V(S^0) - E V(S^Kmax); the margin is reported in per-replica
    paired standard errors (infinite when deterministic, e.g. n = 1).  The
    check is vacuous, and does not hold, when some alpha_k <= 0 or the mean
    DeltaV is not positive: a diverging path then passes it.  Raises
    :class:`RunAbortError` (naming the first aborted replica) when any
    replica aborted, since the survivors alone would bias both sides.
    """
    constants = model.constants()
    coeffs = theorem1_coeffs(
        schedule, model.n, constants.lipschitz_rms, constants.v_min,
        constants.lipschitz_gradv, betas=betas,
    )
    k_max = len(schedule)
    config = ExperimentConfig(
        model=model,
        algorithms=("fiem",),
        schedule=schedule,
        termination=TerminationRule.uniform(k_max),
        options=RunOptions(s0=s0, compute_e2=True),
        replicas=replicas,
        seed=seed,
        workers=workers,
    )
    table = run_replicated(config)
    table.raise_on_abort()
    diags = table.runs["fiem"]
    lhs = np.array([coeffs.alphas @ d.h_sq + coeffs.deltas @ d.cv_gap_sq for d in diags])
    delta_v = _delta_v(model, diags)
    return BoundReport.paired("theorem1", lhs, delta_v, delta_v, coeffs.alphas)


# -- GMM epoch experiments --------------------------------------------------

# examples that one iteration of each mixture algorithm processes, from n and b
_EXAMPLES_PER_ITERATION = {"em": lambda n, b: n, "iem": lambda n, b: b, "online-em": lambda n, b: b,
                           "fiem": lambda n, b: 2 * b, "h-fiem": lambda n, b: 2 * b}
GMM_ALGORITHMS = tuple(_EXAMPLES_PER_ITERATION)
# iEM steps all the way to the memory mean, as classical incremental EM does
IEM_GAMMA = 1.0
# the epochs at which the paper's table reports the log-likelihood
TABLE_EPOCHS = (1, 15, 25, 50, 100)


def _epoch_phases(algorithm: str, n: int, batch_size: int, epochs: int, kswitch: int = 0):
    """One ``(algorithm, iterations)`` phase per epoch of n examples.

    An epoch is one EM iteration, n/b iEM or Online EM iterations, or n/(2b)
    FIEM iterations (two batches each), so n must be divisible by the examples
    of one iteration.  h-FIEM runs ``kswitch`` Online EM epochs, then FIEM
    epochs, and needs n divisible by 2b.  Each error message states the
    values that do not fit.
    """
    if algorithm not in GMM_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    b = int(batch_size)
    if b < 1:
        raise ValueError(f"batch {b} is below 1")
    if epochs < 1:
        raise ValueError(f"epochs={epochs} is below 1")
    per_iteration = _EXAMPLES_PER_ITERATION[algorithm](n, b)
    if n % per_iteration:
        examples = f"batch {b}" if per_iteration == b else f"2*batch={per_iteration}"
        raise ValueError(f"{examples} does not divide n={n} for {algorithm}")
    if algorithm != "h-fiem":
        return [(algorithm, n // per_iteration)] * epochs
    if not (0 <= kswitch <= epochs):
        raise ValueError(f"kswitch={kswitch} is outside 0..epochs={epochs}")
    return [("online-em", n // b)] * kswitch + [("fiem", n // (2 * b))] * (epochs - kswitch)


@dataclass
class GmmPath:
    loglik: Array            # one per TABLE_EPOCHS entry <= epochs, in that order
    weights: Array           # (epochs + 1, g), entry 0 = initial
    params: list             # T(S) at the end of each epoch
    violations: int
    examples_processed: int
    iterations: int


def gmm_epoch_path(
    model: GmmModel,
    algorithm: str,
    s0: Array,
    gamma: float,
    batch_size: int,
    epochs: int,
    seed,
    kswitch: int = 0,
) -> GmmPath:
    """One path of a mixture fit from the statistic ``s0`` (S^0, usually
    ``model.initial_statistic(theta0)``), bookkept in epochs of n examples,
    counted by :func:`_epoch_phases`.

    h-FIEM runs ``kswitch`` Online EM epochs then FIEM epochs, with the
    memory table initialized at the switch point from the current state.
    Every epoch is one :func:`~fiem.algorithms.sa_path` phase.  At its end
    the path keeps T(S) and the weights of every epoch, and the normalized
    log-likelihood only at the table epochs (:data:`TABLE_EPOCHS`), each
    read from the image that the path evaluated for that state: T(s) is
    evaluated once per visited state, and the n-row density pass of a table
    epoch also serves the next EM step or a memory init there.  iEM asserts
    the domain proxies (a violation aborts the path); the other algorithms
    count violations.
    """
    phases = _epoch_phases(algorithm, model.n, batch_size, epochs, kswitch)
    schedule = StepSchedule.constant(gamma, sum(iters for _, iters in phases))

    # the weights of T(S^0), alpha_l = s1_l / sum(s1), without the rest of T
    masses = s0[: model.g]
    loglik, thetas = [], []

    def record(s, image):
        thetas.append(image.theta)
        if len(thetas) in TABLE_EPOCHS:
            loglik.append(image.loglik())

    opts = RunOptions(s0=s0, batch_size=int(batch_size), compute_h=False,
                      domain_policy="abort" if algorithm == "iem" else "warn")
    diag = sa_path(model, phases, schedule.gammas, seed, opts, on_phase_end=record)
    return GmmPath(
        loglik=np.array(loglik),
        weights=np.array([masses / masses.sum()] + [theta.weights for theta in thetas]),
        params=thetas,
        violations=diag.violations,
        examples_processed=epochs * model.n,
        iterations=len(schedule),
    )


@dataclass
class GmmExperimentConfig:
    """R replicas of each mixture algorithm; the epoch accounting and the
    step size of every requested algorithm are checked here, before any path
    runs."""

    model: GmmModel
    algorithms: Sequence[str]
    gamma: float
    batch_size: int
    epochs: int
    replicas: int
    seed: int
    kswitch: int = 6
    workers: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need replicas >= 1")
        for alg in self.algorithms:
            _epoch_phases(alg, self.model.n, self.batch_size, self.epochs, self.kswitch)
            StepSchedule.constant(self.gamma_for(alg), 1)

    def gamma_for(self, algorithm: str) -> float:
        return IEM_GAMMA if algorithm == "iem" else self.gamma


def _gmm_replica_job(args):
    config, r = args
    child = SeedTree(config.seed).child(r)
    s0 = config.model.initial_statistic(init_params(config.model.dataset, config.model.g, child))
    return r, _outcomes(config.algorithms, lambda alg: gmm_epoch_path(
        config.model, alg, s0, config.gamma_for(alg),
        config.batch_size, config.epochs, child, kswitch=config.kswitch))


def table_report(config: GmmExperimentConfig) -> tuple[list[dict], dict[str, list[GmmPath]], Aborts]:
    """Epoch table rows (algorithm, epoch, mean, std over completed
    replicas), the completed paths and the aborts, as in
    :class:`ResultTable`.  Initialization is re-randomized per replica from
    child seeds; within a replica all algorithms start from the same
    parameter and share index streams.  Replicas run in parallel when
    ``workers`` > 1; the reduction order is fixed either way."""
    epochs = [e for e in TABLE_EPOCHS if e <= config.epochs]
    paths, aborted = _replicate(_gmm_replica_job, config)

    rows = []
    for alg in config.algorithms:
        if not paths[alg]:
            continue
        stacked = np.stack([p.loglik for p in paths[alg]])  # (R, table epochs)
        for e, col in zip(epochs, stacked.T):
            rows.append({
                "algorithm": alg,
                "epoch": int(e),
                "mean": float(col.mean()),
                "std": float(col.std(ddof=1)) if col.size > 1 else 0.0,
            })
    return rows, paths, aborted


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
                    arr = getattr(d, metric)
                    if arr is None:
                        continue
                    for k in table.checkpoints:
                        if k < len(arr):
                            w.writerow([alg, r, k, metric, repr(float(arr[k]))])
