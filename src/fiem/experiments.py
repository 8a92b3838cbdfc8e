"""Seeded, replicated Monte Carlo harness.

Replica r of a configured experiment runs every requested algorithm from the
seed-tree child(r), so all algorithms inside one replica share their index
streams while replicas stay mutually independent.  Aggregation is a
deterministic reduction in replica order, so serial and parallel execution
produce identical tables.
"""
from __future__ import annotations

import csv
import functools
from concurrent import futures
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algorithms import (
    ALGORITHMS,
    RunDiagnostics,
    RunOptions,
    StepSchedule,
    TerminationRule,
    fiem_replicas,
    run,
    sa_path,
)
from .errors import DomainError, RunAbortError
from .gmm import GmmModel, init_params
from .model import Array, FiniteSumModel, dots, objective_v
from .rng import STREAM_TERMINATION, SeedTree
from .stepsize import theorem1_coeffs

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
    options: RunOptions
    replicas: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need replicas >= 1")

    @property
    def batch_size(self) -> int:
        """Examples per draw; the benchmark's example count (``perfbench/child.py``) reads it."""
        return self.options.batch_size


# per algorithm, the aborted replicas as (replica, iteration, condition)
Aborts = dict[str, list[tuple[int, int, str]]]


@dataclass
class ResultTable:
    """The completed runs per algorithm, in replica order; ``aborted`` lists
    every other run as (replica, iteration, condition)."""

    runs: dict[str, list[RunDiagnostics]]
    aborted: Aborts

    @property
    def completed(self) -> dict[str, int]:
        return {alg: len(diags) for alg, diags in self.runs.items()}

    def raise_on_abort(self, *algorithms: str) -> None:
        """Raise :class:`RunAbortError` naming the first aborted replica of
        ``algorithms`` (of any algorithm when none is named), for estimates
        that the surviving replicas alone would bias."""
        for alg in algorithms or self.aborted:
            aborts = self.aborted[alg]
            if aborts:
                r, k, condition = aborts[0]
                total = self.completed[alg] + len(aborts)
                raise RunAbortError(k, f"replica {r}: {condition} ({len(aborts)} of {total} replicas aborted)")


_METRICS = ("h_sq", "cv_gap_sq", "step_sq", "vdot_sq", "lambdas", "theta_err")


def _outcomes(algorithms, path) -> dict:
    """``[path(alg)]`` for every algorithm of one replica; an aborted path
    is recorded as (iteration, condition) instead of raised."""
    out = {}
    for alg in algorithms:
        try:
            out[alg] = [path(alg)]
        except RunAbortError as exc:
            out[alg] = [(exc.iteration, exc.condition)]
    return out


# a pool worker's experiment, bound once by the pool's initializer
_worker_config = None


def _bind(config) -> None:
    global _worker_config
    _worker_config = config


def _in_worker(job, part):
    return job(part, _worker_config)


def _replicate(job, config, parts=None) -> tuple[dict, Aborts]:
    """Run ``job(part, config)`` on each of ``parts`` (by default every
    replica index), serially or on up to ``config.workers`` processes, never
    more than there are parts.  Each pool worker receives ``config`` once,
    through the pool's initializer, so what a job ships is its part alone: a
    replica index, or a chunk's ``(lo, hi)`` bounds on the replica axis.  A
    job covers a contiguous range of replicas, the parts in replica order,
    and returns its first replica with the outcomes per algorithm, in
    replica order.  They are split in that order (a fixed reduction order)
    into completed results and aborts per algorithm."""
    if parts is None:
        parts = range(config.replicas)
    algorithms, workers = config.algorithms, min(config.workers, len(parts))
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers, initializer=_bind,
                                         initargs=(config,)) as pool:
            results = list(pool.map(functools.partial(_in_worker, job), parts,
                                    chunksize=max(1, len(parts) // (4 * workers))))
    else:
        results = [job(part, config) for part in parts]
    done = {alg: [] for alg in algorithms}
    aborted = {alg: [] for alg in algorithms}
    for first, outcomes in results:
        for alg in algorithms:
            for r, item in enumerate(outcomes[alg], first):
                if isinstance(item, tuple):
                    aborted[alg].append((r, *item))
                else:
                    done[alg].append(item)
    return done, aborted


def _replica_job(r: int, config: ExperimentConfig):
    """Every algorithm's path of replica ``r``."""
    child = SeedTree(config.seed).child(r)
    return r, _outcomes(config.algorithms, lambda alg: run(
        alg, config.model, config.schedule, child, config.options))


# one chunk of replicas on the replica axis holds at most this many bytes
_CHUNK_BYTES = 64 << 20


def _on_replica_axis(config: ExperimentConfig) -> bool:
    """True when :func:`fiem_replicas` covers every algorithm and option of
    ``config``: FIEM alone at one example per draw, with no ``theta_ref``
    or ``domain_policy``, on a model that takes the replica axis."""
    options = config.options
    return (tuple(config.algorithms) == ("fiem",) and options.batch_size == 1
            and options.theta_ref is None and options.domain_policy is None
            and config.model.replica_axis)


def _chunks(config: ExperimentConfig) -> list[tuple[int, int]]:
    """Contiguous replica ranges ``(lo, hi)``, as few as keep each within
    :data:`_CHUNK_BYTES`, whatever ``config.workers`` is.  A replica holds
    its (n, q) memory table and its (K,) rows: both index draws,
    ``step_sq`` and each diagnostic that is switched on."""
    replicas, model, options = config.replicas, config.model, config.options
    rows = 3 + options.compute_h + options.compute_e2 + options.compute_e0
    per_chunk = max(1, _CHUNK_BYTES // (8 * (model.n * model.q + rows * len(config.schedule))))
    count = -(-replicas // per_chunk)
    bounds = [replicas * c // count for c in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _chunk_job(bounds: tuple[int, int], config: ExperimentConfig):
    """The FIEM replicas ``lo..hi-1``, as one stack."""
    lo, hi = bounds
    return lo, {"fiem": fiem_replicas(config.model, config.schedule, SeedTree(config.seed),
                                      range(lo, hi), config.options)}


def run_replicated(config: ExperimentConfig) -> ResultTable:
    """R independent replicas per algorithm under the shared-seed protocol.

    A FIEM-only config that :func:`fiem_replicas` covers runs its replicas
    together in contiguous chunks, bit for bit as one :func:`run` per
    replica; every other config runs one path per (replica, algorithm)."""
    if _on_replica_axis(config):
        return ResultTable(*_replicate(_chunk_job, config, _chunks(config)))
    return ResultTable(*_replicate(_replica_job, config))


def _mean_std(values) -> tuple[float, float]:
    """Mean and ddof-1 standard deviation of one column of per-replica
    values; the deviation of a single replica is 0."""
    x = np.asarray(values, dtype=float)
    return float(x.mean()), float(x.std(ddof=1)) if x.size > 1 else 0.0


def _quartiles(col: Array) -> tuple[float, float]:
    """``np.quantile(col, (0.25, 0.75))`` bit for bit, without the
    ``numpy.ma`` import that ``np.quantile`` brings: numpy's linear rule on
    the column partitioned at numpy's order statistics.  The virtual index
    is (R-1) q; between its neighbours a <= b at fraction t, the value is
    ``a + (b-a) t``, or ``b - (b-a)(1-t)`` where t >= 0.5; a column holding
    NaN gives NaN."""
    last = col.size - 1
    # (lo, hi, t) per quartile; at the top (R = 1) numpy takes the last value
    # twice, with t = at + 1
    points = [(int(at), int(at) + 1, at - int(at)) if at < last else (-1, -1, at + 1.0)
              for at in (last * 0.25, last * 0.75)]
    # the ends and the neighbours, as numpy partitions (np.unique would import numpy.ma)
    x = np.partition(col, sorted({0, -1, *(i for lo, hi, _ in points for i in (lo, hi))}))
    if np.isnan(x[-1]):
        return float(x[-1]), float(x[-1])
    values = []
    for lo, hi, t in points:
        a, b = float(x[lo]), float(x[hi])
        values.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return values[0], values[1]


def checkpoint_summary(table: ResultTable, schedule: StepSchedule) -> list[dict]:
    """Mean, ddof-1 std and quartiles of the completed runs per (algorithm,
    metric, checkpoint), the checkpoints :func:`default_checkpoints` of the
    schedule's length.  ``step_sq_scaled`` is ``step_sq`` over the squared
    step size of each iteration.  A statistic that overflows comes out
    non-finite, without a numpy warning.  Raises :class:`RunAbortError`
    naming the first aborted replica of an algorithm with no completed run."""
    checkpoints = default_checkpoints(len(schedule))
    rows = []
    for alg, diags in table.runs.items():
        if not diags:
            table.raise_on_abort(alg)
        # the checkpoint columns of each recorded metric, (R, checkpoints)
        columns = {m: np.array([getattr(d, m)[checkpoints] for d in diags])
                   for m in _METRICS if getattr(diags[0], m) is not None}
        columns["step_sq_scaled"] = columns["step_sq"] / schedule.gammas[checkpoints]**2
        for metric, stacked in columns.items():
            for k, col in zip(checkpoints, stacked.T):
                with np.errstate(over="ignore", invalid="ignore"):
                    mean, std = _mean_std(col)
                    q25, q75 = _quartiles(col)
                rows.append({"algorithm": alg, "k": k, "metric": metric, "mean": mean, "std": std,
                             "q25": q25, "q75": q75})
    return rows


@dataclass
class EEstimates:
    """Monte Carlo estimates of the termination-index criteria."""

    e1: float
    se1: float
    e0: Optional[float] = None


def terminal_indices(termination: TerminationRule, seed: int, replicas: int) -> list[int]:
    """The termination index K of each replica r < ``replicas``, drawn by
    ``termination`` from the "termination" stream of ``SeedTree(seed).child(r)``,
    independently of the path the replica ran."""
    tree = SeedTree(seed)
    return [termination.sample(tree.child(r).stream(STREAM_TERMINATION)) for r in range(replicas)]


def _at_terminal(table: ResultTable, algorithm: str, termination: TerminationRule, seed: int):
    """The runs of ``algorithm`` in ``table`` (replicas 0..R-1 of ``seed``)
    and each one's K by :func:`terminal_indices`.  Raises
    :class:`RunAbortError` when a replica aborted, since a K then pairs with
    another replica's run and the survivors alone bias the estimate, and
    ``ValueError`` when the rule does not cover the runs' K_max iterations."""
    table.raise_on_abort()
    diags = table.runs[algorithm]
    if len(termination) != diags[0].k_max:
        raise ValueError("termination weights must have length K_max")
    return diags, terminal_indices(termination, seed, len(diags))


def estimate_e(table: ResultTable, algorithm: str, termination: TerminationRule, seed: int,
               v_max: Optional[float] = None) -> EEstimates:
    """Estimates at the per-replica random termination index K, drawn by
    ``termination`` for the runs of ``algorithm`` (see :func:`_at_terminal`).

    E1 averages ||h(S^K)||^2; E0 (when the runs tracked the scaled gradient
    and ``v_max`` is given) averages ||grad V(S^K)||^2 / v_max^2.
    """
    diags, ks = _at_terminal(table, algorithm, termination, seed)
    if any(d.h_sq is None for d in diags):
        raise ValueError("runs lack the mean-field diagnostic")

    def at_k(metric, scale=1.0):
        """Mean and standard error of ``metric`` at K over ``scale``."""
        mean, std = _mean_std(np.array([getattr(d, metric)[k] for d, k in zip(diags, ks)]) / scale)
        return mean, float(std / np.sqrt(len(diags)))

    out = EEstimates(*at_k("h_sq"))
    if diags[0].vdot_sq is not None:
        if v_max is None:
            raise ValueError("E0 needs v_max")
        out.e0 = at_k("vdot_sq", v_max**2)[0]
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
    mean, std = _mean_std(d)
    se = float(std / np.sqrt(d.size))
    if se == 0.0:
        return float("inf") if mean >= 0.0 else float("-inf")
    return mean / se


def _delta_v(model: FiniteSumModel, diags: Sequence[RunDiagnostics]) -> Array:
    """Per-replica DeltaV = V(S^0) - V(S^Kmax) of runs from one start, with
    ``V(s) = F(T(s))``, on the stack of final states (the replica axis)."""
    finals = np.array([d.s_final for d in diags])
    for r in np.flatnonzero(~np.isfinite(finals).all(axis=1))[:1]:
        raise DomainError(f"replica {r}: statistic has non-finite entries")
    return objective_v(model, diags[0].s0) - model.objective(model.tmap(finals))


def verify_bound(table: ResultTable, termination: TerminationRule, seed: int,
                 model: FiniteSumModel, coefficient: float, strategy: str) -> BoundReport:
    """Check E1_hat <= coefficient * DeltaV_hat on the FIEM runs of ``table``
    with a per-replica paired margin, K drawn by ``termination`` (see
    :func:`_at_terminal`).

    ``coefficient`` is the bound without its DeltaV factor (for the constant
    step strategies, n^a K_max^-b times the bound constant); DeltaV is
    estimated from the same runs by :func:`_delta_v`, and the check is vacuous
    when its mean is not positive."""
    diags, ks = _at_terminal(table, "fiem", termination, seed)
    lhs = np.array([d.h_sq[k] for d, k in zip(diags, ks)])
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

    Both sums and V(S^Kmax) are taken on the replica stack, one replica's
    BLAS calls per row.
    """
    constants = model.constants()
    coeffs = theorem1_coeffs(
        schedule, model.n, constants.lipschitz_rms, constants.v_min,
        constants.lipschitz_gradv, betas=betas,
    )
    config = ExperimentConfig(
        model=model,
        algorithms=("fiem",),
        schedule=schedule,
        options=RunOptions(s0=s0, compute_e2=True),
        replicas=replicas,
        seed=seed,
        workers=workers,
    )
    table = run_replicated(config)
    table.raise_on_abort()
    diags = table.runs["fiem"]
    lhs = (dots(coeffs.alphas, np.array([d.h_sq for d in diags]))
           + dots(coeffs.deltas, np.array([d.cv_gap_sq for d in diags])))
    delta_v = _delta_v(model, diags)
    return BoundReport.paired("theorem1", lhs, delta_v, delta_v, coeffs.alphas)


# -- GMM epoch experiments --------------------------------------------------

GMM_ALGORITHMS = ("em", "iem", "online-em", "fiem", "h-fiem")
# iEM steps all the way to the memory mean, as classical incremental EM does
IEM_GAMMA = 1.0
# the epochs at which the paper's table reports the log-likelihood
TABLE_EPOCHS = (1, 15, 25, 50, 100)
# the paper's h-FIEM: Online EM epochs before the switch to FIEM
KSWITCH = 6


def _epoch_phases(algorithm: str, n: int, batch_size: int, epochs: int, kswitch: int):
    """One ``(algorithm, iterations)`` phase per epoch of n examples.

    An epoch is one EM iteration, n/b iEM or Online EM iterations, or n/(2b)
    FIEM iterations (two batches each), so n must be divisible by the examples
    of one iteration, :meth:`~fiem.algorithms.Algorithm.examples`.  h-FIEM
    runs ``kswitch`` Online EM epochs, then FIEM epochs, and needs n
    divisible by 2b, the FIEM record's examples, at any ``kswitch``.  Each
    error message states the values that do not fit and the flags that set
    them.
    """
    if algorithm not in GMM_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    b = int(batch_size)
    if b < 1:
        raise ValueError(f"batch {b} is below 1")
    if epochs < 1:
        raise ValueError(f"epochs={epochs} is below 1")
    per_iteration = ALGORITHMS["fiem" if algorithm == "h-fiem" else algorithm].examples(n, b)
    if n % per_iteration:
        examples = f"--batch {b}" if per_iteration == b else f"2*batch={per_iteration} (--batch {b})"
        raise ValueError(f"{examples} does not divide n={n} for {algorithm}")
    if algorithm != "h-fiem":
        return [(algorithm, n // per_iteration)] * epochs
    if not (0 <= kswitch <= epochs):
        raise ValueError(f"--kswitch past --epochs: kswitch={kswitch} is outside 0..epochs={epochs}")
    online = n // ALGORITHMS["online-em"].examples(n, b)
    return [("online-em", online)] * kswitch + [("fiem", n // per_iteration)] * (epochs - kswitch)


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
    kswitch: int = KSWITCH,
) -> GmmPath:
    """One path of a mixture fit from the statistic ``s0`` (S^0, usually
    ``model.sbar(theta0)``), bookkept in epochs of n examples,
    counted by :func:`_epoch_phases`.

    h-FIEM runs ``kswitch`` Online EM epochs then FIEM epochs, with the
    memory table initialized at the switch point from the current state.
    Every epoch is one :func:`~fiem.algorithms.sa_path` phase.  At its end
    the path keeps T(S) and the weights of every epoch, and the normalized
    log-likelihood only at the table epochs (:data:`TABLE_EPOCHS`), each
    read from the image that the path evaluated for that state: T(s) is
    evaluated once per visited state, and the n-row density pass of a table
    epoch also serves the next EM step or a memory init there.  iEM aborts
    on a domain violation; the others count one, but the next T(s) aborts
    on a negative mass (an empty component), so only mass drift is counted.
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
    kswitch: int = KSWITCH
    workers: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need replicas >= 1")
        for alg in self.algorithms:
            _epoch_phases(alg, self.model.n, self.batch_size, self.epochs, self.kswitch)
            StepSchedule.constant(self.gamma_for(alg), 1)

    def gamma_for(self, algorithm: str) -> float:
        return IEM_GAMMA if algorithm == "iem" else self.gamma


def _gmm_replica_job(r: int, config: GmmExperimentConfig):
    """Every algorithm's epoch path of replica ``r``."""
    child = SeedTree(config.seed).child(r)
    try:
        s0 = config.model.sbar(init_params(config.model.dataset, config.model.g, child))
    except DomainError as exc:  # no path can start: every algorithm aborts at iteration 0
        return r, {alg: [(0, str(exc))] for alg in config.algorithms}
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
            mean, std = _mean_std(col)
            rows.append({"algorithm": alg, "epoch": e, "mean": mean, "std": std})
    return rows, paths, aborted


# -- CSV emission ------------------------------------------------------------


def write_aggregates_csv(path, rows: list[dict]) -> None:
    """The rows of :func:`checkpoint_summary`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["algorithm", "k", "metric", "mean", "std", "q25", "q75"])
        for row in rows:
            w.writerow([row["algorithm"], row["k"], row["metric"],
                        repr(row["mean"]), repr(row["std"]), repr(row["q25"]), repr(row["q75"])])


def write_diagnostics_csv(path, table: ResultTable, k_max: int) -> None:
    """Per-replica diagnostic values at the checkpoints of ``k_max``
    iterations."""
    checkpoints = default_checkpoints(k_max)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["algorithm", "replica", "k", "metric", "value"])
        for alg, diags in table.runs.items():
            for r, d in enumerate(diags):
                for metric in _METRICS:
                    arr = getattr(d, metric)
                    if arr is None:
                        continue
                    for k in checkpoints:
                        w.writerow([alg, r, k, metric, repr(float(arr[k]))])
