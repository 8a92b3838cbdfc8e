"""Generic engines for EM, incremental EM, Online EM, FIEM, opt-FIEM, h-FIEM.

Single steps are exposed as standalone functions.  :func:`sa_path` is the one
stochastic-approximation loop: it walks a list of (algorithm, iterations)
phases on one state with per-iteration diagnostics under the shared-seed
protocol (dedicated substreams for the memory-update draws "indices-I" and
the oracle draws "indices-J").  :func:`run` is a single phase with a random
termination index, :func:`h_fiem_run` an Online EM phase followed by a FIEM
phase.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DomainError,
    MemoryStateError,
    RunAbortError,
)
from .model import FiniteSumModel
from .rng import (
    STREAM_INDICES_I,
    STREAM_INDICES_J,
    STREAM_TERMINATION,
    as_seed_tree,
)

ALGORITHMS = ("em", "iem", "online-em", "fiem", "opt-fiem")
MEMORY_ALGORITHMS = ("iem", "fiem", "opt-fiem")

Array = np.ndarray


@dataclass
class StepSchedule:
    """Deterministic positive step sizes, one per iteration."""

    gammas: Array

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("schedule must be a non-empty vector")
        if np.any(g <= 0.0) or not np.all(np.isfinite(g)):
            raise ValueError("every step size must be positive and finite")
        self.gammas = g

    def __len__(self) -> int:
        return self.gammas.size

    @classmethod
    def constant(cls, gamma: float, k_max: int) -> "StepSchedule":
        return cls(np.full(int(k_max), float(gamma)))


@dataclass
class TerminationRule:
    """Distribution of the random termination index K on {0, ..., K_max-1}.

    K is drawn before the run, independently of the path, from the
    "termination" substream of the run seed.
    """

    weights: Array

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        self.weights = w

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, k_max: int) -> "TerminationRule":
        return cls(np.full(int(k_max), 1.0 / int(k_max)))

    @classmethod
    def point_mass(cls, k: int, k_max: int) -> "TerminationRule":
        w = np.zeros(int(k_max))
        w[int(k)] = 1.0
        return cls(w)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.weights.size, p=self.weights))


class MemoryTable:
    """Per-example store of the last EM images, with an incrementally
    maintained running mean refreshed from the rows every n updates."""

    def __init__(self, rows: Array):
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2:
            raise MemoryStateError("memory rows must form an n-by-q matrix")
        self.rows = rows
        self.mean = rows.mean(axis=0)
        self._updates = 0

    @classmethod
    def init(cls, model: FiniteSumModel, s: Array) -> "MemoryTable":
        """Initialize every row at the current EM image, row i = sbar_i(T(s))."""
        return cls(model.stat_rows(s, np.arange(model.n)))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def write(self, model: FiniteSumModel, s: Array, batch) -> None:
        """Replace the rows of ``batch`` (duplicates collapse) by sbar_i(T(s))
        and update the running mean incrementally."""
        uniq = np.unique(np.asarray(batch))
        new = model.stat_rows(s, uniq)
        delta = (new - self.rows[uniq]).sum(axis=0)
        self.rows[uniq] = new
        self.mean = self.mean + delta / self.n
        self._updates += uniq.size
        if self._updates >= self.n:
            self.refresh()

    def refresh(self) -> None:
        """Recompute the mean from the rows, zeroing accumulated drift."""
        self.mean = self.rows.mean(axis=0)
        self._updates = 0


def draw_batch(rng: np.random.Generator, n: int, size: int, replace: bool) -> Array:
    """Uniform index batch; single draws use the same generator primitive in
    both modes so that size-1 streams align across algorithms."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if size == 1 or replace:
        return rng.integers(0, n, size=size)
    return rng.choice(n, size=size, replace=False)


# -- single steps ---------------------------------------------------------


def online_em_step(model: FiniteSumModel, s: Array, batch, gamma: float) -> Array:
    """s + gamma * (mean_{i in batch} sbar_i(T(s)) - s)."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    rows = model.stat_rows(s, batch)
    return s + gamma * (rows.mean(axis=0) - s)


def iem_step(model: FiniteSumModel, s: Array, memory: MemoryTable, batch, gamma: float):
    """Memory rows of ``batch`` refreshed at the current state, then
    ``(1-gamma) s + gamma Stilde``. Returns (new state, memory)."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if memory is None:
        raise MemoryStateError("iEM requires an initialized memory table")
    memory.write(model, s, batch)
    return (1.0 - gamma) * s + gamma * memory.mean, memory


def _cv_update(
    model: FiniteSumModel,
    s: Array,
    memory: MemoryTable,
    batch_j: Array,
    gamma: float,
    lam: float,
) -> Array:
    # SA update with a control variate scaled by lam; lam=0 reproduces the
    # plain oracle step bit-for-bit (the CV term is skipped, not multiplied).
    rows_j = model.stat_rows(s, batch_j)
    direction = rows_j.mean(axis=0) - s
    if lam != 0.0:
        mem_j = memory.rows[batch_j].mean(axis=0)
        direction = direction + lam * (memory.mean - mem_j)
    return s + gamma * direction


def fiem_step(
    model: FiniteSumModel,
    s: Array,
    memory: MemoryTable,
    batch_i,
    batch_j,
    gamma: float,
):
    """Variance-reduced step: memory updated with ``batch_i`` and the oracle
    ``batch_j`` corrected by the memory control variate (unit coefficient)."""
    if len(batch_i) == 0 or len(batch_j) == 0:
        raise ValueError("batches must be non-empty")
    if memory is None:
        raise MemoryStateError("FIEM requires an initialized memory table")
    batch_j = np.asarray(batch_j)
    memory.write(model, s, batch_i)
    return _cv_update(model, s, memory, batch_j, gamma, 1.0), memory


def opt_fiem_lambda(model: FiniteSumModel, s: Array, memory: MemoryTable) -> float:
    """Optimal control-variate coefficient, exact O(n q) form.

    lambda* = - mean_j <sbar_j(T(s)), Stilde - S_j> / mean_j ||Stilde - S_j||^2
    with the memory rows taken after the current I-update.  Raises
    :class:`DegenerateVarianceError` when the denominator is numerically zero.
    """
    rows = model.stat_rows(s, np.arange(model.n))
    diff = memory.mean - memory.rows  # (n, q)
    num = float(np.einsum("nq,nq->", rows, diff)) / model.n
    # stable form of mean_j ||S_j||^2 - ||Stilde||^2
    den = float(np.einsum("nq,nq->", diff, diff)) / model.n
    if den < 1e-14 * (1.0 + float(memory.mean @ memory.mean)):
        raise DegenerateVarianceError("control variate has numerically zero variance")
    return -num / den


def opt_fiem_step(
    model: FiniteSumModel,
    s: Array,
    memory: MemoryTable,
    batch_i,
    batch_j,
    gamma: float,
    forced_lambda: Optional[float] = None,
):
    """FIEM step with the control variate scaled by lambda*.

    Returns (new state, memory, lambda used).  ``forced_lambda`` overrides the
    optimal coefficient (0 reproduces Online EM, 1 reproduces FIEM bit for
    bit under identical draws); a degenerate variance falls back to 1.
    """
    if len(batch_i) == 0 or len(batch_j) == 0:
        raise ValueError("batches must be non-empty")
    if memory is None:
        raise MemoryStateError("opt-FIEM requires an initialized memory table")
    batch_j = np.asarray(batch_j)
    memory.write(model, s, batch_i)
    if forced_lambda is not None:
        lam = float(forced_lambda)
    else:
        try:
            lam = opt_fiem_lambda(model, s, memory)
        except DegenerateVarianceError:
            lam = 1.0
    return _cv_update(model, s, memory, batch_j, gamma, lam), memory, lam


# -- full runs ------------------------------------------------------------


@dataclass
class RunOptions:
    """Switches for :func:`sa_path`; expensive diagnostics are opt-in."""

    s0: Optional[Array] = None
    batch_size: int = 1
    compute_h: bool = True          # ||h(S^k)||^2 per iteration
    compute_e2: bool = False        # ||Stilde^{k+1} - sbar(T(S^k))||^2 (O(n) for generic models)
    compute_e0: bool = False        # ||B(S^k) h(S^k)||^2 (needs bmat)
    track_v: bool = False           # V(S^k) along the path (needs objective)
    theta_ref: object = None        # track ||theta^k - theta_ref|| when set
    param_fn: Optional[Callable] = None  # extract a vector from T(S^k) per iteration
    forced_lambda: Optional[float] = None  # opt-fiem only
    domain_policy: Optional[str] = None    # None | "warn" | "abort"


@dataclass
class RunDiagnostics:
    """Per-iteration records of one path.

    Arrays indexed by iteration k cover k = 0 .. K_max-1 at the pre-update
    state; ``v`` and ``theta_err`` get one extra entry for the final state.
    """

    algorithm: str
    k_max: int
    terminal_k: Optional[int]
    gammas: Array
    s0: Array
    s_final: Array
    h_sq: Optional[Array] = None
    cv_gap_sq: Optional[Array] = None
    step_sq: Optional[Array] = None
    vdot_sq: Optional[Array] = None
    lambdas: Optional[Array] = None
    v: Optional[Array] = None
    theta_err: Optional[Array] = None
    params: Optional[Array] = None
    violations: int = 0
    switch_iteration: Optional[int] = None

    def metric(self, name: str) -> Optional[Array]:
        return getattr(self, name)


def _as_vector(theta) -> Array:
    return theta.as_vector() if hasattr(theta, "as_vector") else np.asarray(theta, dtype=float).ravel()


def _step(algorithm, model, s, memory, rng_i, rng_j, b, gamma, smean, forced_lambda):
    """One update of ``algorithm`` from ``s``; returns (new state, lambda or None).

    Memory batches are drawn from ``rng_i`` before oracle batches from
    ``rng_j``, so every algorithm reads the same stream positions.  The step
    functions are looked up as module globals at call time (no dispatch
    table), so a wrapper installed on this module sees every call."""
    n = model.n
    if algorithm == "em":
        return smean, None
    if algorithm == "online-em":
        return online_em_step(model, s, draw_batch(rng_j, n, b, replace=False), gamma), None
    batch_i = draw_batch(rng_i, n, b, replace=True)
    if algorithm == "iem":
        return iem_step(model, s, memory, batch_i, gamma)[0], None
    batch_j = draw_batch(rng_j, n, b, replace=True)
    if algorithm == "fiem":
        return fiem_step(model, s, memory, batch_i, batch_j, gamma)[0], None
    s_new, _, lam = opt_fiem_step(model, s, memory, batch_i, batch_j, gamma,
                                  forced_lambda=forced_lambda)
    return s_new, lam


def sa_path(
    name: str,
    model: FiniteSumModel,
    phases,
    gammas: Array,
    seed,
    options: RunOptions,
    on_phase_end: Optional[Callable] = None,
) -> RunDiagnostics:
    """The stochastic-approximation loop ``s <- s + gamma (S_hat - s)``.

    Walks ``phases``, a list of ``(algorithm, iterations)``, on one state;
    iteration k of the whole path uses ``gammas[k]``.  Online EM batches are
    drawn without replacement from "indices-J", memory batches with
    replacement from "indices-I" and FIEM oracle batches with replacement from
    "indices-J".  The memory table is initialized from the current state when
    the first memory phase starts, and ``on_phase_end(s)`` is called after
    every phase.  The diagnostics switched on in ``options`` are recorded at
    the pre-update state of every iteration; ``cv_gap_sq`` and ``lambdas``
    read NaN in phases without a control variate.
    """
    opts = options
    if opts.s0 is None:
        raise ValueError("options.s0 must provide the starting statistic")
    for algorithm, _ in phases:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    k_max = sum(iters for _, iters in phases)
    if len(gammas) != k_max:
        raise ValueError(f"schedule length {len(gammas)} does not match the {k_max} iterations")

    tree = as_seed_tree(seed)
    rng_i = tree.stream(STREAM_INDICES_I)
    rng_j = tree.stream(STREAM_INDICES_J)

    s = np.array(opts.s0, dtype=float)
    model.admissible(s)
    memory = None
    b = int(opts.batch_size)
    uses_memory = any(alg in MEMORY_ALGORITHMS and iters for alg, iters in phases)

    h_sq = np.empty(k_max) if opts.compute_h else None
    cv_sq = np.full(k_max, np.nan) if (opts.compute_e2 and uses_memory) else None
    step_sq = np.empty(k_max)
    vdot_sq = np.empty(k_max) if opts.compute_e0 else None
    lambdas = np.full(k_max, np.nan) if any(alg == "opt-fiem" for alg, _ in phases) else None
    v = np.empty(k_max + 1) if opts.track_v else None
    theta_err = np.empty(k_max + 1) if opts.theta_ref is not None else None
    params = [] if opts.param_fn is not None else None
    needs_mean = opts.compute_h or cv_sq is not None or opts.compute_e0
    violations = 0

    def record_theta(k, s):
        theta = model.tmap(s)
        if v is not None:
            v[k] = model.objective(theta)
        if theta_err is not None:
            theta_err[k] = float(np.linalg.norm(_as_vector(theta) - _as_vector(opts.theta_ref)))
        if params is not None:
            params.append(np.asarray(opts.param_fn(theta), dtype=float))

    records_theta = v is not None or theta_err is not None or params is not None
    k = 0
    try:
        for algorithm, iters in phases:
            if memory is None and iters and algorithm in MEMORY_ALGORITHMS:
                memory = MemoryTable.init(model, s)
            for _ in range(iters):
                smean = model.stat_mean(s) if needs_mean or algorithm == "em" else None
                if h_sq is not None:
                    hvec = smean - s
                    h_sq[k] = hvec @ hvec
                if vdot_sq is not None:
                    vdot = model.bmat(s) @ (smean - s)
                    vdot_sq[k] = vdot @ vdot
                if records_theta:
                    record_theta(k, s)

                s_new, lam = _step(algorithm, model, s, memory, rng_i, rng_j, b, gammas[k],
                                   smean, opts.forced_lambda)

                if lam is not None:
                    lambdas[k] = lam
                if cv_sq is not None and algorithm in MEMORY_ALGORITHMS:
                    gap = memory.mean - smean
                    cv_sq[k] = gap @ gap
                delta = s_new - s
                step_sq[k] = delta @ delta
                if opts.domain_policy is not None:
                    try:
                        model.admissible(s_new)
                    except DomainError as exc:
                        if opts.domain_policy == "abort":
                            raise RunAbortError(k, str(exc)) from exc
                        violations += 1
                s = s_new
                k += 1
            if on_phase_end is not None:
                on_phase_end(s)
    except DomainError as exc:
        raise RunAbortError(k, str(exc)) from exc

    if records_theta:
        record_theta(k_max, s)

    return RunDiagnostics(
        algorithm=name,
        k_max=k_max,
        terminal_k=None,
        gammas=gammas,
        s0=np.array(opts.s0, dtype=float),
        s_final=s,
        h_sq=h_sq,
        cv_gap_sq=cv_sq,
        step_sq=step_sq,
        vdot_sq=vdot_sq,
        lambdas=lambdas,
        v=v,
        theta_err=theta_err,
        params=np.array(params) if params is not None else None,
        violations=violations,
    )


def run(
    algorithm: str,
    model: FiniteSumModel,
    schedule: StepSchedule,
    termination: TerminationRule,
    seed,
    options: Optional[RunOptions] = None,
) -> RunDiagnostics:
    """Execute K_max iterations of the chosen algorithm and record diagnostics.

    A single :func:`sa_path` phase.  Two algorithms run with the same seed see
    identical index streams position by position, which is the protocol
    behind all same-seed comparisons.  The termination index is sampled from
    its own substream before the run starts.
    """
    if len(termination) != len(schedule):
        raise ValueError("termination weights must have length K_max")
    tree = as_seed_tree(seed)
    terminal_k = termination.sample(tree.stream(STREAM_TERMINATION))
    diag = sa_path(algorithm, model, [(algorithm, len(schedule))], schedule.gammas, tree,
                   options or RunOptions())
    diag.terminal_k = terminal_k
    return diag


def h_fiem_run(
    model: FiniteSumModel,
    gamma,
    batch_size: int,
    kswitch_epochs: int,
    total_epochs: int,
    seed,
    options: Optional[RunOptions] = None,
) -> RunDiagnostics:
    """Hybrid path: ``kswitch_epochs`` epochs of Online EM, then FIEM epochs.

    An epoch processes n examples (n/b Online EM iterations, n/(2b) FIEM
    iterations), so n must be divisible by ``batch_size`` and by
    ``2 * batch_size``.  The memory table is initialized at the switch point
    from the current state.  ``gamma`` is a scalar or a :class:`StepSchedule`
    covering the full iteration count.
    """
    if not (0 <= kswitch_epochs <= total_epochs):
        raise ValueError("need 0 <= kswitch_epochs <= total_epochs")
    b = int(batch_size)
    n = model.n
    if n % b != 0 or n % (2 * b) != 0:
        raise ValueError("epoch accounting requires n divisible by batch and 2*batch")
    phases = [("online-em", kswitch_epochs * (n // b)),
              ("fiem", (total_epochs - kswitch_epochs) * (n // (2 * b)))]
    k_max = phases[0][1] + phases[1][1]
    gammas = gamma.gammas if isinstance(gamma, StepSchedule) else np.full(k_max, float(gamma))
    opts = replace(options or RunOptions(), batch_size=b)
    diag = sa_path("h-fiem", model, phases, gammas, seed, opts)
    diag.switch_iteration = phases[0][1]
    return diag
