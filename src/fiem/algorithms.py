"""Generic engines for EM, incremental EM, Online EM, FIEM, opt-FIEM, h-FIEM.

Single steps are exposed as standalone functions.  :func:`sa_path` is the one
stochastic-approximation loop: it walks a list of (algorithm, iterations)
phases on one state with per-iteration diagnostics under the shared-seed
protocol (dedicated substreams for the memory-update draws "indices-I" and
the oracle draws "indices-J").  :func:`run` is a single phase with a random
termination index.  :func:`fiem_replicas` runs FIEM at one example per draw
for many replicas at once, bit for bit as :func:`run` on each.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, MemoryStateError, RunAbortError
from .model import FiniteSumModel
from .rng import (
    STREAM_INDICES_I,
    STREAM_INDICES_J,
    STREAM_TERMINATION,
    SeedTree,
    as_seed_tree,
    index_draws,
    raw_outputs,
)

ALGORITHMS = ("em", "iem", "online-em", "fiem", "opt-fiem")
MEMORY_ALGORITHMS = ("iem", "fiem", "opt-fiem")

Array = np.ndarray

_DIVERGED = "non-finite update ||S^{k+1} - S^k||^2 (diverged)"


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
        if not np.all(w >= 0.0):
            raise ValueError("weights must be non-negative")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        self.weights = w
        # the cumulative distribution as Generator.choice builds it
        self.cdf = w.cumsum()
        self.cdf /= self.cdf[-1]

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, k_max: int) -> "TerminationRule":
        return cls(np.full(int(k_max), 1.0 / int(k_max)))

    def indices(self, u):
        """The index that ``Generator.choice(K, p=weights)`` picks for each
        uniform ``u`` in [0, 1), bit for bit."""
        return self.cdf.searchsorted(u, side="right")

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.indices(rng.random()))


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
        self._scratch = None

    @classmethod
    def init(cls, model: FiniteSumModel, image) -> "MemoryTable":
        """Initialize every row at the current EM image, row i = sbar_i(T(s)),
        from the state's image ``model.image(s)``."""
        rows = np.empty((model.n, model.q))
        model.stat_rows_into(image, rows)
        return cls(rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def write(self, model: FiniteSumModel, image, batch) -> None:
        """Replace the rows of ``batch`` (duplicates collapse) by sbar_i(T(s)),
        read from the state's image, and update the running mean incrementally.

        A single index reads and assigns its row as a view; the sum of the
        changes over a one-row batch is that row's change, bit for bit."""
        batch = np.asarray(batch)
        if batch.size == 1:
            i = batch[0]
            new = model.stat_rows(image, batch)[0]
            delta = new - self.rows[i]
            self.rows[i] = new
            written = 1
        else:
            uniq = np.unique(batch)
            new = model.stat_rows(image, uniq)
            delta = np.add.reduce(new - self.rows[uniq], axis=0)
            self.rows[uniq] = new
            written = uniq.size
        self.mean = self.mean + delta / self.n
        self._updates += written
        if self._updates >= self.n:
            self.refresh()

    def refresh(self) -> None:
        """Recompute the mean from the rows, zeroing accumulated drift."""
        self.mean = self.rows.mean(axis=0)
        self._updates = 0

    def scratch(self) -> tuple[Array, Array]:
        """Two (n, q) work arrays owned by the table, allocated on first use,
        so that full passes over the rows allocate nothing per iteration."""
        if self._scratch is None:
            self._scratch = (np.empty_like(self.rows), np.empty_like(self.rows))
        return self._scratch


def draw_batch(rng: np.random.Generator, n: int, size: int, replace: bool) -> Array:
    """Uniform index batch; single draws use the same generator primitive in
    both modes so that size-1 streams align across algorithms."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if size == 1:
        # a scalar draw reads the same stream position as size=1 at half the cost
        return np.array([rng.integers(0, n)])
    if replace:
        return rng.integers(0, n, size=size)
    return rng.choice(n, size=size, replace=False)


def row_mean(rows: Array) -> Array:
    """``rows.mean(axis=0)`` bit for bit (the same sum, then division by the
    row count), without the wrapper overhead of ``ndarray.mean``.  A single
    row is returned as the view ``rows[0]``, which dividing by 1 leaves
    unchanged."""
    if rows.shape[0] == 1:
        return rows[0]
    return np.add.reduce(rows, axis=0) / rows.shape[0]


# -- single steps ---------------------------------------------------------
# Each step takes the state ``s`` and its image ``model.image(s)``, which
# the oracles read; a path evaluates the image once per visited state.


def online_em_step(model: FiniteSumModel, s: Array, image, batch, gamma: float) -> Array:
    """s + gamma * (mean_{i in batch} sbar_i(T(s)) - s)."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    rows = model.stat_rows(image, batch)
    return s + gamma * (row_mean(rows) - s)


def iem_step(model: FiniteSumModel, s: Array, image, memory: MemoryTable, batch, gamma: float):
    """Memory rows of ``batch`` refreshed at the current state, then
    ``(1-gamma) s + gamma Stilde``. Returns (new state, memory)."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if memory is None:
        raise MemoryStateError("iEM requires an initialized memory table")
    memory.write(model, image, batch)
    return (1.0 - gamma) * s + gamma * memory.mean, memory


def _cv_update(
    model: FiniteSumModel,
    s: Array,
    image,
    memory: MemoryTable,
    batch_j: Array,
    gamma: float,
    lam: float,
) -> Array:
    # SA update with a control variate scaled by lam; lam=0 reproduces the
    # plain oracle step bit-for-bit (the CV term is skipped, not multiplied),
    # and lam=1 adds the CV term unscaled, which 1.0 * x leaves unchanged.
    # A single oracle index reads its memory row as a view.
    rows_j = model.stat_rows(image, batch_j)
    direction = row_mean(rows_j) - s
    if lam != 0.0:
        mem_j = memory.rows[batch_j[0]] if len(batch_j) == 1 else row_mean(memory.rows[batch_j])
        cv = memory.mean - mem_j
        direction = direction + (cv if lam == 1.0 else lam * cv)
    return s + gamma * direction


def fiem_step(
    model: FiniteSumModel,
    s: Array,
    image,
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
    memory.write(model, image, batch_i)
    return _cv_update(model, s, image, memory, batch_j, gamma, 1.0), memory


def opt_fiem_lambda(model: FiniteSumModel, image, memory: MemoryTable) -> float:
    """Optimal control-variate coefficient, exact O(n q) form.

    lambda* = - mean_j <sbar_j(T(s)), Stilde - S_j> / mean_j ||Stilde - S_j||^2
    with the memory rows taken after the current I-update, or 1 (the FIEM
    coefficient) when the denominator is numerically zero.  The rows
    sbar_j(T(s)) come from the state's image; both (n, q) operands are
    written into the table's scratch arrays.
    """
    rows, diff = memory.scratch()
    model.stat_rows_into(image, rows)
    np.subtract(memory.mean, memory.rows, out=diff)
    num = float(np.einsum("nq,nq->", rows, diff)) / model.n
    # stable form of mean_j ||S_j||^2 - ||Stilde||^2
    den = float(np.einsum("nq,nq->", diff, diff)) / model.n
    if den < 1e-14 * (1.0 + float(memory.mean @ memory.mean)):
        return 1.0
    return -num / den


def opt_fiem_step(
    model: FiniteSumModel,
    s: Array,
    image,
    memory: MemoryTable,
    batch_i,
    batch_j,
    gamma: float,
    forced_lambda: Optional[float] = None,
):
    """FIEM step with the control variate scaled by lambda*.

    Returns (new state, memory, lambda used).  ``forced_lambda`` overrides the
    optimal coefficient (0 reproduces Online EM, 1 reproduces FIEM bit for
    bit under identical draws).
    """
    if len(batch_i) == 0 or len(batch_j) == 0:
        raise ValueError("batches must be non-empty")
    if memory is None:
        raise MemoryStateError("opt-FIEM requires an initialized memory table")
    batch_j = np.asarray(batch_j)
    memory.write(model, image, batch_i)
    lam = opt_fiem_lambda(model, image, memory) if forced_lambda is None else float(forced_lambda)
    return _cv_update(model, s, image, memory, batch_j, gamma, lam), memory, lam


# -- full runs ------------------------------------------------------------


@dataclass
class RunOptions:
    """The start and the switches of one :func:`sa_path`; costly diagnostics are opt-in."""

    s0: Array                       # the starting statistic S^0
    batch_size: int = 1
    compute_h: bool = True          # ||h(S^k)||^2 per iteration
    compute_e2: bool = False        # ||Stilde^{k+1} - sbar(T(S^k))||^2 (O(n) for generic models)
    compute_e0: bool = False        # ||B(S^k) h(S^k)||^2 (needs bmat)
    theta_ref: Optional[Array] = None  # track ||T(S^k) - theta_ref|| when set
    forced_lambda: Optional[float] = None  # opt-fiem only
    domain_policy: Optional[str] = None    # None | "warn" | "abort"


@dataclass
class RunDiagnostics:
    """Per-iteration records of one path.

    Arrays indexed by iteration k cover k = 0 .. K_max-1 at the pre-update
    state; ``theta_err`` gets one extra entry for the final state.
    """

    terminal_k: Optional[int]
    s0: Array
    s_final: Array
    step_sq: Array
    h_sq: Optional[Array] = None
    cv_gap_sq: Optional[Array] = None
    vdot_sq: Optional[Array] = None
    lambdas: Optional[Array] = None
    theta_err: Optional[Array] = None
    violations: int = 0

    @property
    def k_max(self) -> int:
        return self.step_sq.size


def _step(algorithm, model, s, image, memory, rng_i, rng_j, b, gamma, smean, forced_lambda):
    """One update of ``algorithm`` from ``s``, whose image is ``image``;
    returns (new state, lambda or None).

    Memory batches are drawn from ``rng_i`` before oracle batches from
    ``rng_j``, so every algorithm reads the same stream positions.  The step
    functions are looked up as module globals at call time (no dispatch
    table), so a wrapper installed on this module sees every call."""
    n = model.n
    if algorithm == "em":
        return smean, None
    if algorithm == "online-em":
        return online_em_step(model, s, image, draw_batch(rng_j, n, b, replace=False), gamma), None
    batch_i = draw_batch(rng_i, n, b, replace=True)
    if algorithm == "iem":
        return iem_step(model, s, image, memory, batch_i, gamma)[0], None
    batch_j = draw_batch(rng_j, n, b, replace=True)
    if algorithm == "fiem":
        return fiem_step(model, s, image, memory, batch_i, batch_j, gamma)[0], None
    s_new, _, lam = opt_fiem_step(model, s, image, memory, batch_i, batch_j, gamma,
                                  forced_lambda=forced_lambda)
    return s_new, lam


def sa_path(
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
    the first memory phase starts, and ``on_phase_end(s, image)`` is called
    after every phase.  The image ``model.image(s)`` of each visited state is
    evaluated once, after the state has passed the checks below, and serves
    that state's diagnostics, memory writes, oracle batches, lambda pass and
    phase-end call; it is dropped with the state, and the final state's image
    is evaluated only for ``on_phase_end``.  The diagnostics switched on in
    ``options`` are recorded at the pre-update state of every iteration;
    ``cv_gap_sq`` and ``lambdas`` read NaN in phases without a control
    variate.  Raises :class:`RunAbortError` on a domain violation (under the
    "abort" policy or inside the model) and at the first iteration whose
    update ``||S^{k+1} - S^k||^2`` is not finite; a diverged path runs no
    further.
    """
    for algorithm, _ in phases:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    k_max = sum(iters for _, iters in phases)
    if len(gammas) != k_max:
        raise ValueError(f"schedule length {len(gammas)} does not match the {k_max} iterations")

    tree = as_seed_tree(seed)
    rng_i = tree.stream(STREAM_INDICES_I)
    rng_j = tree.stream(STREAM_INDICES_J)

    s0 = s = np.array(options.s0, dtype=float)
    model.admissible(s)
    memory = None
    b = int(options.batch_size)
    uses_memory = any(alg in MEMORY_ALGORITHMS and iters for alg, iters in phases)

    h_sq = np.empty(k_max) if options.compute_h else None
    cv_sq = np.full(k_max, np.nan) if (options.compute_e2 and uses_memory) else None
    step_sq = np.empty(k_max)
    vdot_sq = np.empty(k_max) if options.compute_e0 else None
    lambdas = np.full(k_max, np.nan) if any(alg == "opt-fiem" for alg, _ in phases) else None
    theta_err = np.empty(k_max + 1) if options.theta_ref is not None else None
    needs_mean = options.compute_h or cv_sq is not None or options.compute_e0
    violations = 0

    def record_theta(k, s):
        theta_err[k] = float(np.linalg.norm(model.tmap(s) - options.theta_ref))

    k = 0
    # a diverging update overflows before the finiteness check below aborts
    # the path; one errstate for the whole loop keeps numpy from warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            image = model.image(s)
            for algorithm, iters in phases:
                if memory is None and iters and algorithm in MEMORY_ALGORITHMS:
                    memory = MemoryTable.init(model, image)
                for _ in range(iters):
                    smean = model.stat_mean(image) if needs_mean or algorithm == "em" else None
                    if h_sq is not None:
                        hvec = smean - s
                        h_sq[k] = hvec @ hvec
                    if vdot_sq is not None:
                        vdot = model.bmat(s) @ (smean - s)
                        vdot_sq[k] = vdot @ vdot
                    if theta_err is not None:
                        record_theta(k, s)

                    s_new, lam = _step(algorithm, model, s, image, memory, rng_i, rng_j, b,
                                       gammas[k], smean, options.forced_lambda)

                    if lam is not None:
                        lambdas[k] = lam
                    if cv_sq is not None and algorithm in MEMORY_ALGORITHMS:
                        gap = memory.mean - smean
                        cv_sq[k] = gap @ gap
                    delta = s_new - s
                    step_sq[k] = sq = delta @ delta
                    if options.domain_policy is not None:
                        try:
                            model.admissible(s_new)
                        except DomainError as exc:
                            if options.domain_policy == "abort":
                                raise RunAbortError(k, str(exc)) from exc
                            violations += 1
                    if not isfinite(sq):
                        raise RunAbortError(k, _DIVERGED)
                    s = s_new
                    k += 1
                    if k < k_max or on_phase_end is not None:
                        image = model.image(s)
                if on_phase_end is not None:
                    on_phase_end(s, image)
        except DomainError as exc:
            raise RunAbortError(k, str(exc)) from exc
    if theta_err is not None:
        record_theta(k_max, s)

    return RunDiagnostics(
        terminal_k=None,
        s0=s0,
        s_final=s,
        step_sq=step_sq,
        h_sq=h_sq,
        cv_gap_sq=cv_sq,
        vdot_sq=vdot_sq,
        lambdas=lambdas,
        theta_err=theta_err,
        violations=violations,
    )


def run(
    algorithm: str,
    model: FiniteSumModel,
    schedule: StepSchedule,
    termination: TerminationRule,
    seed,
    options: RunOptions,
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
    diag = sa_path(model, [(algorithm, len(schedule))], schedule.gammas, tree, options)
    diag.terminal_k = terminal_k
    return diag


def _matvecs(mat: Array, vecs: Array) -> Array:
    """``mat @ v`` for every row v of ``vecs``: the stacked matmul calls the
    one-state gemv once per row (a gemm or einsum rounds differently)."""
    return np.matmul(mat, vecs[..., None])[..., 0]


def _sq_norms(vecs: Array) -> Array:
    """``v @ v`` for every row v of ``vecs``, through the one-state dot."""
    return np.matmul(vecs[..., None, :], vecs[..., None])[..., 0, 0]


@dataclass
class ReplicaBlock:
    """Replicas run together by :func:`fiem_replicas`, one row per replica.

    Iterating yields, in replica order, the :class:`RunDiagnostics` of each
    completed replica (its arrays are row views) or the (iteration,
    condition) of its abort: the first iteration whose
    ``||S^{k+1} - S^k||^2`` is not finite.  A block pickles as its few
    arrays, so a pool worker sends back one message of arrays rather than
    one object per replica."""

    terminal_k: list
    s0: Array
    s_final: Array                   # (R, q)
    step_sq: Array                   # (R, K_max), as are the diagnostics below
    h_sq: Optional[Array]
    cv_gap_sq: Optional[Array]
    vdot_sq: Optional[Array]

    def __len__(self) -> int:
        return len(self.terminal_k)

    def __iter__(self):
        finite = np.isfinite(self.step_sq)
        first_bad = np.argmin(finite, axis=1)
        for r, k in enumerate(first_bad):
            if not finite[r, k]:
                yield int(k), _DIVERGED
                continue
            diagnostics = {name: None if rows is None else rows[r] for name, rows in (
                ("h_sq", self.h_sq), ("cv_gap_sq", self.cv_gap_sq), ("vdot_sq", self.vdot_sq))}
            yield RunDiagnostics(terminal_k=self.terminal_k[r], s0=self.s0.copy(),
                                 s_final=self.s_final[r], step_sq=self.step_sq[r], **diagnostics)


def fiem_replicas(
    model: FiniteSumModel,
    schedule: StepSchedule,
    termination: TerminationRule,
    tree: SeedTree,
    children: range,
    options: RunOptions,
) -> ReplicaBlock:
    """FIEM at one example per draw for every r of ``children`` at once,
    replica r bit for bit :func:`run` ("fiem", ..., tree.child(r), options).

    The state is an (R, q) array and the memory an (R, n, q) array; the
    model must accept the replica axis (``model.replica_axis``), and
    ``options`` may not set ``theta_ref`` or ``domain_policy``.  Replica r
    samples its termination index and draws all its "indices-I" and
    "indices-J" indices up front from its own tree (``integers(0, n,
    size=K)`` reads the values of K single draws); the draws of all
    replicas are formed together from their raw Philox outputs
    (:func:`fiem.rng.raw_outputs`, :func:`fiem.rng.index_draws`), bit for
    bit the per-replica generator calls.  Every product that BLAS
    rounds is a stacked matmul, which makes the one-state gemv or dot call
    per replica.
    """
    if len(termination) != len(schedule):
        raise ValueError("termination weights must have length K_max")
    k_max, n, replicas = len(schedule), model.n, len(children)
    # Generator.random() is the top 53 bits of one raw output over 2**53
    raw = raw_outputs(tree, children, STREAM_TERMINATION, 1)[:, 0]
    terminal = termination.indices((raw >> 11) * 2.0**-53).tolist()
    draws_i = index_draws(tree, children, STREAM_INDICES_I, n, k_max)
    draws_j = index_draws(tree, children, STREAM_INDICES_J, n, k_max)

    s0 = np.array(options.s0, dtype=float)
    model.admissible(s0)
    s = np.tile(s0, (replicas, 1))
    h_sq = np.empty((replicas, k_max)) if options.compute_h else None
    cv_sq = np.empty((replicas, k_max)) if options.compute_e2 else None
    vdot_sq = np.empty((replicas, k_max)) if options.compute_e0 else None
    step_sq = np.empty((replicas, k_max))
    needs_mean = options.compute_h or options.compute_e2 or options.compute_e0
    every = np.arange(replicas)

    with np.errstate(over="ignore", invalid="ignore"):
        image = model.image(s)
        rows = np.empty((replicas, n, model.q))
        model.stat_rows_into(image, rows)
        mean = rows.mean(axis=1)
        for k in range(k_max):
            if needs_mean:
                smean = model.stat_mean(image)
            if h_sq is not None:
                h_sq[:, k] = _sq_norms(smean - s)
            if vdot_sq is not None:
                vdot_sq[:, k] = _sq_norms(_matvecs(model.bmat(s), smean - s))
            # memory write at I, refreshed from the rows every n writes
            i, j = draws_i[:, k], draws_j[:, k]
            new = model.stat_rows(image, i[:, None])[:, 0]
            delta = new - rows[every, i]
            rows[every, i] = new
            mean = mean + delta / n
            if (k + 1) % n == 0:
                mean = rows.mean(axis=1)
            # oracle at J with the unit-coefficient control variate
            direction = model.stat_rows(image, j[:, None])[:, 0] - s
            direction = direction + (mean - rows[every, j])
            s_new = s + schedule.gammas[k] * direction
            if cv_sq is not None:
                cv_sq[:, k] = _sq_norms(mean - smean)
            step_sq[:, k] = _sq_norms(s_new - s)
            s = s_new
            if k + 1 < k_max:
                image = model.image(s)

    return ReplicaBlock(terminal, s0, s, step_sq, h_sq, cv_sq, vdot_sq)
