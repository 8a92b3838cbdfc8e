"""Generic engines for EM, incremental EM, Online EM, FIEM, opt-FIEM, h-FIEM.

Single steps are exposed as standalone functions.  :func:`sa_path` is the one
stochastic-approximation loop: it walks a list of (algorithm, iterations)
phases on one state with per-iteration diagnostics under the shared-seed
protocol (dedicated substreams for the memory-update draws "indices-I" and
the oracle draws "indices-J").  :func:`run` is a single phase with a random
termination index.  :func:`fiem_replicas` runs the same loop on an (R, q)
stack of FIEM replicas at one example per draw, bit for bit as :func:`run`
on each.
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
    maintained running mean refreshed from the rows every n updates.

    The rows are (n, q) for one state or (R, n, q) for a stack of R
    replicas, which write one index per replica at a time.  The table takes
    ``rows`` without a copy when it is a float array, and writes it in place."""

    def __init__(self, rows: Array):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim not in (2, 3):
            raise MemoryStateError("memory rows must form an n-by-q matrix or a stack of them")
        self.rows = rows
        self.n = rows.shape[-2]
        self.mean = rows.mean(axis=-2)
        self._updates = 0
        self._scratch = None
        self._replicas = np.arange(rows.shape[0]) if rows.ndim == 3 else None

    @classmethod
    def init(cls, model: FiniteSumModel, image, lead: tuple = ()) -> "MemoryTable":
        """Initialize every row at the current EM image, row i = sbar_i(T(s)),
        from the state's image ``model.image(s)``; ``lead`` is the state's
        leading shape, (R,) for a stack."""
        rows = np.empty(lead + (model.n, model.q))
        model.stat_rows_into(image, rows)
        return cls(rows)

    def _at(self, batch):
        # the row of a one-index batch: batch[0], or batch[r, 0] of replica r
        return batch[0] if self._replicas is None else (self._replicas, batch[:, 0])

    def write(self, model: FiniteSumModel, image, batch) -> None:
        """Replace the rows of ``batch`` (duplicates collapse) by sbar_i(T(s)),
        read from the state's image, and update the running mean incrementally.

        A single index reads and assigns its row as a view; the sum of the
        changes over a one-row batch is that row's change, bit for bit."""
        batch = np.asarray(batch)
        if batch.shape[-1] == 1:
            at = self._at(batch)
            new = model.stat_rows(image, batch)[..., 0, :]
            delta = new - self.rows[at]
            self.rows[at] = new
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
        self.mean = self.rows.mean(axis=-2)
        self._updates = 0

    def scratch(self) -> tuple[Array, Array]:
        """Two work arrays shaped as the rows, owned by the table and allocated
        on first use, so that full passes over the rows allocate nothing."""
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


def _batch(source, k: int, n: int, b: int, replace: bool) -> Array:
    """Batch k of one index stream: drawn by :func:`draw_batch` from a
    generator, or column k of a stack's (R, K) draws, one index per replica."""
    if type(source) is np.ndarray:
        return source[:, k:k + 1]
    return draw_batch(source, n, b, replace)


def row_mean(rows: Array) -> Array:
    """``rows.mean(axis=-2)`` bit for bit (the same sum, then division by the
    row count), without the wrapper overhead of ``ndarray.mean``.  A single
    row is returned as a view, which dividing by 1 leaves unchanged."""
    if rows.shape[-2] == 1:
        return rows[..., 0, :]
    return np.add.reduce(rows, axis=-2) / rows.shape[-2]


def _matvecs(mat: Array, vecs: Array) -> Array:
    """``mat @ v`` for the state v or for every row v of a stack: the stacked
    matmul calls the one-state gemv once per row (a gemm or einsum rounds
    differently)."""
    if vecs.ndim == 1:
        return mat @ vecs
    return np.matmul(mat, vecs[..., None])[..., 0]


def _sq_norms(vecs: Array) -> Array:
    """``v @ v`` for the state v or for every row v of a stack, through the
    one-state dot."""
    if vecs.ndim == 1:
        return vecs @ vecs
    return np.matmul(vecs[..., None, :], vecs[..., None])[..., 0, 0]


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
    batch_j = np.asarray(batch_j)
    rows_j = model.stat_rows(image, batch_j)
    direction = row_mean(rows_j) - s
    if lam != 0.0:
        one = batch_j.shape[-1] == 1
        mem_j = memory.rows[memory._at(batch_j)] if one else row_mean(memory.rows[batch_j])
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
    domain_policy: Optional[str] = None    # None | "warn" (count) | "abort"; T(s) may abort anyway


@dataclass
class RunDiagnostics:
    """Per-iteration records of one path, or of a stack of R replicas.

    Arrays indexed by iteration k cover k = 0 .. K_max-1 at the pre-update
    state; ``theta_err`` gets one extra entry for the final state.  A
    stack's states are (R, q) and its records (K_max, R) in column-major
    order, so that replica r's records are the contiguous column ``[:, r]``.
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
        """Iterations recorded; the benchmark's example count (``perfbench/child.py``) reads it."""
        return len(self.step_sq)


def _step(algorithm, model, s, image, memory, draws, k, b, gamma, smean, forced_lambda):
    """Iteration k of ``algorithm`` from ``s``, whose image is ``image``;
    returns (new state, lambda or None).

    Memory batches are taken from ``draws[0]`` ("indices-I") before oracle
    batches from ``draws[1]`` ("indices-J"), so every algorithm reads the
    same stream positions.  The step functions are looked up as module
    globals at call time (no dispatch table), so a wrapper installed on this
    module sees every call."""
    n = model.n
    if algorithm == "em":
        return smean, None
    if algorithm == "online-em":
        return online_em_step(model, s, image, _batch(draws[1], k, n, b, False), gamma), None
    batch_i = _batch(draws[0], k, n, b, True)
    if algorithm == "iem":
        return iem_step(model, s, image, memory, batch_i, gamma)[0], None
    batch_j = _batch(draws[1], k, n, b, True)
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
    draws = (tree.stream(STREAM_INDICES_I), tree.stream(STREAM_INDICES_J))
    return _path(model, phases, gammas, options, draws, on_phase_end)


def _path(model, phases, gammas, options, draws, on_phase_end=None) -> RunDiagnostics:
    """The loop of :func:`sa_path`, on the state ``options.s0`` when ``draws``
    holds the two index generators, or on a stack of R copies of it when
    ``draws`` holds each stream's (R, K) index draws.  A stack steps every
    row with the operations of one state, records the diagnostics per
    replica and keeps going past a replica whose update is not finite;
    ``theta_ref``, ``domain_policy`` and opt-FIEM are one-state only."""
    k_max = len(gammas)
    s0 = s = np.array(options.s0, dtype=float)
    model.admissible(s)
    stacked = type(draws[0]) is np.ndarray
    if stacked:
        s0 = s = np.tile(s, (len(draws[0]), 1))
    memory = None
    b = int(options.batch_size)
    uses_memory = any(alg in MEMORY_ALGORITHMS and iters for alg, iters in phases)

    def records():
        # entry k is a scalar, or a column of one value per replica
        return np.full((k_max,) + s.shape[:-1], np.nan, order="F")

    h_sq = records() if options.compute_h else None
    cv_sq = records() if (options.compute_e2 and uses_memory) else None
    step_sq = records()
    vdot_sq = records() if options.compute_e0 else None
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
                    memory = MemoryTable.init(model, image, s.shape[:-1])
                for _ in range(iters):
                    smean = model.stat_mean(image) if needs_mean or algorithm == "em" else None
                    if h_sq is not None or vdot_sq is not None:
                        h = smean - s
                    if h_sq is not None:
                        h_sq[k] = _sq_norms(h)
                    if vdot_sq is not None:
                        vdot_sq[k] = _sq_norms(_matvecs(model.bmat(s), h))
                    if theta_err is not None:
                        record_theta(k, s)

                    s_new, lam = _step(algorithm, model, s, image, memory, draws, k, b,
                                       gammas[k], smean, options.forced_lambda)

                    if lam is not None:
                        lambdas[k] = lam
                    if cv_sq is not None and algorithm in MEMORY_ALGORITHMS:
                        cv_sq[k] = _sq_norms(memory.mean - smean)
                    step_sq[k] = sq = _sq_norms(s_new - s)
                    if options.domain_policy is not None:
                        try:
                            model.admissible(s_new)
                        except DomainError as exc:
                            if options.domain_policy == "abort":
                                raise RunAbortError(k, str(exc)) from exc
                            violations += 1
                    if not (stacked or isfinite(sq)):
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

    return RunDiagnostics(terminal_k=None, s0=s0, s_final=s, step_sq=step_sq, h_sq=h_sq,
                          cv_gap_sq=cv_sq, vdot_sq=vdot_sq, lambdas=lambdas,
                          theta_err=theta_err, violations=violations)


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


@dataclass
class ReplicaBlock:
    """Replicas run together by :func:`fiem_replicas`: their termination
    indices and the :class:`RunDiagnostics` of their stack.

    Iterating yields, in replica order, the :class:`RunDiagnostics` of each
    completed replica (its arrays are views into the stack) or the
    (iteration, condition) of its abort: the first iteration whose
    ``||S^{k+1} - S^k||^2`` is not finite.  A block pickles as its few
    arrays, so a pool worker sends back one message of arrays rather than
    one object per replica."""

    terminal_k: list
    stack: RunDiagnostics

    def __iter__(self):
        d = self.stack
        finite = np.isfinite(d.step_sq)
        first_bad = np.argmin(finite, axis=0)
        for r, k in enumerate(first_bad):
            if not finite[k, r]:
                yield int(k), _DIVERGED
                continue
            yield RunDiagnostics(self.terminal_k[r], d.s0[r], d.s_final[r], d.step_sq[:, r], *(
                None if rows is None else rows[:, r] for rows in (d.h_sq, d.cv_gap_sq, d.vdot_sq)))


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

    The loop of :func:`sa_path` runs on an (R, q) stack of states with an
    (R, n, q) memory; the model must accept the replica axis
    (``model.replica_axis``), and ``options`` may not set ``theta_ref`` or
    ``domain_policy``.  Replica r samples its termination index and draws
    all its "indices-I" and "indices-J" indices up front from its own tree
    (``integers(0, n, size=K)`` reads the values of K single draws); the
    draws of all replicas are formed together from their raw Philox outputs
    (:func:`fiem.rng.raw_outputs`, :func:`fiem.rng.index_draws`), bit for
    bit the per-replica generator calls.  A replica whose update is not
    finite is recorded as such and runs on with the others.
    """
    if len(termination) != len(schedule):
        raise ValueError("termination weights must have length K_max")
    k_max, n = len(schedule), model.n
    # Generator.random() is the top 53 bits of one raw output over 2**53
    raw = raw_outputs(tree, children, STREAM_TERMINATION, 1)[:, 0]
    terminal = termination.indices((raw >> 11) * 2.0**-53).tolist()
    draws = (index_draws(tree, children, STREAM_INDICES_I, n, k_max),
             index_draws(tree, children, STREAM_INDICES_J, n, k_max))
    return ReplicaBlock(terminal, _path(model, [("fiem", k_max)], schedule.gammas, options, draws))
