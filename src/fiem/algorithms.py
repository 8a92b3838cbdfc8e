"""Generic engines for EM, incremental EM, Online EM, FIEM, opt-FIEM, h-FIEM.

Single steps are exposed as standalone functions.  :func:`sa_path` is the one
stochastic-approximation loop: it walks a list of (algorithm, iterations)
phases on one state with per-iteration diagnostics under the shared-seed
protocol (dedicated substreams for the memory-update draws "indices-I" and
the oracle draws "indices-J").  :func:`run` is a single phase.
:func:`fiem_replicas` runs the same loop on an (R, q) stack of FIEM replicas
at one example per draw, bit for bit as :func:`run` on each.  The engines
produce paths only; the index K at which an estimate reads a path is drawn
where it is read (``fiem.experiments.terminal_indices``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import isfinite
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, MemoryStateError, RunAbortError
from .model import Array, FiniteSumModel, aligned_empty, dots, matvecs
from .rng import STREAM_INDICES_I, STREAM_INDICES_J, SeedTree, as_seed_tree, index_draws


@dataclass(frozen=True)
class Algorithm:
    """What an iteration draws, keeps and weighs, the only facts in which the
    methods differ: a ``memory`` table whose rows of a batch from "indices-I"
    it rewrites, an ``oracle`` batch from "indices-J" drawn "with" or
    "without" replacement (None: no oracle), and the control variate's
    ``coefficient``, 1.0 or "optimal" (None: no control variate)."""

    memory: bool
    oracle: Optional[str]
    coefficient: Union[None, float, str]

    def examples(self, n: int, b: int) -> int:
        """Examples per iteration: b per drawn batch, or all n for EM, which draws none."""
        return b * (self.memory + bool(self.oracle)) or n


ALGORITHMS = {
    "em": Algorithm(memory=False, oracle=None, coefficient=None),
    "iem": Algorithm(memory=True, oracle=None, coefficient=None),
    "online-em": Algorithm(memory=False, oracle="without", coefficient=None),
    "fiem": Algorithm(memory=True, oracle="with", coefficient=1.0),
    "opt-fiem": Algorithm(memory=True, oracle="with", coefficient="optimal"),
}

_DIVERGED = "non-finite update ||S^{k+1} - S^k||^2 (diverged)"

# numpy's ufunc buffer size: einsum("nq,nq->") over C-contiguous operands
# sums runs of this many elements and adds the runs' sums left to right
CHUNK = 8192

try:  # what np.einsum runs when not optimizing, without its ~1 us of dispatch per call
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


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

    K is drawn independently of the path, from the "termination" substream
    of the replica's seed tree (:func:`fiem.experiments.terminal_indices`).
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

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, k_max: int) -> "TerminationRule":
        return cls(np.full(int(k_max), 1.0 / int(k_max)))

    def sample(self, rng: np.random.Generator) -> int:
        """K from one uniform of ``rng``, as ``choice(K_max, p=weights)``."""
        return int(rng.choice(self.weights.size, p=self.weights))


class MemoryTable:
    """Per-example store of the last EM images, with an incrementally
    maintained running mean refreshed from the rows every n updates.

    ``rows`` holds one code per example, (n, c) for one state or (R, n, c)
    for a stack of R replicas, which write one index per replica at a time
    through a flat (R n, c) view.  A row read goes through
    ``model.table_rows``, which rebuilds rows from codes bit for bit: the
    toy's codes are its rows, the mixture's its (n, g) responsibilities
    (11x less at gmm-fit, 21x at ``--preset paper``).  ``rows`` is taken
    without a copy when it is a C-contiguous float array.  The
    mean is ``model.row_sums`` over n, the rebuilt rows' ``mean(axis=-2)``
    bit for bit at q >= 2 (no model here has q = 1)."""

    def __init__(self, rows: Array, model: FiniteSumModel):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim not in (2, 3):
            raise MemoryStateError("memory rows must form an n-by-q matrix or a stack of them")
        # the flat views alias the rows only in C order
        self.rows = rows = np.ascontiguousarray(rows)
        self._rows, self._sums = model.table_rows, model.row_sums
        self.n = rows.shape[-2]
        self._flat = rows.reshape(-1, rows.shape[-1])
        # a table whose codes are its rows reads a span of them as a view of one flat array
        head = rows[:0]
        self._elements = rows.reshape(-1) if self._rows(head, slice(0, 0)) is head else None
        self._offsets = np.arange(0, len(self._flat), self.n) if rows.ndim == 3 else None
        self.mean = self._sums(rows, slice(None)) / self.n
        self._updates = 0
        self._scratch = None

    @classmethod
    def init(cls, model: FiniteSumModel, image) -> "MemoryTable":
        """Initialize every row at the current EM image, row i = sbar_i(T(s)),
        from the state's image ``model.image(s)``, or from a stack's."""
        return cls(model.table_codes(image), model)

    def _at(self, batch):
        # the flat index and code of a one-index batch (batch[0], or batch[r, 0] of
        # replica r); a stack gathers by take, fancy indexing's gather but cheaper
        if self._offsets is None:
            return batch[0], self.rows[batch[0]]
        at = self._offsets + batch[:, 0]
        return at, self._flat.take(at, axis=0)

    def codes(self, batch) -> Array:
        """The stored codes of ``batch``, (b, c), or (R, 1, c) for a stack's one index per replica."""
        return self.rows.take(batch, axis=0) if self._offsets is None else self._at(batch)[1][:, None]

    def write(self, model: FiniteSumModel, image, batch) -> None:
        """Replace the rows of ``batch`` (duplicates collapse) by sbar_i(T(s)),
        read from the state's image, and update the running mean incrementally.

        A single index reads and writes its row directly, one per replica; the
        sum of the changes over a one-row batch is that row's change, bit for bit."""
        batch = np.asarray(batch)
        if batch.shape[-1] == 1:
            at, old = self._at(batch)
            new = model.table_codes(image, batch)[..., 0, :]
            new_rows, old_rows = self._rows((new, old), batch[..., 0])
            delta = new_rows - old_rows
            self._flat[at] = new
            written = 1
        elif self._offsets is not None:
            raise ValueError(f"a stack writes one index per replica, not a batch of shape {batch.shape}")
        else:
            # np.unique(batch): sorted, each index once where it differs from its neighbour
            uniq = np.sort(batch)
            keep = np.ones(uniq.size, dtype=bool)
            np.not_equal(uniq[1:], uniq[:-1], out=keep[1:])
            uniq = uniq[keep]
            new = model.table_codes(image, uniq)
            new_rows, old_rows = self._rows((new, self.rows[uniq]), uniq)
            delta = np.add.reduce(new_rows - old_rows, axis=0)
            self.rows[uniq] = new
            written = uniq.size
        self.mean = self.mean + delta / self.n
        self._updates += written
        if self._updates >= self.n:
            self.refresh()

    def refresh(self) -> None:
        """Recompute the mean from the rows, zeroing accumulated drift."""
        self.mean = self._sums(self.rows, slice(None)) / self.n
        self._updates = 0

    def span(self, start: int, width: int) -> Array:
        """Elements ``start`` to ``start + width`` of a one-state table's
        rebuilt rows laid end to end, a view where the codes are the rows."""
        if self._elements is not None:
            return self._elements[start:start + width]
        q = self.mean.shape[-1]
        first, skip = divmod(start, q)
        stop = -(-(start + width) // q)
        return self._rows(self.rows[first:stop], slice(first, stop)).reshape(-1)[skip:skip + width]

    def scratch(self) -> tuple[Array, Array, Array, Array]:
        """The lambda pass's work arrays, owned by the table, allocated on
        first use and each on a 64-byte boundary: two spans of ``CHUNK``
        elements (all n q when fewer), and whole rows that hold the mean
        repeated along a span from any phase, with their flat view."""
        if self._scratch is None:
            q = self.mean.shape[-1]
            width = min(self.n * q, CHUNK)
            means = aligned_empty((-(-(width + q - 1) // q), q))
            self._scratch = (aligned_empty((width,)), aligned_empty((width,)), means, means.reshape(-1))
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


# -- single steps ---------------------------------------------------------
# Each step takes the state ``s`` and its image ``model.image(s)``, which
# the oracles read; a path evaluates the image once per visited state.


def online_em_step(model: FiniteSumModel, s: Array, image, batch, gamma: float) -> Array:
    """s + gamma * (mean_{i in batch} sbar_i(T(s)) - s), the control-variate step at coefficient 0."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    return _cv_update(model, s, image, None, batch, gamma, 0.0)


def iem_step(model: FiniteSumModel, s: Array, image, memory: MemoryTable, batch, gamma: float):
    """Memory rows of ``batch`` refreshed at the current state, then
    ``(1-gamma) s + gamma Stilde``. Returns (new state, memory)."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if memory is None:
        raise MemoryStateError("iEM requires an initialized memory table")
    memory.write(model, image, batch)
    return (1.0 - gamma) * s + gamma * memory.mean, memory


def _cv_update(model: FiniteSumModel, s: Array, image, memory: Optional[MemoryTable],
               batch_j: Array, gamma: float, lam: float) -> Array:
    # SA update with a control variate scaled by lam; lam=0 is the plain
    # oracle step of Online EM (the CV term is skipped, not multiplied), and
    # lam=1 adds the CV term unscaled, which 1.0 * x leaves unchanged.
    batch_j = np.asarray(batch_j)
    direction = model.batch_mean(model.table_codes(image, batch_j), batch_j) - s
    if lam != 0.0:
        cv = memory.mean - model.batch_mean(memory.codes(batch_j), batch_j)
        direction = direction + (cv if lam == 1.0 else lam * cv)
    return s + gamma * direction


def fiem_step(model: FiniteSumModel, s: Array, image, memory: MemoryTable, batch_i, batch_j,
              gamma: float):
    """Variance-reduced step: memory updated with ``batch_i`` and the oracle
    ``batch_j`` corrected by the memory control variate at coefficient 1,
    :func:`opt_fiem_step` at ``forced_lambda=1.0``.  Returns (new state, memory)."""
    if memory is None and len(batch_i) and len(batch_j):  # opt_fiem_step rejects empty batches
        raise MemoryStateError("FIEM requires an initialized memory table")
    return opt_fiem_step(model, s, image, memory, batch_i, batch_j, gamma, forced_lambda=1.0)[:2]


def opt_fiem_lambda(model: FiniteSumModel, image, memory: MemoryTable) -> float:
    """Optimal control-variate coefficient, exact O(n q) form.

    lambda* = - mean_j <sbar_j(T(s)), Stilde - S_j> / mean_j ||Stilde - S_j||^2
    with the memory rows taken after the current I-update, or 1 (the FIEM
    coefficient) when the denominator is numerically zero.

    One pass over the n q elements, ``CHUNK`` at a time into the table's
    scratch: ``model.stat_rows_into`` fills a span of the rows sbar_j(T(s)),
    the mean repeated along it minus the span's memory rows gives the
    differences, and one einsum per sum contracts the span.  Folding the
    spans' sums left to right is how ``einsum("nq,nq->")`` reduces the whole
    arrays, so lambda keeps its bits, while each span stays in cache and
    each add and subtract runs one long inner loop.
    """
    rows, diff, mean_rows, means = memory.scratch()
    q, size = model.q, model.n * model.q
    mean_rows[...] = memory.mean
    num = den = 0.0

    def spans():
        nonlocal num, den
        for start in range(0, size, CHUNK):
            width, phase = min(CHUNK, size - start), start % q
            x, d = rows[:width], diff[:width]
            yield x, start
            np.subtract(means[phase:phase + width], memory.span(start, width), out=d)
            num += _einsum("i,i->", x, d)
            den += _einsum("i,i->", d, d)

    model.stat_rows_into(image, spans())
    num, den = float(num) / model.n, float(den) / model.n
    # den is the stable form of mean_j ||S_j||^2 - ||Stilde||^2
    if den < 1e-14 * (1.0 + float(memory.mean @ memory.mean)):
        return 1.0
    return -num / den


def opt_fiem_step(model: FiniteSumModel, s: Array, image, memory: MemoryTable, batch_i, batch_j,
                  gamma: float, forced_lambda: Optional[float] = None):
    """FIEM step with the control variate scaled by lambda*.

    Returns (new state, memory, lambda used).  ``forced_lambda`` overrides the
    optimal coefficient: 1 is :func:`fiem_step`, and 0 reproduces Online EM
    bit for bit under identical draws.
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
    """Iteration k from ``s``, whose image is ``image``, of the :class:`Algorithm`
    ``algorithm``; returns (new state, lambda or None).  Memory batches come
    from ``draws[0]`` ("indices-I") and oracle batches from ``draws[1]``
    ("indices-J"), so every algorithm reads the same stream positions; a
    method that draws neither steps to the full mean ``smean`` (EM).  The
    step functions are looked up as module globals at call time (no
    dispatch table), so a wrapper installed on this module sees every call."""
    n = model.n
    batch_i = _batch(draws[0], k, n, b, True) if algorithm.memory else None
    batch_j = _batch(draws[1], k, n, b, algorithm.oracle == "with") if algorithm.oracle else None
    if algorithm.coefficient == 1.0:
        return fiem_step(model, s, image, memory, batch_i, batch_j, gamma)[0], None
    if algorithm.coefficient == "optimal":
        s_new, _, lam = opt_fiem_step(model, s, image, memory, batch_i, batch_j, gamma, forced_lambda)
        return s_new, lam
    if algorithm.memory:
        return iem_step(model, s, image, memory, batch_i, gamma)[0], None
    if algorithm.oracle:
        return online_em_step(model, s, image, batch_j, gamma), None
    return smean, None


def sa_path(model: FiniteSumModel, phases, gammas: Array, seed, options: RunOptions,
            on_phase_end: Optional[Callable] = None) -> RunDiagnostics:
    """The stochastic-approximation loop ``s <- s + gamma (S_hat - s)``.

    Walks ``phases``, a list of ``(algorithm, iterations)`` with each name a
    key of :data:`ALGORITHMS`, on one state; iteration k of the whole path
    uses ``gammas[k]``.  Each phase steps as its :class:`Algorithm` record
    says: memory batches are drawn with replacement from "indices-I", oracle
    batches from "indices-J" with or without replacement (Online EM draws
    without).  The memory table is initialized from the current state when
    the first memory phase starts, and ``on_phase_end(s, image)`` is called
    after every phase.  The image ``model.image(s)`` of each visited state is
    evaluated once, after the state has passed the checks below, and serves
    that state's diagnostics, memory writes, oracle batches, lambda pass and
    phase-end call; it is dropped with the state, and the final state's image
    is evaluated only for ``on_phase_end``.  The diagnostics switched on in
    ``options`` are recorded at the pre-update state of every iteration;
    ``cv_gap_sq`` reads NaN in phases without a memory table, ``lambdas``
    in phases without the optimal coefficient.  Raises
    :class:`RunAbortError` on a domain violation (under the "abort" policy
    or inside the model) and at the first iteration whose update
    ``||S^{k+1} - S^k||^2`` is not finite; a diverged path runs no further.
    """
    for algorithm, _ in phases:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {tuple(ALGORITHMS)}")
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
    phases = [(ALGORITHMS[alg], iters) for alg, iters in phases]
    uses_memory = any(alg.memory and iters for alg, iters in phases)

    def records():
        # entry k is a scalar, or a column of one value per replica
        return np.full((k_max,) + s.shape[:-1], np.nan, order="F")

    h_sq = records() if options.compute_h else None
    cv_sq = records() if (options.compute_e2 and uses_memory) else None
    step_sq = records()
    vdot_sq = records() if options.compute_e0 else None
    lambdas = np.full(k_max, np.nan) if any(alg.coefficient == "optimal" for alg, _ in phases) else None
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
                if memory is None and iters and algorithm.memory:
                    memory = MemoryTable.init(model, image)
                full = not (algorithm.memory or algorithm.oracle)  # EM steps to the full mean
                for _ in range(iters):
                    smean = model.stat_mean(image) if needs_mean or full else None
                    if h_sq is not None or vdot_sq is not None:
                        h = smean - s
                    if h_sq is not None:
                        h_sq[k] = dots(h, h)
                    if vdot_sq is not None:
                        bh = matvecs(model.bmat(s), h)
                        vdot_sq[k] = dots(bh, bh)
                    if theta_err is not None:
                        record_theta(k, s)

                    s_new, lam = _step(algorithm, model, s, image, memory, draws, k, b,
                                       gammas[k], smean, options.forced_lambda)

                    if lam is not None:
                        lambdas[k] = lam
                    if cv_sq is not None and algorithm.memory:
                        gap = memory.mean - smean
                        cv_sq[k] = dots(gap, gap)
                    step = s_new - s
                    step_sq[k] = sq = dots(step, step)
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

    return RunDiagnostics(s0=s0, s_final=s, step_sq=step_sq, h_sq=h_sq,
                          cv_gap_sq=cv_sq, vdot_sq=vdot_sq, lambdas=lambdas,
                          theta_err=theta_err, violations=violations)


def run(algorithm: str, model: FiniteSumModel, schedule: StepSchedule, seed,
        options: RunOptions) -> RunDiagnostics:
    """Execute K_max iterations of the chosen algorithm and record diagnostics.

    A single :func:`sa_path` phase.  Two algorithms run with the same seed see
    identical index streams position by position, which is the protocol
    behind all same-seed comparisons.
    """
    return sa_path(model, [(algorithm, len(schedule))], schedule.gammas, seed, options)


@dataclass
class ReplicaBlock:
    """The :class:`RunDiagnostics` of a stack of replicas run together by
    :func:`fiem_replicas`.

    Iterating yields, in replica order, the :class:`RunDiagnostics` of each
    completed replica (its arrays are views into the stack) or the
    (iteration, condition) of its abort: the first iteration whose
    ``||S^{k+1} - S^k||^2`` is not finite.  A block pickles as its few
    arrays, so a pool worker sends back one message of arrays rather than
    one object per replica."""

    stack: RunDiagnostics

    def __iter__(self):
        d = self.stack
        finite = np.isfinite(d.step_sq)
        columns = zip(d.s0, d.s_final, *(
            repeat(None) if rows is None else rows.T
            for rows in (d.step_sq, d.h_sq, d.cv_gap_sq, d.vdot_sq)))
        for k, done, fields in zip(finite.argmin(axis=0).tolist(), finite.all(axis=0).tolist(), columns):
            yield RunDiagnostics(*fields) if done else (k, _DIVERGED)


def fiem_replicas(
    model: FiniteSumModel,
    schedule: StepSchedule,
    tree: SeedTree,
    children: range,
    options: RunOptions,
) -> ReplicaBlock:
    """FIEM at one example per draw for every r of ``children`` at once,
    replica r bit for bit :func:`run` ("fiem", ..., tree.child(r), options).

    The loop of :func:`sa_path` runs on an (R, q) stack of states with an
    (R, n, q) memory; the model must accept the replica axis
    (``model.replica_axis``), and ``options`` may not set ``theta_ref`` or
    ``domain_policy``.  Replica r draws all its "indices-I" and "indices-J"
    indices up front from its own tree (``integers(0, n, size=K)`` reads the
    values of K single draws); the draws of all replicas are formed together
    from their raw Philox outputs (:func:`fiem.rng.index_draws`), bit for bit
    the per-replica generator calls.  A replica whose update is not finite
    is recorded as such and runs on with the others.
    """
    k_max, n = len(schedule), model.n
    draws = (index_draws(tree, children, STREAM_INDICES_I, n, k_max),
             index_draws(tree, children, STREAM_INDICES_J, n, k_max))
    return ReplicaBlock(_path(model, [("fiem", k_max)], schedule.gammas, options, draws))
