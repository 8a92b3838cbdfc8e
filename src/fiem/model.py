"""Finite-sum model interface and model-generic quantities.

A model represents an objective ``F(theta) = n^{-1} sum_i loss_i(theta) + R(theta)``
whose complete-data likelihood lives in a curved exponential family.  All the
algorithms in this package operate in the *expectation space*: the state is a
statistic vector ``s`` of length ``q``, the per-example conditional
expectations composed with the maximization map are ``stat : s -> sbar_i(T(s))``,
and the mean field ``h(s) = sbar(T(s)) - s`` vanishes exactly at the fixed
points of EM.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import prod

import numpy as np
# the LAPACK gufuncs that np.linalg.cholesky and np.linalg.solve run, without their wrappers
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo, solve as _solve, solve1 as _solve1

from .errors import ConfigurationError, DomainError, UnsupportedCapabilityError

Array = np.ndarray


@dataclass(frozen=True)
class ModelConstants:
    """Smoothness and curvature constants used by the step-size planners.

    ``v_min``/``v_max`` bracket the spectrum of the curvature matrix ``B(s)``,
    ``lipschitz_rms`` is the quadratic mean of the per-example Lipschitz
    constants of ``s -> sbar_i(T(s))``, and ``lipschitz_gradv`` is the
    Lipschitz constant of the objective gradient in expectation space.
    """

    v_min: float
    v_max: float
    lipschitz_rms: float
    lipschitz_gradv: float

    def __post_init__(self):
        if not (0.0 < self.v_min <= self.v_max):
            raise ConfigurationError("need 0 < v_min <= v_max")
        if not (self.lipschitz_rms > 0.0 and self.lipschitz_gradv > 0.0):
            raise ConfigurationError("Lipschitz constants must be positive")


class FiniteSumModel(ABC):
    """Capability interface for finite-sum curved-exponential-family models.

    Implementations are immutable after construction, hold no state that
    depends on the statistic vectors they are given, and are safe to share
    across threads.  ``n`` is the example count and ``q`` the statistic
    dimension.  A model defines ``tmap``, ``admissible`` and ``stat_rows``;
    the algorithms need nothing else.  A memory table stores the codes of
    :meth:`table_codes` (the toy's rows, the mixture's responsibilities),
    reads rows through :meth:`table_rows` and sums through :meth:`row_sums`,
    and every mean of a batch of rows is a :meth:`batch_mean` of its codes.

    The oracles ``stat_rows``, ``stat_rows_into`` and ``stat_mean`` take
    the image ``image(s)`` of a state rather than the state itself, so that
    a path evaluates what they share, such as ``T(s)``, once per visited
    state.  The image is ``s`` unless the model overrides :meth:`image`.

    A model with ``replica_axis`` true also takes R states at once: given
    an (R, q) stack ``S``, ``image(S)`` is the stack of the R images,
    ``stat_rows(image(S), indices)`` takes (R, b) ``indices``, whose row r
    pairs with replica r, and returns (R, b, q) rows, ``table_codes``
    without indices returns (R, n, q), ``stat_mean`` returns (R, q) and ``bmat(S)``
    is a matrix or a stack of them that ``np.matmul`` broadcasts over the
    replicas; ``tmap(S)`` stacks the R parameters and ``objective`` of that
    stack returns R values.  Row r of each result must hold the bits that
    the same call on replica r alone gives, and the oracles raise no
    :class:`DomainError`.  The one SA loop then steps R FIEM replicas as a
    stack (``fiem_replicas``); bound checks take DeltaV on their final states.
    """

    n: int
    q: int
    replica_axis = False

    @abstractmethod
    def tmap(self, s: Array):
        """Maximization map ``T(s)``; returns a model-specific parameter."""

    @abstractmethod
    def admissible(self, s: Array) -> None:
        """Raise :class:`DomainError` naming the violated condition if ``s``
        is outside the domain of ``tmap``."""

    def image(self, s: Array):
        """What the oracles need from the admissible state ``s``; ``s``
        itself unless a model has something to evaluate once per state."""
        return s

    @abstractmethod
    def stat_rows(self, image, indices) -> Array:
        """Rows ``sbar_i(T(s))``, the per-example EM images of the state
        whose image is ``image``, for ``i`` in ``indices``; shape (b, q)."""

    def stat_rows_into(self, image, spans) -> None:
        """The n rows ``sbar_i(T(s))`` laid end to end (n q elements, row
        after row), written span by span: for each ``(out, start)`` that
        ``spans`` yields, elements ``start`` to ``start + out.size`` go into
        the 1-D array ``out``.  ``spans`` may be a generator that reads each
        span before it yields the next, so that a pass over all rows holds
        one span at a time.  By default a span is cut from the rows it
        covers, built by ``stat_rows``; the toy's closed form overrides this."""
        for out, start in spans:
            first, skip = divmod(start, self.q)
            rows = self.stat_rows(image, np.arange(first, -(-(start + out.size) // self.q)))
            out[...] = rows.reshape(-1)[skip:skip + out.size]

    def stat_mean(self, image) -> Array:
        """Full EM image ``sbar(T(s))``, the :meth:`batch_mean` of all n rows;
        costs one pass over the examples unless the model overrides it."""
        everything = np.arange(self.n)
        return self.batch_mean(self.table_codes(image, everything), everything)

    def table_codes(self, image, indices=None) -> Array:
        """The memory table's codes of the examples ``indices`` (all n when
        None), from which :meth:`table_rows` rebuilds each row sbar_i(T(s))
        bit for bit; by default the rows themselves (the toy overrides the
        full table, which it also builds for a stack)."""
        return self.stat_rows(image, np.arange(self.n) if indices is None else indices)

    def table_rows(self, codes, indices) -> Array:
        """The rows of the examples ``indices`` (an index array or a slice)
        rebuilt from ``codes``, an array or a tuple of arrays of one shape;
        by default the codes themselves.  Every read of a row goes here."""
        return codes

    def row_sums(self, codes, indices) -> Array:
        """Sum of the rows that ``codes`` of ``indices`` stand for, (q,) or (R, q), with the
        bits of ``np.add.reduce(rows, axis=-2)``; by default an einsum, in order at q >= 2.
        Every sum of rows, over a batch or over the memory table, goes here."""
        return np.einsum("...nq->...q", self.table_rows(codes, indices))

    def batch_mean(self, codes, indices) -> Array:
        """Mean of the rows that ``codes`` of the (..., b) array ``indices`` stand for, the
        rows' ``mean(axis=-2)`` bit for bit at q >= 2: the one row of :meth:`table_rows`
        at b = 1, else :meth:`row_sums` over b.  Every mean of a batch of rows goes here."""
        b = indices.shape[-1]
        if b == 1:
            return self.table_rows(codes, indices)[..., 0, :]
        return self.row_sums(codes, indices) / b

    # -- optional capabilities -------------------------------------------

    def objective(self, theta) -> float:
        raise UnsupportedCapabilityError(f"{type(self).__name__} exposes no objective")

    def bmat(self, s: Array) -> Array:
        raise UnsupportedCapabilityError(f"{type(self).__name__} exposes no curvature matrix")

    def constants(self) -> ModelConstants:
        raise UnsupportedCapabilityError(f"{type(self).__name__} exposes no planner constants")


def aligned_empty(shape) -> Array:
    """``np.empty(shape)`` whose data starts on a 64-byte boundary, a cache
    line: numpy has no public aligned allocator, so this over-allocates by
    seven elements and returns an offset view.  The n-row passes run about
    10% slower on arrays placed at other offsets."""
    size = prod(shape)
    raw = np.empty(size + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + size].reshape(shape)


def matvecs(mat: Array, vecs: Array) -> Array:
    """``mat @ v`` for the state v or for every row v of a stack, through the
    one-state gemv per row (a gemm or einsum rounds differently)."""
    if vecs.ndim == 1:
        return mat @ vecs
    return np.matmul(mat, vecs[..., None])[..., 0]


def dots(u: Array, v: Array) -> Array:
    """``u @ v`` for two vectors or for every row pair of two broadcast
    stacks, through the one-vector dot per pair (a gemv rounds differently)."""
    if u.ndim == v.ndim == 1:
        return u @ v
    return np.matmul(u[..., None, :], v[..., None])[..., 0, 0]


def cholesky(a: Array) -> Array:
    """The lower Cholesky factor of the float (p, p) matrix ``a``,
    ``np.linalg.cholesky(a)`` bit for bit: the same LAPACK gufunc, without
    the wrapper.  The gufunc flags a failed factorization as an invalid
    value, which becomes the wrapper's :class:`numpy.linalg.LinAlgError`,
    and no warning."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return _cholesky_lo(a)
    except FloatingPointError:
        raise np.linalg.LinAlgError("Matrix is not positive definite") from None


def chol_solve(chol: Array, m: Array) -> Array:
    """``A^{-1} m`` from the lower Cholesky factor ``chol`` of A, as two
    solves, each ``np.linalg.solve`` bit for bit (the same LAPACK gufunc,
    ``solve1`` for a vector ``m``); a singular factor raises the wrapper's
    :class:`numpy.linalg.LinAlgError`, and no warning."""
    solve = _solve1 if m.ndim == 1 else _solve
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return solve(chol.T, solve(chol, m))
    except FloatingPointError:
        raise np.linalg.LinAlgError("Singular matrix") from None


def check_statistic(model: FiniteSumModel, s: Array) -> Array:
    """Validate shape and finiteness of a statistic vector."""
    s = np.asarray(s, dtype=float)
    if s.shape != (model.q,):
        raise DomainError(f"statistic has shape {s.shape}, expected ({model.q},)")
    if not np.isfinite(s).all():
        raise DomainError("statistic has non-finite entries")
    return s


def mean_field(model: FiniteSumModel, s: Array) -> Array:
    """``h(s) = sbar(T(s)) - s``; zero exactly at EM fixed points."""
    model.admissible(s)
    return model.stat_mean(model.image(s)) - s


def objective_v(model: FiniteSumModel, s: Array) -> float:
    """Objective in expectation space, ``V(s) = F(T(s))``."""
    model.admissible(s)
    return model.objective(model.tmap(s))
