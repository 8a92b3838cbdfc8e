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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedCapabilityError

Array = np.ndarray


@dataclass(frozen=True)
class ModelConstants:
    """Smoothness and curvature constants used by the step-size planners.

    ``v_min``/``v_max`` bracket the spectrum of the curvature matrix ``B(s)``,
    ``lipschitz_i`` are the per-example Lipschitz constants of
    ``s -> sbar_i(T(s))``, ``lipschitz_rms`` their quadratic mean, and
    ``lipschitz_gradv`` is the Lipschitz constant of the objective gradient in
    expectation space.
    """

    v_min: float
    v_max: float
    lipschitz_i: Array
    lipschitz_rms: float
    lipschitz_gradv: float

    def __post_init__(self):
        li = np.asarray(self.lipschitz_i, dtype=float)
        object.__setattr__(self, "lipschitz_i", li)
        if not (0.0 < self.v_min <= self.v_max):
            raise ConfigurationError("need 0 < v_min <= v_max")
        if li.size == 0 or np.any(li <= 0.0):
            raise ConfigurationError("per-example Lipschitz constants must be positive")
        if self.lipschitz_gradv <= 0.0:
            raise ConfigurationError("lipschitz_gradv must be positive")
        msq = float(np.mean(li**2))
        if abs(self.lipschitz_rms**2 - msq) > 1e-12 * max(msq, 1e-300):
            raise ConfigurationError(
                "lipschitz_rms^2 must equal the mean of the squared per-example constants"
            )

    @classmethod
    def uniform(cls, v_min, v_max, lipschitz, lipschitz_gradv, n) -> "ModelConstants":
        """All-equal per-example constants (the toy model's situation)."""
        li = np.full(int(n), float(lipschitz))
        return cls(float(v_min), float(v_max), li, float(lipschitz), float(lipschitz_gradv))


class FiniteSumModel(ABC):
    """Capability interface for finite-sum curved-exponential-family models.

    Implementations are immutable after construction, hold no state that
    depends on the statistic vectors they are given, and are safe to share
    across threads.  ``n`` is the example count and ``q`` the statistic
    dimension.
    """

    n: int
    q: int

    @abstractmethod
    def tmap(self, s: Array):
        """Maximization map ``T(s)``; returns a model-specific parameter."""

    @abstractmethod
    def admissible(self, s: Array) -> None:
        """Raise :class:`DomainError` naming the violated condition if ``s``
        is outside the domain of ``tmap``."""

    @abstractmethod
    def sbar_i(self, theta, i: int) -> Array:
        """Conditional expectation of the statistic for example ``i``."""

    def sbar_rows(self, theta, indices) -> Array:
        """Rows ``sbar_i(theta)`` for ``i`` in ``indices``; shape (b, q)."""
        rows = np.empty((len(indices), self.q))
        for pos, i in enumerate(indices):
            row = np.asarray(self.sbar_i(theta, int(i)), dtype=float)
            if row.shape != (self.q,):
                raise ConfigurationError(
                    f"sbar_i returned shape {row.shape}, expected ({self.q},)"
                )
            rows[pos] = row
        return rows

    def sbar(self, theta) -> Array:
        """Full mean statistic ``n^{-1} sum_i sbar_i(theta)``."""
        return self.sbar_rows(theta, np.arange(self.n)).mean(axis=0)

    def stat_rows(self, s: Array, indices) -> Array:
        """Rows ``sbar_i(T(s))``, the per-example EM images of ``s``."""
        return self.sbar_rows(self.tmap(s), indices)

    def stat_mean(self, s: Array) -> Array:
        """Full EM image ``sbar(T(s))``; costs one pass over the n examples
        unless the model overrides it with a closed form."""
        return self.sbar(self.tmap(s))

    # -- optional capabilities -------------------------------------------

    def objective(self, theta) -> float:
        raise UnsupportedCapabilityError(f"{type(self).__name__} exposes no objective")

    def bmat(self, s: Array) -> Array:
        raise UnsupportedCapabilityError(f"{type(self).__name__} exposes no curvature matrix")

    def constants(self) -> ModelConstants:
        raise UnsupportedCapabilityError(f"{type(self).__name__} exposes no planner constants")


def check_statistic(model: FiniteSumModel, s: Array) -> Array:
    """Validate shape and finiteness of a statistic vector."""
    s = np.asarray(s, dtype=float)
    if s.shape != (model.q,):
        raise DomainError(f"statistic has shape {s.shape}, expected ({model.q},)")
    if not np.all(np.isfinite(s)):
        raise DomainError("statistic has non-finite entries")
    return s


def sbar(model: FiniteSumModel, theta) -> Array:
    """Mean statistic at ``theta`` (deterministic average over all examples)."""
    return model.sbar(theta)


def em_step(model: FiniteSumModel, s: Array) -> Array:
    """One EM iteration in expectation space: ``s -> sbar(T(s))``."""
    model.admissible(s)
    return model.stat_mean(s)


def mean_field(model: FiniteSumModel, s: Array) -> Array:
    """``h(s) = sbar(T(s)) - s``; zero exactly at EM fixed points."""
    model.admissible(s)
    return model.stat_mean(s) - s


def objective_v(model: FiniteSumModel, s: Array) -> float:
    """Objective in expectation space, ``V(s) = F(T(s))``."""
    model.admissible(s)
    return model.objective(model.tmap(s))


def grad_v_fd(model: FiniteSumModel, s: Array, rel_step: float = 1e-5) -> Array:
    """Central finite-difference gradient of ``V`` at ``s``.

    Per-coordinate step ``rel_step * (1 + |s_j|)``; second-order accurate.
    Intended for tests only (2q objective evaluations).
    """
    s = np.asarray(s, dtype=float)
    grad = np.empty_like(s)
    for j in range(s.size):
        hj = rel_step * (1.0 + abs(s[j]))
        up = s.copy()
        dn = s.copy()
        up[j] += hj
        dn[j] -= hj
        grad[j] = (objective_v(model, up) - objective_v(model, dn)) / (2.0 * hj)
    return grad


def gradv_identity_check(model: FiniteSumModel, s: Array, rel_step: float = 1e-5) -> float:
    """Residual of the gradient identity ``grad V(s) = -B(s) h(s)``.

    Returns ``|| grad_fd V(s) + B(s) h(s) ||`` with the gradient taken by
    central differences; used in tests to validate model wiring.
    """
    g = grad_v_fd(model, s, rel_step=rel_step)
    return float(np.linalg.norm(g + model.bmat(s) @ mean_field(model, s)))
