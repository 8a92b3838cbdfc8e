"""Step-size planners and bound calculators for the variance-reduced runs.

Three constant-step strategies plus a non-uniform-termination plan:

* ``case1``   -- n^(2/3)-complexity: constant step from the scalar equation
  sqrt(C) f_n(C, lambda) = 2 mu v_min L / L_gradV, bound O(n^(2/3)/K_max).
* ``case2``   -- sqrt(n)-complexity: same with f~_n, bound O(n^(1/3)/K_max^(2/3)).
* ``karimi``  -- literature baseline constant step and bound.
* ``nonuniform`` -- per-iteration steps matched to arbitrary positive
  termination weights through the inverse of a quadratic profile.

All scalar equations are monotone on a known bracket, so every solve runs the
one bisection in ``_bisect``; every solved C is verified against its defining
equation to 1e-12 relative before being returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithms import StepSchedule, TerminationRule
from .errors import InfeasiblePlanError
from .model import Array, ModelConstants


@dataclass(frozen=True)
class PlannerInputs:
    """Problem description consumed by every planner."""

    n: int
    k_max: int
    v_min: float
    l_rms: float
    l_gradv: float
    mu: float = 0.25
    lam: float = 0.5

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.k_max < 1:
            raise ValueError("need k_max >= 1")
        for name in ("v_min", "l_rms", "l_gradv"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (0.0 < self.mu < 1.0):
            raise ValueError("mu must lie in (0, 1)")
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lambda must lie in (0, 1)")

    @classmethod
    def from_constants(cls, constants: ModelConstants, n, k_max, **rates):
        """Inputs from a model's constants; ``rates`` may override the
        default ``mu`` and ``lam``."""
        return cls(
            n=int(n),
            k_max=int(k_max),
            v_min=constants.v_min,
            l_rms=constants.lipschitz_rms,
            l_gradv=constants.lipschitz_gradv,
            **rates,
        )


@dataclass
class StepSizePlan:
    """A solved plan: schedule, termination rule, and its bound."""

    strategy: str
    n: int
    mu: Optional[float]
    lam: Optional[float]
    c: Optional[float]
    schedule: StepSchedule
    termination: TerminationRule
    bound_constant: float
    bound_value: float
    violated_condition: Optional[str] = None

    @property
    def k_max(self) -> int:
        return len(self.schedule)

    @property
    def feasible(self) -> bool:
        return self.violated_condition is None

    @property
    def gamma(self) -> float:
        """Constant step size; raises for genuinely non-constant schedules."""
        g = self.schedule.gammas
        if not np.all(g == g[0]):
            raise ValueError("schedule is not constant")
        return float(g[0])

    def to_dict(self) -> dict:
        g = self.schedule.gammas
        gamma = float(g[0]) if np.all(g == g[0]) else [float(x) for x in g]
        doc = {
            "strategy": self.strategy,
            "n": self.n,
            "k_max": self.k_max,
            "mu": self.mu,
            "lambda": self.lam,
            "C": self.c,
            "gamma": gamma,
            "bound_constant": self.bound_constant,
            "bound_value": self.bound_value,
            "feasible": self.feasible,
        }
        if self.violated_condition is not None:
            doc["violated_condition"] = self.violated_condition
        return doc


def _bisect(fn, lo, hi):
    """Bracket of an increasing function's sign change, shrunk from
    [lo, hi] by plain bisection until it collapses.

    Bisection converges unconditionally on a monotone bracket; running to
    interval collapse makes solutions accurate in the argument, not only in
    the residual.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _root(g, lo, hi, scale: float) -> float:
    """Root of an increasing g with g(lo) <= 0 <= g(hi), checked to meet
    |g| <= 1e-12 * scale."""
    if g(lo) > 0.0 or g(hi) < 0.0:
        raise InfeasiblePlanError("root bracket does not enclose a sign change")
    lo, hi = _bisect(g, lo, hi)
    root = 0.5 * (lo + hi)
    if abs(g(root)) > 1e-12 * scale:
        raise InfeasiblePlanError("bisection failed to meet the 1e-12 relative residual")
    return root


def f_n(c: float, lam: float, n: int) -> float:
    """n^(-2/3) + C / (lambda - C n^(-1/3)) * (1/n + 1/(1-lambda))."""
    if c <= 0.0:
        raise ValueError("C must be positive")
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    if n ** (-1.0 / 3.0) >= lam / c:
        raise InfeasiblePlanError("requires n^(-1/3) < lambda / C")
    return n ** (-2.0 / 3.0) + c / (lam - c * n ** (-1.0 / 3.0)) * (1.0 / n + 1.0 / (1.0 - lam))


def f_n_tilde(c: float, lam: float, n: int, k_max: int) -> float:
    """(n K_max)^(-1/3) + C (1/n + 1/(1-lambda))."""
    if c <= 0.0:
        raise ValueError("C must be positive")
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    return (n * k_max) ** (-1.0 / 3.0) + c * (1.0 / n + 1.0 / (1.0 - lam))


def _solve_case1(inputs: PlannerInputs, target: float) -> float:
    # Solve sqrt(C) f_n(C, lambda) = target for C on (0, lambda n^(1/3)); the
    # left side is continuous, increasing, 0+ at 0 and unbounded near the limit.
    if target <= 0.0:
        raise InfeasiblePlanError("target of the step-size equation must be positive")

    def g(c):
        return math.sqrt(c) * f_n(c, inputs.lam, inputs.n) - target

    hi_limit = inputs.lam * inputs.n ** (1.0 / 3.0)
    hi = hi_limit * (1.0 - 1e-3)
    shrink = 0
    while g(hi) < 0.0:
        hi = hi_limit * (1.0 - (1.0 - hi / hi_limit) * 1e-3)
        shrink += 1
        if shrink > 5:
            raise InfeasiblePlanError("no root below the feasibility boundary")
    return _root(g, hi_limit * 1e-300, hi, target)


def solve_c_case1(inputs: PlannerInputs) -> float:
    """Unique C in (0, lambda n^(1/3)) with sqrt(C) f_n(C, lambda) equal to
    2 mu v_min L / L_gradV."""
    return _solve_case1(inputs, 2.0 * inputs.mu * inputs.v_min * inputs.l_rms / inputs.l_gradv)


def c_plus_closed_form(mu: float, v_min: float, l_rms: float, l_gradv: float) -> float:
    """Closed-form upper bound on the lambda = C solution of the case1 equation."""
    a = 2.0 * mu * v_min * l_rms / l_gradv
    return (math.sqrt(1.0 + 4.0 * a * a) - 1.0) / (2.0 * a)


def solve_c_lambda_eq_c(n: int, mu: float, v_min: float, l_rms: float, l_gradv: float) -> float:
    """Unique C in (0, 1) solving sqrt(C) f_n(C, C) = 2 mu v_min L / L_gradV;
    always below :func:`c_plus_closed_form`."""
    target = 2.0 * mu * v_min * l_rms / l_gradv
    return _root(lambda c: math.sqrt(c) * f_n(c, c, n) - target, 1e-300, 1.0 - 1e-16, target)


def gamma_case1(inputs: PlannerInputs, c: float) -> float:
    """Constant step sqrt(C) / (n^(2/3) L)."""
    if c <= 0.0:
        raise ValueError("C must be positive")
    return math.sqrt(c) / (inputs.n ** (2.0 / 3.0) * inputs.l_rms)


def case1_identity_gap(inputs: PlannerInputs, c: float) -> float:
    """Relative gap between the two expressions of the case1 step size,
    sqrt(C)/(n^(2/3) L) and 2 mu v_min / (f_n n^(2/3) L_gradV); zero exactly
    when C solves the defining equation."""
    gamma = gamma_case1(inputs, c)
    dual = (
        2.0 * inputs.mu * inputs.v_min
        / (f_n(c, inputs.lam, inputs.n) * inputs.n ** (2.0 / 3.0) * inputs.l_gradv)
    )
    return abs(gamma - dual) / gamma


def _squared(name: str, value: float) -> float:
    """``value**2``; a square outside the positive finite floats makes the plan infeasible."""
    try:
        if 0.0 < value**2 < math.inf:
            return value**2
    except OverflowError:
        pass
    raise InfeasiblePlanError(f"{name}^2 is not a positive finite float at {name} = {value!r}")


def _bound_constant(inputs: PlannerInputs, fn: float) -> float:
    # B = L_gradV f / (2 mu (1-mu) v_min^2), f = f_n (case1) or f~_n (case2)
    return inputs.l_gradv * fn / (2.0 * inputs.mu * (1.0 - inputs.mu) * _squared("v_min", inputs.v_min))


def bound_case1(inputs: PlannerInputs, c: float):
    """Bound constant B = L_gradV f_n / (2 mu (1-mu) v_min^2) and the bound
    per unit of DeltaV, (n^(2/3)/K_max) * B."""
    bconst = _bound_constant(inputs, f_n(c, inputs.lam, inputs.n))
    return bconst, inputs.n ** (2.0 / 3.0) / inputs.k_max * bconst


def _plan(strategy, inputs, gamma, bconst, bval, c=None, feasible=True, condition=None,
          mu=None, lam=None, weights=None) -> StepSizePlan:
    # without weights: constant step gamma and uniform termination
    if weights is None:
        schedule = StepSchedule.constant(gamma, inputs.k_max)
        termination = TerminationRule.uniform(inputs.k_max)
    else:
        schedule, termination = StepSchedule(gamma), TerminationRule(weights)
    return StepSizePlan(strategy=strategy, n=inputs.n, mu=mu, lam=lam, c=c, schedule=schedule,
                        termination=termination, bound_constant=bconst, bound_value=bval,
                        violated_condition=None if feasible else condition)


def plan_case1(inputs: PlannerInputs) -> StepSizePlan:
    c = solve_c_case1(inputs)
    if case1_identity_gap(inputs, c) > 1e-10:
        raise InfeasiblePlanError("solved C fails the dual step-size identity")
    gamma = gamma_case1(inputs, c)
    bconst, bval = bound_case1(inputs, c)
    return _plan("case1", inputs, gamma, bconst, bval, c, mu=inputs.mu, lam=inputs.lam,
                 feasible=inputs.n > (c / inputs.lam) ** 3, condition="n > (C/lambda)^3")


def solve_case2(inputs: PlannerInputs) -> StepSizePlan:
    """sqrt(n)-complexity plan from sqrt(C) f~_n(C, lambda) = 2 mu v_min L / L_gradV."""
    target = 2.0 * inputs.mu * inputs.v_min * inputs.l_rms / inputs.l_gradv

    def g(c):
        return math.sqrt(c) * f_n_tilde(c, inputs.lam, inputs.n, inputs.k_max) - target

    hi = 1.0
    while g(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise InfeasiblePlanError("case2 equation has no reachable root")
    c = _root(g, 1e-300, hi, target)

    gamma = math.sqrt(c) / (inputs.n ** (1.0 / 3.0) * inputs.k_max ** (1.0 / 3.0) * inputs.l_rms)
    bconst = _bound_constant(inputs, f_n_tilde(c, inputs.lam, inputs.n, inputs.k_max))
    bval = inputs.n ** (1.0 / 3.0) / inputs.k_max ** (2.0 / 3.0) * bconst
    feasible = inputs.n ** (1.0 / 3.0) * inputs.k_max ** (-2.0 / 3.0) <= inputs.lam / c
    return _plan("case2", inputs, gamma, bconst, bval, c, mu=inputs.mu, lam=inputs.lam,
                 feasible=feasible, condition="n^(1/3) K_max^(-2/3) <= lambda/C")


def karimi_plan(inputs: PlannerInputs) -> StepSizePlan:
    """Baseline constant step v_min n^(-2/3) / (max(6, 1+4 v_min) max(L_gradV, L))
    and its bound, with every per-example constant L_i equal to L = ``l_rms``."""
    big_l = max(inputs.l_gradv, inputs.l_rms)
    kappa = max(6.0, 1.0 + 4.0 * inputs.v_min)
    gamma = inputs.v_min * inputs.n ** (-2.0 / 3.0) / (kappa * big_l)
    bconst = _squared("max(6, 1+4 v_min)", kappa) * big_l / _squared("v_min", inputs.v_min)
    return _plan("karimi", inputs, gamma, bconst, inputs.n ** (2.0 / 3.0) / inputs.k_max * bconst)


def _quadratic_profile(inputs: PlannerInputs, fn: float):
    # F(x) = L_gradV / (2 L^2 n^(2/3)) * x * (2 v_min L / L_gradV - x f_n),
    # increasing on (0, x_star] with x_star = v_min L / (L_gradV f_n).
    a = inputs.l_gradv / (2.0 * _squared("L", inputs.l_rms) * inputs.n ** (2.0 / 3.0))

    def profile(x):
        return a * x * (2.0 * inputs.v_min * inputs.l_rms / inputs.l_gradv - x * fn)

    x_star = inputs.v_min * inputs.l_rms / (inputs.l_gradv * fn)
    return profile, x_star


def profile_inverse(inputs: PlannerInputs, fn: float, y: float) -> float:
    """Inverse of the quadratic profile on its increasing branch, by bisection
    run to interval collapse."""
    profile, x_star = _quadratic_profile(inputs, fn)
    if y <= 0.0:
        raise ValueError("profile inverse needs a positive argument")
    if y > profile(x_star) * (1.0 + 1e-12):
        raise ValueError("argument exceeds the profile maximum")
    return _bisect(lambda x: profile(x) - y, 0.0, x_star)[1]


def nonuniform_plan(inputs: PlannerInputs, weights) -> StepSizePlan:
    """Plan for an arbitrary positive termination distribution.

    C solves sqrt(C) f_n(C, lambda) = v_min L / L_gradV (no factor 2 mu); the
    per-iteration steps are the profile inverse of the rescaled weights, and
    the bound is n^(2/3) * max_k p_k * 2 L_gradV f_n / v_min^2.
    """
    p = np.asarray(weights, dtype=float)
    if p.ndim != 1 or p.size != inputs.k_max:
        raise ValueError("weights must have length k_max")
    if not np.all(p > 0.0):
        raise ValueError("all termination weights must be positive")
    if not abs(p.sum() - 1.0) <= 1e-12:
        raise ValueError("weights must sum to 1 within 1e-12")

    c_max = _solve_case1(inputs, inputs.v_min * inputs.l_rms / inputs.l_gradv)
    fn = f_n(c_max, inputs.lam, inputs.n)

    pmax = float(p.max())
    scale = _squared("v_min", inputs.v_min) / (2.0 * inputs.l_gradv * fn * inputs.n ** (2.0 / 3.0))
    _, x_star = _quadratic_profile(inputs, fn)
    gammas = np.empty(inputs.k_max)
    inv_cache: dict[float, float] = {}
    for k in range(inputs.k_max):
        ratio = float(p[k]) / pmax
        if ratio not in inv_cache:
            # the maximal weight maps to the profile vertex sqrt(C) exactly
            inv_cache[ratio] = x_star if ratio == 1.0 else profile_inverse(inputs, fn, ratio * scale)
        gammas[k] = inv_cache[ratio] / (inputs.n ** (2.0 / 3.0) * inputs.l_rms)

    bconst = 2.0 * inputs.l_gradv * fn / _squared("v_min", inputs.v_min)
    return _plan("nonuniform", inputs, gammas, bconst, inputs.n ** (2.0 / 3.0) * pmax * bconst,
                 c_max, lam=inputs.lam, weights=p,
                 feasible=inputs.n > (c_max / inputs.lam) ** 3, condition="n > (C/lambda)^3")


def recommend(epsilon: float, n: int) -> str:
    """Strategy selector: with epsilon = n^(-e), the sqrt(n) strategy wins for
    e < 1/3 and the n^(2/3) strategy otherwise."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if n < 2:
        raise ValueError("need n >= 2")
    e = -math.log(epsilon) / math.log(n)
    return "case2" if e < 1.0 / 3.0 else "case1"


@dataclass(frozen=True)
class Theorem1Coefficients:
    """Per-iteration weights of the master inequality."""

    alphas: Array
    deltas: Array
    lambdas_big: Array
    betas: Array


def theorem1_coeffs(
    schedule: StepSchedule,
    n: int,
    l_rms: float,
    v_min: float,
    l_gradv: float,
    betas=None,
    lam: float = PlannerInputs.lam,
) -> Theorem1Coefficients:
    """Exact evaluation of the master-inequality coefficients.

    alpha_k = gamma_{k+1} v_min - gamma_{k+1}^2 (1 + Lambda_k L^2) L_gradV / 2
    delta_k = gamma_{k+1}^2 (1 + Lambda_k beta_{k+1} L^2 / (1 + beta_{k+1})) L_gradV / 2
    Lambda_k = (1 + 1/beta_{k+1}) sum_{j=k+1}^{K-1} gamma_{j+1}^2
               prod_{l=k+2}^{j} (1 - 1/n + beta_l + gamma_l^2 L^2)
    with Lambda_{K-1} = 0 by convention.  Computed in O(K_max) by a backward
    recursion of the inner sums; the default beta sequence is (1-lambda)/n.
    """
    gammas = schedule.gammas
    k_max = gammas.size
    if betas is None:
        betas = np.full(k_max, (1.0 - lam) / n)
    else:
        betas = np.asarray(betas, dtype=float)
        if betas.shape != (k_max,):
            raise ValueError("betas must have length K_max")
        if np.any(betas <= 0.0):
            raise ValueError("betas must be positive")

    l_sq = l_rms**2
    # weight w_l = 1 - 1/n + beta_l + gamma_l^2 L^2 for l = 1..K_max
    # (index l matches gamma_l = gammas[l-1], beta_l = betas[l-1])
    w = 1.0 - 1.0 / n + betas + gammas**2 * l_sq

    # S_k = sum_{j=k+1}^{K-1} gamma_{j+1}^2 prod_{l=k+2}^{j} w_l,
    # built backwards via S_k = gamma_{k+2}^2 + w_{k+2} S_{k+1}.
    s = np.zeros(k_max)
    for k in range(k_max - 2, -1, -1):
        s[k] = gammas[k + 1] ** 2 + w[k + 1] * s[k + 1]

    lambdas_big = np.zeros(k_max)
    if k_max >= 2:
        lambdas_big[: k_max - 1] = (1.0 + 1.0 / betas[: k_max - 1]) * s[: k_max - 1]

    alphas = gammas * v_min - gammas**2 * (1.0 + lambdas_big * l_sq) * l_gradv / 2.0
    deltas = gammas**2 * (1.0 + lambdas_big * betas * l_sq / (1.0 + betas)) * l_gradv / 2.0
    return Theorem1Coefficients(alphas=alphas, deltas=deltas, lambdas_big=lambdas_big, betas=betas)


def build_plan(strategy: str, inputs: PlannerInputs, weights=None,
               epsilon: float | None = None) -> StepSizePlan:
    """Dispatch helper used by the CLI."""
    if strategy == "auto":
        if epsilon is None:
            raise ValueError("auto strategy requires epsilon")
        strategy = recommend(epsilon, inputs.n)
    if strategy == "case1":
        return plan_case1(inputs)
    if strategy == "case2":
        return solve_case2(inputs)
    if strategy == "karimi":
        return karimi_plan(inputs)
    if strategy == "nonuniform":
        if weights is None:
            raise ValueError("nonuniform strategy requires termination weights")
        return nonuniform_plan(inputs, weights)
    raise ValueError(f"unknown strategy {strategy!r}")
