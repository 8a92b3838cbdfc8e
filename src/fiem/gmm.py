"""Gaussian mixture with shared covariance in the expectation space.

The statistic is s = (s1, s2) in R^(g + p g): s1 holds the per-component
masses and block l of s2 the mass-weighted first moments.  The per-example
statistic map sends example i to (rho_i, rho_{i,1} y_i, ..., rho_{i,g} y_i)
where rho_i is the posterior component distribution; updates never
materialize the sparse g(1+p) x g selection matrix behind that layout.

The shared second moment Sigma_star = n^{-1} sum_i y_i y_i' makes the
maximization map cheap:

    alpha_l = s1_l / sum(s1);  mu_l = s2_l / s1_l;
    Sigma   = Sigma_star - sum_l s1_l mu_l mu_l'

Admissibility is tracked through testable proxies of the statistic domain:
non-negative masses and total mass one.  The oracles read a state's
:class:`GmmImage`: T(s), plus the log-densities of all n observations under
it when a full pass asks for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algorithms import MemoryTable, fiem_step, iem_step, online_em_step
from .errors import ConfigurationError, DomainError
from .model import FiniteSumModel, check_statistic
from .rng import STREAM_DATA, as_seed_tree

Array = np.ndarray

MASS_FLOOR = -1e-10          # proxy: component masses may not dip below this
MASS_TOTAL_TOL = 1e-8        # proxy: total mass stays at one
EMPTY_COMPONENT_FLOOR = 1e-12
COV_EIG_FLOOR = -1e-10       # rounding-level indefiniteness is tolerated
ROW_BLOCK = 2048             # rows per density einsum; bounds its (g, p, rows) block


@dataclass(eq=False)
class GmmParams:
    """Mixture parameter: weights, component means, shared covariance."""

    weights: Array
    means: Array        # (g, p)
    cov: Array          # (p, p)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        g = self.weights.size
        if self.means.shape[0] != g or self.means.ndim != 2:
            raise ConfigurationError("means must be a g-by-p matrix")
        p = self.means.shape[1]
        if self.cov.shape != (p, p):
            raise ConfigurationError("covariance must be p-by-p")

    @property
    def g(self) -> int:
        return self.weights.size

    @property
    def p(self) -> int:
        return self.means.shape[1]

    @cached_property
    def _chol(self) -> Array:
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise DomainError("covariance is not positive definite") from exc

    @cached_property
    def _precision(self) -> Array:
        ident = np.eye(self.p)
        l = self._chol
        return np.linalg.solve(l.T, np.linalg.solve(l, ident))

    @cached_property
    def _log_det(self) -> float:
        return 2.0 * float(np.log(np.diag(self._chol)).sum())

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariance": self.cov.tolist(),
        }


@dataclass(eq=False)
class GmmDataset:
    """Finite observations with their second moment, formed on first use."""

    observations: Array

    def __post_init__(self):
        y = np.asarray(self.observations, dtype=float)
        if y.ndim != 2:
            raise ConfigurationError("observations must be an n-by-p matrix")
        bad = np.argwhere(~np.isfinite(y))
        if bad.size:
            i, j = bad[0]
            raise ConfigurationError(f"row {i + 1}, column {j + 1} is {y[i, j]}, not finite")
        self.observations = y

    @cached_property
    def sigma_star(self) -> Array:
        """Sigma_star = n^{-1} sum_i y_i y_i'."""
        y = self.observations
        return y.T @ y / y.shape[0]

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @property
    def p(self) -> int:
        return self.observations.shape[1]


def log_weighted_densities(params: GmmParams, y_rows: Array) -> Array:
    """log(alpha_l) + log N(mu_l, Sigma)[y] for each row and component,
    omitting the p log(2 pi)/2 constant; shape (b, g).

    All g quadratic forms come from one einsum per block of ``ROW_BLOCK``
    rows, which bounds the (g, p, rows) difference block at any n.  That
    block is C-contiguous, and einsum reads it as its (g, rows, p) view, so
    the inner loop runs over the rows at unit stride and adds
    (d_p P_pq) d_q into each row in sequential p-major, q-minor order.  A
    one-row block is evaluated as two rows: numpy sums a lone row's 2x2
    form at p = 2 as (t00 + t01) + (t10 + t11).  A row's bits thus do not
    depend on the batch or block it is evaluated in, and they are those of
    the per-component row-major form at every shape but b <= 2 at p = 2,
    where that form takes the pairwise order; ``tests/test_gmm.py`` pins
    them."""
    b = y_rows.shape[0]
    out = np.empty((b, params.g))
    prec = params._precision
    with np.errstate(divide="ignore"):
        logw = np.log(params.weights)
    shift = (logw - 0.5 * params._log_det)[:, None]
    means = params.means[:, :, None]
    for start in range(0, b, ROW_BLOCK):
        rows = y_rows[start : start + ROW_BLOCK]
        lone = rows.shape[0] == 1
        if lone:
            rows = np.concatenate((rows, rows))
        diff = (np.ascontiguousarray(rows.T) - means).transpose(0, 2, 1)
        quad = np.einsum("gbp,pq,gbq->gb", diff, prec, diff)
        out[start : start + ROW_BLOCK] = (shift - 0.5 * quad)[:, : 1 if lone else None].T
    return out


def _softmax_rows(logd: Array) -> Array:
    shifted = logd - logd.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=1, keepdims=True)


def posterior_rows(params: GmmParams, y_rows: Array) -> Array:
    """Posterior component responsibilities for each row; log-domain softmax."""
    return _softmax_rows(log_weighted_densities(params, y_rows))


def gmm_loglik(params: GmmParams, dataset: GmmDataset) -> float:
    """Normalized log-likelihood n^{-1} sum_i log sum_l alpha_l N(mu_l, Sigma)[y_i],
    with the p log(2 pi)/2 constant omitted."""
    return GmmImage(params, dataset.observations).loglik()


@dataclass(eq=False)
class GmmImage:
    """What the oracles need from a statistic s: the parameter T(s) and, on
    first use, the log-weighted densities of all n observations under it.

    A path forms one image per visited state and drops it after the
    iteration, so one n-row pass serves every full-data consumer of that
    state: a table epoch's log-likelihood, the EM step and a memory table
    initialized there.  A state that none of them reads makes no pass."""

    theta: GmmParams
    observations: Array

    @cached_property
    def log_densities(self) -> Array:
        return log_weighted_densities(self.theta, self.observations)

    def posteriors(self) -> Array:
        return _softmax_rows(self.log_densities)

    def loglik(self) -> float:
        logd = self.log_densities
        m = logd.max(axis=1)
        return float(np.mean(m + np.log(np.exp(logd - m[:, None]).sum(axis=1))))


def gmm_tmap(s: Array, sigma_star: Array, g: int) -> GmmParams:
    """Maximization map; raises :class:`DomainError` on an empty component or
    a genuinely indefinite covariance (rounding-level indefiniteness is
    symmetrized and accepted, never clamped)."""
    p = sigma_star.shape[0]
    s1 = s[:g]
    if np.min(s1) < EMPTY_COMPONENT_FLOOR:
        l = int(np.argmin(s1))
        raise DomainError(f"empty component: mass[{l}] = {s1[l]:.3e} below 1e-12")
    weights = s1 / s1.sum()
    means = s[g:].reshape(g, p) / s1[:, None]
    cov = sigma_star - (means.T * s1) @ means
    cov = 0.5 * (cov + cov.T)
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    if min_eig <= COV_EIG_FLOOR:
        raise DomainError(f"covariance update indefinite: min eigenvalue {min_eig:.3e}")
    return GmmParams(weights, means, cov)


class GmmModel(FiniteSumModel):
    """Finite-sum model wrapper binding a dataset and a component count."""

    def __init__(self, dataset: GmmDataset, g: int):
        if g < 1:
            raise ConfigurationError("need at least one component")
        self.dataset = dataset
        self.g = int(g)
        self.n = dataset.n
        self.p = dataset.p
        self.q = self.g + self.p * self.g

    def tmap(self, s: Array) -> GmmParams:
        return gmm_tmap(s, self.dataset.sigma_star, self.g)

    def admissible(self, s: Array) -> None:
        check_statistic(self, s)
        s1 = s[: self.g]
        if np.min(s1) < MASS_FLOOR:
            l = int(np.argmin(s1))
            raise DomainError(f"component mass {l} is negative: {s1[l]:.3e} < -1e-10")
        total = float(s1.sum())
        if abs(total - 1.0) > MASS_TOTAL_TOL:
            raise DomainError(f"total component mass {total!r} deviates from 1 beyond 1e-8")

    def image(self, s: Array) -> GmmImage:
        return GmmImage(self.tmap(s), self.dataset.observations)

    def _assemble(self, rho: Array, y_rows: Array, out: Array) -> None:
        # statistic rows [rho_i, rho_i1 y_i, ..., rho_ig y_i] written into
        # out without forming the selection matrix or a (b, g, p) temporary
        out[:, : self.g] = rho
        np.multiply(rho[:, :, None], y_rows[:, None, :],
                    out=out[:, self.g :].reshape(rho.shape[0], self.g, self.p))

    def sbar_rows(self, theta: GmmParams, indices) -> Array:
        idx = np.asarray(indices)
        y_rows = self.dataset.observations[idx]
        out = np.empty((idx.size, self.q))
        self._assemble(posterior_rows(theta, y_rows), y_rows, out)
        return out

    def sbar(self, theta: GmmParams) -> Array:
        """Full EM image sbar(theta); one pass over the examples."""
        return self.stat_mean(GmmImage(theta, self.dataset.observations))

    def stat_rows(self, image: GmmImage, indices) -> Array:
        return self.sbar_rows(image.theta, indices)

    def stat_rows_into(self, image: GmmImage, out: Array) -> None:
        self._assemble(image.posteriors(), self.dataset.observations, out)

    def stat_mean(self, image: GmmImage) -> Array:
        y = self.dataset.observations
        rho = image.posteriors()
        out = np.empty(self.q)
        out[: self.g] = rho.mean(axis=0)
        out[self.g :] = (rho.T @ y).reshape(self.g * self.p) / self.n
        return out

    def initial_statistic(self, theta: GmmParams) -> Array:
        """S^0 = n^{-1} sum_i sbar_i(theta^0)."""
        return self.sbar(theta)


# -- mini-batch steps (thin wrappers enforcing the domain proxies) ---------


def gmm_iem_step(model: GmmModel, s: Array, memory: MemoryTable, batch, gamma: float):
    """Incremental step; the domain proxies provably hold and are asserted."""
    s_new, memory = iem_step(model, s, model.image(s), memory, batch, gamma)
    model.admissible(s_new)
    return s_new, memory


def gmm_onlineem_step(model: GmmModel, s: Array, batch, gamma: float):
    """Plain oracle step; returns (state, proxy violation count)."""
    s_new = online_em_step(model, s, model.image(s), batch, gamma)
    return s_new, _count_violation(model, s_new)


def gmm_fiem_step(model: GmmModel, s: Array, memory: MemoryTable, batch_i, batch_j, gamma: float):
    """Variance-reduced step; returns (state, memory, proxy violation count).

    Negative masses are possible (the control variate is signed); one is
    counted here, never clamped, and the next step's T(s) rejects it as an
    empty component.
    """
    s_new, memory = fiem_step(model, s, model.image(s), memory, batch_i, batch_j, gamma)
    return s_new, memory, _count_violation(model, s_new)


def _count_violation(model: GmmModel, s: Array) -> int:
    try:
        model.admissible(s)
    except DomainError:
        return 1
    return 0


# -- data plumbing ---------------------------------------------------------


def preprocess(raw: Array, p_target: int) -> GmmDataset:
    """Drop constant features, center and standardize the rest, then project
    onto the top ``p_target`` principal components of the feature covariance."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("raw data must be an n-by-d matrix")
    if p_target < 1:
        raise ValueError(f"p_target={p_target} must be at least 1")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw data has non-finite entries")
    std = raw.std(axis=0)
    keep = std > 0.0
    kept = raw[:, keep]
    if p_target > kept.shape[1]:
        raise ValueError(
            f"p_target={p_target} exceeds the {kept.shape[1]} non-constant features"
        )
    z = (kept - kept.mean(axis=0)) / kept.std(axis=0)
    cov = z.T @ z / z.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, ::-1][:, :p_target]
    # deterministic sign convention: largest-magnitude loading positive
    flips = np.sign(components[np.argmax(np.abs(components), axis=0), np.arange(p_target)])
    flips[flips == 0.0] = 1.0
    return GmmDataset(z @ (components * flips))


def load_csv_dataset(path) -> GmmDataset:
    """Header-free CSV, one observation per row, finite decimal floats."""
    try:
        return GmmDataset(np.loadtxt(path, delimiter=",", ndmin=2))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def generate_gmm_synthetic(seed, n: int, g: int, p: int, separation: float):
    """Synthetic mixture: simplex weights bounded below by 0.5/g, means on a
    sphere of radius ``separation``, one shared random SPD covariance.
    Returns (dataset, ground-truth parameters)."""
    if g < 1 or p < 1:
        raise ValueError("need g >= 1 and p >= 1")
    if n < g:
        raise ValueError("need at least one observation per component")
    rng = as_seed_tree(seed).stream(STREAM_DATA)
    weights = 0.5 / g + 0.5 * rng.dirichlet(np.ones(g))
    dirs = rng.standard_normal((g, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = rng.uniform(0.5, 1.5, size=p)
    cov = (basis * eigs) @ basis.T
    cov = 0.5 * (cov + cov.T)
    truth = GmmParams(weights, means, cov)
    labels = rng.choice(g, size=n, p=weights)
    noise = rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T
    return GmmDataset(means[labels] + noise), truth


def init_params(dataset: GmmDataset, g: int, seed) -> GmmParams:
    """Perturbed kmeans++-style seeding from data points plus the pooled
    covariance; substitutes for external randomized-initialization schemes."""
    rng = as_seed_tree(seed).stream("init")
    y = dataset.observations
    n = dataset.n
    centers = [y[int(rng.integers(n))]]
    for _ in range(1, g):
        d2 = np.min(
            [np.sum((y - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers.append(y[int(rng.choice(n, p=probs))])
    means = np.array(centers)
    pooled = np.cov(y, rowvar=False, ddof=0)
    pooled = 0.5 * (pooled + pooled.T) + 1e-6 * np.eye(dataset.p)
    scale = np.sqrt(np.mean(np.diag(pooled)))
    means = means + 0.05 * scale * rng.standard_normal(means.shape)
    return GmmParams(np.full(g, 1.0 / g), means, pooled)
