"""Gaussian linear latent toy model with closed forms for everything.

Observations Y_i in R^y are generated through a latent Gaussian regression:
Y_i | Z_i ~ N(A Z_i, I) with Z_i ~ N(X theta, I), penalized by
upsilon ||theta||^2 / 2.  Everything the algorithms and planners need is
affine or quadratic:

    T(s)            = (upsilon I + X'X)^{-1} s
    sbar_i(T(s))    = Pi1 Y_i + Pi2 s
    B(s)            = (upsilon I + X'X)^{-1}  (constant)
    grad V(s)       = -B h(s)

so the oracles read the image Pi2 s of a state, the constants v_min, v_max,
L, L_gradV come from eigenvalue problems and the minimizer theta_star is a
linear solve.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .model import FiniteSumModel, ModelConstants, check_statistic
from .rng import STREAM_DATA, as_seed_tree

Array = np.ndarray


def _ar1_matrix(rng: np.random.Generator, rows: int, cols: int, rho: float) -> Array:
    """Columns follow a stationary AR(1): first column sqrt(1-rho^2) N(0, I),
    then col_{j+1} = rho col_j + sqrt(1-rho^2) N(0, I)."""
    scale = np.sqrt(1.0 - rho * rho)
    out = np.empty((rows, cols))
    out[:, 0] = scale * rng.standard_normal(rows)
    for j in range(1, cols):
        out[:, j] = rho * out[:, j - 1] + scale * rng.standard_normal(rows)
    return out


class ToyModel(FiniteSumModel):
    """Fully specified linear-Gaussian model; immutable after construction.
    Its oracles, ``image`` and ``bmat`` accept a leading replica axis."""

    replica_axis = True

    def __init__(self, a_mat: Array, x_mat: Array, upsilon: float, observations: Array):
        a_mat = np.asarray(a_mat, dtype=float)
        x_mat = np.asarray(x_mat, dtype=float)
        y_obs = np.asarray(observations, dtype=float)
        y_dim, p_dim = a_mat.shape
        if x_mat.shape[0] != p_dim:
            raise ConfigurationError("A and X have incompatible inner dimensions")
        q_dim = x_mat.shape[1]
        if y_obs.ndim != 2 or y_obs.shape[1] != y_dim:
            raise ConfigurationError("observations must be an n-by-y matrix")
        if upsilon < 0.0:
            raise ConfigurationError("upsilon must be non-negative")
        if upsilon == 0.0:
            if np.linalg.matrix_rank(x_mat) != min(q_dim, y_dim):
                raise ConfigurationError("with upsilon=0, X must have rank q^y")
            if np.linalg.matrix_rank(a_mat @ x_mat) != min(p_dim, y_dim):
                raise ConfigurationError("with upsilon=0, AX must have rank p^y")

        self.a_mat = a_mat
        self.x_mat = x_mat
        self.upsilon = float(upsilon)
        self.y_obs = y_obs
        self.n = y_obs.shape[0]
        self.q = q_dim

        # latent-space and observation-space Gram matrices, solved via
        # Cholesky factorizations of the two SPD systems
        ata = np.eye(p_dim) + a_mat.T @ a_mat          # I_p + A'A
        chol_p = np.linalg.cholesky(ata)
        solve_p = lambda m: np.linalg.solve(chol_p.T, np.linalg.solve(chol_p, m))
        self.pi1 = x_mat.T @ solve_p(a_mat.T)           # q x y
        self.gram = x_mat.T @ solve_p(x_mat)            # X'(I+A'A)^{-1}X, q x q symmetric

        xtx = x_mat.T @ x_mat
        reg = self.upsilon * np.eye(q_dim) + xtx
        chol_q = np.linalg.cholesky(reg)
        solve_q = lambda m: np.linalg.solve(chol_q.T, np.linalg.solve(chol_q, m))
        self.tmat = solve_q(np.eye(q_dim))              # (upsilon I + X'X)^{-1}
        self.pi2 = self.gram @ self.tmat                # q x q

        self.p1y = y_obs @ self.pi1.T                   # row i = Pi1 Y_i
        self.ybar = y_obs.mean(axis=0)
        self.p1ybar = self.pi1 @ self.ybar

        # objective F(theta) = 0.5 theta' M theta - b' theta + c
        aat = np.eye(y_dim) + a_mat @ a_mat.T
        chol_y = np.linalg.cholesky(aat)
        solve_y = lambda m: np.linalg.solve(chol_y.T, np.linalg.solve(chol_y, m))
        ax = a_mat @ x_mat
        self._obj_m = ax.T @ solve_y(ax) + self.upsilon * np.eye(q_dim)
        self._obj_b = ax.T @ solve_y(self.ybar)
        w = solve_y(y_obs.T)                            # (y, n)
        self._obj_c = 0.5 * float(np.einsum("in,in->", y_obs.T, w)) / self.n \
            + float(np.log(np.diag(chol_y)).sum()) + 0.5 * y_dim * np.log(2.0 * np.pi)

        self.theta_star = np.linalg.solve(self._obj_m, self._obj_b)

        xtx_eigs = np.linalg.eigvalsh(xtx)
        v_min = 1.0 / (self.upsilon + float(xtx_eigs[-1]))
        v_max = 1.0 / (self.upsilon + float(xtx_eigs[0]))
        lips = float(np.linalg.norm(self.pi2, 2))
        # Tmat (Pi2 - I) = Tmat Gram Tmat - Tmat is symmetric, so its spectral
        # radius is an eigvalsh call
        vdot_mat = self.tmat @ self.gram @ self.tmat - self.tmat
        l_gradv = float(np.max(np.abs(np.linalg.eigvalsh(vdot_mat))))
        self._constants = ModelConstants(v_min, v_max, lips, l_gradv)

    # -- model interface --------------------------------------------------

    def tmap(self, s: Array) -> Array:
        return self.tmat @ s

    def admissible(self, s: Array) -> None:
        check_statistic(self, s)

    def image(self, s: Array) -> Array:
        if s.ndim == 1:
            return self.pi2 @ s
        # one gemv per state, as above; a gemm (s @ pi2.T) rounds differently
        return np.matmul(self.pi2, s[..., None])[..., 0]

    def stat_rows(self, image: Array, indices) -> Array:
        # take is the same gather as fancy indexing at about half the fixed cost
        return self.p1y.take(indices, axis=0) + image[..., None, :]

    def stat_rows_into(self, image: Array, out: Array) -> None:
        np.add(self.p1y, image[..., None, :], out=out)

    def stat_mean(self, image: Array) -> Array:
        return self.p1ybar + image

    def objective(self, theta: Array) -> float:
        return 0.5 * float(theta @ self._obj_m @ theta) - float(self._obj_b @ theta) + self._obj_c

    def bmat(self, s: Array) -> Array:
        return self.tmat

    def constants(self) -> ModelConstants:
        return self._constants


def generate_toy(seed, n: int, dims: tuple[int, int, int] = (15, 10, 20)) -> ToyModel:
    """Sample the benchmark problem instance, the one configuration used
    throughout the experiments; only the (y, p, q) shape varies.

    A (y x p) and X (p x q) have stationary AR(1) columns with coefficients
    0.8 and 0.9; theta_true has floor(0.4 q) zero entries, the rest uniform
    on (-5, 5); observations are drawn from the marginal
    N(A X theta_true, I + A A'); the penalty is upsilon = 0.1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    y_dim, p_dim, q_dim = dims
    rng = as_seed_tree(seed).stream(STREAM_DATA)
    a_mat = _ar1_matrix(rng, y_dim, p_dim, 0.8)
    x_mat = _ar1_matrix(rng, p_dim, q_dim, 0.9)

    theta_true = rng.uniform(-5.0, 5.0, size=q_dim)
    n_zero = int(np.floor(0.4 * q_dim))
    zero_idx = rng.permutation(q_dim)[:n_zero]
    theta_true[zero_idx] = 0.0

    z = x_mat @ theta_true + rng.standard_normal((n, p_dim))  # (n, p)
    y = z @ a_mat.T + rng.standard_normal((n, y_dim))

    model = ToyModel(a_mat, x_mat, 0.1, y)
    model.theta_true = theta_true
    return model
