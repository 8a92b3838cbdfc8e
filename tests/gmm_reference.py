"""Reference forms of the mixture statistic, densities and seeding, for the tests only."""
import numpy as np

from fiem.gmm import GmmParams
from fiem.rng import as_seed_tree


def dense_selection_matrix(y, g: int):
    """The (g + p g) x g matrix [I_g ; I_g kron y]: times the responsibility
    vector of y, it gives y's statistic row."""
    p = y.size
    top = np.eye(g)
    bottom = np.kron(np.eye(g), y.reshape(p, 1))
    return np.vstack([top, bottom])


def _log_weighted_densities(params, y_rows, quad):
    out = np.empty((y_rows.shape[0], params.g))
    prec = params._precision
    base = -0.5 * params._log_det
    with np.errstate(divide="ignore"):
        logw = np.log(params.weights)
    for l in range(params.g):
        out[:, l] = logw[l] + base - 0.5 * quad(y_rows - params.means[l], prec)
    return out


def row_major_log_weighted_densities(params, y_rows):
    """``gmm.log_weighted_densities`` with the row-major difference operand
    ``y_rows - means[l]`` fed to the same einsum, component by component."""
    return _log_weighted_densities(
        params, y_rows, lambda diff, prec: np.einsum("bp,pq,bq->b", diff, prec, diff))


def sequential_log_weighted_densities(params, y_rows):
    """The same densities with each quadratic form summed term by term,
    p-major and q-minor: quad += (d_p P_pq) d_q."""
    def quad(diff, prec):
        p = prec.shape[0]
        acc = np.zeros(diff.shape[0])
        for a in range(p):
            for c in range(p):
                acc += (diff[:, a] * prec[a, c]) * diff[:, c]
        return acc

    return _log_weighted_densities(params, y_rows, quad)


class DenseTable:
    """A one-state memory table that keeps the (n, q) statistic rows
    themselves, refreshing its mean as ``rows.mean(axis=0)``: the reference
    that the mixture's table of responsibilities must match bit for bit."""

    def __init__(self, model, image):
        self.n = model.n
        self.rows = model.stat_rows(image, np.arange(model.n))
        self.mean = self.rows.mean(axis=0)
        self.updates = self.refreshes = 0

    def write(self, model, image, batch):
        uniq = np.unique(batch)
        new = model.stat_rows(image, uniq)
        delta = np.add.reduce(new - self.rows[uniq], axis=0)
        self.rows[uniq] = new
        self.mean = self.mean + delta / self.n
        self.updates += uniq.size
        if self.updates >= self.n:
            self.mean = self.rows.mean(axis=0)
            self.updates = 0
            self.refreshes += 1

    def optimal_lambda(self, model, image):
        """opt-FIEM's exact coefficient over the dense rows."""
        diff = self.mean - self.rows
        rows = model.stat_rows(image, np.arange(model.n))
        num = float(np.einsum("nq,nq->", rows, diff)) / model.n
        den = float(np.einsum("nq,nq->", diff, diff)) / model.n
        if den < 1e-14 * (1.0 + float(self.mean @ self.mean)):
            return 1.0
        return -num / den


def all_centers_init_params(dataset, g: int, seed) -> GmmParams:
    """``gmm.init_params`` with each kmeans++ round taking the minimum of the
    squared distances to every earlier center anew, g(g-1)/2 passes in all."""
    rng = as_seed_tree(seed).stream("init")
    y = dataset.observations
    n = dataset.n
    centers = [y[int(rng.integers(n))]]
    for _ in range(1, g):
        d2 = np.min([np.sum((y - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers.append(y[int(rng.choice(n, p=probs))])
    means = np.array(centers)
    pooled = np.cov(y, rowvar=False, ddof=0)
    pooled = 0.5 * (pooled + pooled.T) + 1e-6 * np.eye(dataset.p)
    scale = np.sqrt(np.mean(np.diag(pooled)))
    means = means + 0.05 * scale * rng.standard_normal(means.shape)
    return GmmParams(np.full(g, 1.0 / g), means, pooled)
