"""Reference forms of the mixture statistic and densities, for the tests only."""
import numpy as np


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
