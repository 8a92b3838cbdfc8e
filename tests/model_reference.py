"""References for the tests only: the finite-difference expectation-space
gradient and the toy model's EM fixed point."""
import numpy as np

from fiem.model import mean_field, objective_v


def grad_v_fd(model, s):
    """Central finite-difference gradient of ``V`` at ``s``.

    Per-coordinate step ``1e-5 * (1 + |s_j|)``; second-order accurate, at
    2q objective evaluations.
    """
    s = np.asarray(s, dtype=float)
    grad = np.empty_like(s)
    for j in range(s.size):
        hj = 1e-5 * (1.0 + abs(s[j]))
        up = s.copy()
        dn = s.copy()
        up[j] += hj
        dn[j] -= hj
        grad[j] = (objective_v(model, up) - objective_v(model, dn)) / (2.0 * hj)
    return grad


def gradv_identity_check(model, s) -> float:
    """Residual of the gradient identity ``grad V(s) = -B(s) h(s)``.

    Returns ``|| grad_fd V(s) + B(s) h(s) ||`` with the gradient taken by
    central differences, which validates a model's wiring.
    """
    g = grad_v_fd(model, s)
    return float(np.linalg.norm(g + model.bmat(s) @ mean_field(model, s)))


def em_fixed_point(model):
    """The toy model's s_star, solving (I - Pi2) s_star = Pi1 Ybar."""
    return np.linalg.solve(np.eye(model.q) - model.pi2, model.p1ybar)
