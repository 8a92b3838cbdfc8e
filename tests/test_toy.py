import tracemalloc

import numpy as np
import pytest

from fiem.errors import ConfigurationError
from fiem.model import mean_field
from fiem.toy import ToyModel, generate_toy

from model_reference import em_fixed_point, grad_v_fd


def paper_model(seed=0, n=40):
    return generate_toy(seed, n=n)  # y=15, p=10, q=20 defaults


class TestGeneration:
    def test_paper_configuration_shapes(self):
        m = paper_model()
        assert m.a_mat.shape == (15, 10)
        assert m.x_mat.shape == (10, 20)
        assert m.y_obs.shape == (40, 15)
        assert m.upsilon == 0.1
        n_zero = int(np.sum(m.theta_true == 0.0))
        assert n_zero == int(np.floor(0.4 * 20))
        nz = m.theta_true[m.theta_true != 0.0]
        assert np.all(np.abs(nz) <= 5.0)

    def test_observations_center_on_the_model_mean(self):
        m = generate_toy(3, n=20000, dims=(5, 4, 6))
        sd = np.sqrt(np.diag(np.eye(5) + m.a_mat @ m.a_mat.T) / 20000)
        mean = m.a_mat @ m.x_mat @ m.theta_true
        assert np.all(np.abs(m.y_obs.mean(axis=0) - mean) < 4.0 * sd)

    def test_marginal_covariance(self):
        n = 100000
        m = generate_toy(5, n=n, dims=(4, 3, 3))
        target = np.eye(4) + m.a_mat @ m.a_mat.T
        centered = m.y_obs - m.y_obs.mean(axis=0)
        emp = centered.T @ centered / n
        # entrywise sampling error of a Gaussian covariance estimate
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(emp - target) < 3.5 * se)

    def test_column_process_autocorrelation(self):
        m = generate_toy(7, n=1, dims=(30, 400, 3))
        cols = m.a_mat
        num = np.sum(cols[:, :-1] * cols[:, 1:])
        den = np.sum(cols[:, :-1] ** 2)
        assert abs(num / den - 0.8) < 0.1

    def test_deterministic(self):
        a = generate_toy(12, n=10, dims=(4, 3, 3))
        b = generate_toy(12, n=10, dims=(4, 3, 3))
        assert np.array_equal(a.y_obs, b.y_obs)
        assert np.array_equal(a.x_mat, b.x_mat)


class TestThetaStar:
    def test_zero_loading_matrix(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 3))
        y = rng.normal(size=(6, 4))
        m = ToyModel(np.zeros((4, 3)), x, 1.0, y)
        np.testing.assert_allclose(m.theta_star, np.zeros(3), atol=1e-14)

    def test_identity_maps_give_mean(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(8, 3))
        m = ToyModel(np.eye(3), np.eye(3), 0.0, y)
        # theta* = (I (2I)^{-1} I)^{-1} I (2I)^{-1} ybar = ybar
        np.testing.assert_allclose(m.theta_star, y.mean(axis=0), rtol=1e-12)

    def test_minimizes_objective(self):
        m = paper_model(seed=2, n=30)
        f_star = m.objective(m.theta_star)
        rng = np.random.default_rng(2)
        for _ in range(100):
            delta = rng.normal(scale=0.5, size=20)
            assert m.objective(m.theta_star + delta) >= f_star - 1e-12

    def test_rank_check_with_zero_penalty(self):
        rng = np.random.default_rng(3)
        x = np.zeros((3, 4))  # q > p forces rank deficiency
        with pytest.raises(ConfigurationError):
            ToyModel(rng.normal(size=(5, 3)), x, 0.0, rng.normal(size=(4, 5)))


class TestInterface:
    def test_em_step_matches_affine_form(self):
        # the closed-form EM image is the mean of the n affine rows
        m = paper_model(seed=3, n=15)
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = rng.normal(size=m.q)
            np.testing.assert_allclose(
                m.stat_mean(m.image(s)), m.stat_rows(m.image(s), np.arange(m.n)).mean(axis=0),
                rtol=1e-13, atol=1e-13
            )

    def test_fixed_point_solves_linear_system(self):
        m = paper_model(seed=4, n=12)
        s_star = em_fixed_point(m)
        np.testing.assert_allclose(
            (np.eye(m.q) - m.pi2) @ s_star, m.p1ybar, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(m.tmap(s_star), m.theta_star, rtol=1e-8, atol=1e-10)

    def test_lipschitz_constant_bounds_sampled_ratios(self):
        m = paper_model(seed=5, n=10)
        lips = m.constants().lipschitz_rms
        rng = np.random.default_rng(5)
        for _ in range(200):
            s1 = rng.normal(scale=3.0, size=m.q)
            s2 = rng.normal(scale=3.0, size=m.q)
            rows = [m.stat_rows(m.image(s), [3])[0] for s in (s1, s2)]
            num = np.linalg.norm(rows[0] - rows[1])
            den = np.linalg.norm(s1 - s2)
            assert num <= (lips + 1e-9) * den

    def test_gradv_lipschitz_constant_two_ways(self):
        m = paper_model(seed=6, n=10)
        mat = m.tmat @ (m.pi2 - np.eye(m.q))
        # power iteration on the symmetric matrix
        v = np.ones(m.q) / np.sqrt(m.q)
        for _ in range(4000):
            w = mat @ v
            v = w / np.linalg.norm(w)
        power = abs(float(v @ (mat @ v)))
        eig = m.constants().lipschitz_gradv
        assert abs(power - eig) <= 1e-8 * eig

    def test_gradient_is_exactly_minus_b_h(self):
        m = paper_model(seed=7, n=8)
        rng = np.random.default_rng(6)
        for _ in range(5):
            s = rng.normal(size=m.q)
            g = grad_v_fd(m, s)
            target = -m.tmat @ mean_field(m, s)
            assert np.linalg.norm(g - target) <= 1e-6 * (1.0 + np.linalg.norm(g))

    def test_em_contracts_to_fixed_point(self):
        m = paper_model(seed=8, n=10)
        s_star = em_fixed_point(m)
        op_norm = np.linalg.norm(m.pi2, 2)
        s = np.zeros(m.q)
        err = np.linalg.norm(s - s_star)
        for _ in range(400):
            s = m.stat_mean(m.image(s))
            new_err = np.linalg.norm(s - s_star)
            assert new_err <= op_norm * err + 1e-12
            err = new_err
        assert err <= 1e-8 * np.linalg.norm(s_star)


class TestNoStaleState:
    def test_in_place_change_of_state_is_seen(self):
        # regression: the statistic maps once cached their result keyed on
        # the identity of ``s`` and missed in-place updates
        m = paper_model(seed=9, n=12)
        s = np.random.default_rng(7).normal(size=m.q)
        m.stat_mean(m.image(s))
        m.stat_rows(m.image(s), np.arange(3))
        s += 1.0
        np.testing.assert_array_equal(m.stat_mean(m.image(s)), m.p1ybar + m.pi2 @ s)
        np.testing.assert_array_equal(m.stat_rows(m.image(s), np.arange(3)), m.p1y[:3] + m.pi2 @ s)


def _eager_constant(m):
    """The objective's constant as the constructor once formed it eagerly."""
    y_dim = m.a_mat.shape[0]
    chol_y = np.linalg.cholesky(np.eye(y_dim) + m.a_mat @ m.a_mat.T)
    w = np.linalg.solve(chol_y.T, np.linalg.solve(chol_y, m.y_obs.T))
    return 0.5 * float(np.einsum("in,in->", m.y_obs.T, w)) / m.n \
        + float(np.log(np.diag(chol_y)).sum()) + 0.5 * y_dim * np.log(2.0 * np.pi)


class TestLazyObjectiveConstant:
    """The (y, n) solve behind the objective's constant waits for the first
    ``objective`` call, which ``fiem toy`` never makes."""

    def test_construction_forms_no_constant(self):
        assert "_obj_c" not in vars(generate_toy(0, 10_000))

    @pytest.mark.parametrize("n, dims", [(1, (4, 3, 3)), (10, (4, 3, 3)), (100, (15, 10, 20)),
                                         (10_000, (15, 10, 20))])
    def test_objective_keeps_the_eager_bits(self, n, dims):
        lazy, eager = generate_toy(0, n, dims=dims), generate_toy(0, n, dims=dims)
        eager.__dict__["_obj_c"] = _eager_constant(eager)
        thetas = [lazy.theta_star, np.random.default_rng(n).standard_normal(lazy.q)]
        for theta in thetas:
            assert lazy.objective(theta).hex() == eager.objective(theta).hex()
        assert lazy._obj_c.hex() == eager._obj_c.hex()
        assert lazy._obj_c is lazy._obj_c

    def test_generation_holds_no_observation_sized_transient(self):
        # below n (2y + p + q) doubles: the observations, their projected
        # rows and the latent draws, with no (y, n) solve on top; a first
        # call at n = 1 leaves the one-time imports out of the count
        n, (y_dim, p_dim, q_dim) = 10_000, (15, 10, 20)
        generate_toy(0, 1)
        tracemalloc.start()
        try:
            generate_toy(0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (2 * y_dim + p_dim + q_dim) * 8
