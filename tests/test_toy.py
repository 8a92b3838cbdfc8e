import numpy as np
import pytest

import fiem
from fiem.algorithms import MemoryTable
from fiem.errors import ConfigurationError
from fiem.toy import ToyModel


def paper_model(seed=0, n=40):
    return fiem.generate_toy(seed, n=n)  # y=15, p=10, q=20 defaults


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

    def test_full_sparsity_centers_observations(self):
        m = fiem.generate_toy(3, n=20000, dims=(5, 4, 6), sparsity=1.0)
        assert np.all(m.theta_true == 0.0)
        sd = np.sqrt(np.diag(np.eye(5) + m.a_mat @ m.a_mat.T) / 20000)
        assert np.all(np.abs(m.y_obs.mean(axis=0)) < 4.0 * sd)

    def test_marginal_covariance(self):
        n = 100000
        m = fiem.generate_toy(5, n=n, dims=(4, 3, 3))
        target = np.eye(4) + m.a_mat @ m.a_mat.T
        centered = m.y_obs - m.y_obs.mean(axis=0)
        emp = centered.T @ centered / n
        # entrywise sampling error of a Gaussian covariance estimate
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(emp - target) < 3.5 * se)

    def test_column_process_autocorrelation(self):
        m = fiem.generate_toy(7, n=1, dims=(30, 400, 3), rho=0.8)
        cols = m.a_mat
        num = np.sum(cols[:, :-1] * cols[:, 1:])
        den = np.sum(cols[:, :-1] ** 2)
        assert abs(num / den - 0.8) < 0.1

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            fiem.generate_toy(0, n=5, rho=1.0)

    def test_deterministic(self):
        a = fiem.generate_toy(12, n=10, dims=(4, 3, 3))
        b = fiem.generate_toy(12, n=10, dims=(4, 3, 3))
        assert np.array_equal(a.y_obs, b.y_obs)
        assert np.array_equal(a.x_mat, b.x_mat)

    def test_serialization_round_trip(self, tmp_path):
        import json

        m = fiem.generate_toy(13, n=6, dims=(4, 3, 3))
        doc = json.loads(json.dumps(m.to_dict()))
        back = ToyModel.from_dict(doc)
        assert np.array_equal(back.a_mat, m.a_mat)
        assert np.array_equal(back.y_obs, m.y_obs)
        np.testing.assert_allclose(back.theta_star, m.theta_star, rtol=1e-14)
        csv_path = tmp_path / "obs.csv"
        m.save_observations_csv(csv_path)
        loaded = np.loadtxt(csv_path, delimiter=",", ndmin=2)
        np.testing.assert_allclose(loaded, m.y_obs, rtol=1e-15)


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
        m = paper_model(seed=3, n=15)
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = rng.normal(size=m.q)
            np.testing.assert_allclose(
                fiem.em_step(m, s), m.p1ybar + m.pi2 @ s, rtol=1e-13, atol=1e-13
            )

    def test_fixed_point_solves_linear_system(self):
        m = paper_model(seed=4, n=12)
        s_star = m.em_fixed_point()
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
            num = np.linalg.norm(m.stat_rows(s1, [3])[0] - m.stat_rows(s2, [3])[0])
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
            g = fiem.grad_v_fd(m, s)
            target = -m.tmat @ fiem.mean_field(m, s)
            assert np.linalg.norm(g - target) <= 1e-6 * (1.0 + np.linalg.norm(g))

    def test_em_contracts_to_fixed_point(self):
        m = paper_model(seed=8, n=10)
        s_star = m.em_fixed_point()
        op_norm = np.linalg.norm(m.pi2, 2)
        s = np.zeros(m.q)
        err = np.linalg.norm(s - s_star)
        for _ in range(400):
            s = fiem.em_step(m, s)
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
        m.stat_mean(s)
        m.stat_rows(s, np.arange(3))
        s += 1.0
        np.testing.assert_array_equal(m.stat_mean(s), m.p1ybar + m.pi2 @ s)
        np.testing.assert_array_equal(m.stat_rows(s, np.arange(3)), m.p1y[:3] + m.pi2 @ s)
