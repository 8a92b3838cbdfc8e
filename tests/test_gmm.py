import numpy as np
import pytest

import fiem
from fiem.algorithms import MemoryTable
from fiem.errors import DomainError
from fiem.gmm import (
    GmmDataset,
    GmmModel,
    GmmParams,
    dense_selection_matrix,
    generate_gmm_synthetic,
    gmm_fiem_step,
    gmm_iem_step,
    gmm_loglik,
    gmm_onlineem_step,
    gmm_tmap,
    init_params,
    posterior,
    posterior_rows,
    preprocess,
)


def synthetic(seed=0, n=300, g=3, p=4, sep=3.0):
    ds, truth = generate_gmm_synthetic(seed, n, g, p, sep)
    return GmmModel(ds, g), truth


def naive_posterior(params, y):
    """Plain-density responsibility computation; underflows when it must."""
    dens = np.empty(params.g)
    det = np.linalg.det(params.cov)
    inv = np.linalg.inv(params.cov)
    for l in range(params.g):
        d = y - params.means[l]
        dens[l] = params.weights[l] * np.exp(-0.5 * d @ inv @ d) / np.sqrt(det)
    return dens / dens.sum()


class TestPosterior:
    def test_symmetric_components(self):
        params = GmmParams(np.array([0.5, 0.5]), np.zeros((2, 3)), np.eye(3))
        ds = GmmDataset(np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_allclose(posterior(params, ds, 0), [0.5, 0.5], atol=1e-15)

    def test_single_component(self):
        params = GmmParams(np.ones(1), np.ones((1, 2)), np.eye(2))
        ds = GmmDataset(np.array([[5.0, -7.0]]))
        np.testing.assert_allclose(posterior(params, ds, 0), [1.0])

    def test_log_domain_matches_naive_density(self):
        model, truth = synthetic(seed=1)
        rows = posterior_rows(truth, model.dataset.observations[:40])
        for i in range(40):
            ref = naive_posterior(truth, model.dataset.observations[i])
            np.testing.assert_allclose(rows[i], ref, atol=1e-10)

    def test_stable_under_extreme_separation(self):
        means = np.array([[0.0], [500.0]])
        params = GmmParams(np.array([0.5, 0.5]), means, np.eye(1))
        ds = GmmDataset(np.array([[0.0], [500.0]]))
        rows = posterior_rows(params, ds.observations)
        assert np.all(np.isfinite(rows))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert rows[0, 0] > 1.0 - 1e-12 and rows[1, 1] > 1.0 - 1e-12

    def test_rejects_indefinite_covariance(self):
        params = GmmParams(np.ones(1), np.zeros((1, 2)), -np.eye(2))
        with pytest.raises(DomainError):
            posterior_rows(params, np.zeros((1, 2)))


class TestTmap:
    def test_single_component_closed_form(self):
        model, _ = synthetic(seed=2, g=1, n=100)
        s = np.concatenate([[1.0], model.dataset.observations.mean(axis=0)])
        params = gmm_tmap(s, model.dataset.sigma_star, 1)
        assert params.weights[0] == 1.0
        np.testing.assert_allclose(params.means[0], s[1:], atol=1e-14)
        mu = params.means[0]
        np.testing.assert_allclose(
            params.cov, model.dataset.sigma_star - np.outer(mu, mu), atol=1e-12
        )

    def test_majorize_minimize_descent(self):
        model, truth = synthetic(seed=3)
        theta = init_params(model.dataset, 3, 7)
        f_before = -gmm_loglik(theta, model.dataset)
        s = model.sbar(theta)
        f_after = -gmm_loglik(model.tmap(s), model.dataset)
        assert f_after <= f_before + 1e-12

    def test_round_trip_stays_admissible(self):
        model, truth = synthetic(seed=4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.dirichlet(np.ones(3))
            theta = GmmParams(w, rng.normal(size=(3, 4)), np.eye(4))
            s = model.sbar(theta)
            model.admissible(s)
            s2 = model.sbar(model.tmap(s))
            model.admissible(s2)

    def test_in_place_change_of_state_is_seen(self):
        # regression: tmap once cached its result keyed on the identity of
        # ``s`` and returned the old parameter after an in-place update
        model, _ = synthetic(seed=5, n=60)
        s = model.initial_statistic(init_params(model.dataset, 3, 1))
        before = model.tmap(s).means.copy()
        s[3:] *= 0.5  # halved means keep the covariance positive definite
        after = model.tmap(s).means
        np.testing.assert_array_equal(after, gmm_tmap(s, model.dataset.sigma_star, 3).means)
        assert not np.array_equal(after, before)

    def test_empty_component_error(self):
        model, _ = synthetic(seed=5)
        s = model.initial_statistic(init_params(model.dataset, 3, 1))
        s = s.copy()
        s[0] = 1e-13
        with pytest.raises(DomainError, match="empty component"):
            model.tmap(s)

    def test_indefinite_covariance_error(self):
        # means pushed far out make Sigma_star - sum s1 mu mu' indefinite
        ds = GmmDataset(np.array([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1]]))
        s = np.concatenate([[0.5, 0.5], [10.0, 0.0], [-10.0, 0.0]])
        with pytest.raises(DomainError, match="indefinite"):
            gmm_tmap(s, ds.sigma_star, 2)


class TestLoglik:
    def test_point_at_mean_identity_cov(self):
        params = GmmParams(np.ones(1), np.array([[2.0, -1.0]]), np.eye(2))
        ds = GmmDataset(np.array([[2.0, -1.0]]))
        assert gmm_loglik(params, ds) == pytest.approx(0.0, abs=1e-14)

    def test_against_naive_summation(self):
        model, truth = synthetic(seed=6, n=50, g=3)
        y = model.dataset.observations
        inv = np.linalg.inv(truth.cov)
        _, logdet = np.linalg.slogdet(truth.cov)
        total = 0.0
        for i in range(50):
            acc = 0.0
            for l in range(truth.g):
                d = y[i] - truth.means[l]
                acc += truth.weights[l] * np.exp(-0.5 * logdet - 0.5 * d @ inv @ d)
            total += np.log(acc)
        np.testing.assert_allclose(gmm_loglik(truth, model.dataset), total / 50, rtol=1e-10)


class TestKroneckerStructure:
    def test_rows_match_dense_reference(self):
        model, truth = synthetic(seed=7, n=20)
        theta = init_params(model.dataset, 3, 3)
        rows = model.sbar_rows(theta, np.arange(20))
        for i in range(20):
            a = dense_selection_matrix(model.dataset.observations[i], 3)
            ref = a @ posterior_rows(theta, model.dataset.observations[i : i + 1])[0]
            assert np.abs(rows[i] - ref).max() <= 1e-12

    def test_full_mean_matches_dense_reference(self):
        model, _ = synthetic(seed=8, n=20)
        theta = init_params(model.dataset, 3, 4)
        ref = np.zeros(model.q)
        for i in range(20):
            a = dense_selection_matrix(model.dataset.observations[i], 3)
            ref += a @ posterior_rows(theta, model.dataset.observations[i : i + 1])[0]
        np.testing.assert_allclose(model.sbar(theta), ref / 20, atol=1e-12)


class TestMiniBatchSteps:
    def test_full_batch_unit_step_iem_is_em_epoch(self):
        model, _ = synthetic(seed=9, n=60)
        theta0 = init_params(model.dataset, 3, 5)
        s = model.initial_statistic(theta0)
        memory = MemoryTable.init(model, s)
        out, _ = gmm_iem_step(model, s, memory, np.arange(model.n), 1.0)
        np.testing.assert_allclose(out, model.stat_mean(s), atol=1e-12)

    def test_online_mass_preserved_along_path(self):
        model, _ = synthetic(seed=10, n=120)
        s = model.initial_statistic(init_params(model.dataset, 3, 6))
        rng = np.random.default_rng(1)
        for _ in range(200):
            batch = rng.choice(model.n, size=10, replace=False)
            s, bad = gmm_onlineem_step(model, s, batch, 5e-3)
            assert bad == 0
            assert abs(s[:3].sum() - 1.0) <= 1e-8

    def test_fiem_mass_preserved_and_monitored(self):
        model, _ = synthetic(seed=11, n=120)
        s = model.initial_statistic(init_params(model.dataset, 3, 2))
        memory = MemoryTable.init(model, s)
        rng = np.random.default_rng(2)
        violations = 0
        for _ in range(200):
            bi = rng.integers(0, model.n, size=10)
            bj = rng.integers(0, model.n, size=10)
            s, memory, bad = gmm_fiem_step(model, s, memory, bi, bj, 5e-3)
            violations += bad
            assert abs(s[:3].sum() - 1.0) <= 1e-8
        assert violations == 0

    def test_epoch_accounting(self):
        model, _ = synthetic(seed=12, n=200)
        theta0 = init_params(model.dataset, 3, 8)
        em = fiem.gmm_epoch_path(model, "em", theta0, 1.0, 50, 3, seed=0)
        assert em.iterations == 3 and em.examples_processed == 3 * 200
        iem = fiem.gmm_epoch_path(model, "iem", theta0, 1.0, 50, 3, seed=0)
        assert iem.iterations == 3 * 4 and iem.examples_processed == 3 * 200
        onl = fiem.gmm_epoch_path(model, "online-em", theta0, 5e-2, 50, 3, seed=0)
        assert onl.iterations == 3 * 4 and onl.examples_processed == 3 * 200
        fm = fiem.gmm_epoch_path(model, "fiem", theta0, 5e-2, 50, 3, seed=0)
        assert fm.iterations == 3 * 2 and fm.examples_processed == 3 * 200
        hyb = fiem.gmm_epoch_path(model, "h-fiem", theta0, 5e-2, 50, 4, seed=0, kswitch=1)
        assert hyb.iterations == 4 + 3 * 2 and hyb.examples_processed == 4 * 200

    @pytest.mark.parametrize("algorithm,gamma,batch", [("online-em", 5e-2, 20), ("fiem", 5e-2, 10)])
    def test_epoch_path_shares_the_run_index_streams(self, algorithm, gamma, batch):
        # one epoch of the mixture path draws exactly the batches of run()
        # under the same seed (Online EM at b > 1 draws without replacement)
        model, _ = synthetic(seed=15, n=200)
        theta0 = init_params(model.dataset, 3, 3)
        path = fiem.gmm_epoch_path(model, algorithm, theta0, gamma, batch, 1, seed=7)
        k_max = path.iterations
        diag = fiem.run(
            algorithm, model, fiem.StepSchedule.constant(gamma, k_max),
            fiem.TerminationRule.uniform(k_max), 7,
            fiem.RunOptions(s0=model.initial_statistic(theta0), batch_size=batch,
                            compute_h=False),
        )
        final = model.tmap(diag.s_final)
        np.testing.assert_array_equal(path.final_params.weights, final.weights)
        np.testing.assert_array_equal(path.final_params.means, final.means)
        np.testing.assert_array_equal(path.final_params.cov, final.cov)

    def test_em_monotone_loglik(self):
        model, _ = synthetic(seed=13, n=250)
        path = fiem.gmm_epoch_path(model, "em", init_params(model.dataset, 3, 9),
                                   1.0, 50, 40, seed=0)
        assert np.all(np.diff(path.loglik) >= -1e-9)

    def test_hybrid_reduces_weight_variability(self):
        # matched replicas: per-epoch std of the weight trajectories after the
        # switch should drop below the pure oracle run
        ds, _ = generate_gmm_synthetic(3, n=500, g=3, p=4, separation=3.0)
        model = GmmModel(ds, 3)
        hyb_spread, onl_spread = [], []
        for r in range(3):
            theta0 = init_params(ds, 3, 100 + r)
            hyb = fiem.gmm_epoch_path(model, "h-fiem", theta0, 5e-3, 50, 100,
                                      seed=r, kswitch=6)
            onl = fiem.gmm_epoch_path(model, "online-em", theta0, 5e-3, 50, 100, seed=r)
            window = slice(51, 101)  # well after the switch
            hyb_spread.append(hyb.weights[window].std(axis=0).mean())
            onl_spread.append(onl.weights[window].std(axis=0).mean())
        assert np.mean(hyb_spread) < np.mean(onl_spread)


class TestPreprocess:
    def test_drops_constant_features_and_projects(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(200, 6))
        raw = np.concatenate([base[:, :3], np.full((200, 1), 7.0), base[:, 3:]], axis=1)
        ds = preprocess(raw, 4)
        assert ds.p == 4
        assert ds.n == 200

    def test_white_data_gives_diagonal_covariance(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(5000, 5))
        ds = preprocess(raw, 5)
        cov = np.cov(ds.observations, rowvar=False, ddof=0)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-10

    def test_captured_variance_equals_top_eigenvalues(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(400, 8)) @ rng.normal(size=(8, 8))
        p_target = 3
        ds = preprocess(raw, p_target)
        z = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        eigs = np.sort(np.linalg.eigvalsh(z.T @ z / 400))[::-1]
        total = float(np.sum(ds.observations**2) / 400)
        np.testing.assert_allclose(total, eigs[:p_target].sum(), rtol=1e-10)

    def test_target_dimension_checked(self):
        with pytest.raises(ValueError):
            preprocess(np.ones((10, 3)), 4)  # all-constant features all dropped


class TestSynthetic:
    def test_zero_separation_collapses_means(self):
        ds, truth = generate_gmm_synthetic(1, n=50, g=2, p=3, separation=0.0)
        np.testing.assert_allclose(truth.means, 0.0, atol=1e-14)

    def test_weights_bounded_below(self):
        for seed in range(5):
            _, truth = generate_gmm_synthetic(seed, n=20, g=4, p=2, separation=1.0)
            assert truth.weights.min() >= 0.5 / 4
            assert truth.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_bytes(self):
        a, _ = generate_gmm_synthetic(9, n=100, g=3, p=4, separation=2.0)
        b, _ = generate_gmm_synthetic(9, n=100, g=3, p=4, separation=2.0)
        assert a.observations.tobytes() == b.observations.tobytes()

    def test_em_recovers_well_separated_weights(self):
        ds, truth = generate_gmm_synthetic(2, n=2000, g=3, p=4, separation=8.0)
        model = GmmModel(ds, 3)
        rng = np.random.default_rng(6)
        start = GmmParams(
            truth.weights.copy(),
            truth.means + 0.3 * rng.normal(size=truth.means.shape),
            truth.cov.copy(),
        )
        s = model.initial_statistic(start)
        for _ in range(50):
            s = model.stat_mean(s)
        fitted = model.tmap(s)
        err = np.abs(np.sort(fitted.weights) - np.sort(truth.weights)).max()
        assert err < 0.05

    def test_n_smaller_than_g_rejected(self):
        with pytest.raises(ValueError):
            generate_gmm_synthetic(0, n=2, g=3, p=2, separation=1.0)


class TestParams:
    def test_validate_catches_bad_weights(self):
        params = GmmParams(np.array([0.7, 0.7]), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(DomainError):
            params.validate()

    def test_serialization_round_trip(self):
        _, truth = synthetic(seed=14)
        doc = truth.to_dict()
        back = GmmParams.from_dict(doc)
        np.testing.assert_array_equal(back.weights, truth.weights)
        np.testing.assert_array_equal(back.means, truth.means)
        np.testing.assert_array_equal(back.cov, truth.cov)
