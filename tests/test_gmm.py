import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fiem.gmm
from fiem.algorithms import (MemoryTable, RunOptions, StepSchedule, _cv_update, opt_fiem_lambda,
                             row_mean, run, sa_path)
from fiem.errors import ConfigurationError, DomainError, RunAbortError
from fiem.experiments import gmm_epoch_path
from fiem.gmm import (
    ROW_BLOCK,
    GmmDataset,
    GmmModel,
    GmmParams,
    generate_gmm_synthetic,
    gmm_fiem_step,
    gmm_iem_step,
    gmm_loglik,
    gmm_onlineem_step,
    gmm_tmap,
    init_params,
    load_csv_dataset,
    log_weighted_densities,
    posterior_rows,
    preprocess,
)
from fiem.model import chol_solve, cholesky

from gmm_reference import (
    DenseTable,
    all_centers_init_params,
    dense_selection_matrix,
    row_major_log_weighted_densities,
    sequential_log_weighted_densities,
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
        np.testing.assert_allclose(posterior_rows(params, ds.observations[0:1])[0], [0.5, 0.5],
                                   atol=1e-15)

    def test_single_component(self):
        params = GmmParams(np.ones(1), np.ones((1, 2)), np.eye(2))
        ds = GmmDataset(np.array([[5.0, -7.0]]))
        np.testing.assert_allclose(posterior_rows(params, ds.observations[0:1])[0], [1.0])

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


def random_mixture(seed, b, p, g):
    """b rows and a g-component mixture whose precision is the production
    Cholesky solve, which is not exactly symmetric."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    params = GmmParams(rng.dirichlet(np.ones(g)), 2.0 * rng.standard_normal((g, p)),
                       a @ a.T / p + 0.5 * np.eye(p))
    return params, 3.0 * rng.standard_normal((b, p))


class TestDensityKernelBits:
    """The one-einsum density kernel rounds exactly as the per-component
    row-major form.

    A numpy whose einsum sums the quadratic form in another order fails here.
    """

    @given(b=st.integers(1, 300), p=st.integers(1, 24), g=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(b=2, p=2, g=3, seed=0)
    @example(b=1, p=2, g=3, seed=0)
    def test_matches_the_row_major_form(self, b, p, g, seed):
        params, y = random_mixture(seed, b, p, g)
        got = log_weighted_densities(params, y)
        assert got.flags.c_contiguous
        # at p = 2 and b <= 2 numpy sums the row-major operand's 2x2 block as
        # (t00 + t01) + (t10 + t11); the kernel keeps the sequential p-major
        # order there, as at every other shape
        reference = (sequential_log_weighted_densities if p == 2 and b <= 2
                     else row_major_log_weighted_densities)
        assert got.tobytes() == reference(params, y).tobytes()

    def test_a_lone_last_block_rounds_as_in_a_longer_batch(self):
        # the last block holds one row, which the kernel evaluates as two
        params, y = random_mixture(1, ROW_BLOCK + 1, 2, 3)
        reference = row_major_log_weighted_densities(params, y)
        assert log_weighted_densities(params, y).tobytes() == reference.tobytes()

    def test_matches_the_row_major_form_at_gmm_fit_scale(self):
        # 20,000 rows span ten row blocks and run einsum through more than
        # one 8192-element buffer
        dataset, _ = generate_gmm_synthetic(0, 20000, 5, 10, 3.0)
        params = init_params(dataset, 5, 0)
        assert not np.array_equal(params._precision, params._precision.T)
        got = log_weighted_densities(params, dataset.observations)
        assert got.flags.c_contiguous
        reference = row_major_log_weighted_densities(params, dataset.observations)
        assert got.tobytes() == reference.tobytes()

    @given(b=st.integers(1, 300), p=st.integers(1, 24), g=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(b=50, p=2, g=3, seed=0)
    def test_rows_do_not_depend_on_their_batch(self, b, p, g, seed):
        params, y = random_mixture(seed, b, p, g)
        rows = posterior_rows(params, y)
        for i in range(b):
            assert rows[i].tobytes() == posterior_rows(params, y[i : i + 1])[0].tobytes()


def hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


def spd(seed, p):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    return a @ a.T / p + 0.1 * np.eye(p)


def ill_conditioned(p=10):
    basis, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((p, p)))
    cov = (basis * np.logspace(-10, 2, p)) @ basis.T
    return 0.5 * (cov + cov.T)


def pivoting():
    # a factor whose off-diagonal entries exceed its diagonal, so gesv swaps rows
    chol = np.array([[0.1, 0.0, 0.0], [5.0, 0.2, 0.0], [3.0, 4.0, 0.05]])
    return chol @ chol.T


COVARIANCES = {**{f"spd-p{p}": spd(p, p) for p in (1, 2, 3, 10, 20)},
               "ill-conditioned": ill_conditioned(), "pivoting": pivoting()}


class TestLapackRoute:
    """Each state's factor, precision, log-det and density shift reach LAPACK
    through the gufuncs that ``np.linalg`` runs, bit for bit its public calls."""

    @pytest.mark.parametrize("name", list(COVARIANCES))
    def test_params_match_the_public_calls(self, name):
        cov = COVARIANCES[name]
        p = cov.shape[0]
        weights = np.random.default_rng(p).dirichlet(np.ones(4))
        weights[1] = 0.0  # a zero weight has a -inf shift
        params = GmmParams(weights, np.zeros((4, p)), cov)
        chol = np.linalg.cholesky(cov)
        precision = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(p)))
        log_det = 2.0 * float(np.log(np.diag(chol)).sum())
        with np.errstate(divide="ignore"):
            shift = (np.log(weights) - 0.5 * log_det)[:, None]
        assert hexes(params._chol) == hexes(chol)
        assert hexes(params._precision) == hexes(precision)
        assert params._log_det.hex() == log_det.hex()
        assert params._shift.shape == shift.shape and hexes(params._shift) == hexes(shift)

    def test_the_pivoting_factor_pivots(self):
        # gesv's partial pivoting takes the largest entry of the first column
        chol = np.linalg.cholesky(pivoting())
        assert np.abs(chol[1:, 0]).max() > 10.0 * chol[0, 0]

    @pytest.mark.parametrize("name", list(COVARIANCES))
    @pytest.mark.parametrize("rhs", ["vector", "matrix"])
    def test_chol_solve_matches_two_public_solves(self, name, rhs):
        cov = COVARIANCES[name]
        p = cov.shape[0]
        rng = np.random.default_rng(p)
        m = rng.standard_normal(p) if rhs == "vector" else rng.standard_normal((p, 3))
        chol = np.linalg.cholesky(cov)
        got = chol_solve(chol, m)
        assert got.shape == m.shape
        assert hexes(got) == hexes(np.linalg.solve(chol.T, np.linalg.solve(chol, m)))

    @pytest.mark.parametrize("cov", [-np.eye(2), np.zeros((2, 2))], ids=["indefinite", "singular"])
    def test_cholesky_fails_as_the_public_call_does(self, cov):
        for factor in (np.linalg.cholesky, cholesky):
            with pytest.raises(np.linalg.LinAlgError, match="Matrix is not positive definite"):
                factor(cov)

    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
    def test_a_non_finite_covariance_factors_as_the_public_call_does(self, a, b):
        # whether LAPACK fails on a NaN depends on its build (OpenBLAS returns
        # NaN rows); the two routes agree either way, and neither warns
        cov = np.array([[a, b], [b, 1.0]])

        def outcome(factor):
            try:
                return hexes(factor(cov))
            except np.linalg.LinAlgError as exc:
                return str(exc)

        assert outcome(cholesky) == outcome(np.linalg.cholesky)

    def test_a_singular_factor_fails_as_the_public_solve_does(self):
        chol = np.array([[1.0, 0.0], [2.0, 0.0]])
        for solve, m in [(np.linalg.solve, np.eye(2)), (chol_solve, np.eye(2)), (chol_solve, np.ones(2))]:
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                solve(chol, m)


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
        s = model.sbar(init_params(model.dataset, 3, 1))
        before = model.tmap(s).means.copy()
        s[3:] *= 0.5  # halved means keep the covariance positive definite
        after = model.tmap(s).means
        np.testing.assert_array_equal(after, gmm_tmap(s, model.dataset.sigma_star, 3).means)
        assert not np.array_equal(after, before)

    def test_empty_component_error(self):
        model, _ = synthetic(seed=5)
        s = model.sbar(init_params(model.dataset, 3, 1))
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

    def test_singular_covariance_error(self):
        # every row at one point: Sigma_star - mu mu' is exactly 0, which has
        # no Cholesky factor, so no density could be evaluated under it
        ds = GmmDataset(np.tile([1.0, 2.0], (4, 1)))
        with pytest.raises(DomainError, match="indefinite"):
            gmm_tmap(np.array([1.0, 1.0, 2.0]), ds.sigma_star, 1)


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


class TestEvaluationCounts:
    """A path evaluates T(s) once per visited state and shares each n-row
    density pass among the full-data consumers of its state."""

    @pytest.mark.parametrize("algorithm,gamma,kswitch", [
        ("em", 1.0, 0), ("iem", 1.0, 0), ("online-em", 5e-2, 0), ("fiem", 5e-2, 0),
        ("h-fiem", 5e-2, 2),
    ])
    def test_one_tmap_per_state_and_shared_density_passes(self, monkeypatch, algorithm,
                                                          gamma, kswitch):
        model, _ = synthetic(seed=16, n=120)
        s0 = model.sbar(init_params(model.dataset, 3, 4))
        epochs = 4
        tmaps, passes = [], []

        def counting_tmap(s, sigma_star, g):
            tmaps.append(1)
            return gmm_tmap(s, sigma_star, g)

        def counting_densities(params, y_rows):
            passes.append(y_rows.shape[0] == model.n)
            return log_weighted_densities(params, y_rows)

        monkeypatch.setattr(fiem.gmm, "gmm_tmap", counting_tmap)
        monkeypatch.setattr(fiem.gmm, "log_weighted_densities", counting_densities)
        path = gmm_epoch_path(model, algorithm, s0, gamma, 10, epochs, seed=2,
                              kswitch=kswitch)
        # S^0 .. S^K, each once: the epoch ends and the final parameter
        # read the images the path evaluated
        assert len(tmaps) == path.iterations + 1
        assert sum(passes) <= epochs + 2
        # T(S) at every epoch end, the log-likelihood at table epoch 1 only
        assert path.weights.shape == (epochs + 1, 3) and len(path.params) == epochs
        assert path.loglik.shape == (1,)

    @pytest.mark.parametrize("algorithm,gamma,kswitch,expected", [
        ("em", 1.0, 0, 16), ("iem", 1.0, 0, 3), ("online-em", 5e-3, 0, 2),
        ("fiem", 5e-2, 0, 3), ("h-fiem", 5e-2, 2, 3),
    ])
    def test_loglik_passes_only_at_table_epochs(self, monkeypatch, algorithm, gamma, kswitch,
                                                expected):
        # 16 epochs reach the table epochs 1 and 15: n-row passes are one per
        # table epoch, plus EM's steps and the memory init at S^0 (iEM,
        # FIEM) or at the switch (h-FIEM); a table epoch's pass also serves
        # the EM step or memory init of the same state
        model, _ = synthetic(seed=16, n=120)
        s0 = model.sbar(init_params(model.dataset, 3, 4))
        tmaps, passes = [], []

        def counting_tmap(s, sigma_star, g):
            tmaps.append(1)
            return gmm_tmap(s, sigma_star, g)

        def counting_densities(params, y_rows):
            passes.append(y_rows.shape[0] == model.n)
            return log_weighted_densities(params, y_rows)

        monkeypatch.setattr(fiem.gmm, "gmm_tmap", counting_tmap)
        monkeypatch.setattr(fiem.gmm, "log_weighted_densities", counting_densities)
        path = gmm_epoch_path(model, algorithm, s0, gamma, 10, 16, seed=2, kswitch=kswitch)
        assert len(tmaps) == path.iterations + 1
        assert sum(passes) == expected
        assert path.loglik.shape == (2,) and len(path.params) == 16

    @pytest.mark.parametrize("algorithm", ["em", "online-em", "h-fiem"])
    def test_each_visited_covariance_is_factored_once(self, monkeypatch, algorithm):
        # T(s) checks its covariance by the Cholesky factor that every
        # density under it reuses; no eigenvalue pass
        model, _ = synthetic(seed=16, n=120)
        s0 = model.sbar(init_params(model.dataset, 3, 4))
        factored = []
        cholesky = fiem.gmm.cholesky
        monkeypatch.setattr(fiem.gmm, "cholesky", lambda a: factored.append(1) or cholesky(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        path = gmm_epoch_path(model, algorithm, s0, 5e-2, 10, 3, seed=2, kswitch=1)
        assert len(factored) == path.iterations + 1

    @pytest.mark.parametrize("algorithm", ["em", "online-em", "h-fiem"])
    def test_no_visited_state_calls_the_numpy_linalg_wrappers(self, monkeypatch, algorithm):
        # the factor and the precision go to LAPACK through fiem.model, not
        # through np.linalg.cholesky and np.linalg.solve
        model, _ = synthetic(seed=16, n=120)
        s0 = model.sbar(init_params(model.dataset, 3, 4))

        def wrapper(*args, **kwargs):
            raise AssertionError("a numpy.linalg wrapper was called")

        monkeypatch.setattr(np.linalg, "cholesky", wrapper)
        monkeypatch.setattr(np.linalg, "solve", wrapper)
        path = gmm_epoch_path(model, algorithm, s0, 5e-2, 10, 3, seed=2, kswitch=1)
        assert len(path.params) == 3


class TestResponsibilityTable:
    """The mixture's memory table stores the (n, g) responsibilities and
    rebuilds its statistic rows from them, bit for bit as a dense (n, q)
    table of the rows."""

    @staticmethod
    def em_states(model, count=8):
        states = [model.sbar(init_params(model.dataset, model.g, 3))]
        while len(states) < count:
            states.append(model.stat_mean(model.image(states[-1])))
        return states

    def test_matches_the_dense_table_bit_for_bit(self):
        # writes of one index and of 100 with repeats, across several refreshes
        model, _ = synthetic(seed=21, n=400)
        states = self.em_states(model)
        images = [model.image(s) for s in states]
        table, dense = MemoryTable.init(model, images[0]), DenseTable(model, images[0])
        assert table.rows.shape == (model.n, model.g)
        rng = np.random.default_rng(4)
        repeats = 0
        for k in range(40):
            s, image = states[k % len(states)], images[k % len(states)]
            batch = rng.integers(0, model.n, size=1 if k % 2 else 100)
            repeats += batch.size - np.unique(batch).size
            table.write(model, image, batch)
            dense.write(model, image, batch)
            assert table.mean.tobytes() == dense.mean.tobytes()
            rebuilt = model.table_rows(table.rows, np.arange(model.n))
            assert rebuilt.tobytes() == dense.rows.tobytes()
            for j in (batch[:1], rng.integers(0, model.n, size=100)):
                oracle = row_mean(model.stat_rows(image, j))
                want = s + 0.05 * ((oracle - s) + (dense.mean - row_mean(dense.rows[j])))
                assert _cv_update(model, s, image, table, j, 0.05, 1.0).tobytes() == want.tobytes()
        assert dense.refreshes >= 2 and repeats > 0

    def test_holds_responsibilities_not_rows(self):
        # init, writes and a refresh at the gmm-fit shape never form the
        # (n, q) rows: half their bytes bounds the traced peak, and an eighth
        # of the table's own bytes bounds a refresh, a contraction of the codes
        n, p, g = 20_000, 10, 5
        model, _ = synthetic(seed=0, n=n, g=g, p=p)
        images = [model.image(s) for s in self.em_states(model, 3)]
        images[0].log_densities     # the path's own density pass, which EM shares
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            table = MemoryTable.init(model, images[0])
            for k in range(4):
                table.write(model, images[1 + k % 2], rng.integers(0, n, size=100))
            table.refresh()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.rows.nbytes == n * g * 8
        assert peak < n * model.q * 8 / 2
        tracemalloc.start()
        try:
            table.refresh()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * g * 8 / 8
        # a refresh through the contraction still reads rows.mean(axis=0)
        rebuilt = model.table_rows(table.rows, np.arange(n))
        assert table.mean.tobytes() == rebuilt.mean(axis=0).tobytes()

    @pytest.mark.parametrize("n, g, p", [(200, 2, 2), (3001, 3, 5), (20_000, 5, 10),
                                         (60_000, 12, 20), (5000, 4, 1), (500, 1, 3),
                                         (500, 1, 1)])
    def test_row_sums_add_the_rebuilt_rows(self, n, g, p):
        # the hook's sums are np.add.reduce of the rows it never builds, at
        # the full n and at a batch, for two states
        model, _ = synthetic(seed=24, n=n, g=g, p=p)
        rng = np.random.default_rng(n)
        for s in self.em_states(model, 2):
            codes = model.table_codes(model.image(s))
            for at in [slice(None)] + [rng.integers(0, n, size=b) for b in (2, 3, 7, 100, 1000)]:
                want = np.add.reduce(model.table_rows(codes[at], at), axis=0)
                assert model.row_sums(codes[at], at).tobytes() == want.tobytes()

    def test_forced_coefficients_are_online_em_and_fiem(self):
        # one example per draw: all four read the same index streams; 150
        # memory writes cross two refreshes of the n = 60 table
        model, _ = synthetic(seed=22, n=60)
        s0 = self.em_states(model, 1)[0]
        gammas = np.full(150, 0.01)

        def path(algorithm, lam=None):
            return sa_path(model, [(algorithm, 150)], gammas, 7, RunOptions(s0=s0, forced_lambda=lam))

        for plain, forced in ((path("online-em"), path("opt-fiem", 0.0)),
                              (path("fiem"), path("opt-fiem", 1.0))):
            assert plain.s_final.tobytes() == forced.s_final.tobytes()
            assert plain.h_sq.tobytes() == forced.h_sq.tobytes()

    @pytest.mark.parametrize("b", [1, 10])
    def test_exact_coefficient_is_the_dense_one(self, b):
        model, _ = synthetic(seed=23, n=60)
        images = [model.image(s) for s in self.em_states(model)]
        table, dense = MemoryTable.init(model, images[0]), DenseTable(model, images[0])
        rng = np.random.default_rng(b)
        for k in range(3 * model.n // b + 2):
            image = images[k % len(images)]
            batch = rng.integers(0, model.n, size=b)
            table.write(model, image, batch)
            dense.write(model, image, batch)
            lam = opt_fiem_lambda(model, image, table)
            assert np.float64(lam).tobytes() == np.float64(dense.optimal_lambda(model, image)).tobytes()
        assert dense.refreshes >= 2


class TestMiniBatchSteps:
    def test_full_batch_unit_step_iem_is_em_epoch(self):
        model, _ = synthetic(seed=9, n=60)
        theta0 = init_params(model.dataset, 3, 5)
        s = model.sbar(theta0)
        memory = MemoryTable.init(model, model.image(s))
        out, _ = gmm_iem_step(model, s, memory, np.arange(model.n), 1.0)
        np.testing.assert_allclose(out, model.stat_mean(model.image(s)), atol=1e-12)

    def test_online_mass_preserved_along_path(self):
        model, _ = synthetic(seed=10, n=120)
        s = model.sbar(init_params(model.dataset, 3, 6))
        rng = np.random.default_rng(1)
        for _ in range(200):
            batch = rng.choice(model.n, size=10, replace=False)
            s, bad = gmm_onlineem_step(model, s, batch, 5e-3)
            assert bad == 0
            assert abs(s[:3].sum() - 1.0) <= 1e-8

    def test_fiem_mass_preserved_and_monitored(self):
        model, _ = synthetic(seed=11, n=120)
        s = model.sbar(init_params(model.dataset, 3, 2))
        memory = MemoryTable.init(model, model.image(s))
        rng = np.random.default_rng(2)
        violations = 0
        for _ in range(200):
            bi = rng.integers(0, model.n, size=10)
            bj = rng.integers(0, model.n, size=10)
            s, memory, bad = gmm_fiem_step(model, s, memory, bi, bj, 5e-3)
            violations += bad
            assert abs(s[:3].sum() - 1.0) <= 1e-8
        assert violations == 0

    @pytest.mark.parametrize("policy, iteration, condition", [
        ("warn", 1, "empty component: mass[1] = -3.465e-02 below 1e-12"),
        ("abort", 0, "component mass 1 is negative: -3.465e-02 < -1e-10")], ids=["warn", "abort"])
    def test_a_negative_mass_aborts_under_either_policy(self, policy, iteration, condition):
        # "warn" counts the negative mass, then the next state's T(s) rejects
        # it as an empty component, so the count never reaches a result
        ds, _ = generate_gmm_synthetic(0, 600, 3, 2, 6.0)
        model = GmmModel(ds, 3)
        options = RunOptions(s0=model.sbar(init_params(ds, 3, 1)),
                             compute_h=False, domain_policy=policy)
        with pytest.raises(RunAbortError) as info:
            sa_path(model, [("online-em", 5)], np.full(5, 1.2), 3, options)
        assert (info.value.iteration, info.value.condition) == (iteration, condition)

    def test_epoch_accounting(self):
        model, _ = synthetic(seed=12, n=200)
        s0 = model.sbar(init_params(model.dataset, 3, 8))
        em = gmm_epoch_path(model, "em", s0, 1.0, 50, 3, seed=0)
        assert em.iterations == 3 and em.examples_processed == 3 * 200
        iem = gmm_epoch_path(model, "iem", s0, 1.0, 50, 3, seed=0)
        assert iem.iterations == 3 * 4 and iem.examples_processed == 3 * 200
        onl = gmm_epoch_path(model, "online-em", s0, 5e-2, 50, 3, seed=0)
        assert onl.iterations == 3 * 4 and onl.examples_processed == 3 * 200
        fm = gmm_epoch_path(model, "fiem", s0, 5e-2, 50, 3, seed=0)
        assert fm.iterations == 3 * 2 and fm.examples_processed == 3 * 200
        hyb = gmm_epoch_path(model, "h-fiem", s0, 5e-2, 50, 4, seed=0, kswitch=1)
        assert hyb.iterations == 4 + 3 * 2 and hyb.examples_processed == 4 * 200

    @pytest.mark.parametrize("algorithm,gamma,batch", [("online-em", 5e-2, 20), ("fiem", 5e-2, 10)])
    def test_epoch_path_shares_the_run_index_streams(self, algorithm, gamma, batch):
        # one epoch of the mixture path draws exactly the batches of run()
        # under the same seed (Online EM at b > 1 draws without replacement)
        model, _ = synthetic(seed=15, n=200)
        s0 = model.sbar(init_params(model.dataset, 3, 3))
        path = gmm_epoch_path(model, algorithm, s0, gamma, batch, 1, seed=7)
        k_max = path.iterations
        diag = run(
            algorithm, model, StepSchedule.constant(gamma, k_max), 7,
            RunOptions(s0=s0, batch_size=batch, compute_h=False),
        )
        final = model.tmap(diag.s_final)
        np.testing.assert_array_equal(path.params[-1].weights, final.weights)
        np.testing.assert_array_equal(path.params[-1].means, final.means)
        np.testing.assert_array_equal(path.params[-1].cov, final.cov)

    def test_em_monotone_loglik(self):
        model, _ = synthetic(seed=13, n=250)
        path = gmm_epoch_path(model, "em", model.sbar(
            init_params(model.dataset, 3, 9)), 1.0, 50, 40, seed=0)
        curve = [gmm_loglik(theta, model.dataset) for theta in path.params]
        assert len(curve) == 40 and np.all(np.diff(curve) >= -1e-9)

    def test_hybrid_reduces_weight_variability(self):
        # matched replicas: per-epoch std of the weight trajectories after the
        # switch should drop below the pure oracle run
        ds, _ = generate_gmm_synthetic(3, n=500, g=3, p=4, separation=3.0)
        model = GmmModel(ds, 3)
        hyb_spread, onl_spread = [], []
        for r in range(3):
            s0 = model.sbar(init_params(ds, 3, 100 + r))
            hyb = gmm_epoch_path(model, "h-fiem", s0, 5e-3, 50, 100, seed=r, kswitch=6)
            onl = gmm_epoch_path(model, "online-em", s0, 5e-3, 50, 100, seed=r)
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

    def test_raw_second_moment_is_formed_on_first_use(self, tmp_path):
        # preprocessing discards the raw p x p second moment, so loading the
        # CSV must not form it
        path = tmp_path / "raw.csv"
        np.savetxt(path, np.random.default_rng(6).normal(size=(50, 6)), delimiter=",")
        raw = load_csv_dataset(path)
        assert preprocess(raw.observations, 3).p == 3
        assert "sigma_star" not in vars(raw)
        y = raw.observations
        assert raw.sigma_star.tobytes() == (y.T @ y / y.shape[0]).tobytes()
        assert raw.sigma_star is raw.sigma_star

    def test_target_dimension_checked(self):
        with pytest.raises(ValueError):
            preprocess(np.ones((10, 3)), 4)  # all-constant features all dropped

    @pytest.mark.parametrize("scale, spread", [(1e300, 1e-3), (1e160, 1.0)])
    def test_overflowing_spread_rejected(self, scale, spread):
        # the squared deviations overflow: no warning, no column standardized to zeros
        raw = np.random.default_rng(8).normal(size=(50, 3))
        raw[:, 2] = scale * (1.0 + spread * raw[:, 2])
        with pytest.raises(ConfigurationError, match="^the spread of column 3 overflows$"):
            preprocess(raw, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        # a NaN column has a NaN spread and would be dropped as constant
        raw = np.random.default_rng(7).normal(size=(20, 3))
        raw[5, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            preprocess(raw, 2)
        with pytest.raises(ConfigurationError, match="row 6, column 2"):
            GmmDataset(raw)


class TestInitParams:
    @pytest.mark.parametrize("seed,n,g,p", [(0, 300, 1, 3), (1, 500, 2, 4), (2, 2000, 5, 10),
                                            (3, 6000, 12, 20)])
    def test_equals_the_minimum_over_every_earlier_center(self, seed, n, g, p):
        dataset, _ = generate_gmm_synthetic(seed, n, min(g, 5), p, 3.0)
        got, want = init_params(dataset, g, seed), all_centers_init_params(dataset, g, seed)
        for field in ("weights", "means", "cov"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_coincident_points_fall_back_to_uniform_draws(self):
        # three distinct points: from the fourth center on, every distance is 0
        dataset = GmmDataset(np.repeat(np.arange(9.0).reshape(3, 3), 4, axis=0))
        for seed in range(5):
            got, want = init_params(dataset, 6, seed), all_centers_init_params(dataset, 6, seed)
            assert got.means.tobytes() == want.means.tobytes()


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
        s = model.sbar(start)
        for _ in range(50):
            s = model.stat_mean(model.image(s))
        fitted = model.tmap(s)
        err = np.abs(np.sort(fitted.weights) - np.sort(truth.weights)).max()
        assert err < 0.05

    def test_n_smaller_than_g_rejected(self):
        with pytest.raises(ValueError):
            generate_gmm_synthetic(0, n=2, g=3, p=2, separation=1.0)


class TestParams:
    def test_serialization_round_trip(self):
        _, truth = synthetic(seed=14)
        doc = truth.to_dict()
        back = GmmParams(doc["weights"], doc["means"], doc["covariance"])
        np.testing.assert_array_equal(back.weights, truth.weights)
        np.testing.assert_array_equal(back.means, truth.means)
        np.testing.assert_array_equal(back.cov, truth.cov)
