import numpy as np
import pytest

import fiem
from fiem.algorithms import MemoryTable, StepSchedule, TerminationRule, draw_batch
from fiem.errors import DegenerateVarianceError, MemoryStateError


def toy(seed=0, n=6, dims=(4, 3, 3)):
    return fiem.generate_toy(seed, n=n, dims=dims)


def opts(model, **kw):
    return fiem.RunOptions(s0=np.zeros(model.q), **kw)


class TestSchedulesAndTermination:
    def test_schedule_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StepSchedule(np.array([0.1, 0.0]))

    def test_termination_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            TerminationRule(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            TerminationRule(np.array([-0.1, 1.1]))

    def test_uniform_sampling_range(self):
        rule = TerminationRule.uniform(10)
        rng = np.random.default_rng(0)
        ks = [rule.sample(rng) for _ in range(200)]
        assert min(ks) >= 0 and max(ks) <= 9


class TestMemoryTable:
    def test_running_mean_coherence(self):
        m = toy(n=50)
        rng = np.random.default_rng(1)
        s = rng.normal(size=m.q)
        memory = MemoryTable.init(m, s)
        for _ in range(500):
            s = rng.normal(size=m.q)
            memory.write(m, s, rng.integers(0, m.n, size=3))
            drift = np.abs(memory.mean - memory.rows.mean(axis=0)).max()
            scale = max(1.0, np.abs(memory.mean).max())
            assert drift <= 1e-9 * m.q * scale

    def test_duplicate_indices_collapse(self):
        m = toy(n=8)
        s = np.ones(m.q)
        memory = MemoryTable.init(m, np.zeros(m.q))
        memory.write(m, s, np.array([3, 3, 3]))
        np.testing.assert_allclose(memory.mean, memory.rows.mean(axis=0), atol=1e-14)


class TestSingleSteps:
    def test_em_step_fixed_point(self):
        m = toy(seed=2)
        s_star = m.em_fixed_point()
        assert np.linalg.norm(fiem.em_step(m, s_star) - s_star) < 1e-10

    def test_online_gamma_zero_is_identity(self):
        m = toy(seed=3)
        s = np.arange(m.q, dtype=float) + 1.0
        assert np.array_equal(fiem.online_em_step(m, s, np.array([2]), 0.0), s)

    def test_online_full_batch_unit_step_is_em(self):
        m = toy(seed=4)
        s = np.ones(m.q)
        full = np.arange(m.n)
        np.testing.assert_allclose(
            fiem.online_em_step(m, s, full, 1.0), fiem.em_step(m, s), atol=1e-13
        )

    def test_online_empty_batch_rejected(self):
        m = toy()
        with pytest.raises(ValueError):
            fiem.online_em_step(m, np.zeros(m.q), np.array([], dtype=int), 0.5)

    def test_iem_full_batch_unit_step_is_em(self):
        m = toy(seed=5)
        s = np.ones(m.q)
        memory = MemoryTable.init(m, np.zeros(m.q))
        out, _ = fiem.iem_step(m, s, memory, np.arange(m.n), 1.0)
        np.testing.assert_allclose(out, fiem.em_step(m, s), atol=1e-13)

    def test_iem_gamma_zero_updates_memory_only(self):
        m = toy(seed=6)
        s = np.ones(m.q)
        memory = MemoryTable.init(m, np.zeros(m.q))
        before = memory.rows[1].copy()
        out, memory = fiem.iem_step(m, s, memory, np.array([1]), 0.0)
        assert np.array_equal(out, s)
        assert not np.array_equal(memory.rows[1], before)

    def test_iem_single_sweep_rebuilds_mean(self):
        m = toy(seed=7)
        s = np.full(m.q, 0.5)
        memory = MemoryTable.init(m, np.zeros(m.q))
        for i in range(m.n):
            _, memory = fiem.iem_step(m, s, memory, np.array([i]), 1.0)
        np.testing.assert_allclose(memory.mean, fiem.em_step(m, s), atol=1e-12)

    def test_iem_requires_memory(self):
        m = toy()
        with pytest.raises(MemoryStateError):
            fiem.iem_step(m, np.zeros(m.q), None, np.array([0]), 0.5)

    def test_fiem_gamma_zero_is_identity(self):
        m = toy(seed=8)
        s = np.ones(m.q)
        memory = MemoryTable.init(m, s)
        out, _ = fiem.fiem_step(m, s, memory, np.array([0]), np.array([1]), 0.0)
        assert np.array_equal(out, s)

    def test_fiem_n1_control_variate_cancels(self):
        m = toy(seed=9, n=1)
        s = np.zeros(m.q)
        memory = MemoryTable.init(m, s)
        gamma = 0.3
        out, _ = fiem.fiem_step(m, s, memory, np.array([0]), np.array([0]), gamma)
        expected = s + gamma * fiem.mean_field(m, s)
        assert np.linalg.norm(out - expected) <= 1e-14

    def test_fiem_update_direction_unbiased(self):
        # exhaustive enumeration of the oracle index on n=6
        m = toy(seed=10, n=6)
        rng = np.random.default_rng(2)
        s = rng.normal(size=m.q)
        memory = MemoryTable.init(m, rng.normal(size=m.q))
        memory.write(m, s, np.array([2]))
        memory.refresh()
        directions = []
        for j in range(m.n):
            directions.append(
                m.stat_rows(s, np.array([j]))[0] - s + memory.mean - memory.rows[j]
            )
        np.testing.assert_allclose(
            np.mean(directions, axis=0), fiem.mean_field(m, s), rtol=1e-12, atol=1e-13
        )


def enumerate_lambda_quadratic(model, s, memory):
    """Exact conditional variance of the update direction as a function of
    the control-variate coefficient: returns (a, b, c) with var(lam) =
    a lam^2 + 2 b lam + c, enumerated over the oracle index."""
    n = model.n
    rows = model.stat_rows(s, np.arange(n))
    u = rows - rows.mean(axis=0)                 # oracle deviation
    v = memory.mean - memory.rows                # control variate values
    a = float(np.einsum("nq,nq->", v, v)) / n
    b = float(np.einsum("nq,nq->", u, v)) / n
    c = float(np.einsum("nq,nq->", u, u)) / n
    return a, b, c


class TestOptimalLambda:
    def test_degenerate_variance_signal(self):
        m = toy(seed=11, n=5)
        s = np.zeros(m.q)
        memory = MemoryTable(np.tile(np.ones(m.q), (m.n, 1)))
        with pytest.raises(DegenerateVarianceError):
            fiem.opt_fiem_lambda(m, s, memory)

    def test_perfectly_tracking_memory_gives_one(self):
        m = toy(seed=12, n=7)
        rng = np.random.default_rng(3)
        s = rng.normal(size=m.q)
        memory = MemoryTable(m.stat_rows(s, np.arange(m.n)))
        lam = fiem.opt_fiem_lambda(m, s, memory)
        assert abs(lam - 1.0) < 1e-10

    def test_vertex_of_enumerated_quadratic(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            m = toy(seed=seed, n=6)
            s = rng.normal(size=m.q)
            memory = MemoryTable.init(m, rng.normal(size=m.q))
            memory.write(m, s, np.array([seed % m.n]))
            memory.refresh()
            lam = fiem.opt_fiem_lambda(m, s, memory)
            a, b, _ = enumerate_lambda_quadratic(m, s, memory)
            assert abs(lam - (-b / a)) < 1e-10

    def test_minimizes_conditional_variance(self):
        rng = np.random.default_rng(5)
        m = toy(seed=13, n=6)
        s = rng.normal(size=m.q)
        memory = MemoryTable.init(m, rng.normal(size=m.q))
        memory.refresh()
        lam = fiem.opt_fiem_lambda(m, s, memory)
        a, b, c = enumerate_lambda_quadratic(m, s, memory)
        var = lambda l: a * l * l + 2.0 * b * l + c
        for other in (0.0, 1.0, lam - 0.1, lam + 0.1):
            assert var(lam) <= var(other) + 1e-12

    def test_variance_reduction_identity(self):
        # at the optimum the conditional variance equals the plain-oracle
        # variance times (1 - corr^2)
        rng = np.random.default_rng(6)
        m = toy(seed=14, n=6)
        s = rng.normal(size=m.q)
        memory = MemoryTable.init(m, rng.normal(size=m.q))
        memory.write(m, s, np.array([1]))
        memory.refresh()
        lam = fiem.opt_fiem_lambda(m, s, memory)
        a, b, c = enumerate_lambda_quadratic(m, s, memory)
        var_opt = a * lam * lam + 2.0 * b * lam + c
        corr_sq = b * b / (a * c)
        np.testing.assert_allclose(var_opt, c * (1.0 - corr_sq), rtol=1e-10)

    def test_forced_values_reproduce_neighbours(self):
        m = toy(seed=15, n=8)
        rng = np.random.default_rng(7)
        s = rng.normal(size=m.q)
        gamma = 0.2
        bi, bj = np.array([3]), np.array([5])

        mem1 = MemoryTable.init(m, s)
        out_online = fiem.online_em_step(m, s, bj, gamma)
        out_l0, _, lam0 = fiem.opt_fiem_step(m, s, mem1, bi, bj, gamma, forced_lambda=0.0)
        assert lam0 == 0.0 and np.array_equal(out_online, out_l0)

        mem2 = MemoryTable.init(m, s)
        mem3 = MemoryTable.init(m, s)
        out_fiem, _ = fiem.fiem_step(m, s, mem2, bi, bj, gamma)
        out_l1, _, lam1 = fiem.opt_fiem_step(m, s, mem3, bi, bj, gamma, forced_lambda=1.0)
        assert lam1 == 1.0 and np.array_equal(out_fiem, out_l1)


class TestRun:
    def test_em_is_seed_invariant(self):
        m = toy(seed=16, n=5)
        sched = StepSchedule.constant(0.5, 20)
        term = TerminationRule.uniform(20)
        d1 = fiem.run("em", m, sched, term, 1, opts(m))
        d2 = fiem.run("em", m, sched, term, 999, opts(m))
        assert np.array_equal(d1.h_sq, d2.h_sq)
        assert np.array_equal(d1.s_final, d2.s_final)

    def test_same_seed_same_path(self):
        m = toy(seed=17, n=9)
        sched = StepSchedule.constant(0.1, 50)
        term = TerminationRule.uniform(50)
        runs = [
            fiem.run("fiem", m, sched, term, 4, opts(m, compute_e2=True))
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].h_sq, runs[1].h_sq)
        assert np.array_equal(runs[0].cv_gap_sq, runs[1].cv_gap_sq)
        assert np.array_equal(runs[0].step_sq, runs[1].step_sq)
        assert runs[0].terminal_k == runs[1].terminal_k

    def test_forced_lambda_paths_bitwise(self):
        m = toy(seed=18, n=7)
        sched = StepSchedule.constant(0.15, 60)
        term = TerminationRule.uniform(60)
        onl = fiem.run("online-em", m, sched, term, 11, opts(m))
        l0 = fiem.run("opt-fiem", m, sched, term, 11, opts(m, forced_lambda=0.0))
        fm = fiem.run("fiem", m, sched, term, 11, opts(m))
        l1 = fiem.run("opt-fiem", m, sched, term, 11, opts(m, forced_lambda=1.0))
        assert np.array_equal(onl.s_final, l0.s_final)
        assert np.array_equal(onl.h_sq, l0.h_sq)
        assert np.array_equal(fm.s_final, l1.s_final)
        assert np.array_equal(fm.h_sq, l1.h_sq)

    def test_n1_fiem_is_deterministic_recursion(self):
        m = toy(seed=19, n=1)
        k_max = 40
        gamma = 0.25
        sched = StepSchedule.constant(gamma, k_max)
        d = fiem.run("fiem", m, sched, TerminationRule.uniform(k_max), 0, opts(m))
        s = np.zeros(m.q)
        for _ in range(k_max):
            s = s + gamma * (fiem.em_step(m, s) - s)
        assert np.linalg.norm(d.s_final - s) <= 1e-14 * max(1.0, np.linalg.norm(s))

    def test_run_trajectory_matches_manual_steps(self):
        # the engine and the standalone step functions share one code path
        m = toy(seed=20, n=8)
        k_max = 25
        gamma = 0.2
        seed = 21
        d = fiem.run("fiem", m, StepSchedule.constant(gamma, k_max),
                     TerminationRule.uniform(k_max), seed, opts(m))
        tree = fiem.SeedTree(seed)
        rng_i = tree.stream("indices-I")
        rng_j = tree.stream("indices-J")
        s = np.zeros(m.q)
        memory = MemoryTable.init(m, s)
        for _ in range(k_max):
            bi = draw_batch(rng_i, m.n, 1, replace=True)
            bj = draw_batch(rng_j, m.n, 1, replace=True)
            s, memory = fiem.fiem_step(m, s, memory, bi, bj, gamma)
        assert np.array_equal(d.s_final, s)

    def test_lambda_recorded_for_opt_fiem(self):
        m = toy(seed=21, n=6)
        d = fiem.run("opt-fiem", m, StepSchedule.constant(0.1, 15),
                     TerminationRule.uniform(15), 3, opts(m))
        assert d.lambdas is not None and d.lambdas.shape == (15,)
        assert np.all(np.isfinite(d.lambdas))

    def test_record_counts(self):
        m = toy(seed=22, n=5)
        k_max = 12
        d = fiem.run("fiem", m, StepSchedule.constant(0.1, k_max),
                     TerminationRule.uniform(k_max), 0,
                     opts(m, compute_e2=True, compute_e0=True, track_v=True))
        assert d.h_sq.shape == (k_max,)
        assert d.cv_gap_sq.shape == (k_max,)
        assert d.step_sq.shape == (k_max,)
        assert d.v.shape == (k_max + 1,)

    def test_unknown_algorithm_rejected(self):
        m = toy()
        with pytest.raises(ValueError):
            fiem.run("sgd", m, StepSchedule.constant(0.1, 5),
                     TerminationRule.uniform(5), 0, opts(m))


class TestErrorPaths:
    def test_dimension_mismatch_is_fatal(self):
        from fiem.errors import ConfigurationError
        from fiem.model import FiniteSumModel

        class Broken(FiniteSumModel):
            n, q = 3, 2

            def tmap(self, s):
                return s

            def admissible(self, s):
                return None

            def sbar_i(self, theta, i):
                return np.zeros(3)  # wrong length

        with pytest.raises(ConfigurationError):
            fiem.sbar(Broken(), np.zeros(2))

    def test_domain_policy_warn_counts_violations(self):
        from fiem.errors import DomainError
        from fiem.model import FiniteSumModel

        class Leaky(FiniteSumModel):
            # pure contraction whose admissibility check rejects the lower
            # half-space; starting above zero, the path dips below
            n, q = 4, 1

            def tmap(self, s):
                return s

            def admissible(self, s):
                if s[0] < 0.0:
                    raise DomainError("first coordinate went negative")

            def sbar_i(self, theta, i):
                return np.full(1, -2.0)

        model = Leaky()
        k_max = 10
        diag = fiem.run(
            "online-em", model, StepSchedule.constant(0.5, k_max),
            TerminationRule.uniform(k_max), 0,
            fiem.RunOptions(s0=np.ones(1), compute_h=False, domain_policy="warn"),
        )
        assert diag.violations > 0

        from fiem.errors import RunAbortError

        with pytest.raises(RunAbortError):
            fiem.run(
                "online-em", model, StepSchedule.constant(0.5, k_max),
                TerminationRule.uniform(k_max), 0,
                fiem.RunOptions(s0=np.ones(1), compute_h=False, domain_policy="abort"),
            )


class TestHybridRun:
    def test_zero_switch_is_pure_fiem(self):
        m = toy(seed=23, n=8)
        gamma = 0.1
        total_epochs = 4
        k_max = total_epochs * (m.n // 2)
        diag_opts = opts(m, compute_e0=True, theta_ref=m.theta_star)
        hybrid = fiem.h_fiem_run(m, gamma, 1, 0, total_epochs, 5, diag_opts)
        pure = fiem.run("fiem", m, StepSchedule.constant(gamma, k_max),
                        TerminationRule.uniform(k_max), 5, diag_opts)
        assert hybrid.k_max == k_max
        assert np.array_equal(hybrid.s_final, pure.s_final)
        # the hybrid honours the same diagnostic switches as run()
        assert np.array_equal(hybrid.vdot_sq, pure.vdot_sq)
        assert np.array_equal(hybrid.theta_err, pure.theta_err)

    def test_full_switch_is_pure_online(self):
        m = toy(seed=24, n=8)
        gamma = 0.1
        total_epochs = 3
        k_max = total_epochs * m.n
        hybrid = fiem.h_fiem_run(m, gamma, 1, total_epochs, total_epochs, 6, opts(m))
        pure = fiem.run("online-em", m, StepSchedule.constant(gamma, k_max),
                        TerminationRule.uniform(k_max), 6, opts(m))
        assert hybrid.switch_iteration == k_max
        assert np.array_equal(hybrid.s_final, pure.s_final)

    def test_epoch_divisibility_enforced(self):
        m = toy(seed=25, n=9)
        with pytest.raises(ValueError):
            fiem.h_fiem_run(m, 0.1, 2, 1, 2, 0, opts(m))
