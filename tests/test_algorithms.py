import hashlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiem
from fiem.algorithms import MemoryTable, StepSchedule, TerminationRule, draw_batch, row_mean
from fiem.errors import MemoryStateError, RunAbortError
from fiem.experiments import ExperimentConfig, run_replicated
from fiem.rng import (STREAM_DATA, STREAM_INDICES_I, STREAM_INDICES_J, STREAM_TERMINATION,
                      SeedTree, index_draws, raw_outputs)

from model_reference import em_fixed_point


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
        memory = MemoryTable.init(m, m.image(s))
        for _ in range(500):
            s = rng.normal(size=m.q)
            memory.write(m, m.image(s), rng.integers(0, m.n, size=3))
            drift = np.abs(memory.mean - memory.rows.mean(axis=0)).max()
            scale = max(1.0, np.abs(memory.mean).max())
            assert drift <= 1e-9 * m.q * scale

    @settings(max_examples=60)
    @given(n=st.integers(1, 40), b=st.integers(1, 5), writes=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_running_mean_tracks_rows_after_random_writes(self, n, b, writes, seed):
        m = toy(n=n)
        rng = np.random.default_rng(seed)
        memory = MemoryTable.init(m, m.image(rng.normal(size=m.q)))
        for _ in range(writes):
            memory.write(m, m.image(rng.normal(size=m.q)), rng.integers(0, n, size=b))
        scale = max(1.0, np.abs(memory.rows).max())
        assert np.abs(memory.mean - memory.rows.mean(axis=0)).max() <= 1e-12 * scale

    @settings(max_examples=40)
    @given(replicas=st.sampled_from([1, 2, 7]), n=st.sampled_from([1, 2, 10]),
           extra=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_a_stack_is_its_replicas_bit_for_bit(self, replicas, n, extra, seed):
        # one index per replica and write, across at least two refreshes
        m = toy(n=n)
        rng = np.random.default_rng(seed)
        images = rng.normal(size=(replicas, m.q))
        stack = MemoryTable.init(m, images, (replicas,))
        singles = [MemoryTable.init(m, image) for image in images]
        for _ in range(2 * n + 1 + extra):
            images = rng.normal(size=(replicas, m.q)) * 10.0 ** rng.uniform(-3, 3)
            batch = rng.integers(0, n, size=(replicas, 1))
            stack.write(m, images, batch)
            for table, image, i in zip(singles, images, batch):
                table.write(m, image, i)
            assert stack.rows.tobytes() == np.stack([t.rows for t in singles]).tobytes()
            assert stack.mean.tobytes() == np.stack([t.mean for t in singles]).tobytes()

    def test_init_holds_its_rows_once(self):
        # the table keeps the array init fills: a (100, 1000, q) stack of
        # rows peaks at its own size, not twice it
        m = fiem.generate_toy(0, 1000)
        images = np.random.default_rng(0).normal(size=(100, m.q))
        tracemalloc.start()
        try:
            memory = MemoryTable.init(m, images, (100,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * memory.rows.nbytes

    def test_duplicate_indices_collapse(self):
        m = toy(n=8)
        s = np.ones(m.q)
        memory = MemoryTable.init(m, m.image(np.zeros(m.q)))
        memory.write(m, m.image(s), np.array([3, 3, 3]))
        np.testing.assert_allclose(memory.mean, memory.rows.mean(axis=0), atol=1e-14)


class TestBitwiseFastPaths:
    """The hot-path shortcuts must read the same stream positions and round
    exactly as the numpy calls they replace."""

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 10**4, 2 * 10**4, 2**31 + 5])
    @pytest.mark.parametrize("replace", [True, False])
    def test_single_draws_follow_the_size_one_stream(self, n, replace):
        fast, ref = SeedTree(7).stream("indices-I"), SeedTree(7).stream("indices-I")
        for _ in range(3000):
            got = draw_batch(fast, n, 1, replace)
            want = ref.integers(0, n, size=1)
            assert got.dtype == want.dtype and got.shape == (1,)
            assert got[0] == want[0]
        assert fast.integers(0, 2**62) == ref.integers(0, 2**62)

    @given(b=st.integers(1, 200), q=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(-8.0, 8.0))
    def test_row_mean_is_ndarray_mean(self, b, q, seed, log_scale):
        rows = np.random.default_rng(seed).normal(size=(b, q)) * 10.0**log_scale
        assert row_mean(rows).tobytes() == rows.mean(axis=0).tobytes()

    @staticmethod
    def fresh_lambda(model, s, memory):
        rows = model.stat_rows(model.image(s), np.arange(model.n))
        diff = memory.mean - memory.rows
        num = float(np.einsum("nq,nq->", rows, diff)) / model.n
        den = float(np.einsum("nq,nq->", diff, diff)) / model.n
        return -num / den

    @pytest.mark.parametrize("kind", ["toy", "gmm"])
    def test_lambda_pass_reuses_scratch_bitwise(self, kind):
        if kind == "toy":
            m = toy(seed=3, n=300)
            s0 = np.zeros(m.q)
            states = [np.random.default_rng(i).normal(size=m.q) for i in range(2)]
        else:
            ds, _ = fiem.generate_gmm_synthetic(2, n=200, g=3, p=3, separation=3.0)
            m = fiem.GmmModel(ds, 3)
            s0 = m.initial_statistic(fiem.init_params(ds, 3, 1))
            s1 = m.stat_mean(m.image(s0))
            states = [s1, m.stat_mean(m.image(s1))]
        memory = MemoryTable.init(m, m.image(s0))
        for i, s in enumerate(states):
            memory.write(m, m.image(s), np.array([i, 5 + i]))
            assert fiem.opt_fiem_lambda(m, m.image(s), memory) == self.fresh_lambda(m, s, memory)
            rows, diff = memory.scratch()
            assert rows.tobytes() == m.stat_rows(m.image(s), np.arange(m.n)).tobytes()
            assert diff.tobytes() == (memory.mean - memory.rows).tobytes()
            assert all(a is b for a, b in zip((rows, diff), memory.scratch()))

    @staticmethod
    def model_and_states(kind):
        if kind == "toy":
            m = toy(seed=3, n=40)
            return m, [np.random.default_rng(i).normal(size=m.q) for i in range(60)]
        ds, _ = fiem.generate_gmm_synthetic(2, n=60, g=3, p=3, separation=3.0)
        m = fiem.GmmModel(ds, 3)
        states = [m.initial_statistic(fiem.init_params(ds, 3, 1))]
        for _ in range(7):
            states.append(m.stat_mean(m.image(states[-1])))
        return m, states

    @pytest.mark.parametrize("kind", ["toy", "gmm"])
    def test_single_index_write_is_the_collapsed_duplicate_write(self, kind):
        # [i, i] goes through np.unique, the fancy gather and scatter and the
        # reduce; [i] through the row view.  Enough writes to cross a refresh.
        m, states = self.model_and_states(kind)
        single = MemoryTable.init(m, m.image(states[0]))
        doubled = MemoryTable.init(m, m.image(states[0]))
        rng = np.random.default_rng(5)
        for k in range(2 * m.n + 3):
            image = m.image(states[k % len(states)])
            i = int(rng.integers(0, m.n))
            single.write(m, image, np.array([i]))
            doubled.write(m, image, np.array([i, i]))
            assert single.rows.tobytes() == doubled.rows.tobytes()
            assert single.mean.tobytes() == doubled.mean.tobytes()

    @pytest.mark.parametrize("lam", [1.0, 0.37])
    def test_control_variate_update_is_the_explicit_sum(self, lam):
        m, states = self.model_and_states("toy")
        memory = MemoryTable.init(m, m.image(states[0]))
        rng = np.random.default_rng(9)
        for s in states[1:]:
            image = m.image(s)
            memory.write(m, image, rng.integers(0, m.n, size=1))
            j = rng.integers(0, m.n, size=1)
            row_j = m.p1y[j[0]] + image
            mem_j = memory.rows[j][0]
            want = s + 0.03 * ((row_j - s) + lam * (memory.mean - mem_j))
            got = fiem.algorithms._cv_update(m, s, image, memory, j, 0.03, lam)
            assert got.tobytes() == want.tobytes()

    def test_unit_coefficient_skips_an_exact_multiply(self):
        # the lam=1 branch adds the CV term unscaled: x + 1.0 * y and x + y
        # agree bytewise on signed zeros, infinities, NaN and subnormals
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.5, 2.0**1000])
        x, y = np.meshgrid(special, special)
        with np.errstate(invalid="ignore", over="ignore"):
            assert (x + 1.0 * y).tobytes() == (x + y).tobytes()

    @pytest.mark.parametrize("indices", [[4], [2, 7, 2], list(range(40))],
                             ids=["b1", "b3-duplicates", "all-rows"])
    def test_toy_rows_take_is_the_fancy_gather(self, indices):
        m, states = self.model_and_states("toy")
        image = m.image(states[1])
        got = m.stat_rows(image, np.array(indices))
        assert got.tobytes() == (m.p1y[np.asarray(indices)] + image).tobytes()

    def test_the_mean_never_aliases_a_row_at_n_1(self):
        m = toy(seed=1, n=1)
        memory = MemoryTable.init(m, m.image(np.ones(m.q)))
        assert not np.shares_memory(memory.mean, memory.rows)
        memory.write(m, m.image(np.full(m.q, 2.0)), np.array([0]))
        assert not np.shares_memory(memory.mean, memory.rows)
        assert memory.mean.tobytes() == memory.rows[0].tobytes()


class TestSingleSteps:
    def test_em_step_fixed_point(self):
        m = toy(seed=2)
        s_star = em_fixed_point(m)
        assert np.linalg.norm(m.stat_mean(m.image(s_star)) - s_star) < 1e-10

    def test_online_gamma_zero_is_identity(self):
        m = toy(seed=3)
        s = np.arange(m.q, dtype=float) + 1.0
        assert np.array_equal(fiem.online_em_step(m, s, m.image(s), np.array([2]), 0.0), s)

    def test_online_full_batch_unit_step_is_em(self):
        m = toy(seed=4)
        s = np.ones(m.q)
        full = np.arange(m.n)
        np.testing.assert_allclose(
            fiem.online_em_step(m, s, m.image(s), full, 1.0), m.stat_mean(m.image(s)), atol=1e-13
        )

    def test_online_empty_batch_rejected(self):
        m = toy()
        s = np.zeros(m.q)
        with pytest.raises(ValueError):
            fiem.online_em_step(m, s, m.image(s), np.array([], dtype=int), 0.5)

    def test_iem_full_batch_unit_step_is_em(self):
        m = toy(seed=5)
        s = np.ones(m.q)
        memory = MemoryTable.init(m, m.image(np.zeros(m.q)))
        out, _ = fiem.iem_step(m, s, m.image(s), memory, np.arange(m.n), 1.0)
        np.testing.assert_allclose(out, m.stat_mean(m.image(s)), atol=1e-13)

    def test_iem_gamma_zero_updates_memory_only(self):
        m = toy(seed=6)
        s = np.ones(m.q)
        memory = MemoryTable.init(m, m.image(np.zeros(m.q)))
        before = memory.rows[1].copy()
        out, memory = fiem.iem_step(m, s, m.image(s), memory, np.array([1]), 0.0)
        assert np.array_equal(out, s)
        assert not np.array_equal(memory.rows[1], before)

    def test_iem_single_sweep_rebuilds_mean(self):
        m = toy(seed=7)
        s = np.full(m.q, 0.5)
        memory = MemoryTable.init(m, m.image(np.zeros(m.q)))
        for i in range(m.n):
            _, memory = fiem.iem_step(m, s, m.image(s), memory, np.array([i]), 1.0)
        np.testing.assert_allclose(memory.mean, m.stat_mean(m.image(s)), atol=1e-12)

    def test_iem_requires_memory(self):
        m = toy()
        s = np.zeros(m.q)
        with pytest.raises(MemoryStateError):
            fiem.iem_step(m, s, m.image(s), None, np.array([0]), 0.5)

    def test_fiem_gamma_zero_is_identity(self):
        m = toy(seed=8)
        s = np.ones(m.q)
        memory = MemoryTable.init(m, m.image(s))
        out, _ = fiem.fiem_step(m, s, m.image(s), memory, np.array([0]), np.array([1]), 0.0)
        assert np.array_equal(out, s)

    def test_fiem_n1_control_variate_cancels(self):
        m = toy(seed=9, n=1)
        s = np.zeros(m.q)
        memory = MemoryTable.init(m, m.image(s))
        gamma = 0.3
        out, _ = fiem.fiem_step(m, s, m.image(s), memory, np.array([0]), np.array([0]), gamma)
        expected = s + gamma * fiem.mean_field(m, s)
        assert np.linalg.norm(out - expected) <= 1e-14

    def test_fiem_update_direction_unbiased(self):
        # exhaustive enumeration of the oracle index on n=6
        m = toy(seed=10, n=6)
        rng = np.random.default_rng(2)
        s = rng.normal(size=m.q)
        memory = MemoryTable.init(m, m.image(rng.normal(size=m.q)))
        memory.write(m, m.image(s), np.array([2]))
        memory.refresh()
        directions = []
        for j in range(m.n):
            directions.append(
                m.stat_rows(m.image(s), np.array([j]))[0] - s + memory.mean - memory.rows[j]
            )
        np.testing.assert_allclose(
            np.mean(directions, axis=0), fiem.mean_field(m, s), rtol=1e-12, atol=1e-13
        )


def enumerate_lambda_quadratic(model, s, memory):
    """Exact conditional variance of the update direction as a function of
    the control-variate coefficient: returns (a, b, c) with var(lam) =
    a lam^2 + 2 b lam + c, enumerated over the oracle index."""
    n = model.n
    rows = model.stat_rows(model.image(s), np.arange(n))
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
        # a constant memory has no variance: the coefficient falls back to 1
        assert fiem.opt_fiem_lambda(m, m.image(s), memory) == 1.0

    def test_perfectly_tracking_memory_gives_one(self):
        m = toy(seed=12, n=7)
        rng = np.random.default_rng(3)
        s = rng.normal(size=m.q)
        memory = MemoryTable(m.stat_rows(m.image(s), np.arange(m.n)))
        lam = fiem.opt_fiem_lambda(m, m.image(s), memory)
        assert abs(lam - 1.0) < 1e-10

    def test_vertex_of_enumerated_quadratic(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            m = toy(seed=seed, n=6)
            s = rng.normal(size=m.q)
            memory = MemoryTable.init(m, m.image(rng.normal(size=m.q)))
            memory.write(m, m.image(s), np.array([seed % m.n]))
            memory.refresh()
            lam = fiem.opt_fiem_lambda(m, m.image(s), memory)
            a, b, _ = enumerate_lambda_quadratic(m, s, memory)
            assert abs(lam - (-b / a)) < 1e-10

    def test_minimizes_conditional_variance(self):
        rng = np.random.default_rng(5)
        m = toy(seed=13, n=6)
        s = rng.normal(size=m.q)
        memory = MemoryTable.init(m, m.image(rng.normal(size=m.q)))
        memory.refresh()
        lam = fiem.opt_fiem_lambda(m, m.image(s), memory)
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
        memory = MemoryTable.init(m, m.image(rng.normal(size=m.q)))
        memory.write(m, m.image(s), np.array([1]))
        memory.refresh()
        lam = fiem.opt_fiem_lambda(m, m.image(s), memory)
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

        image = m.image(s)
        mem1 = MemoryTable.init(m, image)
        out_online = fiem.online_em_step(m, s, image, bj, gamma)
        out_l0, _, lam0 = fiem.opt_fiem_step(m, s, image, mem1, bi, bj, gamma, forced_lambda=0.0)
        assert lam0 == 0.0 and np.array_equal(out_online, out_l0)

        mem2 = MemoryTable.init(m, image)
        mem3 = MemoryTable.init(m, image)
        out_fiem, _ = fiem.fiem_step(m, s, image, mem2, bi, bj, gamma)
        out_l1, _, lam1 = fiem.opt_fiem_step(m, s, image, mem3, bi, bj, gamma, forced_lambda=1.0)
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
            s = s + gamma * (m.stat_mean(m.image(s)) - s)
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
        memory = MemoryTable.init(m, m.image(s))
        for _ in range(k_max):
            bi = draw_batch(rng_i, m.n, 1, replace=True)
            bj = draw_batch(rng_j, m.n, 1, replace=True)
            s, memory = fiem.fiem_step(m, s, m.image(s), memory, bi, bj, gamma)
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
                     opts(m, compute_e2=True, compute_e0=True))
        assert d.h_sq.shape == (k_max,)
        assert d.cv_gap_sq.shape == (k_max,)
        assert d.step_sq.shape == (k_max,)

    def test_unknown_algorithm_rejected(self):
        m = toy()
        with pytest.raises(ValueError):
            fiem.run("sgd", m, StepSchedule.constant(0.1, 5),
                     TerminationRule.uniform(5), 0, opts(m))


def run_draws(algorithm, model, k_max, batch_size, seed):
    """The batches one ``run`` draws, per index stream, in draw order."""
    names = {}
    draws = {STREAM_INDICES_I: [], STREAM_INDICES_J: []}
    stream, draw = SeedTree.stream, fiem.algorithms.draw_batch

    def named_stream(tree, name):
        rng = stream(tree, name)
        names[id(rng)] = name
        return rng

    def spy(rng, n, size, replace):
        batch = draw(rng, n, size, replace)
        draws[names[id(rng)]].append(batch.tolist())
        return batch

    with mock.patch.object(SeedTree, "stream", named_stream), \
            mock.patch.object(fiem.algorithms, "draw_batch", spy):
        fiem.run(algorithm, model, StepSchedule.constant(0.1, k_max),
                 TerminationRule.uniform(k_max), seed, opts(model, batch_size=batch_size))
    return draws


class TestIndexStreams:
    """The shared-stream protocol behind every same-seed comparison."""

    @settings(max_examples=30)
    @given(n=st.integers(1, 30), data=st.data())
    def test_algorithms_read_the_same_stream_positions(self, n, data):
        b = data.draw(st.integers(1, n), label="b")
        k_max = 8
        model = toy(seed=n, n=n)
        draws = {alg: run_draws(alg, model, k_max, b, seed=n)
                 for alg in ("iem", "fiem", "opt-fiem", "online-em")}
        i_draws = {alg: d[STREAM_INDICES_I] for alg, d in draws.items()}
        j_draws = {alg: d[STREAM_INDICES_J] for alg, d in draws.items()}
        # one memory (I) batch per iteration, the same one for every memory algorithm
        assert len(i_draws["iem"]) == k_max
        assert i_draws["iem"] == i_draws["fiem"] == i_draws["opt-fiem"]
        assert not i_draws["online-em"] and not j_draws["iem"]
        # one oracle (J) batch per iteration, the same for FIEM and opt-FIEM
        assert len(j_draws["fiem"]) == k_max
        assert j_draws["fiem"] == j_draws["opt-fiem"]
        # Online EM draws b > 1 without replacement, a different stream use
        if b == 1:
            assert j_draws["online-em"] == j_draws["fiem"]


def assert_same_streams(tree, children, name, count=9):
    """raw_outputs(tree, children, name, count) holds, for each r of the
    range ``children``, the first ``count`` raw outputs of a fresh
    tree.child(r).stream(name)."""
    raw = raw_outputs(tree, children, name, count)
    assert raw.shape == (len(children), count) and raw.dtype == np.uint64
    for r, row in zip(children, raw, strict=True):
        fresh = tree.child(r).stream(name)
        assert row.tolist() == fresh.bit_generator.random_raw(count).tolist()


class TestBulkStreams:
    """raw_outputs() reads a range of one tree's children at once, bit for
    bit SeedTree.stream."""

    NAMES = (STREAM_INDICES_I, STREAM_INDICES_J, STREAM_TERMINATION, STREAM_DATA, "any name")
    # parent paths of depth 0 to 3, some entries past one word
    PATHS = [(), (3,), (2**33,), (0, 11), (1, 2**64 + 1), (5, 2**32 - 1, 7), (2**40, 0, 2**32)]
    RANGES = [range(0, 5), range(1, 1000, 333), range(2**32 - 7, 2**32, 2), range(9, 2, -3)]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 99999999999999999999999, 2**130])
    def test_children_at_every_depth(self, seed):
        for path in self.PATHS:
            for children in self.RANGES:
                for name in self.NAMES:
                    assert_same_streams(SeedTree(seed, path), children, name)

    @pytest.mark.parametrize("children, index", [
        (range(2**32, 2**32 + 2), 2**32), (range(2**32 - 2, 2**32 + 1), 2**32),
        (range(-1, 3), -1), (range(2**64 + 1, 5, -2**63), 2**64 + 1)],
        ids=["all-wide", "mixed-widths", "negative", "wide-descending"])
    def test_indices_past_one_word(self, children, index):
        # a child index must fit the one uint32 word that the keys give it;
        # no replica count reaches 2**32
        for path in [(), (2**33,)]:
            with pytest.raises(ValueError, match=f"child index {index} does not fit"):
                raw_outputs(SeedTree(4, path), children, STREAM_INDICES_J, 3)
            with pytest.raises(ValueError, match=f"child index {index} does not fit"):
                index_draws(SeedTree(4, path), children, STREAM_INDICES_J, 10, 3)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**140),
           path=st.lists(st.integers(0, 2**70), max_size=3),
           start=st.integers(0, 2**32 - 1), count=st.integers(0, 6), step=st.integers(1, 3),
           name=st.text(max_size=12), outputs=st.integers(0, 9))
    def test_any_tree(self, seed, path, start, count, step, name, outputs):
        children = range(start, min(start + count * step, 2**32), step)
        assert_same_streams(SeedTree(seed, tuple(path)), children, name, outputs)

    def test_empty_range(self):
        for children in (range(0), range(5, 5), range(2**33, 2**33), range(3, 0)):
            assert raw_outputs(SeedTree(3, (1,)), children, STREAM_DATA, 4).shape == (0, 4)
            assert index_draws(SeedTree(3, (1,)), children, STREAM_DATA, 10, 4).shape == (0, 4)

    def test_negative_seed_raises_like_seed_sequence(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            SeedTree(-1).stream(STREAM_DATA)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            raw_outputs(SeedTree(-1), range(1), STREAM_DATA, 1)


# sizes of the index range: one, small, the size where Lemire rejects about
# half the 32-bit draws, and the edges of numpy's 32-bit route
INDEX_RANGES = [1, 2, 3, 10, 10**4, 2**31 + 1, 2**32, 2**32 + 1]


class TestBulkDraws:
    """index_draws() and TerminationRule.indices() on raw outputs give what
    the per-child generator calls give, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**70), path=st.lists(st.integers(0, 2**40), max_size=2),
           start=st.integers(0, 2**20), count=st.integers(0, 5),
           n=st.sampled_from(INDEX_RANGES), size=st.sampled_from([1, 2, 50, 2000]),
           weights_seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.9))
    def test_rows_are_the_per_child_draws(self, seed, path, start, count, n, size,
                                          weights_seed, zeros):
        tree, children = SeedTree(seed, tuple(path)), range(start, start + count)
        draws = index_draws(tree, children, STREAM_INDICES_I, n, size)
        assert draws.shape == (count, size) and draws.dtype == np.int64
        for r, row in zip(children, draws):
            expected = tree.child(r).stream(STREAM_INDICES_I).integers(0, n, size=size)
            assert row.tobytes() == expected.tobytes()
        # termination weights with zero entries, the last one kept positive
        rng = np.random.default_rng(weights_seed)
        w = rng.random(size) * (rng.random(size) >= zeros)
        w[-1] += 1.0
        rule = TerminationRule(w / w.sum())
        raw = raw_outputs(tree, children, STREAM_TERMINATION, 1)[:, 0]
        picked = rule.indices((raw >> 11) * 2.0**-53)
        for r, k in zip(children, picked, strict=True):
            stream = tree.child(r).stream(STREAM_TERMINATION)
            assert k == stream.choice(size, p=rule.weights)
            assert rule.weights[k] > 0.0
            assert rule.sample(tree.child(r).stream(STREAM_TERMINATION)) == k

    @pytest.mark.parametrize("n, redrawn", [(10, 0), (2**31 + 1, 6), (2**32, 0), (2**32 + 1, 6)])
    def test_rejected_rows_are_drawn_again(self, monkeypatch, n, redrawn):
        # at n = 2**31 + 1 Lemire rejects about half of the 32-bit draws, so
        # every row of 50 holds a rejection; past 2**32 numpy draws 64 bits
        streams = []
        stream = SeedTree.stream

        def counted_stream(tree, name):
            streams.append(tree.path)
            return stream(tree, name)

        monkeypatch.setattr(SeedTree, "stream", counted_stream)
        tree = SeedTree(11, (2,))
        draws = index_draws(tree, range(4, 10), STREAM_INDICES_J, n, 50)
        assert len(streams) == redrawn
        monkeypatch.undo()
        for r, row in zip(range(4, 10), draws, strict=True):
            assert row.tolist() == tree.child(r).stream(STREAM_INDICES_J).integers(
                0, n, size=50).tolist()

    def test_one_index_reads_no_output(self, monkeypatch):
        monkeypatch.setattr(fiem.rng, "raw_outputs", None)
        assert not index_draws(SeedTree(0), range(3), STREAM_INDICES_I, 1, 7).any()


class CountingMatrix(np.ndarray):
    """A matrix that counts the products it is the left operand of."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ other


class TestEvaluationCounts:
    @pytest.mark.parametrize("algorithm", ["fiem", "opt-fiem"])
    def test_toy_path_forms_pi2_s_once_per_iteration(self, algorithm):
        # the memory write, the oracle batch, the lambda pass and the
        # diagnostics all read one image Pi2 s per visited state
        m = toy(seed=22, n=9)
        k_max = 30
        sched = StepSchedule.constant(0.2, k_max)
        plain = fiem.run(algorithm, m, sched, TerminationRule.uniform(k_max), 4,
                         opts(m, compute_e2=True))
        m.pi2 = m.pi2.view(CountingMatrix)
        CountingMatrix.products = 0
        counted = fiem.run(algorithm, m, sched, TerminationRule.uniform(k_max), 4,
                           opts(m, compute_e2=True))
        assert CountingMatrix.products == k_max
        assert counted.s_final.tobytes() == plain.s_final.tobytes()
        assert counted.h_sq.tobytes() == plain.h_sq.tobytes()


class TestErrorPaths:
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

            def stat_rows(self, s, indices):
                return np.full((len(indices), 1), -2.0)

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

    def test_divergence_aborts_at_the_first_non_finite_update(self):
        m = toy(seed=1, n=20)
        k_max = 200
        with pytest.raises(RunAbortError) as err, np.errstate(all="ignore"):
            fiem.run("fiem", m, StepSchedule.constant(50.0, k_max),
                     TerminationRule.uniform(k_max), 0, opts(m))
        k = err.value.iteration
        assert 0 < k < k_max and "non-finite" in err.value.condition
        # the same path cut just before that iteration is still finite
        diag = fiem.run("fiem", m, StepSchedule.constant(50.0, k),
                        TerminationRule.uniform(k), 0, opts(m))
        assert np.all(np.isfinite(diag.step_sq)) and np.all(np.isfinite(diag.s_final))

    @pytest.mark.parametrize("algorithm", ["online-em", "fiem"])
    def test_divergence_aborts_without_a_numpy_warning(self, algorithm):
        # the overflow of the aborting iteration itself must not reach stderr
        m = toy(seed=1, n=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RunAbortError):
                fiem.run(algorithm, m, StepSchedule.constant(50.0, 200),
                         TerminationRule.uniform(200), 0, opts(m))

    def test_divergence_stops_the_path_at_the_aborting_iteration(self):
        class Counting(fiem.ToyModel):
            calls = 0

            def stat_rows(self, image, indices):
                Counting.calls += 1
                return super().stat_rows(image, indices)

        m = toy(seed=1, n=20)
        m.__class__ = Counting
        k_max = 200
        with pytest.raises(RunAbortError) as err, np.errstate(all="ignore"):
            fiem.run("fiem", m, StepSchedule.constant(50.0, k_max),
                     TerminationRule.uniform(k_max), 0, opts(m))
        k, aborted_calls = err.value.iteration, Counting.calls
        Counting.calls = 0
        fiem.run("fiem", m, StepSchedule.constant(50.0, k),
                 TerminationRule.uniform(k), 0, opts(m))
        # iteration k adds one memory write and one oracle batch, nothing after
        assert aborted_calls == Counting.calls + 2

    def test_abort_survives_a_pickle_round_trip(self):
        import pickle

        err = pickle.loads(pickle.dumps(RunAbortError(91, "non-finite update")))
        assert isinstance(err, RunAbortError)
        assert (err.iteration, err.condition) == (91, "non-finite update")
        assert str(err) == "iteration 91: non-finite update"


_PINNED_FIELDS = ("s_final", "h_sq", "cv_gap_sq", "step_sq", "vdot_sq", "lambdas", "theta_err")


def diagnostics_digest(runs):
    """sha256 over every recorded array and the termination index of each run,
    in the given order; a missing diagnostic hashes as a fixed marker."""
    digest = hashlib.sha256()
    for diag in runs:
        for field in _PINNED_FIELDS:
            value = getattr(diag, field)
            digest.update(b"-" if value is None else np.ascontiguousarray(value).tobytes())
        digest.update(str(diag.terminal_k).encode())
    return digest.hexdigest()


def case1_schedule(model, k_max):
    inputs = fiem.PlannerInputs.from_constants(model.constants(), n=model.n, k_max=k_max)
    return fiem.plan_case1(inputs).schedule


class TestFullPrecisionPins:
    """Every diagnostic bit of the b = 1 and b = 3 paths, in replica order.

    The verdict pins print 4 significant digits, so a last-bit change in a
    step passes them; these digests do not.  They were recorded under the
    OpenBLAS SkylakeX kernels (see ROADMAP item 5: other kernels change the
    model arrays and the diagnostic dot products)."""

    def test_theorem1_desk_replicas(self):
        model = fiem.generate_toy(0, 10, dims=(4, 3, 3))
        schedule = case1_schedule(model, 50)
        table = run_replicated(ExperimentConfig(
            model=model, algorithms=("fiem",), schedule=schedule,
            termination=TerminationRule.uniform(50),
            options=fiem.RunOptions(s0=np.zeros(model.q), compute_e2=True),
            replicas=200, seed=0))
        assert len(table.runs["fiem"]) == 200
        assert diagnostics_digest(table.runs["fiem"]) == (
            "997e4e4200e0fd892fdbefb68b228b91d01d782a173151b28e33bd23c004777b")

    @pytest.mark.parametrize("b, expected", [
        (1, "6f8d7ff94eda8c3d7641b9611e1a0f09aa38be18c3d8e54242c4763878720ed5"),
        (3, "08937bfd42fde008a1fe96bd033c6f6520fd5ce1a305c34942df8aacd8fe1732"),
    ])
    def test_every_algorithm_at_b(self, b, expected):
        model = fiem.generate_toy(0, 30, dims=(6, 4, 5))
        schedule = case1_schedule(model, 50)
        algorithms = ("online-em", "iem", "fiem", "opt-fiem")
        table = run_replicated(ExperimentConfig(
            model=model, algorithms=algorithms, schedule=schedule,
            termination=TerminationRule.uniform(50),
            options=fiem.RunOptions(s0=np.zeros(model.q), batch_size=b, compute_e0=True,
                                    compute_e2=True, theta_ref=model.theta_star),
            replicas=4, seed=1))
        runs = [d for alg in algorithms for d in table.runs[alg]]
        assert len(runs) == 16
        assert diagnostics_digest(runs) == expected
