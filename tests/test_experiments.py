import dataclasses
import functools
import inspect
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from concurrent import futures
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fiem.algorithms
import fiem.cli
import fiem.experiments
from fiem.algorithms import (MemoryTable, RunDiagnostics, RunOptions, StepSchedule, TerminationRule,
                             fiem_replicas, run)
from fiem.errors import DomainError, RunAbortError
from fiem.experiments import (
    ExperimentConfig,
    GmmExperimentConfig,
    ResultTable,
    checkpoint_summary,
    default_checkpoints,
    estimate_e,
    gmm_epoch_path,
    paired_margin,
    run_replicated,
    table_report,
    terminal_indices,
    verify_bound,
    verify_theorem1,
)
from fiem.gmm import GmmModel, generate_gmm_synthetic, gmm_loglik, init_params
from fiem.model import dots
from fiem.rng import STREAM_TERMINATION, SeedTree
from fiem.stepsize import PlannerInputs, f_n, f_n_tilde, nonuniform_plan, plan_case1, solve_case2
from fiem.toy import generate_toy


def toy(seed=0, n=8, dims=(4, 3, 3)):
    return generate_toy(seed, n=n, dims=dims)


def config(model, algorithms=("fiem",), k_max=30, replicas=5, seed=0, workers=1, **options):
    return ExperimentConfig(
        model=model,
        algorithms=algorithms,
        schedule=StepSchedule.constant(0.1, k_max),
        options=RunOptions(s0=np.zeros(model.q), **options),
        replicas=replicas,
        seed=seed,
        workers=workers,
    )


class TestRunReplicated:
    def test_single_replica_degenerates(self):
        m = toy()
        cfg = config(m, replicas=1)
        table = run_replicated(cfg)
        summary = checkpoint_summary(table, cfg.schedule)
        for row in summary:
            assert row["std"] == 0.0
        d = table.runs["fiem"][0]
        rows_h = [r for r in summary if r["metric"] == "h_sq"]
        for row in rows_h:
            assert row["mean"] == d.h_sq[row["k"]]

    def test_reproducible_tables(self):
        m = toy(seed=1)
        cfg = config(m, replicas=4, seed=3)
        t1, t2 = run_replicated(cfg), run_replicated(cfg)
        assert checkpoint_summary(t1, cfg.schedule) == checkpoint_summary(t2, cfg.schedule)

    def test_algorithms_share_streams_within_replica(self):
        m = toy(seed=2)
        table = run_replicated(config(m, algorithms=("online-em", "opt-fiem"), replicas=2,
                                      forced_lambda=0.0))
        # same index streams -> opt-FIEM at lambda = 0 is Online EM inside a replica
        for online, opt in zip(table.runs["online-em"], table.runs["opt-fiem"], strict=True):
            assert online.s_final.tobytes() == opt.s_final.tobytes()
            assert online.step_sq.tobytes() == opt.step_sq.tobytes()

    def test_parallel_equals_serial(self, monkeypatch):
        # one replica per chunk, so that the two workers share six jobs
        monkeypatch.setattr(fiem.experiments, "_CHUNK_BYTES", 1)
        m = toy(seed=3)
        cfg = config(m, replicas=6, workers=1)
        serial = run_replicated(cfg)
        parallel = run_replicated(config(m, replicas=6, workers=2))
        assert checkpoint_summary(serial, cfg.schedule) == checkpoint_summary(parallel, cfg.schedule)
        for a, b in zip(serial.runs["fiem"], parallel.runs["fiem"]):
            assert np.array_equal(a.s_final, b.s_final)

    def test_replica_streams_pairwise_distinct(self):
        tree = SeedTree(0)
        prefixes = []
        for r in range(20):
            rng = tree.child(r).stream("indices-J")
            prefixes.append(tuple(rng.integers(0, 1000, size=100).tolist()))
        assert len(set(prefixes)) == 20

    def test_complete_flag(self):
        m = toy(seed=4)
        table = run_replicated(config(m, replicas=3))
        assert table.aborted == {"fiem": []}
        assert table.completed["fiem"] == 3

    def test_default_checkpoints_cover_the_run(self):
        ks = default_checkpoints(20000)
        assert ks[0] >= 0 and ks[-1] == 19999
        assert len(ks) == len(set(ks))
        # the writers index every diagnostic array, of K or K + 1 entries, there
        for k_max in (1, 10, 50, 1000):
            assert all(0 <= k < k_max for k in default_checkpoints(k_max))


def full_record_summary(table, schedule):
    """``checkpoint_summary`` as it stacked every replica's whole (K,) record
    of each metric and scaled all K entries of ``step_sq``."""
    checkpoints = default_checkpoints(len(schedule))
    rows = []
    for alg, diags in table.runs.items():
        metric_arrays = {m: [getattr(d, m) for d in diags] for m in fiem.experiments._METRICS}
        metric_arrays["step_sq_scaled"] = [a / schedule.gammas**2 for a in metric_arrays["step_sq"]]
        for metric, arrays in metric_arrays.items():
            if arrays[0] is None:
                continue
            stacked = np.stack(arrays)
            for k in checkpoints:
                col = stacked[:, k]
                mean, std = float(col.mean()), float(col.std(ddof=1)) if col.size > 1 else 0.0
                rows.append({"algorithm": alg, "k": k, "metric": metric, "mean": mean, "std": std,
                             "q25": float(np.quantile(col, 0.25)),
                             "q75": float(np.quantile(col, 0.75))})
    return rows


def shared_record_table(replicas, k_max, seed=0):
    """Records of the toy's three algorithms, with ``cv_gap_sq`` on FIEM;
    replica r's records are views at offset r into one block per algorithm,
    so that the table holds O(R + K) values, not O(R K)."""
    rng = np.random.default_rng(seed)
    runs = {}
    for alg in ("online-em", "fiem", "opt-fiem"):
        block = rng.random((6, replicas + k_max + 1))
        runs[alg] = [RunDiagnostics(
            np.zeros(3), np.zeros(3), step_sq=block[0, r:r + k_max],
            h_sq=block[1, r:r + k_max], vdot_sq=block[2, r:r + k_max],
            theta_err=block[3, r:r + k_max + 1],
            cv_gap_sq=block[4, r:r + k_max] if alg == "fiem" else None,
            lambdas=block[5, r:r + k_max] if alg == "opt-fiem" else None)
            for r in range(replicas)]
    return ResultTable(runs, {alg: [] for alg in runs})


def summary_peak(replicas, k_max) -> int:
    """Traced allocation peak of one :func:`checkpoint_summary`, in bytes."""
    table, schedule = shared_record_table(replicas, k_max), StepSchedule.constant(0.3, k_max)
    checkpoint_summary(shared_record_table(2, 10), StepSchedule.constant(0.3, 10))  # imports
    tracemalloc.start()
    try:
        checkpoint_summary(table, schedule)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpointSummary:
    def test_rows_equal_the_full_record_form(self):
        table, schedule = shared_record_table(7, 400), StepSchedule.constant(0.3, 400)
        assert checkpoint_summary(table, schedule) == full_record_summary(table, schedule)

    def test_rows_of_real_runs_equal_the_full_record_form(self):
        m = toy(seed=5, n=12)
        cfg = config(m, algorithms=("online-em", "fiem", "opt-fiem"), k_max=60, replicas=4,
                     compute_e2=True, compute_e0=True, theta_ref=m.theta_star)
        table = run_replicated(cfg)
        assert checkpoint_summary(table, cfg.schedule) == full_record_summary(table, cfg.schedule)

    def test_peak_does_not_grow_with_the_record_length(self):
        # stacking whole records grows the peak tenfold from K = 2e3 to 2e4
        assert summary_peak(20, 20_000) < 2 * summary_peak(20, 2_000)

    def test_peak_at_two_hundred_replicas_of_twenty_thousand_iterations(self):
        # whole records of three algorithms traced about 93 MiB here
        assert summary_peak(200, 20_000) < 4 << 20

    def test_quartiles_are_np_quantile_bit_for_bit(self):
        # one to a thousand replicas, scales across the float range, signed
        # zeros, infinities, NaN and overflowing runs of 1e308
        rng = np.random.default_rng(0)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
        for replicas in [*range(1, 42), 100, 200, 1000]:
            for kind in range(6):
                col = rng.normal(size=replicas) * 10.0 ** rng.uniform(-300, 300)
                if kind == 1:
                    col = rng.choice(specials, size=replicas)
                elif kind == 2:
                    col = rng.choice([0.0, -0.0, 1.0], size=replicas)
                elif kind == 3:
                    col[rng.integers(0, replicas)] = rng.choice([np.inf, np.nan])
                elif kind == 4:
                    col[:] = 1e308
                elif kind == 5:
                    col = np.sort(col)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = [float(v).hex() for v in np.quantile(col, (0.25, 0.75))]
                    got = [v.hex() for v in fiem.experiments._quartiles(col)]
                assert got == want, col

    def test_summary_imports_no_masked_arrays(self):
        # np.quantile imports numpy.ma, about 1 MiB of a toy run's peak
        code = ("import sys; from fiem.algorithms import StepSchedule; "
                "from fiem.experiments import checkpoint_summary; "
                "from test_experiments import shared_record_table; "
                "checkpoint_summary(shared_record_table(5, 40), StepSchedule.constant(0.3, 40)); "
                "print('numpy.ma' in sys.modules)")
        paths = (Path(fiem.experiments.__file__).resolve().parents[1], Path(__file__).parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True).stdout
        assert out == "False\n"


class TestEstimates:
    def test_deterministic_em_estimate(self):
        m = toy(seed=5)
        table = run_replicated(config(m, algorithms=("em",), replicas=3, seed=9))
        rule = TerminationRule.uniform(30)
        est = estimate_e(table, "em", rule, 9)
        # each replica contributes ||h(s^K)||^2 at its own K on the same path
        d = table.runs["em"][0]
        ks = terminal_indices(rule, 9, 3)
        expected = np.mean([r.h_sq[k] for r, k in zip(table.runs["em"], ks)])
        assert est.e1 == expected
        assert d.h_sq[ks[0]] == table.runs["em"][0].h_sq[ks[0]]

    def test_point_mass_beats_uniform_on_monotone_path(self):
        m = toy(seed=6)
        k_max = 40
        sched = StepSchedule.constant(0.5, k_max)
        base = dict(model=m, algorithms=("em",), schedule=sched,
                    options=RunOptions(s0=np.zeros(m.q)), replicas=20, seed=1)
        last = np.zeros(k_max)
        last[-1] = 1.0
        table = run_replicated(ExperimentConfig(**base))
        e_uni = estimate_e(table, "em", TerminationRule.uniform(k_max), 1)
        e_point = estimate_e(table, "em", TerminationRule(last), 1)
        assert e_point.e1 <= e_uni.e1

    def test_e0_below_e1(self):
        m = toy(seed=7, n=12)
        table = run_replicated(config(m, replicas=30, compute_e0=True, seed=2))
        est = estimate_e(table, "fiem", TerminationRule.uniform(30), 2, v_max=m.constants().v_max)
        assert est.e0 <= est.e1 + 3.0 * est.se1

    def test_e0_needs_vmax(self):
        m = toy(seed=9)
        table = run_replicated(config(m, replicas=2, compute_e0=True))
        with pytest.raises(ValueError):
            estimate_e(table, "fiem", TerminationRule.uniform(30), 0)

    def test_rule_must_cover_k_max(self):
        m = toy(seed=9)
        table = run_replicated(config(m, replicas=2))
        with pytest.raises(ValueError, match="termination weights must have length K_max"):
            estimate_e(table, "fiem", TerminationRule.uniform(29), 0)
        with pytest.raises(ValueError, match="termination weights must have length K_max"):
            verify_bound(table, TerminationRule.uniform(31), 0, m, 1.0, "case1")

    def test_an_aborted_replica_pairs_no_index(self):
        # K of replica r pairs with run r; with replica 0 aborted, run 0 is
        # replica 1's, so the estimators raise instead
        m = toy(seed=9)
        table = run_replicated(config(m, replicas=3))
        table = ResultTable({"fiem": table.runs["fiem"][1:]}, {"fiem": [(0, 4, "diverged")]})
        with pytest.raises(RunAbortError, match="replica 0: diverged"):
            estimate_e(table, "fiem", TerminationRule.uniform(30), 0)
        with pytest.raises(RunAbortError, match="replica 0: diverged"):
            verify_bound(table, TerminationRule.uniform(30), 0, m, 1.0, "case1")


class TestTerminalIndices:
    @pytest.mark.parametrize("zeros", [0.0, 0.5, 0.9], ids=["uniform", "half-zero", "mostly-zero"])
    @pytest.mark.parametrize("size", [1, 2, 50, 2000])
    def test_each_replica_draws_choice_on_its_own_stream(self, size, zeros):
        rule = TerminationRule.uniform(size)
        if zeros:
            # weights with zero entries, the last one kept positive
            rng = np.random.default_rng(size)
            w = rng.random(size) * (rng.random(size) >= zeros)
            w[-1] += 1.0
            rule = TerminationRule(w / w.sum())
        for seed in (0, 7, 2**40):
            ks = terminal_indices(rule, seed, 6)
            assert len(ks) == 6
            for r, k in enumerate(ks):
                stream = SeedTree(seed).child(r).stream(STREAM_TERMINATION)
                assert k == stream.choice(size, p=rule.weights)
                assert rule.weights[k] > 0.0


class TestTheorem1Verification:
    def test_holds_at_moderate_step(self):
        m = toy(seed=10, n=6)
        plan = plan_case1(
            PlannerInputs.from_constants(m.constants(), n=m.n, k_max=30))
        report = verify_theorem1(m, plan.schedule, np.zeros(m.q), replicas=200, seed=0)
        assert report.holds
        assert report.lhs <= report.rhs + 3.0 * abs(report.rhs - report.lhs)

    def test_vanishing_steps_shrink_both_sides(self):
        m = toy(seed=11, n=6)
        coarse = verify_theorem1(m, StepSchedule.constant(1e-4, 20), np.zeros(m.q),
                                 replicas=10, seed=0)
        fine = verify_theorem1(m, StepSchedule.constant(1e-8, 20), np.zeros(m.q),
                               replicas=10, seed=0)
        assert fine.lhs < 1e-3 * coarse.lhs
        assert abs(fine.rhs) < 1e-3 * abs(coarse.rhs)
        assert not np.isnan(fine.margin_sigmas)
        assert fine.holds

    @pytest.mark.parametrize("factor, min_alpha", [(5.0, "-9.819e+00"), (20.0, "-1.739e+11")])
    def test_oversized_steps_are_vacuous(self, factor, min_alpha):
        # at the desk setting, 5 and 20 times the planned step turn some
        # alpha_k negative: the lhs drops below DeltaV without certifying
        # anything, so the check must not pass
        m = toy(seed=0, n=10)
        plan = plan_case1(
            PlannerInputs.from_constants(m.constants(), n=m.n, k_max=50))
        planned = verify_theorem1(m, plan.schedule, np.zeros(m.q), replicas=200, seed=0)
        assert planned.vacuous is None and planned.holds
        report = verify_theorem1(m, StepSchedule(factor * plan.schedule.gammas),
                                 np.zeros(m.q), replicas=200, seed=0)
        assert report.lhs < 0.0 < report.rhs and report.margin_sigmas > 3.0
        assert report.vacuous == f"min alpha_k={min_alpha} <= 0"
        assert not report.holds

    def test_aborted_replica_is_an_error(self):
        m = toy(seed=10, n=6)
        with pytest.raises(RunAbortError) as err, np.errstate(all="ignore"):
            verify_theorem1(m, StepSchedule.constant(50.0, 200), np.zeros(m.q),
                            replicas=3, seed=0)
        assert "replica 0" in err.value.condition

    def test_pooled_replicas_equal_serial_bits(self):
        m = toy(seed=10, n=6)
        plan = plan_case1(
            PlannerInputs.from_constants(m.constants(), n=m.n, k_max=30))
        serial, pooled = (
            verify_theorem1(m, plan.schedule, np.zeros(m.q), replicas=40, seed=0, workers=w)
            for w in (1, 2))
        for field in ("lhs", "rhs", "margin_sigmas"):
            assert getattr(serial, field).hex() == getattr(pooled, field).hex()

    @pytest.mark.parametrize("dims", [(4, 3, 3), (6, 4, 5), (15, 10, 20)])
    def test_stacked_sides_are_the_per_replica_forms(self, dims):
        # V(S^Kmax) on the toy's replica axis and the weighted sums of the
        # lhs through the stacked dot hold the bits of one state's gemv and dots
        m = generate_toy(2, 10, dims=dims)
        diags = run_replicated(config(m, k_max=40, replicas=64, compute_e2=True)).runs["fiem"]

        def v(s):
            theta = m.tmat @ s
            return 0.5 * float(theta @ m._obj_m @ theta) - float(m._obj_b @ theta) + m._obj_c

        expected = np.array([v(diags[0].s0) - v(d.s_final) for d in diags])
        assert fiem.experiments._delta_v(m, diags).tobytes() == expected.tobytes()
        alphas, deltas = np.random.default_rng(1).normal(size=(2, 40))
        lhs = (dots(alphas, np.array([d.h_sq for d in diags]))
               + dots(deltas, np.array([d.cv_gap_sq for d in diags])))
        expected = np.array([alphas @ d.h_sq + deltas @ d.cv_gap_sq for d in diags])
        assert lhs.tobytes() == expected.tobytes()

    def test_a_non_finite_final_state_names_its_replica(self):
        m = toy()
        diags = [RunDiagnostics(np.zeros(m.q), np.full(m.q, value), np.zeros(1))
                 for value in (1.0, 2.0, np.inf, np.nan)]
        with pytest.raises(DomainError, match="replica 2: statistic has non-finite entries"):
            fiem.experiments._delta_v(m, diags)

    def test_deterministic_single_example(self):
        m = toy(seed=12, n=1)
        sched = StepSchedule.constant(0.05, 25)
        report = verify_theorem1(m, sched, np.zeros(m.q), replicas=1, seed=0)
        assert report.margin_sigmas == float("inf")
        assert report.lhs <= report.rhs + 1e-12


class TestBoundVerification:
    def test_paired_margin_sign(self):
        assert paired_margin(np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.1, 1.9])) > 0
        assert paired_margin(np.array([2.0, 2.1]), np.array([1.0, 1.0])) < 0
        assert paired_margin(np.array([1.0]), np.array([2.0])) == float("inf")

    def test_case1_bound_on_small_run(self):
        # full two-term criterion: the control-variate gap enters with weight
        # mu / ((1-mu) f_n n^(2/3))
        m = toy(seed=13, n=20, dims=(5, 4, 4))
        k_max = 200
        ins = PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max)
        plan = plan_case1(ins)
        cfg = ExperimentConfig(
            model=m, algorithms=("fiem",), schedule=plan.schedule,
            options=RunOptions(s0=np.zeros(m.q), compute_e2=True), replicas=60, seed=5)
        table = run_replicated(cfg)
        diags = table.runs["fiem"]
        coeff = m.n ** (2.0 / 3.0) / k_max * plan.bound_constant
        report = verify_bound(table, TerminationRule.uniform(k_max), 5, m, coeff, "case1")
        assert report.holds
        fn = f_n(plan.c, ins.lam, ins.n)
        e2_weight = ins.mu / ((1.0 - ins.mu) * fn * ins.n ** (2.0 / 3.0))
        ks = terminal_indices(TerminationRule.uniform(k_max), 5, len(diags))
        lhs = np.array([d.h_sq[k] + e2_weight * d.cv_gap_sq[k] for d, k in zip(diags, ks)])
        v0 = m.objective(m.tmap(np.zeros(m.q)))
        rhs = coeff * np.array([v0 - m.objective(m.tmap(d.s_final)) for d in diags])
        assert paired_margin(lhs, rhs) >= -3.0

    def test_case2_bound_on_small_run(self):
        m = toy(seed=13, n=20, dims=(5, 4, 4))
        k_max = 300
        ins = PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max)
        plan = solve_case2(ins)
        assert plan.feasible
        cfg = ExperimentConfig(
            model=m, algorithms=("fiem",), schedule=plan.schedule,
            options=RunOptions(s0=np.zeros(m.q), compute_e2=True), replicas=100, seed=0)
        table = run_replicated(cfg)
        diags = table.runs["fiem"]
        coeff = m.n ** (1.0 / 3.0) / k_max ** (2.0 / 3.0) * plan.bound_constant
        report = verify_bound(table, TerminationRule.uniform(k_max), 0, m, coeff, "case2")
        assert report.holds
        fn = f_n_tilde(plan.c, ins.lam, ins.n, k_max)
        e2_weight = ins.mu / ((1.0 - ins.mu) * fn * (ins.n * k_max) ** (1.0 / 3.0))
        ks = terminal_indices(TerminationRule.uniform(k_max), 0, len(diags))
        lhs = np.array([d.h_sq[k] + e2_weight * d.cv_gap_sq[k] for d, k in zip(diags, ks)])
        v0 = m.objective(m.tmap(np.zeros(m.q)))
        rhs = coeff * np.array([v0 - m.objective(m.tmap(d.s_final)) for d in diags])
        assert paired_margin(lhs, rhs) >= -3.0

    def test_nonuniform_bound_with_skewed_weights(self):
        # the per-iteration schedule and the matched termination law come
        # from the same plan; K is drawn from the skewed weights per replica
        m = toy(seed=13, n=20, dims=(5, 4, 4))
        k_max = 300
        w = np.linspace(1.0, 3.0, k_max)
        w /= w.sum()
        plan = nonuniform_plan(
            PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max), w)
        assert plan.feasible
        cfg = ExperimentConfig(
            model=m, algorithms=("fiem",), schedule=plan.schedule,
            options=RunOptions(s0=np.zeros(m.q)), replicas=100, seed=1)
        table = run_replicated(cfg)
        coeff = m.n ** (2.0 / 3.0) * float(w.max()) * plan.bound_constant
        report = verify_bound(table, plan.termination, 1, m, coeff, "nonuniform")
        assert report.holds

    def test_theorem1_with_custom_betas(self):
        # any positive beta sequence is admissible; large betas can push the
        # h-weights negative and the inequality must still hold
        m = toy(seed=13, n=20, dims=(5, 4, 4))
        k_max = 300
        plan = plan_case1(
            PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max))
        report = verify_theorem1(m, plan.schedule, np.zeros(m.q), replicas=100,
                                 seed=2, betas=np.full(k_max, 0.1))
        assert report.margin_sigmas >= -3.0 or report.lhs <= report.rhs
        # a negative h-weight makes the comparison vacuous, so it is no pass
        assert report.vacuous.startswith("min alpha_k=-")
        assert not report.holds

    def test_bound_with_no_descent_is_vacuous(self):
        m = toy(seed=13, n=20, dims=(5, 4, 4))
        table = run_replicated(config(m, k_max=20, replicas=4))
        # every path ends where it started: DeltaV = 0 certifies nothing
        diags = [dataclasses.replace(d, s_final=d.s0) for d in table.runs["fiem"]]
        last = TerminationRule(np.eye(20)[-1])
        report = verify_bound(ResultTable({"fiem": diags}, {"fiem": []}), last, 0, m, 1.0, "case1")
        assert report.vacuous == "mean deltaV=0.000e+00 <= 0"
        assert not report.holds


class TestRatioCurves:
    def test_opt_fiem_over_fiem_parameter_error_ratio_tends_to_one(self):
        # once the optimal mixing coefficient settles near one, the two
        # variance-reduced paths become statistically indistinguishable
        m = toy(seed=14, n=50, dims=(6, 4, 5))
        k_max = 10 * m.n
        plan = plan_case1(
            PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max))
        cfg = ExperimentConfig(
            model=m, algorithms=("opt-fiem", "fiem"), schedule=plan.schedule,
            options=RunOptions(s0=np.zeros(m.q), theta_ref=m.theta_star), replicas=40, seed=0)
        table = run_replicated(cfg)
        err = {
            alg: np.stack([d.theta_err for d in table.runs[alg]])
            for alg in ("opt-fiem", "fiem")
        }
        ratio_late = err["opt-fiem"][:, -1].mean() / err["fiem"][:, -1].mean()
        assert abs(ratio_late - 1.0) < 0.05


class TestAbortHandling:
    def test_run_abort_carries_iteration_index(self):
        ds, _ = generate_gmm_synthetic(10, n=120, g=3, p=4, separation=3.0)
        model = GmmModel(ds, 3)
        s0 = model.sbar(init_params(ds, 3, 6))
        k_max = 400
        with pytest.raises(RunAbortError) as err:
            run(
                "online-em", model, StepSchedule.constant(5e-2, k_max), 1,
                RunOptions(s0=s0, batch_size=10, compute_h=False),
            )
        assert 0 <= err.value.iteration < k_max
        assert "indefinite" in err.value.condition or "empty" in err.value.condition

    def test_replica_aborts_are_recorded(self):
        ds, _ = generate_gmm_synthetic(10, n=120, g=3, p=4, separation=3.0)
        model = GmmModel(ds, 3)
        s0 = model.sbar(init_params(ds, 3, 6))
        k_max = 400
        cfg = ExperimentConfig(
            model=model, algorithms=("online-em",),
            schedule=StepSchedule.constant(5e-2, k_max),
            options=RunOptions(s0=s0, batch_size=10), replicas=4, seed=1)
        # the aggressive step leaves the admissible region on at least one path
        table = run_replicated(cfg)
        total = table.completed["online-em"] + len(table.aborted["online-em"])
        assert total == 4
        assert len(table.aborted["online-em"]) >= 1
        for r, k, condition in table.aborted["online-em"]:
            assert 0 <= r < 4 and 0 <= k < k_max and condition

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_report_aborts_are_recorded(self, workers):
        # a unit-scale step with tiny batches leaves the admissible region
        ds, _ = generate_gmm_synthetic(10, n=120, g=3, p=4, separation=3.0)
        cfg = GmmExperimentConfig(
            model=GmmModel(ds, 3), algorithms=("em", "online-em"), gamma=0.9,
            batch_size=2, epochs=20, replicas=2, seed=1, kswitch=0, workers=workers)
        rows, paths, aborted = table_report(cfg)
        assert len(paths["em"]) == 2 and not aborted["em"]
        assert [r for r, _, _ in aborted["online-em"]] == [0, 1]
        for r, k, condition in aborted["online-em"]:
            assert 0 <= k < 20 * 60 and "indefinite" in condition
        assert not paths["online-em"]
        # rows come from completed paths only
        assert {row["algorithm"] for row in rows} == {"em"}


class TestScaledUpdateWindow:
    def test_scaled_metric_in_aggregates(self):
        m = toy(seed=15)
        cfg = config(m, replicas=2)
        summary = checkpoint_summary(run_replicated(cfg), cfg.schedule)
        scaled = [r for r in summary if r["metric"] == "step_sq_scaled"]
        raw = [r for r in summary if r["metric"] == "step_sq"]
        assert scaled and len(scaled) == len(raw)
        for s_row, r_row in zip(scaled, raw):
            assert s_row["mean"] == pytest.approx(r_row["mean"] / 0.1**2, rel=1e-12)


class TestGmmTable:
    def test_table_rows_and_determinism(self):
        ds, _ = generate_gmm_synthetic(4, n=200, g=3, p=3, separation=3.0)
        model = GmmModel(ds, 3)
        # 25 epochs reach the table rows 1, 15 and 25
        cfg = GmmExperimentConfig(
            model=model, algorithms=("em", "online-em"), gamma=5e-3, batch_size=50,
            epochs=25, replicas=2, seed=7, kswitch=0)
        rows1, paths1, aborted = table_report(cfg)
        rows2, _, _ = table_report(cfg)
        assert aborted == {"em": [], "online-em": []}
        assert rows1 == rows2
        assert {r["epoch"] for r in rows1} == {1, 15, 25}
        assert {r["algorithm"] for r in rows1} == {"em", "online-em"}

    def test_iem_steps_to_the_memory_mean(self, monkeypatch):
        # the table's iEM runs at unit step whatever the configured gamma, so
        # each state is the memory mean after its write: classical incremental EM
        ds, _ = generate_gmm_synthetic(9, n=120, g=3, p=3, separation=3.0)
        cfg = GmmExperimentConfig(model=GmmModel(ds, 3), algorithms=("iem",), gamma=5e-2,
                                  batch_size=20, epochs=2, replicas=1, seed=4, kswitch=0)
        steps = []
        iem_step = fiem.algorithms.iem_step

        def spy(model, s, image, memory, batch, gamma):
            s_new, memory = iem_step(model, s, image, memory, batch, gamma)
            steps.append((gamma, np.array_equal(s_new, memory.mean)))
            return s_new, memory

        monkeypatch.setattr(fiem.algorithms, "iem_step", spy)
        _, paths, aborted = table_report(cfg)
        assert len(paths["iem"]) == 1 and not aborted["iem"]
        assert steps == [(1.0, True)] * (2 * 120 // 20)

    def test_parallel_table_equals_serial(self):
        ds, _ = generate_gmm_synthetic(8, n=120, g=2, p=2, separation=2.0)
        model = GmmModel(ds, 2)
        base = dict(model=model, algorithms=("em", "online-em"), gamma=5e-3,
                    batch_size=30, epochs=15, replicas=4, seed=3, kswitch=0)
        serial = table_report(GmmExperimentConfig(workers=1, **base))[0]
        parallel = table_report(GmmExperimentConfig(workers=2, **base))[0]
        assert serial == parallel

    def test_repeated_path_has_zero_spread(self):
        ds, _ = generate_gmm_synthetic(5, n=100, g=2, p=2, separation=2.0)
        model = GmmModel(ds, 2)
        s0 = model.sbar(init_params(ds, 2, 0))
        a = gmm_epoch_path(model, "online-em", s0, 5e-3, 25, 4, seed=11)
        b = gmm_epoch_path(model, "online-em", s0, 5e-3, 25, 4, seed=11)
        stacked = np.array([[gmm_loglik(theta, ds) for theta in path.params]
                            for path in (a, b)])
        assert stacked.shape == (2, 4)
        assert np.all(stacked.std(axis=0) == 0.0)

    def test_incremental_methods_lead_after_first_epoch(self):
        # needs many parameter updates inside the first epoch, as in the
        # reference setup (n/b iterations against one full EM pass)
        ds, _ = generate_gmm_synthetic(6, n=600, g=3, p=3, separation=3.0)
        model = GmmModel(ds, 3)
        cfg = GmmExperimentConfig(
            model=model, algorithms=("em", "iem", "online-em"), gamma=5e-3,
            batch_size=1, epochs=1, replicas=3, seed=2, kswitch=0)
        rows = table_report(cfg)[0]
        by_alg = {r["algorithm"]: r["mean"] for r in rows}
        assert by_alg["iem"] > by_alg["em"]
        assert by_alg["online-em"] > by_alg["em"]


class TestHybridEpochPath:
    def setup_method(self):
        ds, _ = generate_gmm_synthetic(23, n=120, g=3, p=3, separation=3.0)
        self.model = GmmModel(ds, 3)
        self.s0 = self.model.sbar(init_params(ds, 3, 5))

    def path(self, algorithm, epochs, kswitch=0, batch_size=10):
        return gmm_epoch_path(self.model, algorithm, self.s0, 5e-2, batch_size,
                              epochs, seed=5, kswitch=kswitch)

    def assert_same_path(self, a, b):
        assert np.array_equal(a.loglik, b.loglik)
        assert np.array_equal(a.weights, b.weights)
        assert len(a.params) == len(b.params)
        for pa, pb in zip(a.params, b.params):
            for field in ("weights", "means", "cov"):
                assert np.array_equal(getattr(pa, field), getattr(pb, field))
        curves = [[gmm_loglik(theta, self.model.dataset) for theta in path.params]
                  for path in (a, b)]
        assert np.array_equal(*curves)
        assert (a.iterations, a.examples_processed) == (b.iterations, b.examples_processed)

    def test_zero_switch_is_pure_fiem(self):
        self.assert_same_path(self.path("h-fiem", 4, kswitch=0), self.path("fiem", 4))

    def test_full_switch_is_pure_online(self):
        self.assert_same_path(self.path("h-fiem", 3, kswitch=3), self.path("online-em", 3))

    def test_default_switch_is_the_papers_everywhere(self):
        # the CLI, the config and a library call all switch after 6 epochs
        from fiem.cli import build_parser

        default = inspect.signature(gmm_epoch_path).parameters["kswitch"].default
        field = {f.name: f.default for f in dataclasses.fields(GmmExperimentConfig)}["kswitch"]
        flag = build_parser().commands["gmm"].get_default("kswitch")
        assert default == field == flag == fiem.experiments.KSWITCH == 6
        path = functools.partial(gmm_epoch_path, self.model, "h-fiem", self.s0, 5e-2, 10,
                                 seed=5)
        self.assert_same_path(path(8), path(8, kswitch=6))
        with pytest.raises(ValueError, match=r"--kswitch past --epochs: kswitch=6 is outside "
                                             r"0\.\.epochs=4"):
            path(4)

    def test_epoch_divisibility_enforced(self):
        # 40 divides n = 120 but two batches of 40 do not, also when every
        # epoch is an Online EM epoch
        self.path("online-em", 2, batch_size=40)
        for kswitch in (1, 2):
            with pytest.raises(ValueError, match=r"^2\*batch=80 \(--batch 40\) does not divide "
                                                 r"n=120 for h-fiem$"):
                self.path("h-fiem", 2, kswitch=kswitch, batch_size=40)


# -- FIEM replicas on one (R, q) state ---------------------------------------

_DIAG_FIELDS = ("s0", "s_final", "step_sq", "h_sq", "cv_gap_sq", "vdot_sq", "lambdas",
                "theta_err", "violations")


def _bits(outcome):
    """Every recorded field of a run as bytes, or an abort as it is."""
    if isinstance(outcome, tuple):
        return outcome
    return tuple(np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
                 for v in (getattr(outcome, f) for f in _DIAG_FIELDS))


def _per_path(model, schedule, seed, replicas, options):
    """One :func:`fiem.algorithms.run` per replica on ``SeedTree(seed).child(r)``; an
    abort kept as (iteration, condition)."""
    out = []
    for r in range(replicas):
        try:
            out.append(run("fiem", model, schedule, SeedTree(seed).child(r), options))
        except RunAbortError as exc:
            out.append((exc.iteration, exc.condition))
    return [_bits(o) for o in out]


def _table_bits(table):
    """The outcomes of a FIEM table in replica order, as :func:`_bits`."""
    aborted = {r: (k, condition) for r, k, condition in table.aborted["fiem"]}
    done = iter(table.runs["fiem"])
    return [aborted[r] if r in aborted else _bits(next(done))
            for r in range(len(aborted) + len(table.runs["fiem"]))]


# the diagnostics switched on, each on and off across the n values
_DIAGNOSTICS = [dict(compute_h=True, compute_e0=True, compute_e2=True),
                dict(compute_h=False, compute_e0=False, compute_e2=False),
                dict(compute_h=True, compute_e0=False, compute_e2=False),
                dict(compute_h=False, compute_e0=True, compute_e2=True)]


class TestReplicaAxis:
    @pytest.mark.parametrize("dims", [(4, 3, 3), (6, 4, 5), (15, 10, 20)])
    @pytest.mark.parametrize("n, diagnostics", zip([1, 2, 10, 30], _DIAGNOSTICS))
    def test_engine_is_run_bit_for_bit(self, dims, n, diagnostics):
        # K crosses four memory refreshes; R == q catches a pi2 @ S that
        # silently forms the wrong product
        m = generate_toy(3, n, dims=dims)
        k_max = 4 * n + 3
        schedule = StepSchedule(np.linspace(0.05, 0.4, k_max))
        s0 = np.random.default_rng(n).standard_normal(m.q)
        options = RunOptions(s0=s0, **diagnostics)
        expected = _per_path(m, schedule, 7, 200, options)
        for replicas in (1, m.q, 200):
            block = fiem_replicas(m, schedule, SeedTree(7), range(replicas), options)
            assert [_bits(o) for o in block] == expected[:replicas]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_inside_r_keep_every_bit(self, workers, monkeypatch):
        # a cap of three replicas' memory tables and six (K,) rows cuts R = 8
        # into three chunks
        m = toy(seed=4, n=10)
        monkeypatch.setattr(fiem.experiments, "_CHUNK_BYTES", 3 * (m.n * m.q + 6 * 35) * 8)
        cfg = config(m, k_max=35, replicas=8, seed=2, workers=workers,
                     compute_e0=True, compute_e2=True)
        assert fiem.experiments._chunks(cfg) == [(0, 2), (2, 5), (5, 8)]
        table = run_replicated(cfg)
        assert _table_bits(table) == _per_path(m, cfg.schedule, 2, 8, cfg.options)
        monkeypatch.setattr(fiem.experiments, "_CHUNK_BYTES", 64 << 20)
        assert checkpoint_summary(table, cfg.schedule) == checkpoint_summary(
            run_replicated(dataclasses.replace(cfg, workers=1)), cfg.schedule)

    @pytest.mark.parametrize("per_chunk, ranges", [(8, [(0, 8)]), (3, [(0, 2), (2, 5), (5, 8)])])
    def test_chunks_follow_memory_alone(self, per_chunk, ranges, monkeypatch):
        # the cap, in replicas' footprints, decides the ranges; the worker
        # count decides only how many processes run them
        m = toy(seed=4, n=10)
        monkeypatch.setattr(fiem.experiments, "_CHUNK_BYTES", per_chunk * 8 * (m.n * m.q + 6 * 35))
        for workers in (1, 2, 8):
            cfg = config(m, k_max=35, replicas=8, workers=workers, compute_e0=True, compute_e2=True)
            assert fiem.experiments._chunks(cfg) == ranges

    def test_chunks_count_the_per_iteration_rows(self):
        # 1000 replicas of 2e4 iterations hold about 640 MB of index draws,
        # step_sq and h_sq against a memory table of under 1 MB
        cfg = config(toy(), k_max=20000, replicas=1000)
        chunks = fiem.experiments._chunks(cfg)
        per_replica = 8 * (cfg.model.n * cfg.model.q + 4 * 20000)
        assert len(chunks) > 1
        assert all((hi - lo) * per_replica < fiem.experiments._CHUNK_BYTES for lo, hi in chunks)
        assert chunks[0][0] == 0 and chunks[-1][1] == 1000
        assert all(prev[1] == nxt[0] for prev, nxt in zip(chunks, chunks[1:]))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("gamma, k_max, mixed", [(50.0, 200, False), (5.0, 273, True)])
    def test_aborts_match_the_scalar_engine(self, workers, gamma, k_max, mixed):
        # at gamma = 5 some replicas overflow at iteration 272 and the rest
        # complete their 273 iterations; at 50 all overflow at iteration 93
        m = generate_toy(1, 30, dims=(6, 4, 5))
        cfg = config(m, k_max=k_max, replicas=40, seed=0, workers=workers)
        cfg.schedule = StepSchedule.constant(gamma, k_max)
        with np.errstate(all="ignore"):
            table = run_replicated(cfg)
            expected = _per_path(m, cfg.schedule, 0, 40, cfg.options)
        first = next((r, *e) for r, e in enumerate(expected) if len(e) == 2)
        assert table.aborted["fiem"][0] == first
        assert _table_bits(table) == expected
        assert bool(table.runs["fiem"]) == mixed and table.aborted["fiem"]


class _Counts:
    """Calls of the functions the benchmark tracer counts, installed the way
    it installs them, the SeedSequence and Philox constructions behind the
    random streams, and the generator calls that draw from them."""

    def __init__(self, monkeypatch):
        self.run = self.stream = self.child = self.draw = self.sample = 0
        self.seed_sequence = self.philox = self.random_raw = self.choice = self.integers = 0
        self.fiem_step = self.memory_init = 0
        run, draw, sample = fiem.experiments.run, fiem.algorithms.draw_batch, TerminationRule.sample
        step, init = fiem.algorithms.fiem_step, MemoryTable.init.__func__
        stream, child = SeedTree.stream, SeedTree.child
        seed_sequence = np.random.SeedSequence
        counts = self

        def counted_run(*args, **kwargs):
            self.run += 1
            return run(*args, **kwargs)

        def counted_stream(tree, name):
            self.stream += 1
            return stream(tree, name)

        def counted_child(tree, index):
            self.child += 1
            return child(tree, index)

        def counted_draw(*args, **kwargs):
            self.draw += 1
            return draw(*args, **kwargs)

        def counted_sample(rule, rng):
            self.sample += 1
            return sample(rule, rng)

        def counted_step(*args, **kwargs):
            self.fiem_step += 1
            return step(*args, **kwargs)

        def counted_init(cls, *args, **kwargs):
            self.memory_init += 1
            return init(cls, *args, **kwargs)

        def counted_seed_sequence(*args, **kwargs):
            self.seed_sequence += 1
            return seed_sequence(*args, **kwargs)

        class Philox(np.random.Philox):
            # named as numpy's: its state setter checks the class name
            def __init__(self, *args, **kwargs):
                counts.philox += 1
                super().__init__(*args, **kwargs)

            def random_raw(self, *args, **kwargs):
                counts.random_raw += 1
                return super().random_raw(*args, **kwargs)

        class Generator(np.random.Generator):
            def choice(self, *args, **kwargs):
                counts.choice += 1
                return super().choice(*args, **kwargs)

            def integers(self, *args, **kwargs):
                counts.integers += 1
                return super().integers(*args, **kwargs)

        monkeypatch.setattr(fiem.experiments, "run", counted_run)
        monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
        monkeypatch.setattr(np.random, "Philox", Philox)
        monkeypatch.setattr(np.random, "Generator", Generator)
        monkeypatch.setattr(SeedTree, "stream", counted_stream)
        monkeypatch.setattr(SeedTree, "child", counted_child)
        monkeypatch.setattr(TerminationRule, "sample", counted_sample)
        monkeypatch.setattr(fiem.algorithms, "draw_batch", counted_draw)
        monkeypatch.setattr(fiem.algorithms, "fiem_step", counted_step)
        monkeypatch.setattr(MemoryTable, "init", classmethod(counted_init))


class TestPoolSize:
    """The replica pool opens no more processes than there are jobs, a
    single job runs in this process, and each worker receives the
    experiment once, through the pool's initializer.  A recording stand-in
    replaces the process pool, so no process is started."""

    @pytest.fixture
    def pool(self, monkeypatch):
        # the stand-in's initializer binds the experiment in this process;
        # the binding is put back at teardown
        monkeypatch.setattr(fiem.experiments, "_worker_config", None, raising=False)
        record = SimpleNamespace(opened=[], initargs=[], payloads=[])

        class Pool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                record.opened.append(max_workers)
                record.initargs.append(initargs)
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                jobs = list(jobs)
                record.payloads.extend(len(pickle.dumps(job)) for job in jobs)
                return map(fn, jobs)

        monkeypatch.setattr(fiem.experiments.futures, "ProcessPoolExecutor", Pool)
        return record

    @pytest.fixture
    def opened(self, pool):
        return pool.opened

    def test_one_mixture_replica_opens_no_pool(self, opened):
        ds, _ = generate_gmm_synthetic(8, n=120, g=2, p=2, separation=2.0)
        base = dict(model=GmmModel(ds, 2), algorithms=("em", "online-em"), gamma=5e-3,
                    batch_size=30, epochs=15, replicas=1, seed=3, kswitch=0)
        rows, paths, aborted = table_report(GmmExperimentConfig(workers=2, **base))
        assert opened == []
        serial_rows, serial_paths, serial_aborted = table_report(
            GmmExperimentConfig(workers=1, **base))
        assert (rows, aborted) == (serial_rows, serial_aborted)
        assert [p.loglik.tobytes() for p in paths["online-em"]] == [
            p.loglik.tobytes() for p in serial_paths["online-em"]]

    @pytest.mark.parametrize("algorithms", [("fiem",), ("online-em", "fiem")],
                             ids=["replica-axis", "per-path"])
    def test_a_pool_has_at_most_one_worker_per_job(self, opened, algorithms, monkeypatch):
        # a cap below one replica's footprint gives the axis one chunk per
        # replica; the per-path route has one job per replica anyway
        monkeypatch.setattr(fiem.experiments, "_CHUNK_BYTES", 1)
        m = toy()
        table = run_replicated(config(m, algorithms=algorithms, replicas=2, workers=3))
        assert opened == [2]
        serial = run_replicated(config(m, algorithms=algorithms, replicas=2, workers=1))
        assert table.aborted == serial.aborted
        for alg in algorithms:
            assert [_bits(d) for d in table.runs[alg]] == [_bits(d) for d in serial.runs[alg]]

    @pytest.mark.parametrize("suite", ["theorem1", "prop2"])
    def test_a_desk_check_fits_one_chunk_and_opens_no_pool(self, opened, suite, capsys):
        assert fiem.cli.main(["check", "--suite", suite, "--threads", "2"]) == 0
        assert opened == []

    @pytest.mark.parametrize("route", ["per-path", "replica-axis", "mixture"])
    def test_a_job_ships_its_part_not_the_experiment(self, pool, route, monkeypatch):
        # at n = 1e4 the experiment pickles to megabytes; a job carries a
        # replica index or a chunk's bounds, and the workers receive the
        # experiment through the initializer
        if route == "mixture":
            ds, _ = generate_gmm_synthetic(8, n=10_000, g=2, p=2, separation=2.0)
            cfg = GmmExperimentConfig(model=GmmModel(ds, 2), algorithms=("em",), gamma=5e-3,
                                      batch_size=100, epochs=1, replicas=3, seed=3, workers=2)
            table_report(cfg)
        else:
            # a cap below one replica's footprint cuts the axis into chunks
            monkeypatch.setattr(fiem.experiments, "_CHUNK_BYTES", 1)
            algorithms = ("fiem",) if route == "replica-axis" else ("online-em", "fiem")
            cfg = config(toy(n=10_000), algorithms=algorithms, k_max=5, replicas=3, workers=2)
            run_replicated(cfg)
        assert len(pool.payloads) == 3 and max(pool.payloads) < 64
        assert pool.opened == [2]
        assert len(pool.initargs) == 1 and pool.initargs[0][0] is cfg


class TestWorkerBinding:
    """The experiment reaches the pool's workers through its initializer,
    under any start method, and this process keeps no reference to it."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_reference_outlives_the_call(self, workers):
        m = toy()
        ref = weakref.ref(m)
        table = run_replicated(config(m, algorithms=("online-em", "fiem"), replicas=2,
                                      workers=workers))
        assert table.completed == {"online-em": 2, "fiem": 2}
        del m, table
        assert ref() is None

    def test_no_reference_outlives_a_raising_job(self, monkeypatch):
        def fails(*args):
            raise ValueError("job failed")

        monkeypatch.setattr(fiem.experiments, "run", fails)
        m = toy()
        ref = weakref.ref(m)
        with pytest.raises(ValueError, match="job failed"):
            run_replicated(config(m, algorithms=("online-em", "fiem"), replicas=2))
        del m
        assert ref() is None

    def test_spawned_workers_equal_the_serial_run(self, monkeypatch):
        # a spawned worker inherits nothing from this process: its
        # experiment comes from the initializer alone
        spawn = functools.partial(futures.ProcessPoolExecutor,
                                  mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr(fiem.experiments.futures, "ProcessPoolExecutor", spawn)
        m = toy()
        cfg = config(m, algorithms=("online-em", "fiem"), replicas=2, workers=2)
        pooled, serial = run_replicated(cfg), run_replicated(dataclasses.replace(cfg, workers=1))
        assert pooled.aborted == serial.aborted
        for alg in cfg.algorithms:
            assert [_bits(d) for d in pooled.runs[alg]] == [_bits(d) for d in serial.runs[alg]]

        ds, _ = generate_gmm_synthetic(8, n=120, g=2, p=2, separation=2.0)
        gmm_cfg = GmmExperimentConfig(model=GmmModel(ds, 2), algorithms=("em", "online-em"),
                                      gamma=5e-3, batch_size=30, epochs=15, replicas=2, seed=3,
                                      kswitch=0, workers=2)
        rows, paths, aborted = table_report(gmm_cfg)
        serial_rows, serial_paths, serial_aborted = table_report(
            dataclasses.replace(gmm_cfg, workers=1))
        assert (rows, aborted) == (serial_rows, serial_aborted)
        for alg in gmm_cfg.algorithms:
            assert [p.loglik.tobytes() for p in paths[alg]] == [
                p.loglik.tobytes() for p in serial_paths[alg]]
            assert [p.weights.tobytes() for p in paths[alg]] == [
                p.weights.tobytes() for p in serial_paths[alg]]


class TestReplicaAxisBudget:
    """Counts that do not depend on the host: which configs take the
    replica axis, and the calls each route makes."""

    def test_fiem_alone_makes_no_run_call(self, monkeypatch):
        # one chunk keys its two index streams in bulk from the root tree and
        # a range of child indices: at most one bit generator per stream name
        # and no child tree, whatever the replica count; it reads one block
        # of raw outputs per replica and stream, makes no generator call and
        # draws no termination index
        m = toy(seed=5)
        counts = _Counts(monkeypatch)
        cfg = config(m, k_max=20, replicas=9, compute_e0=True, compute_e2=True)
        assert len(fiem.experiments._chunks(cfg)) == 1
        table = run_replicated(cfg)
        assert table.completed == {"fiem": 9}
        assert (counts.run, counts.stream, counts.child, counts.draw) == (0, 0, 0, 0)
        assert counts.seed_sequence <= 2 and counts.philox <= 2
        assert (counts.sample, counts.choice, counts.integers) == (0, 0, 0)
        assert counts.random_raw == 2 * 9

    @pytest.mark.parametrize("replicas", [1, 9])
    def test_a_chunk_steps_once_per_iteration(self, monkeypatch, replicas):
        # the stack runs the one loop: one step call per iteration for all
        # its replicas and one memory table
        m = toy(seed=5)
        counts = _Counts(monkeypatch)
        cfg = config(m, k_max=20, replicas=replicas, compute_e2=True)
        assert len(fiem.experiments._chunks(cfg)) == 1
        assert run_replicated(cfg).completed == {"fiem": replicas}
        assert (counts.fiem_step, counts.memory_init) == (20, 1)

    def test_replicas_are_never_summarized(self, monkeypatch):
        # only fiem toy reads checkpoint summaries; the certificates read
        # per-replica values
        def summary(*args):
            raise AssertionError("summarized")

        monkeypatch.setattr(fiem.experiments, "checkpoint_summary", summary)
        m = toy(seed=5)
        table = run_replicated(config(m, k_max=20, replicas=9, compute_e2=True))
        assert table.completed == {"fiem": 9}
        report = verify_theorem1(m, StepSchedule.constant(0.1, 20), np.zeros(m.q), 9, 0)
        assert report.strategy == "theorem1"

    def test_default_toy_config_keeps_one_run_per_path(self, monkeypatch):
        # the argv of fiem toy: online-em, fiem and opt-fiem with E0 and theta
        m = toy(seed=5, n=20)
        counts = _Counts(monkeypatch)
        cfg = config(m, algorithms=("online-em", "fiem", "opt-fiem"), k_max=40, replicas=2,
                     compute_e0=True, theta_ref=m.theta_star)
        run_replicated(cfg)
        assert counts.run == 2 * 3
        assert counts.child == 2
        assert counts.stream == 2 * 3 * 2
        assert counts.draw == 2 * (40 + 2 * 40 + 2 * 40)
        assert (counts.fiem_step, counts.memory_init) == (2 * 40, 2 * 2)

    @pytest.mark.parametrize("change", [
        dict(algorithms=("fiem", "opt-fiem")), dict(algorithms=("iem",)),
        dict(batch_size=3), dict(domain_policy="warn"), dict(theta_ref=np.zeros(3))],
        ids=["with-opt-fiem", "iem", "b3", "domain-policy", "theta-ref"])
    def test_uncovered_configs_run_per_path(self, monkeypatch, change):
        m = toy(seed=5)
        algorithms = change.pop("algorithms", ("fiem",))
        counts = _Counts(monkeypatch)
        run_replicated(config(m, algorithms=algorithms, k_max=10, replicas=3, **change))
        assert counts.run == 3 * len(algorithms)

    def test_models_without_the_axis_run_per_path(self, monkeypatch):
        m = toy(seed=5)
        monkeypatch.setattr(type(m), "replica_axis", False)
        counts = _Counts(monkeypatch)
        run_replicated(config(m, k_max=10, replicas=3))
        assert counts.run == 3
