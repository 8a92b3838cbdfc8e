import dataclasses
from unittest import mock

import numpy as np
import pytest

import fiem
import fiem.algorithms
import fiem.cli
import fiem.experiments
from fiem.algorithms import MemoryTable, RunOptions, StepSchedule, TerminationRule, fiem_replicas
from fiem.errors import RunAbortError
from fiem.experiments import (
    ExperimentConfig,
    GmmExperimentConfig,
    checkpoint_summary,
    default_checkpoints,
    estimate_e,
    paired_margin,
    run_replicated,
    table_report,
    verify_bound,
    verify_theorem1,
)
from fiem.rng import SeedTree
from fiem.stepsize import f_n, f_n_tilde


def toy(seed=0, n=8, dims=(4, 3, 3)):
    return fiem.generate_toy(seed, n=n, dims=dims)


def config(model, algorithms=("fiem",), k_max=30, replicas=5, seed=0, workers=1, **options):
    return ExperimentConfig(
        model=model,
        algorithms=algorithms,
        schedule=StepSchedule.constant(0.1, k_max),
        termination=TerminationRule.uniform(k_max),
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
        table = run_replicated(config(m, algorithms=("fiem", "opt-fiem"), replicas=2))
        # same termination stream -> same terminal index inside a replica
        for r in range(2):
            assert table.runs["fiem"][r].terminal_k == table.runs["opt-fiem"][r].terminal_k

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


class TestEstimates:
    def test_deterministic_em_estimate(self):
        m = toy(seed=5)
        table = run_replicated(config(m, algorithms=("em",), replicas=3, seed=9))
        est = estimate_e(table.runs["em"])
        # each replica contributes ||h(s^K)||^2 at its own K on the same path
        d = table.runs["em"][0]
        expected = np.mean([r.h_sq[r.terminal_k] for r in table.runs["em"]])
        assert est.e1 == expected
        assert d.h_sq[d.terminal_k] == table.runs["em"][0].h_sq[d.terminal_k]

    def test_point_mass_beats_uniform_on_monotone_path(self):
        m = toy(seed=6)
        k_max = 40
        sched = StepSchedule.constant(0.5, k_max)
        base = dict(model=m, algorithms=("em",), schedule=sched,
                    options=RunOptions(s0=np.zeros(m.q)), replicas=20, seed=1)
        last = np.zeros(k_max)
        last[-1] = 1.0
        uni = run_replicated(ExperimentConfig(termination=TerminationRule.uniform(k_max), **base))
        point = run_replicated(ExperimentConfig(termination=TerminationRule(last), **base))
        e_uni = estimate_e(uni.runs["em"])
        e_point = estimate_e(point.runs["em"])
        assert e_point.e1 <= e_uni.e1

    def test_e0_below_e1(self):
        m = toy(seed=7, n=12)
        table = run_replicated(config(m, replicas=30, compute_e0=True, seed=2))
        est = estimate_e(table.runs["fiem"], v_max=m.constants().v_max)
        assert est.e0 <= est.e1 + 3.0 * est.se1

    def test_e0_needs_vmax(self):
        m = toy(seed=9)
        table = run_replicated(config(m, replicas=2, compute_e0=True))
        with pytest.raises(ValueError):
            estimate_e(table.runs["fiem"])


class TestTheorem1Verification:
    def test_holds_at_moderate_step(self):
        m = toy(seed=10, n=6)
        plan = fiem.plan_case1(
            fiem.PlannerInputs.from_constants(m.constants(), n=m.n, k_max=30))
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
        plan = fiem.plan_case1(
            fiem.PlannerInputs.from_constants(m.constants(), n=m.n, k_max=50))
        planned = verify_theorem1(m, plan.schedule, np.zeros(m.q), replicas=200, seed=0)
        assert planned.vacuous is None and planned.holds
        report = verify_theorem1(m, StepSchedule(factor * plan.schedule.gammas),
                                 np.zeros(m.q), replicas=200, seed=0)
        assert report.lhs < 0.0 < report.rhs and report.margin_sigmas > 3.0
        assert report.vacuous == f"min alpha_k={min_alpha} <= 0"
        assert not report.holds

    def test_aborted_replica_is_an_error(self):
        m = toy(seed=10, n=6)
        with pytest.raises(fiem.RunAbortError) as err, np.errstate(all="ignore"):
            verify_theorem1(m, StepSchedule.constant(50.0, 200), np.zeros(m.q),
                            replicas=3, seed=0)
        assert "replica 0" in err.value.condition

    def test_pooled_replicas_equal_serial_bits(self):
        m = toy(seed=10, n=6)
        plan = fiem.plan_case1(
            fiem.PlannerInputs.from_constants(m.constants(), n=m.n, k_max=30))
        serial, pooled = (
            verify_theorem1(m, plan.schedule, np.zeros(m.q), replicas=40, seed=0, workers=w)
            for w in (1, 2))
        for field in ("lhs", "rhs", "margin_sigmas"):
            assert getattr(serial, field).hex() == getattr(pooled, field).hex()

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
        ins = fiem.PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max)
        plan = fiem.plan_case1(ins)
        cfg = ExperimentConfig(
            model=m, algorithms=("fiem",), schedule=plan.schedule,
            termination=TerminationRule.uniform(k_max),
            options=RunOptions(s0=np.zeros(m.q), compute_e2=True), replicas=60, seed=5)
        table = run_replicated(cfg)
        diags = table.runs["fiem"]
        coeff = m.n ** (2.0 / 3.0) / k_max * plan.bound_constant
        report = verify_bound(diags, m, coeff, "case1")
        assert report.holds
        fn = f_n(plan.c, ins.lam, ins.n)
        e2_weight = ins.mu / ((1.0 - ins.mu) * fn * ins.n ** (2.0 / 3.0))
        lhs = np.array([
            d.h_sq[d.terminal_k] + e2_weight * d.cv_gap_sq[d.terminal_k] for d in diags
        ])
        v0 = m.objective(m.tmap(np.zeros(m.q)))
        rhs = coeff * np.array([v0 - m.objective(m.tmap(d.s_final)) for d in diags])
        assert paired_margin(lhs, rhs) >= -3.0

    def test_case2_bound_on_small_run(self):
        m = toy(seed=13, n=20, dims=(5, 4, 4))
        k_max = 300
        ins = fiem.PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max)
        plan = fiem.solve_case2(ins)
        assert plan.feasible
        cfg = ExperimentConfig(
            model=m, algorithms=("fiem",), schedule=plan.schedule,
            termination=TerminationRule.uniform(k_max),
            options=RunOptions(s0=np.zeros(m.q), compute_e2=True), replicas=100, seed=0)
        table = run_replicated(cfg)
        diags = table.runs["fiem"]
        coeff = m.n ** (1.0 / 3.0) / k_max ** (2.0 / 3.0) * plan.bound_constant
        report = verify_bound(diags, m, coeff, "case2")
        assert report.holds
        fn = f_n_tilde(plan.c, ins.lam, ins.n, k_max)
        e2_weight = ins.mu / ((1.0 - ins.mu) * fn * (ins.n * k_max) ** (1.0 / 3.0))
        lhs = np.array([
            d.h_sq[d.terminal_k] + e2_weight * d.cv_gap_sq[d.terminal_k] for d in diags
        ])
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
        plan = fiem.nonuniform_plan(
            fiem.PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max), w)
        assert plan.feasible
        cfg = ExperimentConfig(
            model=m, algorithms=("fiem",), schedule=plan.schedule,
            termination=plan.termination, options=RunOptions(s0=np.zeros(m.q)),
            replicas=100, seed=1)
        table = run_replicated(cfg)
        coeff = m.n ** (2.0 / 3.0) * float(w.max()) * plan.bound_constant
        report = verify_bound(table.runs["fiem"], m, coeff, "nonuniform")
        assert report.holds

    def test_theorem1_with_custom_betas(self):
        # any positive beta sequence is admissible; large betas can push the
        # h-weights negative and the inequality must still hold
        m = toy(seed=13, n=20, dims=(5, 4, 4))
        k_max = 300
        plan = fiem.plan_case1(
            fiem.PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max))
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
        diags = [dataclasses.replace(d, terminal_k=d.k_max - 1, s_final=d.s0)
                 for d in table.runs["fiem"]]
        report = verify_bound(diags, m, 1.0, "case1")
        assert report.vacuous == "mean deltaV=0.000e+00 <= 0"
        assert not report.holds


class TestRatioCurves:
    def test_opt_fiem_over_fiem_parameter_error_ratio_tends_to_one(self):
        # once the optimal mixing coefficient settles near one, the two
        # variance-reduced paths become statistically indistinguishable
        m = toy(seed=14, n=50, dims=(6, 4, 5))
        k_max = 10 * m.n
        plan = fiem.plan_case1(
            fiem.PlannerInputs.from_constants(m.constants(), n=m.n, k_max=k_max))
        cfg = ExperimentConfig(
            model=m, algorithms=("opt-fiem", "fiem"), schedule=plan.schedule,
            termination=TerminationRule.uniform(k_max),
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
        ds, _ = fiem.generate_gmm_synthetic(10, n=120, g=3, p=4, separation=3.0)
        model = fiem.GmmModel(ds, 3)
        s0 = model.initial_statistic(fiem.init_params(ds, 3, 6))
        k_max = 400
        with pytest.raises(fiem.RunAbortError) as err:
            fiem.run(
                "online-em", model, StepSchedule.constant(5e-2, k_max),
                TerminationRule.uniform(k_max), 1,
                fiem.RunOptions(s0=s0, batch_size=10, compute_h=False),
            )
        assert 0 <= err.value.iteration < k_max
        assert "indefinite" in err.value.condition or "empty" in err.value.condition

    def test_replica_aborts_are_recorded(self):
        ds, _ = fiem.generate_gmm_synthetic(10, n=120, g=3, p=4, separation=3.0)
        model = fiem.GmmModel(ds, 3)
        s0 = model.initial_statistic(fiem.init_params(ds, 3, 6))
        k_max = 400
        cfg = ExperimentConfig(
            model=model, algorithms=("online-em",),
            schedule=StepSchedule.constant(5e-2, k_max),
            termination=TerminationRule.uniform(k_max),
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
        ds, _ = fiem.generate_gmm_synthetic(10, n=120, g=3, p=4, separation=3.0)
        cfg = GmmExperimentConfig(
            model=fiem.GmmModel(ds, 3), algorithms=("em", "online-em"), gamma=0.9,
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
        ds, _ = fiem.generate_gmm_synthetic(4, n=200, g=3, p=3, separation=3.0)
        model = fiem.GmmModel(ds, 3)
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

    def test_parallel_table_equals_serial(self):
        ds, _ = fiem.generate_gmm_synthetic(8, n=120, g=2, p=2, separation=2.0)
        model = fiem.GmmModel(ds, 2)
        base = dict(model=model, algorithms=("em", "online-em"), gamma=5e-3,
                    batch_size=30, epochs=15, replicas=4, seed=3, kswitch=0)
        serial = table_report(GmmExperimentConfig(workers=1, **base))[0]
        parallel = table_report(GmmExperimentConfig(workers=2, **base))[0]
        assert serial == parallel

    def test_repeated_path_has_zero_spread(self):
        ds, _ = fiem.generate_gmm_synthetic(5, n=100, g=2, p=2, separation=2.0)
        model = fiem.GmmModel(ds, 2)
        s0 = model.initial_statistic(fiem.init_params(ds, 2, 0))
        a = fiem.gmm_epoch_path(model, "online-em", s0, 5e-3, 25, 4, seed=11)
        b = fiem.gmm_epoch_path(model, "online-em", s0, 5e-3, 25, 4, seed=11)
        stacked = np.array([[fiem.gmm_loglik(theta, ds) for theta in path.params]
                            for path in (a, b)])
        assert stacked.shape == (2, 4)
        assert np.all(stacked.std(axis=0) == 0.0)

    def test_incremental_methods_lead_after_first_epoch(self):
        # needs many parameter updates inside the first epoch, as in the
        # reference setup (n/b iterations against one full EM pass)
        ds, _ = fiem.generate_gmm_synthetic(6, n=600, g=3, p=3, separation=3.0)
        model = fiem.GmmModel(ds, 3)
        cfg = GmmExperimentConfig(
            model=model, algorithms=("em", "iem", "online-em"), gamma=5e-3,
            batch_size=1, epochs=1, replicas=3, seed=2, kswitch=0)
        rows = table_report(cfg)[0]
        by_alg = {r["algorithm"]: r["mean"] for r in rows}
        assert by_alg["iem"] > by_alg["em"]
        assert by_alg["online-em"] > by_alg["em"]


class TestHybridEpochPath:
    def setup_method(self):
        ds, _ = fiem.generate_gmm_synthetic(23, n=120, g=3, p=3, separation=3.0)
        self.model = fiem.GmmModel(ds, 3)
        self.s0 = self.model.initial_statistic(fiem.init_params(ds, 3, 5))

    def path(self, algorithm, epochs, kswitch=0, batch_size=10):
        return fiem.gmm_epoch_path(self.model, algorithm, self.s0, 5e-2, batch_size,
                                   epochs, seed=5, kswitch=kswitch)

    def assert_same_path(self, a, b):
        assert np.array_equal(a.loglik, b.loglik)
        assert np.array_equal(a.weights, b.weights)
        assert len(a.params) == len(b.params)
        for pa, pb in zip(a.params, b.params):
            for field in ("weights", "means", "cov"):
                assert np.array_equal(getattr(pa, field), getattr(pb, field))
        curves = [[fiem.gmm_loglik(theta, self.model.dataset) for theta in path.params]
                  for path in (a, b)]
        assert np.array_equal(*curves)
        assert (a.iterations, a.examples_processed) == (b.iterations, b.examples_processed)

    def test_zero_switch_is_pure_fiem(self):
        self.assert_same_path(self.path("h-fiem", 4, kswitch=0), self.path("fiem", 4))

    def test_full_switch_is_pure_online(self):
        self.assert_same_path(self.path("h-fiem", 3, kswitch=3), self.path("online-em", 3))

    def test_epoch_divisibility_enforced(self):
        # 40 divides n = 120 but two batches of 40 do not
        self.path("online-em", 2, batch_size=40)
        with pytest.raises(ValueError):
            self.path("h-fiem", 2, kswitch=1, batch_size=40)


# -- FIEM replicas on one (R, q) state ---------------------------------------

_DIAG_FIELDS = ("s0", "s_final", "step_sq", "h_sq", "cv_gap_sq", "vdot_sq", "lambdas",
                "theta_err", "terminal_k", "violations")


def _bits(outcome):
    """Every recorded field of a run as bytes, or an abort as it is."""
    if isinstance(outcome, tuple):
        return outcome
    return tuple(np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
                 for v in (getattr(outcome, f) for f in _DIAG_FIELDS))


def _per_path(model, schedule, termination, seed, replicas, options):
    """One :func:`fiem.run` per replica on ``SeedTree(seed).child(r)``; an
    abort kept as (iteration, condition)."""
    out = []
    for r in range(replicas):
        try:
            out.append(fiem.run("fiem", model, schedule, termination,
                                SeedTree(seed).child(r), options))
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
        m = fiem.generate_toy(3, n, dims=dims)
        k_max = 4 * n + 3
        schedule = StepSchedule(np.linspace(0.05, 0.4, k_max))
        termination = TerminationRule.uniform(k_max)
        s0 = np.random.default_rng(n).standard_normal(m.q)
        options = RunOptions(s0=s0, **diagnostics)
        expected = _per_path(m, schedule, termination, 7, 200, options)
        for replicas in (1, m.q, 200):
            block = fiem_replicas(m, schedule, termination, SeedTree(7), range(replicas),
                                  options)
            assert len(block.terminal_k) == replicas
            assert [_bits(o) for o in block] == expected[:replicas]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_inside_r_keep_every_bit(self, workers, monkeypatch):
        # a cap of three replicas' memory tables and six (K,) rows cuts R = 8
        # into three chunks
        m = toy(seed=4, n=10)
        monkeypatch.setattr(fiem.experiments, "_CHUNK_BYTES", 3 * (m.n * m.q + 6 * 35) * 8)
        cfg = config(m, k_max=35, replicas=8, seed=2, workers=workers,
                     compute_e0=True, compute_e2=True)
        assert [job[1:] for job in fiem.experiments._chunks(cfg)] == [(0, 2), (2, 5), (5, 8)]
        table = run_replicated(cfg)
        assert _table_bits(table) == _per_path(m, cfg.schedule, cfg.termination, 2, 8,
                                               cfg.options)
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
            assert [job[1:] for job in fiem.experiments._chunks(cfg)] == ranges

    def test_chunks_count_the_per_iteration_rows(self):
        # 1000 replicas of 2e4 iterations hold about 640 MB of index draws,
        # step_sq and h_sq against a memory table of under 1 MB
        cfg = config(toy(), k_max=20000, replicas=1000)
        chunks = fiem.experiments._chunks(cfg)
        per_replica = 8 * (cfg.model.n * cfg.model.q + 4 * 20000)
        assert len(chunks) > 1
        assert all((hi - lo) * per_replica < fiem.experiments._CHUNK_BYTES for _, lo, hi in chunks)
        assert chunks[0][1] == 0 and chunks[-1][2] == 1000
        assert all(prev[2] == nxt[1] for prev, nxt in zip(chunks, chunks[1:]))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("gamma, k_max, mixed", [(50.0, 200, False), (5.0, 273, True)])
    def test_aborts_match_the_scalar_engine(self, workers, gamma, k_max, mixed):
        # at gamma = 5 some replicas overflow at iteration 272 and the rest
        # complete their 273 iterations; at 50 all overflow at iteration 93
        m = fiem.generate_toy(1, 30, dims=(6, 4, 5))
        cfg = config(m, k_max=k_max, replicas=40, seed=0, workers=workers)
        cfg.schedule = StepSchedule.constant(gamma, k_max)
        with np.errstate(all="ignore"):
            table = run_replicated(cfg)
            expected = _per_path(m, cfg.schedule, cfg.termination, 0, 40, cfg.options)
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
    """The replica pool opens no more processes than there are jobs, and a
    single job runs in this process.  A recording stand-in replaces the
    process pool, so no process is started."""

    @pytest.fixture
    def opened(self, monkeypatch):
        opened = []

        class Pool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(fiem.experiments.futures, "ProcessPoolExecutor", Pool)
        return opened

    def test_one_mixture_replica_opens_no_pool(self, opened):
        ds, _ = fiem.generate_gmm_synthetic(8, n=120, g=2, p=2, separation=2.0)
        base = dict(model=fiem.GmmModel(ds, 2), algorithms=("em", "online-em"), gamma=5e-3,
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


class TestReplicaAxisBudget:
    """Counts that do not depend on the host: which configs take the
    replica axis, and the calls each route makes."""

    def test_fiem_alone_makes_no_run_call(self, monkeypatch):
        # one chunk keys its three streams in bulk from the root tree and a
        # range of child indices: at most one bit generator per stream name
        # and no child tree, whatever the replica count; it reads one block
        # of raw outputs per replica and stream and makes no generator call
        m = toy(seed=5)
        counts = _Counts(monkeypatch)
        cfg = config(m, k_max=20, replicas=9, compute_e0=True, compute_e2=True)
        assert len(fiem.experiments._chunks(cfg)) == 1
        table = run_replicated(cfg)
        assert table.completed == {"fiem": 9}
        assert (counts.run, counts.stream, counts.child, counts.draw) == (0, 0, 0, 0)
        assert counts.seed_sequence <= 3 and counts.philox <= 3
        assert (counts.sample, counts.choice, counts.integers) == (0, 0, 0)
        assert counts.random_raw == 3 * 9

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
        assert counts.stream == 2 * 3 * 3
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
