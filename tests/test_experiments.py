import dataclasses

import numpy as np
import pytest

import fiem
from fiem.algorithms import RunOptions, StepSchedule, TerminationRule
from fiem.experiments import (
    ExperimentConfig,
    GmmExperimentConfig,
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
        table = run_replicated(config(m, replicas=1))
        for row in table.aggregates:
            assert row["std"] == 0.0
        d = table.runs["fiem"][0]
        rows_h = [r for r in table.aggregates if r["metric"] == "h_sq"]
        for row in rows_h:
            assert row["mean"] == d.h_sq[row["k"]]

    def test_reproducible_tables(self):
        m = toy(seed=1)
        t1 = run_replicated(config(m, replicas=4, seed=3))
        t2 = run_replicated(config(m, replicas=4, seed=3))
        assert t1.aggregates == t2.aggregates

    def test_algorithms_share_streams_within_replica(self):
        m = toy(seed=2)
        table = run_replicated(config(m, algorithms=("fiem", "opt-fiem"), replicas=2))
        # same termination stream -> same terminal index inside a replica
        for r in range(2):
            assert table.runs["fiem"][r].terminal_k == table.runs["opt-fiem"][r].terminal_k

    def test_parallel_equals_serial(self):
        m = toy(seed=3)
        serial = run_replicated(config(m, replicas=6, workers=1))
        parallel = run_replicated(config(m, replicas=6, workers=2))
        assert serial.aggregates == parallel.aggregates
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
        small = default_checkpoints(10)
        assert all(0 <= k < 10 for k in small)


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

    def test_e2_requires_tracking(self):
        m = toy(seed=8)
        table = run_replicated(config(m, replicas=2))
        est = estimate_e(table.runs["fiem"])
        assert est.e2 is None
        table2 = run_replicated(config(m, replicas=2, compute_e2=True))
        assert estimate_e(table2.runs["fiem"]).e2 is not None

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
        table = run_replicated(config(m, replicas=2))
        scaled = [r for r in table.aggregates if r["metric"] == "step_sq_scaled"]
        raw = [r for r in table.aggregates if r["metric"] == "step_sq"]
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
