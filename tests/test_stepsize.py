import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiem.algorithms import StepSchedule
from fiem.errors import InfeasiblePlanError
from fiem.stepsize import (
    PlannerInputs,
    _quadratic_profile,
    bound_case1,
    c_plus_closed_form,
    case1_identity_gap,
    f_n,
    f_n_tilde,
    gamma_case1,
    karimi_plan,
    nonuniform_plan,
    plan_case1,
    profile_inverse,
    recommend,
    solve_c_case1,
    solve_c_lambda_eq_c,
    solve_case2,
    theorem1_coeffs,
)

UNIT = dict(v_min=1.0, l_rms=1.0, l_gradv=1.0)


def inputs(n=1000, k_max=100, mu=0.25, lam=0.5, **kw):
    base = dict(UNIT)
    base.update(kw)
    return PlannerInputs(n=n, k_max=k_max, mu=mu, lam=lam, **base)


class TestFn:
    def test_hand_value(self):
        # 8^{-2/3} + 0.5/(0.5 - 0.25) * (1/8 + 2) = 0.25 + 2 * 2.125 = 4.5
        assert f_n(0.5, 0.5, 8) == pytest.approx(4.5, rel=1e-15)

    def test_vanishing_c_limit(self):
        n = 64
        assert f_n(1e-14, 0.5, n) == pytest.approx(n ** (-2.0 / 3.0), rel=1e-10)

    def test_monotone_in_c(self):
        n, lam = 100, 0.5
        cs = np.linspace(1e-3, 0.9 * lam * n ** (1 / 3), 200)
        vals = [f_n(c, lam, n) for c in cs]
        assert np.all(np.diff(vals) > 0.0)

    def test_precondition_violation(self):
        with pytest.raises(InfeasiblePlanError):
            f_n(3.0, 0.5, 8)  # 8^{-1/3} = 0.5 >= lambda/C

    def test_tilde_large_horizon_limit(self):
        c, lam, n = 0.3, 0.5, 50
        limit = c * (1.0 / n + 1.0 / (1.0 - lam))
        assert f_n_tilde(c, lam, n, 10**12) == pytest.approx(limit, rel=1e-3)


class TestSolveCase1:
    def test_defining_equation_residual(self):
        ins = inputs(n=10**6)
        c = solve_c_case1(ins)
        target = 2 * ins.mu * ins.v_min * ins.l_rms / ins.l_gradv
        assert abs(math.sqrt(c) * f_n(c, ins.lam, ins.n) - target) <= 1e-12 * target

    def test_monotone_in_target(self):
        c_small = solve_c_case1(inputs(mu=0.1))
        c_large = solve_c_case1(inputs(mu=0.2))  # doubled target
        assert c_large > c_small

    def test_closed_form_cap_value(self):
        # mu=0.25, v=L=Lv=1 gives A=1/2 and C+ = sqrt(2) - 1
        assert c_plus_closed_form(0.25, 1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0) - 1.0, rel=1e-14
        )

    def test_lambda_eq_c_solution_below_cap(self):
        for mu in (0.1, 0.25, 0.5):
            c = solve_c_lambda_eq_c(1000, mu, **UNIT)
            cap = c_plus_closed_form(mu, **UNIT)
            assert 0.0 < c <= cap + 1e-12
            target = 2 * mu
            assert abs(math.sqrt(c) * f_n(c, c, 1000) - target) <= 1e-12 * target

    def test_identity_gap_at_solution(self):
        ins = inputs(n=5000)
        c = solve_c_case1(ins)
        assert case1_identity_gap(ins, c) <= 1e-12


class TestGammaAndBound:
    def test_plugin_value(self):
        ins = inputs(n=8)
        assert gamma_case1(ins, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_half_mu_matches_nonuniform_constant(self):
        ins = inputs(mu=0.5)
        c = solve_c_case1(ins)
        bconst, _ = bound_case1(ins, c)
        expect = 2.0 * ins.l_gradv * f_n(c, ins.lam, ins.n) / ins.v_min**2
        assert bconst == pytest.approx(expect, rel=1e-14)

    def test_bound_minimized_in_the_interior(self):
        mus = np.linspace(0.05, 0.9, 35)
        vals = []
        for mu in mus:
            ins = inputs(n=10**6, mu=float(mu))
            vals.append(bound_case1(ins, solve_c_case1(ins))[0])
        best = int(np.argmin(vals))
        assert 0 < best < len(mus) - 1
        assert 0.1 < mus[best] < 0.5  # optimum near mu ~ 0.25


class TestCase2:
    def test_defining_equation_residual(self):
        ins = inputs(n=10**6, k_max=10**6)
        plan = solve_case2(ins)
        target = 2 * ins.mu * ins.v_min * ins.l_rms / ins.l_gradv
        lhs = math.sqrt(plan.c) * f_n_tilde(plan.c, ins.lam, ins.n, ins.k_max)
        assert abs(lhs - target) <= 1e-12 * target
        assert plan.feasible
        assert plan.gamma == pytest.approx(
            math.sqrt(plan.c) / (ins.n ** (1 / 3) * ins.k_max ** (1 / 3)), rel=1e-14
        )

    def test_infeasible_small_horizon(self):
        plan = solve_case2(inputs(n=10**6, k_max=2))
        assert not plan.feasible
        assert "lambda/C" in plan.violated_condition

    def test_strategy_crossover(self):
        n = 10**6
        assert recommend(n ** (-0.2), n) == "case2"
        assert recommend(n ** (-0.5), n) == "case1"
        assert recommend(n ** (-1.0 / 3.0), n) == "case1"  # boundary goes to case1


class TestKarimi:
    def test_reference_value(self):
        ins = inputs(n=1000)
        plan = karimi_plan(ins)
        assert plan.gamma == pytest.approx(1.0 / 600.0, rel=1e-12)
        assert plan.bound_constant == pytest.approx(36.0, rel=1e-12)

    def test_branch_flip_at_large_vmin(self):
        ins = inputs(n=1000, v_min=2.0)  # 1 + 4 v_min = 9 > 6
        plan = karimi_plan(ins)
        assert plan.gamma == pytest.approx(2.0 / (9.0 * 1000 ** (2 / 3)), rel=1e-12)

    @pytest.mark.parametrize("l_rms, l_gradv", [(4.0, 1.0), (1.0, 4.0)])
    def test_larger_lipschitz_constant_sets_the_step(self, l_rms, l_gradv):
        slow = karimi_plan(inputs(n=1000, l_rms=l_rms, l_gradv=l_gradv))
        assert slow.gamma == pytest.approx(1.0 / (6.0 * 4.0 * 1000 ** (2 / 3)), rel=1e-12)
        assert slow.bound_constant == pytest.approx(36.0 * 4.0, rel=1e-12)


class TestNonUniform:
    def test_uniform_weights_match_case1_at_half(self):
        ins = inputs(n=2000, k_max=64, mu=0.5)
        case1 = plan_case1(ins)
        nu = nonuniform_plan(inputs(n=2000, k_max=64), np.full(64, 1.0 / 64))
        dev = np.abs(nu.schedule.gammas - case1.schedule.gammas).max()
        assert dev <= 1e-12 * case1.gamma
        assert nu.bound_value == pytest.approx(case1.bound_value, rel=1e-12)

    def test_peak_weight_maps_to_sqrt_c(self):
        k_max = 16
        w = np.full(k_max, 0.5 / (k_max - 1))
        w[3] = 0.5
        ins = inputs(n=2000, k_max=k_max)
        plan = nonuniform_plan(ins, w)
        peak_gamma = plan.schedule.gammas[3]
        assert peak_gamma == pytest.approx(
            math.sqrt(plan.c) / (ins.n ** (2 / 3) * ins.l_rms), rel=1e-12
        )
        assert np.argmax(plan.schedule.gammas) == 3

    def test_nonuniform_bound_dominates_uniform(self):
        k_max = 32
        ins = inputs(n=2000, k_max=k_max)
        uniform = nonuniform_plan(ins, np.full(k_max, 1.0 / k_max))
        w = np.full(k_max, 0.5 / (k_max - 1))
        w[0] = 0.5
        skewed = nonuniform_plan(ins, w)
        assert skewed.bound_value >= uniform.bound_value

    def test_positive_weights_required(self):
        ins = inputs(k_max=4)
        with pytest.raises(ValueError):
            nonuniform_plan(ins, np.array([0.5, 0.5, 0.0, 0.0]))

    def test_profile_round_trip(self):
        ins = inputs(n=500)
        # C of the nonuniform equation, sqrt(C) f_n(C, lambda) = v_min L / L_gradV
        c = nonuniform_plan(ins, np.full(ins.k_max, 1.0 / ins.k_max)).c
        fn = f_n(c, ins.lam, ins.n)
        profile, x_star = _quadratic_profile(ins, fn)
        y_max = profile(x_star)
        for frac in (1e-6, 0.1, 0.37, 0.8, 0.999, 1.0):
            y = frac * y_max
            x = profile_inverse(ins, fn, y)
            assert profile(x) == pytest.approx(y, rel=1e-10, abs=1e-30)


class TestTheorem1Coefficients:
    def brute_force(self, gammas, betas, n, l_rms, v_min, l_gradv):
        k_max = len(gammas)
        l_sq = l_rms**2
        lambdas = np.zeros(k_max)
        for k in range(k_max - 1):
            total = 0.0
            for j in range(k + 1, k_max):
                prod = 1.0
                for ell in range(k + 2, j + 1):  # paper index ell, gamma_ell = gammas[ell-1]
                    prod *= 1.0 - 1.0 / n + betas[ell - 1] + gammas[ell - 1] ** 2 * l_sq
                total += gammas[j] ** 2 * prod
            lambdas[k] = (1.0 + 1.0 / betas[k]) * total
        alphas = gammas * v_min - gammas**2 * (1.0 + lambdas * l_sq) * l_gradv / 2.0
        deltas = gammas**2 * (1.0 + lambdas * betas * l_sq / (1.0 + betas)) * l_gradv / 2.0
        return alphas, deltas, lambdas

    def test_single_iteration(self):
        coeffs = theorem1_coeffs(StepSchedule(np.array([0.3])), n=5, l_rms=1.2,
                                 v_min=0.7, l_gradv=2.0)
        assert coeffs.lambdas_big[0] == 0.0
        assert coeffs.alphas[0] == pytest.approx(0.3 * 0.7 - 0.3**2 * 2.0 / 2.0)
        assert coeffs.deltas[0] == pytest.approx(0.3**2 * 2.0 / 2.0)

    def test_small_handmade_case(self):
        gammas = np.array([0.5, 0.2, 0.1])
        betas = np.array([0.3, 0.7, 0.4])
        coeffs = theorem1_coeffs(StepSchedule(gammas), n=4, l_rms=1.5, v_min=0.9,
                                 l_gradv=1.3, betas=betas)
        a, d, lam = self.brute_force(gammas, betas, 4, 1.5, 0.9, 1.3)
        np.testing.assert_allclose(coeffs.alphas, a, rtol=1e-14)
        np.testing.assert_allclose(coeffs.deltas, d, rtol=1e-14)
        np.testing.assert_allclose(coeffs.lambdas_big, lam, rtol=1e-14)

    def test_backward_recursion_vs_brute_force(self):
        rng = np.random.default_rng(0)
        for k_max in (2, 7, 50):
            gammas = rng.uniform(0.01, 0.3, size=k_max)
            betas = rng.uniform(0.05, 0.8, size=k_max)
            n = 12
            coeffs = theorem1_coeffs(StepSchedule(gammas), n=n, l_rms=1.1,
                                     v_min=0.6, l_gradv=2.2, betas=betas)
            a, d, lam = self.brute_force(gammas, betas, n, 1.1, 0.6, 2.2)
            np.testing.assert_allclose(coeffs.alphas, a, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(coeffs.deltas, d, rtol=1e-12)
            np.testing.assert_allclose(coeffs.lambdas_big, lam, rtol=1e-12)

    def test_case1_alpha_floor(self):
        ins = inputs(n=200, k_max=80)
        plan = plan_case1(ins)
        coeffs = theorem1_coeffs(plan.schedule, n=ins.n, l_rms=ins.l_rms,
                                 v_min=ins.v_min, l_gradv=ins.l_gradv, lam=ins.lam)
        floor = math.sqrt(plan.c) * (1 - ins.mu) * ins.v_min / (ins.l_rms * ins.n ** (2 / 3))
        assert np.all(coeffs.alphas >= floor * (1.0 - 1e-12))

    def test_default_beta_sequence(self):
        sched = StepSchedule(np.array([0.1, 0.1]))
        coeffs = theorem1_coeffs(sched, n=10, l_rms=1.0, v_min=1.0, l_gradv=1.0, lam=0.25)
        np.testing.assert_allclose(coeffs.betas, np.full(2, 0.75 / 10))


class TestPlanSerialization:
    def test_json_fields(self):
        plan = plan_case1(inputs(n=4000, k_max=20))
        doc = plan.to_dict()
        for key in ("strategy", "n", "k_max", "mu", "lambda", "C", "gamma",
                    "bound_constant", "bound_value", "feasible"):
            assert key in doc
        assert doc["strategy"] == "case1"
        assert isinstance(doc["gamma"], float)

    def test_nonuniform_serializes_array(self):
        k_max = 6
        w = np.array([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
        plan = nonuniform_plan(inputs(n=4000, k_max=k_max), w)
        doc = plan.to_dict()
        assert isinstance(doc["gamma"], list) and len(doc["gamma"]) == k_max


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


CONSTANT = log_uniform(-2.0, 2.0)
UNIT_INTERVAL = st.floats(0.01, 0.99)
PLANNER_INPUTS = st.builds(
    PlannerInputs, n=st.integers(2, 10**7), k_max=st.integers(1, 10**6), v_min=CONSTANT,
    l_rms=CONSTANT, l_gradv=CONSTANT, mu=UNIT_INTERVAL, lam=UNIT_INTERVAL)


def assert_solves(lhs, target):
    assert abs(lhs - target) <= 1e-12 * target


class TestPlannerRoots:
    """Every root meets its defining equation to 1e-12 relative over random
    constants, unless the planner says it cannot (InfeasiblePlanError, or a
    plan flagged infeasible, whose C must still solve its equation)."""

    @given(ins=PLANNER_INPUTS)
    def test_case1(self, ins):
        try:
            c = solve_c_case1(ins)
        except InfeasiblePlanError:
            return
        assert_solves(math.sqrt(c) * f_n(c, ins.lam, ins.n),
                      2.0 * ins.mu * ins.v_min * ins.l_rms / ins.l_gradv)

    @given(n=st.integers(2, 10**7), mu=UNIT_INTERVAL, v_min=CONSTANT, l_rms=CONSTANT,
           l_gradv=CONSTANT)
    def test_lambda_eq_c(self, n, mu, v_min, l_rms, l_gradv):
        try:
            c = solve_c_lambda_eq_c(n, mu, v_min, l_rms, l_gradv)
        except InfeasiblePlanError:
            return
        assert_solves(math.sqrt(c) * f_n(c, c, n), 2.0 * mu * v_min * l_rms / l_gradv)

    @given(ins=PLANNER_INPUTS)
    def test_case2(self, ins):
        try:
            plan = solve_case2(ins)
        except InfeasiblePlanError:
            return
        assert_solves(math.sqrt(plan.c) * f_n_tilde(plan.c, ins.lam, ins.n, ins.k_max),
                      2.0 * ins.mu * ins.v_min * ins.l_rms / ins.l_gradv)
        assert plan.feasible == (plan.violated_condition is None)

    @given(ins=PLANNER_INPUTS.map(lambda ins: PlannerInputs(
               ins.n, 1 + ins.k_max % 64, ins.v_min, ins.l_rms, ins.l_gradv, ins.mu, ins.lam)),
           seed=st.integers(0, 2**32 - 1))
    def test_nonuniform(self, ins, seed):
        w = np.random.default_rng(seed).uniform(0.01, 1.0, size=ins.k_max)
        w /= w.sum()
        try:
            plan = nonuniform_plan(ins, w)
        except InfeasiblePlanError:
            return
        assert_solves(math.sqrt(plan.c) * f_n(plan.c, ins.lam, ins.n),
                      ins.v_min * ins.l_rms / ins.l_gradv)
        assert plan.feasible == (plan.violated_condition is None)

    @given(ins=PLANNER_INPUTS, fn=log_uniform(-3.0, 3.0), frac=st.floats(1e-9, 1.0))
    def test_profile_inverse(self, ins, fn, frac):
        profile, x_star = _quadratic_profile(ins, fn)
        y = frac * profile(x_star)
        x = profile_inverse(ins, fn, y)
        assert 0.0 < x <= x_star
        assert_solves(profile(x), y)
