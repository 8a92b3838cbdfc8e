import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fiem
from fiem.algorithms import ALGORITHMS, MEMORY_ALGORITHMS, StepSchedule, TerminationRule
from fiem.errors import ConfigurationError, DomainError, UnsupportedCapabilityError
from fiem.model import FiniteSumModel, ModelConstants, check_statistic

from model_reference import em_fixed_point, grad_v_fd, gradv_identity_check


def toy(seed=0, n=5, dims=(4, 3, 3), **kw):
    return fiem.generate_toy(seed, n=n, dims=dims, **kw)


class TestModelConstants:
    def test_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            ModelConstants(2.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("l_rms, l_gradv", [(0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0)])
    def test_lipschitz_constants_must_be_positive(self, l_rms, l_gradv):
        with pytest.raises(ConfigurationError, match="Lipschitz"):
            ModelConstants(0.5, 2.0, l_rms, l_gradv)


class TestSbar:
    def test_single_example_mean_is_the_example(self):
        m = toy(n=1)
        s = np.array([0.3, -1.0, 2.0])
        assert np.array_equal(m.stat_mean(m.image(s)), m.stat_rows(m.image(s), [0])[0])

    def test_matches_direct_resummation(self):
        # oracle: rebuild Pi1/gram and T from raw solves and average the five
        # per-example statistics independently of the model's methods
        m = toy(seed=3, n=5)
        s = np.array([1.0, 0.5, -2.0])
        p_dim = m.a_mat.shape[1]
        inner = np.linalg.inv(np.eye(p_dim) + m.a_mat.T @ m.a_mat)
        pi1 = m.x_mat.T @ inner @ m.a_mat.T
        gram = m.x_mat.T @ inner @ m.x_mat
        theta = np.linalg.solve(m.upsilon * np.eye(m.q) + m.x_mat.T @ m.x_mat, s)
        rows = np.stack([pi1 @ m.y_obs[i] + gram @ theta for i in range(5)])
        np.testing.assert_allclose(m.stat_mean(m.image(s)), rows.mean(axis=0), rtol=1e-12)

    def test_gmm_symmetric_components(self):
        y = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        ds = fiem.GmmDataset(y)
        m = fiem.GmmModel(ds, 2)
        theta = fiem.GmmParams(np.array([0.5, 0.5]), np.zeros((2, 2)), np.eye(2))
        s = m.sbar(theta)
        np.testing.assert_allclose(s[:2], [0.5, 0.5], atol=1e-14)


class TestMeanField:
    def test_zero_at_fixed_point(self):
        m = toy(seed=1, n=6)
        s_star = em_fixed_point(m)
        assert np.linalg.norm(fiem.mean_field(m, s_star)) < 1e-10

    def test_affine_identity_on_toy(self):
        m = toy(seed=2, n=7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.normal(size=m.q)
            h = fiem.mean_field(m, s)
            np.testing.assert_allclose(h, m.stat_mean(m.image(s)) - s, rtol=0, atol=1e-14)
            oracle = m.p1ybar + m.pi2 @ s - s
            np.testing.assert_allclose(h, oracle, rtol=1e-12, atol=1e-14)

    def test_gmm_single_component(self):
        ds, _ = fiem.generate_gmm_synthetic(0, n=30, g=1, p=2, separation=1.0)
        m = fiem.GmmModel(ds, 1)
        s = m.initial_statistic(fiem.GmmParams(np.ones(1), np.zeros((1, 2)), np.eye(2)))
        h = fiem.mean_field(m, s)
        # with one component the posterior is identically 1
        assert abs(h[0] - (1.0 - s[0])) < 1e-14

    def test_fixed_point_iff_em_fixed(self):
        m = toy(seed=4, n=5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.normal(size=m.q)
            h = fiem.mean_field(m, s)
            step = m.stat_mean(m.image(s))
            assert (np.linalg.norm(h) == 0.0) == np.array_equal(step, s)

    def test_domain_error_names_condition(self):
        m = toy()
        with pytest.raises(DomainError, match="non-finite"):
            fiem.mean_field(m, np.array([np.nan, 0.0, 0.0]))


class TestObjectiveV:
    def test_minimum_at_fixed_point(self):
        m = toy(seed=5, n=9)
        s_star = em_fixed_point(m)
        v_star = fiem.objective_v(m, s_star)
        assert abs(v_star - m.objective(m.theta_star)) < 1e-9
        rng = np.random.default_rng(2)
        for _ in range(25):
            assert fiem.objective_v(m, s_star + rng.normal(size=m.q)) >= v_star - 1e-12

    def test_is_a_composition(self):
        m = toy(seed=6, n=4)
        s = np.array([0.1, -0.2, 0.4])
        assert fiem.objective_v(m, s) == m.objective(m.tmap(s))

    def test_unsupported_capability(self):
        class Bare(FiniteSumModel):
            n, q = 2, 1

            def tmap(self, s):
                return s

            def admissible(self, s):
                return None

            def stat_rows(self, s, indices):
                return np.tile(s, (len(indices), 1))

        with pytest.raises(UnsupportedCapabilityError):
            fiem.objective_v(Bare(), np.zeros(1))


class TestGradientIdentity:
    def test_residual_small_on_random_points(self):
        m = toy(seed=7, n=6)
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rng.normal(scale=3.0, size=m.q)
            res = gradv_identity_check(m, s)
            gnorm = np.linalg.norm(grad_v_fd(m, s))
            assert res <= 1e-6 * (1.0 + gnorm)

    def test_fixed_point_is_critical(self):
        m = toy(seed=8, n=6)
        g = grad_v_fd(m, em_fixed_point(m))
        assert np.linalg.norm(g) <= 1e-6

    def test_residual_invariant_under_regularization_change(self):
        base = toy(seed=9, n=6)
        other = fiem.ToyModel(base.a_mat, base.x_mat, 0.7, base.y_obs)
        s = np.array([0.5, -1.0, 0.25])
        for m in (base, other):
            res = gradv_identity_check(m, s)
            gnorm = np.linalg.norm(grad_v_fd(m, s))
            assert res <= 1e-6 * (1.0 + gnorm)


class TestCurvatureSandwich:
    def test_inner_product_bounds_hold(self):
        m = toy(seed=10, n=8)
        c = m.constants()
        rng = np.random.default_rng(4)
        for _ in range(1000):
            s = rng.normal(scale=4.0, size=m.q)
            h = fiem.mean_field(m, s)
            hsq = float(h @ h)
            quad = float(h @ (m.bmat(s) @ h))
            assert quad >= c.v_min * hsq - 1e-10
            assert quad <= c.v_max * hsq + 1e-10 * max(1.0, hsq)


class Affine(FiniteSumModel):
    """A toy model's statistic map through the three required methods only,
    so that the generic ``stat_mean`` and ``stat_rows_into`` serve it."""

    def __init__(self, toy_model):
        self.n, self.q = toy_model.n, toy_model.q
        self.tmat, self.pi2, self.p1y = toy_model.tmat, toy_model.pi2, toy_model.p1y

    def tmap(self, s):
        return self.tmat @ s

    def admissible(self, s):
        check_statistic(self, s)

    def stat_rows(self, s, indices):
        return self.p1y[np.asarray(indices)] + self.pi2 @ s


class TestContract:
    def test_three_methods_define_a_model(self):
        assert FiniteSumModel.__abstractmethods__ == {"tmap", "admissible", "stat_rows"}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_generic_model_runs_like_its_closed_forms(self, algorithm):
        m = toy(seed=9, n=12)
        k_max = 30
        sched = StepSchedule.constant(0.4, k_max)
        diags = [fiem.run(algorithm, model, sched, TerminationRule.uniform(k_max), 3,
                          fiem.RunOptions(s0=np.zeros(m.q), compute_e2=True))
                 for model in (Affine(m), m)]
        generic, closed = diags
        np.testing.assert_allclose(generic.s_final, closed.s_final, rtol=1e-11)
        np.testing.assert_allclose(generic.h_sq, closed.h_sq, rtol=1e-9, atol=1e-24)
        if algorithm in MEMORY_ALGORITHMS:
            # at k = 0 the memory mean is the EM image itself: a zero gap,
            # up to rounding
            np.testing.assert_allclose(generic.cv_gap_sq, closed.cv_gap_sq, rtol=1e-9, atol=1e-24)
        if algorithm == "opt-fiem":
            np.testing.assert_allclose(generic.lambdas, closed.lambdas, rtol=1e-9)


def test_public_surface_is_pinned():
    exported = sorted(name for name, value in vars(fiem).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == [
        "GmmDataset", "GmmModel", "GmmParams", "PlannerInputs", "RunAbortError",
        "RunOptions", "SeedTree", "StepSchedule", "TerminationRule", "ToyModel",
        "fiem_step", "generate_gmm_synthetic", "generate_toy", "gmm_epoch_path", "gmm_loglik",
        "iem_step", "init_params", "karimi_plan", "mean_field", "nonuniform_plan",
        "objective_v", "online_em_step", "opt_fiem_lambda", "opt_fiem_step", "plan_case1",
        "preprocess", "run", "solve_case2",
    ]


def test_settings_are_pinned():
    # every settable field and parameter here is a configuration tests must
    # cover; a new one shows up as a diff of this table
    from fiem.algorithms import RunDiagnostics, fiem_replicas
    from fiem.experiments import (BoundReport, EEstimates, ExperimentConfig,
                                  GmmExperimentConfig, ResultTable, verify_theorem1)
    from fiem.rng import index_draws, raw_outputs
    from fiem.stepsize import StepSizePlan, bound_case1, solve_c_case1

    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in (
        fiem.RunOptions, ExperimentConfig, GmmExperimentConfig, fiem.PlannerInputs,
        StepSizePlan, RunDiagnostics, ResultTable, BoundReport, ModelConstants, EEstimates)}
    assert fields == {
        "RunOptions": ["s0", "batch_size", "compute_h", "compute_e2", "compute_e0",
                       "theta_ref", "forced_lambda", "domain_policy"],
        "ExperimentConfig": ["model", "algorithms", "schedule", "termination", "options",
                             "replicas", "seed", "workers"],
        "GmmExperimentConfig": ["model", "algorithms", "gamma", "batch_size", "epochs",
                                "replicas", "seed", "kswitch", "workers"],
        "PlannerInputs": ["n", "k_max", "v_min", "l_rms", "l_gradv", "mu", "lam"],
        "StepSizePlan": ["strategy", "n", "mu", "lam", "c", "schedule", "termination",
                         "bound_constant", "bound_value", "violated_condition"],
        "RunDiagnostics": ["terminal_k", "s0", "s_final", "step_sq", "h_sq", "cv_gap_sq",
                           "vdot_sq", "lambdas", "theta_err", "violations"],
        "ResultTable": ["runs", "aborted"],
        "BoundReport": ["strategy", "lhs", "rhs", "margin_sigmas", "vacuous"],
        "ModelConstants": ["v_min", "v_max", "lipschitz_rms", "lipschitz_gradv"],
        "EEstimates": ["e1", "se1", "e0"],
    }
    params = {fn.__name__: list(inspect.signature(fn).parameters) for fn in (
        fiem.generate_toy, verify_theorem1, solve_c_case1, bound_case1, fiem.karimi_plan,
        raw_outputs, index_draws, fiem_replicas)}
    assert params == {
        "generate_toy": ["seed", "n", "dims"],
        "verify_theorem1": ["model", "schedule", "s0", "replicas", "seed", "betas", "workers"],
        "solve_c_case1": ["inputs"],
        "bound_case1": ["inputs", "c"],
        "karimi_plan": ["inputs"],
        "raw_outputs": ["tree", "children", "name", "count"],
        "index_draws": ["tree", "children", "name", "n", "size"],
        "fiem_replicas": ["model", "schedule", "termination", "tree", "children", "options"],
    }


# library names that only tests call, each with the reason it stays
TEST_ONLY_NAMES = {
    "verify_bound": "test_prop4_bound gates Prop. 4 through it",
}


def _references(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_library_name_has_a_product_caller():
    # a module-level function or class of src/fiem, or a non-dunder method
    # or property of one of its classes, is used when a package module
    # (re-exports in __init__ do not count) names it outside its own
    # definition, when the benchmark's child process names it, or when the
    # benchmark tracer wraps it by name ("Class.method" for a method)
    repo = Path(__file__).resolve().parents[1]
    defined, references = [], Counter()
    for path in sorted((repo / "src" / "fiem").glob("*.py")):
        module = ast.parse(path.read_text())
        if path.name != "__init__.py":
            references += _references(module)
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                defined += [(f"{stmt.name}.{fn.name}", fn) for fn in stmt.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")]
    references += _references(ast.parse((repo / "perfbench" / "child.py").read_text()))
    spans = ast.parse((repo / "perfbench" / "spans.py").read_text())
    targets = next(stmt.value for stmt in spans.body if isinstance(stmt, ast.Assign)
                   and [t.id for t in stmt.targets] == ["TARGETS"])
    traced = {entry.elts[1].value for entry in targets.elts}
    traced |= {part for target in traced for part in target.split(".")}
    unused = sorted(name for name, node in defined if name not in traced
                    and references[node.name] == _references(node)[node.name])
    stray = sorted(set(unused) - set(TEST_ONLY_NAMES))
    assert stray == [], f"no product caller: {stray}"
    assert sorted(TEST_ONLY_NAMES) == unused
