"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two Monte Carlo
criteria carry their stated single-core runtime budgets; the mixture-data
criterion at the bottom needs an externally supplied dataset and is skipped
without one.
"""
import os
import time

import numpy as np
import pytest

from fiem.algorithms import (MemoryTable, RunOptions, StepSchedule, TerminationRule,
                             opt_fiem_lambda, run)
from fiem.cli import main as cli_main
from fiem.experiments import (
    ExperimentConfig,
    gmm_epoch_path,
    paired_margin,
    run_replicated,
    terminal_indices,
    verify_bound,
)
from fiem.gmm import (GmmModel, generate_gmm_synthetic, gmm_loglik, init_params, posterior_rows,
                      preprocess)
from fiem.model import mean_field
from fiem.stepsize import (
    PlannerInputs,
    c_plus_closed_form,
    f_n,
    karimi_plan,
    nonuniform_plan,
    plan_case1,
    solve_c_case1,
    solve_c_lambda_eq_c,
    theorem1_coeffs,
)
from fiem.toy import generate_toy

from gmm_reference import dense_selection_matrix
from model_reference import grad_v_fd, gradv_identity_check


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)


# -- shared expensive fixtures ------------------------------------------


@pytest.fixture(scope="module")
def theorem1_runs():
    """n=10, q=3, K_max=50, case1 schedule, R=1e4 replicas."""
    t0 = time.time()
    model = generate_toy(0, n=10, dims=(4, 3, 3))
    k_max = 50
    plan = plan_case1(PlannerInputs.from_constants(
        model.constants(), n=model.n, k_max=k_max, mu=0.25, lam=0.5))
    config = ExperimentConfig(
        model=model,
        algorithms=("fiem",),
        schedule=plan.schedule,
        options=RunOptions(s0=np.zeros(model.q), compute_e2=True, compute_e0=True),
        replicas=10_000,
        seed=0,
    )
    table = run_replicated(config)
    return model, plan, table, time.time() - t0


@pytest.fixture(scope="module")
def prop4_runs():
    """n=100 paper dims, gamma from case1(mu=0.25, lambda=0.5), K_max=20n, R=500."""
    t0 = time.time()
    model = generate_toy(0, n=100)
    k_max = 20 * model.n
    plan = plan_case1(PlannerInputs.from_constants(
        model.constants(), n=model.n, k_max=k_max, mu=0.25, lam=0.5))
    config = ExperimentConfig(
        model=model,
        algorithms=("fiem",),
        schedule=plan.schedule,
        options=RunOptions(s0=np.zeros(model.q), compute_e0=True),
        replicas=500,
        seed=0,
    )
    table = run_replicated(config)
    return model, plan, table, time.time() - t0


# -- criteria ------------------------------------------------------------


def test_theorem1_inequality_desk_scale(theorem1_runs):
    model, plan, table, elapsed = theorem1_runs
    constants = model.constants()
    coeffs = theorem1_coeffs(
        plan.schedule, model.n, constants.lipschitz_rms, constants.v_min,
        constants.lipschitz_gradv, lam=0.5)
    diags = table.runs["fiem"]
    v0 = model.objective(model.tmap(np.zeros(model.q)))
    lhs_r = np.array([coeffs.alphas @ d.h_sq + coeffs.deltas @ d.cv_gap_sq for d in diags])
    dv_r = np.array([v0 - model.objective(model.tmap(d.s_final)) for d in diags])
    margin = paired_margin(lhs_r, dv_r)
    ok = (margin >= -3.0 or lhs_r.mean() <= dv_r.mean()) and elapsed < 120.0
    report(
        "theorem-1 inequality, desk scale (R=1e4)",
        ok,
        f"lhs={lhs_r.mean():.4e} deltaV={dv_r.mean():.4e} margin={margin:.0f} sigma, "
        f"{elapsed:.0f}s",
    )
    assert margin >= -3.0 or lhs_r.mean() <= dv_r.mean()
    assert elapsed < 120.0


def test_prop4_bound(prop4_runs):
    model, plan, table, elapsed = prop4_runs
    coeff = model.n ** (2.0 / 3.0) / plan.k_max * plan.bound_constant
    rep = verify_bound(table, plan.termination, 0, model, coeff, "case1")
    ok = rep.holds and elapsed < 300.0
    report(
        "n^(2/3) strategy bound (n=100, K=20n, R=500)",
        ok,
        f"E1={rep.lhs:.4e} bound={rep.rhs:.4e} margin={rep.margin_sigmas:.0f} sigma, "
        f"{elapsed:.0f}s",
    )
    assert rep.holds
    assert elapsed < 300.0


def test_prop2_scaled_gradient_dominated(theorem1_runs, prop4_runs):
    worst = 0.0
    model_small = theorem1_runs[0]
    rng = np.random.default_rng(7)
    v_min = model_small.constants().v_min
    for _ in range(1000):
        s = rng.normal(scale=4.0, size=model_small.q)
        h = mean_field(model_small, s)
        inner = float(h @ (model_small.bmat(s) @ h))  # -<h, grad V> for this model
        worst = max(worst, v_min * float(h @ h) - inner)
    pointwise_ok = worst <= 1e-10

    margins = []
    for model, _, table, _ in (theorem1_runs, prop4_runs):
        v_max = model.constants().v_max
        diags = table.runs["fiem"]
        ks = terminal_indices(TerminationRule.uniform(diags[0].k_max), 0, len(diags))
        e0_r = np.array([d.vdot_sq[k] for d, k in zip(diags, ks)]) / v_max**2
        e1_r = np.array([d.h_sq[k] for d, k in zip(diags, ks)])
        margins.append(paired_margin(e0_r, e1_r))
    mc_ok = all(m >= -3.0 for m in margins)
    report(
        "scaled-gradient criterion below mean-field criterion",
        pointwise_ok and mc_ok,
        f"worst pointwise excess {worst:.1e}; margins {[f'{m:.0f}' for m in margins]} sigma",
    )
    assert pointwise_ok
    assert mc_ok


def test_planner_identities():
    ins = PlannerInputs(n=10**6, k_max=1000, v_min=0.7, l_rms=1.4, l_gradv=3.0,
                        mu=0.25, lam=0.5)
    c = solve_c_case1(ins)
    target = 2 * ins.mu * ins.v_min * ins.l_rms / ins.l_gradv
    resid = abs(np.sqrt(c) * f_n(c, ins.lam, ins.n) - target)
    a_ok = resid <= 1e-12 * target

    c_eq = solve_c_lambda_eq_c(10**6, 0.25, 0.7, 1.4, 3.0)
    cap = c_plus_closed_form(0.25, 0.7, 1.4, 3.0)
    b_ok = c_eq <= cap + 1e-15

    k_max = 50
    base = PlannerInputs(n=2000, k_max=k_max, v_min=0.7, l_rms=1.4, l_gradv=3.0,
                         mu=0.5, lam=0.5)
    case1 = plan_case1(base)
    nu = nonuniform_plan(
        PlannerInputs(n=2000, k_max=k_max, v_min=0.7, l_rms=1.4, l_gradv=3.0,
                      mu=0.25, lam=0.5),
        np.full(k_max, 1.0 / k_max))
    c_ok = np.abs(nu.schedule.gammas - case1.schedule.gammas).max() <= 1e-12 * case1.gamma

    rng = np.random.default_rng(0)
    d_ok = True
    for trial_k in (3, 17, 50):
        gammas = rng.uniform(0.01, 0.2, size=trial_k)
        betas = rng.uniform(0.05, 0.9, size=trial_k)
        coeffs = theorem1_coeffs(StepSchedule(gammas), n=9, l_rms=1.2, v_min=0.8,
                                 l_gradv=2.0, betas=betas)
        l_sq = 1.2**2
        for k in range(trial_k - 1):
            total = 0.0
            for j in range(k + 1, trial_k):
                prod = 1.0
                for ell in range(k + 2, j + 1):
                    prod *= 1.0 - 1.0 / 9 + betas[ell - 1] + gammas[ell - 1] ** 2 * l_sq
                total += gammas[j] ** 2 * prod
            brute = (1.0 + 1.0 / betas[k]) * total
            ref = max(abs(brute), 1e-300)
            if abs(coeffs.lambdas_big[k] - brute) > 1e-12 * ref:
                d_ok = False

    report(
        "planner identities (equation residual, closed-form cap, "
        "uniform-weights equivalence, coefficient recursion)",
        a_ok and b_ok and c_ok and d_ok,
        f"resid={resid:.1e}, C={c_eq:.4f}<=C+={cap:.4f}",
    )
    assert a_ok and b_ok and c_ok and d_ok


def test_stepsize_dominance_over_baseline():
    model = generate_toy(0, n=50)  # constants depend only on A, X, upsilon
    constants = model.constants()
    n_big = 10**6
    ins = PlannerInputs.from_constants(constants, n=n_big, k_max=n_big, mu=0.25, lam=0.5)
    ours = plan_case1(ins)
    baseline = karimi_plan(ins)
    gamma_ok = ours.gamma > baseline.gamma
    bound_ok = ours.bound_constant < baseline.bound_constant
    report(
        "aggressive step and tighter bound than the baseline at n=1e6",
        gamma_ok and bound_ok,
        f"gamma ratio {ours.gamma / baseline.gamma:.1f}, "
        f"bound ratio {baseline.bound_constant / ours.bound_constant:.1f}",
    )
    assert gamma_ok and bound_ok


def test_algorithm_identities():
    model = generate_toy(1, n=6, dims=(4, 3, 3))
    k_max = 60
    sched = StepSchedule.constant(0.1, k_max)
    mk = lambda **kw: RunOptions(s0=np.zeros(model.q), **kw)

    onl = run("online-em", model, sched, 5, mk())
    l0 = run("opt-fiem", model, sched, 5, mk(forced_lambda=0.0))
    fm = run("fiem", model, sched, 5, mk())
    l1 = run("opt-fiem", model, sched, 5, mk(forced_lambda=1.0))
    bitwise_ok = (np.array_equal(onl.s_final, l0.s_final)
                  and np.array_equal(onl.h_sq, l0.h_sq)
                  and np.array_equal(fm.s_final, l1.s_final)
                  and np.array_equal(fm.h_sq, l1.h_sq))

    single = generate_toy(2, n=1, dims=(4, 3, 3))
    gamma = 0.3
    d = run("fiem", single, StepSchedule.constant(gamma, 30), 0,
            RunOptions(s0=np.zeros(single.q)))
    s = np.zeros(single.q)
    for _ in range(30):
        s = s + gamma * (single.stat_mean(single.image(s)) - s)
    sa_err = np.linalg.norm(d.s_final - s) / max(1.0, np.linalg.norm(s))
    sa_ok = sa_err <= 1e-14

    vertex_ok = True
    rng = np.random.default_rng(3)
    for seed in range(5):
        m = generate_toy(seed, n=6, dims=(4, 3, 3))
        s = rng.normal(size=m.q)
        memory = MemoryTable.init(m, m.image(rng.normal(size=m.q)))
        memory.write(m, m.image(s), np.array([seed % m.n]))
        memory.refresh()
        lam = opt_fiem_lambda(m, m.image(s), memory)
        rows = m.stat_rows(m.image(s), np.arange(m.n))
        u = rows - rows.mean(axis=0)
        v = memory.mean - memory.rows
        vertex = -float(np.einsum("nq,nq->", u, v)) / float(np.einsum("nq,nq->", v, v))
        if abs(lam - vertex) > 1e-10:
            vertex_ok = False

    report(
        "algorithm identities (bitwise reductions, n=1 recursion, "
        "optimal coefficient at the enumerated vertex)",
        bitwise_ok and sa_ok and vertex_ok,
        f"n=1 relative error {sa_err:.1e}",
    )
    assert bitwise_ok and sa_ok and vertex_ok


def test_optimal_coefficient_tends_to_one():
    model = generate_toy(0, n=100)
    k_max = 20 * model.n
    plan = plan_case1(PlannerInputs.from_constants(
        model.constants(), n=model.n, k_max=k_max, mu=0.25, lam=0.5))
    config = ExperimentConfig(
        model=model,
        algorithms=("opt-fiem",),
        schedule=plan.schedule,
        options=RunOptions(s0=np.zeros(model.q)),
        replicas=100,
        seed=0,
    )
    table = run_replicated(config)
    lams = np.stack([d.lambdas for d in table.runs["opt-fiem"]])
    tail_mean = float(lams[:, int(0.9 * k_max):].mean())
    ok = 0.9 <= tail_mean <= 1.1
    report("optimal mixing coefficient tends to one", ok, f"tail mean {tail_mean:.4f}")
    assert ok


def test_gradient_identity():
    model = generate_toy(3, n=20, dims=(6, 4, 5))
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        s = rng.normal(scale=3.0, size=model.q)
        resid = gradv_identity_check(model, s)
        gnorm = np.linalg.norm(grad_v_fd(model, s))
        worst = max(worst, resid / (1.0 + gnorm))
    ok = worst <= 1e-6
    report("finite-difference gradient identity", ok, f"worst normalized residual {worst:.1e}")
    assert ok


def test_gmm_criteria():
    ds, _ = generate_gmm_synthetic(0, n=2000, g=3, p=5, separation=3.0)
    model = GmmModel(ds, 3)
    s0 = model.sbar(init_params(ds, 3, 1))

    em = gmm_epoch_path(model, "em", s0, 1.0, 100, 100, seed=0)
    curve = [gmm_loglik(theta, ds) for theta in em.params]
    monotone_ok = len(curve) == 100 and bool(np.all(np.diff(curve) >= -1e-9))

    small, _ = generate_gmm_synthetic(1, n=20, g=3, p=5, separation=2.0)
    small_model = GmmModel(small, 3)
    theta_small = init_params(small, 3, 2)
    rows = small_model.sbar_rows(theta_small, np.arange(20))
    kron_err = 0.0
    for i in range(20):
        a = dense_selection_matrix(small.observations[i], 3)
        ref = a @ posterior_rows(theta_small, small.observations[i : i + 1])[0]
        kron_err = max(kron_err, float(np.abs(rows[i] - ref).max()))
    kron_ok = kron_err <= 1e-12

    batch = 100
    iem = gmm_epoch_path(model, "iem", s0, 0.8, batch, 20, seed=3)
    onl = gmm_epoch_path(model, "online-em", s0, 5e-3, batch, 20, seed=3)
    fm = gmm_epoch_path(model, "fiem", s0, 5e-3, batch, 20, seed=3)
    proxy_ok = iem.violations == 0 and onl.violations == 0 and fm.violations == 0

    ok = monotone_ok and kron_ok and proxy_ok
    report(
        "mixture model (monotone EM, structured updates vs dense reference, "
        "domain proxies)",
        ok,
        f"kron err {kron_err:.1e}, violations "
        f"{iem.violations}/{onl.violations}/{fm.violations}",
    )
    assert monotone_ok
    assert kron_ok
    assert proxy_ok


def test_cli_reproducibility(tmp_path):
    specs = [
        (["plan", "--strategy", "case1", "--n", "5000", "--kmax", "100",
          "--vmin", "0.5", "--L", "1.2", "--Lv", "2.0"], "plan.json", "out"),
        (["toy", "--seed", "2", "--n", "16", "--kmax", "30",
          "--algos", "online-em,fiem,opt-fiem", "--replicas", "3",
          "--threads", "1"], None, "dir"),
        (["gmm", "--synthetic", "1,120,2,3,2.5", "--g", "2",
          "--algos", "em,iem,online-em,h-fiem", "--batch", "20", "--epochs", "4",
          "--kswitch", "1", "--replicas", "2", "--seed", "4"], None, "dir"),
    ]
    all_ok = True
    for args, out_name, mode in specs:
        captures = []
        for run_id in ("a", "b"):
            target = tmp_path / f"{args[0]}-{run_id}"
            if mode == "out":
                target = tmp_path / f"{args[0]}-{run_id}.json"
                code = cli_main(args + ["--out", str(target)])
                captures.append(target.read_bytes())
            else:
                code = cli_main(args + ["--out", str(target)])
                blob = {p.name: p.read_bytes() for p in sorted(target.iterdir())}
                captures.append(blob)
            assert code == 0
        all_ok = all_ok and (captures[0] == captures[1])
    report("command-line runs are byte-identical on re-run", all_ok)
    assert all_ok


MNIST_ENV = "FIEM_MNIST_CSV"


@pytest.mark.skipif(MNIST_ENV not in os.environ,
                    reason=f"set {MNIST_ENV} to a raw-pixel CSV to enable")
def test_mnist_initial_loglik(tmp_path):
    """Conditional: requires the externally supplied 60000x784 raw-pixel CSV."""
    raw = np.loadtxt(os.environ[MNIST_ENV], delimiter=",", ndmin=2)
    ds = preprocess(raw, 20)
    model = GmmModel(ds, 12)
    theta0 = init_params(ds, 12, 0)
    ll0 = gmm_loglik(theta0, ds)
    ok = abs(ll0 - (-58.31)) <= 0.01
    report("initial normalized log-likelihood on the reference dataset", ok,
           f"got {ll0:.4f}")
    out = tmp_path / "mnist"
    code = cli_main(["gmm", "--data", os.environ[MNIST_ENV], "--preset", "paper",
                     "--algos", "em,iem,online-em,h-fiem", "--replicas", "1",
                     "--seed", "0", "--out", str(out)])
    assert code == 0 and (out / "epoch_table.csv").exists()
    assert ok
