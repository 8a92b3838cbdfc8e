"""Command-line front end.

Subcommands: ``plan`` (step-size planning), ``toy`` (replicated runs on the
linear-Gaussian benchmark), ``gmm`` (mixture fits with epoch tables), and
``check`` (verification suites).  All randomness flows from ``--seed``;
re-running a subcommand with identical flags writes byte-identical files.

Exit codes: 0 success, 1 check failure, 2 infeasible plan or bad input,
3 run aborted (a domain violation or divergence in any replica).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .algorithms import StepSchedule, TerminationRule
from .errors import InfeasiblePlanError, RunAbortError
from .experiments import (
    ExperimentConfig,
    GmmExperimentConfig,
    estimate_e,
    run_replicated,
    table_report,
    verify_theorem1,
    write_aggregates_csv,
    write_diagnostics_csv,
)
from .gmm import GmmDataset, GmmModel, generate_gmm_synthetic, preprocess
from .model import mean_field
from .stepsize import PlannerInputs, build_plan, karimi_plan, plan_case1
from .toy import generate_toy

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_DOMAIN_ABORT = 3

# published config-file schema: subcommand -> allowed keys
CONFIG_SCHEMA = {
    "plan": {"n", "kmax", "vmin", "L", "Lv", "mu", "lambda", "strategy",
             "weights", "epsilon", "out"},
    "toy": {"seed", "n", "kmax", "algos", "plan", "replicas", "out", "preset", "threads"},
    "gmm": {"data", "synthetic", "preprocess", "g", "algos", "gamma", "batch",
            "kswitch", "epochs", "replicas", "seed", "out", "preset", "threads"},
    "check": {"suite", "scale", "seed"},
}


def _load_config(path: str, subcommand: str, parser: argparse.ArgumentParser) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        parser.error("config file must hold a JSON object")
    unknown = set(doc) - CONFIG_SCHEMA[subcommand]
    if unknown:
        parser.error(f"unknown config keys for {subcommand!r}: {sorted(unknown)}")
    return doc


def _merged(args: argparse.Namespace, config: dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _json_dump(doc, path=None):
    text = json.dumps(doc, sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_rows_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


# -- plan ---------------------------------------------------------------


def cmd_plan(args, parser) -> int:
    config = _load_config(args.config, "plan", parser) if args.config else {}
    get = lambda key, default=None: _merged(args, config, key, default)
    strategy = get("strategy", "case1")
    weights = None
    wfile = get("weights")
    if wfile:
        weights = np.loadtxt(wfile, ndmin=1)
    for key in ("n", "kmax", "vmin", "L", "Lv"):
        if get(key) is None:
            parser.error(f"plan requires --{key}")
    inputs = PlannerInputs(
        n=int(get("n")),
        k_max=int(get("kmax")),
        v_min=float(get("vmin")),
        l_rms=float(get("L")),
        l_gradv=float(get("Lv")),
        mu=float(get("mu", 0.25)),
        lam=float(get("lambda", 0.5)),
    )
    try:
        plan = build_plan(strategy, inputs, weights=weights,
                          epsilon=get("epsilon"))
    except InfeasiblePlanError as exc:
        print(f"infeasible: {exc.condition}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _json_dump(plan.to_dict(), get("out"))
    if not plan.feasible:
        print(f"infeasible: {plan.violated_condition}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


# -- toy ----------------------------------------------------------------


TOY_PRESETS = {
    # reference experiment: n=1e3, K_max=20n, R=1e3, mu=0.25, lambda=0.5
    "paper-fig7": {"n": 1000, "kmax_mult": 20, "replicas": 1000},
    "desk": {"n": 100, "kmax_mult": 10, "replicas": 100},
}


def cmd_toy(args, parser) -> int:
    config = _load_config(args.config, "toy", parser) if args.config else {}
    get = lambda key, default=None: _merged(args, config, key, default)
    preset = get("preset")
    n = int(get("n", TOY_PRESETS[preset]["n"] if preset else 100))
    kmax = get("kmax")
    kmax = int(kmax) if kmax is not None else (
        TOY_PRESETS[preset]["kmax_mult"] * n if preset else 10 * n)
    replicas = int(get("replicas", TOY_PRESETS[preset]["replicas"] if preset else 100))
    seed = int(get("seed", 0))
    algos = [a.strip() for a in str(get("algos", "online-em,fiem,opt-fiem")).split(",") if a.strip()]
    outdir = get("out", "toy-out")
    threads = int(get("threads", os.cpu_count() or 1))

    model = generate_toy(seed, n)
    constants = model.constants()
    inputs = PlannerInputs.from_constants(constants, n=n, k_max=kmax, mu=0.25, lam=0.5)
    plan_file = get("plan")
    if plan_file:
        with open(plan_file) as fh:
            doc = json.load(fh)
        gamma = doc["gamma"]
        schedule = StepSchedule(np.asarray(gamma, dtype=float)) if isinstance(gamma, list) \
            else StepSchedule.constant(float(gamma), kmax)
    else:
        schedule = plan_case1(inputs).schedule

    exp = ExperimentConfig(
        model=model,
        algorithms=algos,
        schedule=schedule,
        termination=TerminationRule.uniform(kmax),
        s0=np.zeros(model.q),
        replicas=replicas,
        seed=seed,
        compute_e0=True,
        theta_ref=model.theta_star,
        workers=threads,
    )
    try:
        table = run_replicated(exp)
    except RunAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ABORT
    if not table.complete:
        for alg, aborts in table.aborted.items():
            for r, k, condition in aborts:
                print(f"aborted: {alg} replica {r} iteration {k}: {condition}", file=sys.stderr)
        return EXIT_DOMAIN_ABORT

    os.makedirs(outdir, exist_ok=True)
    write_aggregates_csv(os.path.join(outdir, "aggregates.csv"), table)
    write_diagnostics_csv(os.path.join(outdir, "diagnostics.csv"), table)
    karimi = karimi_plan(inputs, constants.lipschitz_i)
    _json_dump(
        {
            "n": n,
            "k_max": kmax,
            "v_min": constants.v_min,
            "v_max": constants.v_max,
            "L": constants.lipschitz_rms,
            "L_gradV": constants.lipschitz_gradv,
            "gamma_plan": float(schedule.gammas[0]),
            "gamma_karimi": karimi.gamma,
        },
        os.path.join(outdir, "constants.json"),
    )
    return EXIT_OK


# -- gmm ----------------------------------------------------------------


GMM_PAPER_PRESET = {"g": 12, "preprocess": 20, "batch": 100, "gamma": 5e-3,
                    "epochs": 100, "kswitch": 6}


def cmd_gmm(args, parser) -> int:
    config = _load_config(args.config, "gmm", parser) if args.config else {}
    get = lambda key, default=None: _merged(args, config, key, default)
    preset = GMM_PAPER_PRESET if get("preset") == "paper" else {}
    seed = int(get("seed", 0))

    data_file = get("data")
    synthetic = get("synthetic")
    if (data_file is None) == (synthetic is None):
        parser.error("provide exactly one of --data and --synthetic")
    if data_file:
        raw = np.loadtxt(data_file, delimiter=",", ndmin=2)
        p_target = get("preprocess", preset.get("preprocess"))
        dataset = preprocess(raw, int(p_target)) if p_target else GmmDataset(raw)
    else:
        gen_seed, n, g_true, p, sep = str(synthetic).split(",")
        dataset, _truth = generate_gmm_synthetic(
            int(gen_seed), int(n), int(g_true), int(p), float(sep))

    g = int(get("g", preset.get("g", 3)))
    model = GmmModel(dataset, g)
    exp = GmmExperimentConfig(
        model=model,
        algorithms=[a.strip() for a in str(get("algos", "em,iem,online-em,h-fiem")).split(",") if a.strip()],
        gamma=float(get("gamma", preset.get("gamma", 5e-3))),
        batch_size=int(get("batch", preset.get("batch", 100))),
        epochs=int(get("epochs", preset.get("epochs", 100))),
        replicas=int(get("replicas", 1)),
        seed=seed,
        kswitch=int(get("kswitch", preset.get("kswitch", 6))),
        workers=int(get("threads", os.cpu_count() or 1)),
    )
    try:
        rows, paths = table_report(exp)
    except RunAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ABORT

    outdir = get("out", "gmm-out")
    os.makedirs(outdir, exist_ok=True)
    _write_rows_csv(
        os.path.join(outdir, "epoch_table.csv"),
        ["algorithm", "epoch", "mean", "std"],
        [[r["algorithm"], r["epoch"], repr(r["mean"]), repr(r["std"])] for r in rows],
    )
    traj_rows = []
    for alg, plist in paths.items():
        for r, path in enumerate(plist):
            for e in range(path.weights.shape[0]):
                for l in range(path.weights.shape[1]):
                    traj_rows.append([alg, r, e, l, repr(float(path.weights[e, l]))])
    _write_rows_csv(
        os.path.join(outdir, "weights_trajectories.csv"),
        ["algorithm", "replica", "epoch", "component", "weight"],
        traj_rows,
    )
    counts = [[alg, r, p.iterations, p.examples_processed, p.violations]
              for alg, plist in paths.items() for r, p in enumerate(plist)]
    _write_rows_csv(
        os.path.join(outdir, "epoch_accounting.csv"),
        ["algorithm", "replica", "iterations", "examples_processed", "proxy_violations"],
        counts,
    )
    _json_dump(
        {alg: plist[0].final_params.to_dict() for alg, plist in paths.items()},
        os.path.join(outdir, "fitted_params.json"),
    )
    return EXIT_OK


# -- check --------------------------------------------------------------


def _check_identities(seed: int) -> list[tuple[str, bool, str]]:
    from .algorithms import RunOptions, run
    from .stepsize import (
        c_plus_closed_form,
        case1_identity_gap,
        nonuniform_plan,
        solve_c_case1,
        solve_c_lambda_eq_c,
    )

    results = []
    model = generate_toy(seed, n=8, dims=(4, 3, 3))
    constants = model.constants()
    inputs = PlannerInputs.from_constants(constants, n=1000, k_max=50, mu=0.25, lam=0.5)

    c = solve_c_case1(inputs)
    gap = case1_identity_gap(inputs, c)
    results.append(("case1 defining equation (1e-12 relative)", gap <= 1e-10,
                    f"identity gap {gap:.2e}"))

    c_plus = c_plus_closed_form(0.25, constants.v_min, constants.lipschitz_rms,
                                constants.lipschitz_gradv)
    c_eq = solve_c_lambda_eq_c(1000, 0.25, constants.v_min, constants.lipschitz_rms,
                               constants.lipschitz_gradv)
    results.append(("lambda=C solution below its closed-form cap", c_eq <= c_plus + 1e-12,
                    f"C={c_eq:.6f} C+={c_plus:.6f}"))

    uniform = nonuniform_plan(inputs, np.full(inputs.k_max, 1.0 / inputs.k_max))
    case1 = plan_case1(PlannerInputs.from_constants(constants, n=1000, k_max=50, mu=0.5, lam=0.5))
    dev = np.max(np.abs(uniform.schedule.gammas - case1.schedule.gammas)) / case1.schedule.gammas[0]
    results.append(("uniform non-uniform plan equals case1 at mu=1/2", dev <= 1e-12,
                    f"max relative deviation {dev:.2e}"))

    sched = StepSchedule.constant(plan_case1(PlannerInputs.from_constants(
        constants, n=model.n, k_max=40, mu=0.25, lam=0.5)).gamma, 40)
    opts = RunOptions(s0=np.zeros(model.q))
    term = TerminationRule.uniform(40)
    d_onl = run("online-em", model, sched, term, seed, opts)
    d_l0 = run("opt-fiem", model, sched, term, seed,
               RunOptions(s0=np.zeros(model.q), forced_lambda=0.0))
    d_f = run("fiem", model, sched, term, seed, opts)
    d_l1 = run("opt-fiem", model, sched, term, seed,
               RunOptions(s0=np.zeros(model.q), forced_lambda=1.0))
    ok0 = np.array_equal(d_onl.s_final, d_l0.s_final)
    ok1 = np.array_equal(d_f.s_final, d_l1.s_final)
    results.append(("opt-FIEM lambda=0 is Online EM bitwise", ok0, ""))
    results.append(("opt-FIEM lambda=1 is FIEM bitwise", ok1, ""))
    return results


def _check_theorem1(seed: int, scale: str) -> list[tuple[str, bool, str]]:
    if scale == "desk":
        n, q_dims, k_max, replicas = 10, (4, 3, 3), 50, 2000
    else:
        n, q_dims, k_max, replicas = 100, (15, 10, 20), 500, 2000
    model = generate_toy(seed, n, dims=q_dims)
    inputs = PlannerInputs.from_constants(model.constants(), n=n, k_max=k_max)
    schedule = plan_case1(inputs).schedule
    report = verify_theorem1(model, schedule, np.zeros(model.q), replicas, seed)
    msg = f"lhs={report.lhs:.4e} deltaV={report.delta_v:.4e} margin={report.margin_sigmas:.1f} sigma"
    return [("master inequality within 3 sigma", report.holds, msg)]


def _check_prop2(seed: int) -> list[tuple[str, bool, str]]:
    model = generate_toy(seed, n=50, dims=(6, 4, 5))
    constants = model.constants()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        s = rng.normal(scale=5.0, size=model.q)
        h = mean_field(model, s)
        lhs = float(h @ (model.bmat(s) @ h))
        worst = max(worst, constants.v_min * float(h @ h) - lhs)
    ok_pointwise = worst <= 1e-10
    k_max = 200
    schedule = plan_case1(PlannerInputs.from_constants(constants, n=model.n, k_max=k_max)).schedule
    exp = ExperimentConfig(
        model=model, algorithms=("fiem",), schedule=schedule,
        termination=TerminationRule.uniform(k_max), s0=np.zeros(model.q),
        replicas=200, seed=seed, compute_e0=True,
    )
    est = estimate_e(run_replicated(exp).runs["fiem"], v_max=constants.v_max)
    ok_mc = est.e0 <= est.e1 + 3.0 * est.se1
    return [
        ("curvature inequality pointwise (1000 states)", ok_pointwise, f"worst excess {worst:.2e}"),
        ("E0 below E1 within 3 sigma", ok_mc, f"E0={est.e0:.4e} E1={est.e1:.4e}"),
    ]


def cmd_check(args, parser) -> int:
    config = _load_config(args.config, "check", parser) if args.config else {}
    get = lambda key, default=None: _merged(args, config, key, default)
    suite = get("suite", "identities")
    scale = get("scale", "desk")
    seed = int(get("seed", 0))
    try:
        if suite == "identities":
            results = _check_identities(seed)
        elif suite == "theorem1":
            results = _check_theorem1(seed, scale)
        elif suite == "prop2":
            results = _check_prop2(seed)
        else:
            parser.error(f"unknown suite {suite!r}")
    except RunAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ABORT
    failed = False
    for name, ok, msg in results:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if msg:
            line += f" ({msg})"
        print(line)
        failed = failed or not ok
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fiem", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve a step-size plan and emit it as JSON")
    p.add_argument("--config", help="JSON config file (schema-checked)")
    p.add_argument("--n", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--vmin", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--Lv", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--lambda", dest="lambda_", type=float)
    p.add_argument("--strategy", choices=["case1", "case2", "nonuniform", "karimi", "auto"])
    p.add_argument("--weights", help="file with termination weights (nonuniform)")
    p.add_argument("--epsilon", type=float, help="target accuracy for auto strategy")
    p.add_argument("--out")

    t = sub.add_parser("toy", help="replicated runs on the linear-Gaussian benchmark")
    t.add_argument("--config")
    t.add_argument("--seed", type=int)
    t.add_argument("--n", type=int)
    t.add_argument("--kmax", type=int)
    t.add_argument("--algos")
    t.add_argument("--plan", help="step-size plan JSON from the plan subcommand")
    t.add_argument("--replicas", type=int)
    t.add_argument("--out")
    t.add_argument("--preset", choices=sorted(TOY_PRESETS))
    t.add_argument("--threads", type=int)

    g = sub.add_parser("gmm", help="Gaussian-mixture fits with epoch tables")
    g.add_argument("--config")
    g.add_argument("--data", help="header-free CSV, one observation per row")
    g.add_argument("--synthetic", help="seed,n,g,p,separation")
    g.add_argument("--preprocess", type=int, help="PCA target dimension")
    g.add_argument("--g", type=int, help="number of mixture components to fit")
    g.add_argument("--algos")
    g.add_argument("--gamma", type=float)
    g.add_argument("--batch", type=int)
    g.add_argument("--kswitch", type=int)
    g.add_argument("--epochs", type=int)
    g.add_argument("--replicas", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--out")
    g.add_argument("--preset", choices=["paper"])
    g.add_argument("--threads", type=int)

    c = sub.add_parser("check", help="verification suites")
    c.add_argument("--config")
    c.add_argument("--suite", choices=["theorem1", "prop2", "identities"])
    c.add_argument("--scale", choices=["desk", "paper"])
    c.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # map the reserved word back
    if hasattr(args, "lambda_") and args.lambda_ is not None:
        setattr(args, "lambda", args.lambda_)
    handlers = {"plan": cmd_plan, "toy": cmd_toy, "gmm": cmd_gmm, "check": cmd_check}
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
