"""Command-line front end.

Subcommands: ``plan`` (step-size planning), ``toy`` (replicated runs on the
linear-Gaussian benchmark), ``gmm`` (mixture fits with epoch tables), and
``check`` (verification suites).  All randomness flows from ``--seed``;
re-running a subcommand with identical flags writes byte-identical files.
``toy``, ``gmm`` and ``check`` run their replicas on up to ``--threads``
processes (default: one per CPU); replicas are reduced in replica order, so
the output is the same at every thread count.

Exit codes: 0 success, 1 check failure, 2 infeasible plan or bad input,
3 run aborted (a domain violation or divergence in any replica, or a
``toy`` checkpoint summary that is not finite).
"""
from __future__ import annotations

# numpy and the package modules load ahead of the standard library ones: in
# this order a gmm fit's peak resident memory reads about 0.5 MB lower
import numpy as np

from .algorithms import ALGORITHMS, RunOptions, StepSchedule, TerminationRule, run
from .errors import ConfigurationError, InfeasiblePlanError, RunAbortError
from .experiments import (
    GMM_ALGORITHMS,
    KSWITCH,
    ExperimentConfig,
    GmmExperimentConfig,
    checkpoint_summary,
    estimate_e,
    run_replicated,
    table_report,
    verify_theorem1,
    write_aggregates_csv,
    write_diagnostics_csv,
)
from .gmm import GmmModel, generate_gmm_synthetic, load_csv_dataset, preprocess
from .model import mean_field
from .stepsize import PlannerInputs, build_plan, karimi_plan, plan_case1
from .toy import generate_toy

import argparse
import csv
import json
import os
import sys
from math import isfinite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_DOMAIN_ABORT = 3

class _Parser(argparse.ArgumentParser):
    """Reports bad input, from flags or a config file, as one line and exit 2."""

    def error(self, message):
        self.exit(EXIT_INFEASIBLE, f"{self.prog}: error: {message}\n")

    def config_keys(self) -> set[str]:
        """The keys a ``--config`` file may hold: the long flags but ``--config``."""
        return {flag[2:] for action in self._actions for flag in action.option_strings
                if flag.startswith("--")} - {"config", "help"}


def _read_json(path: str, flag: str, parser: argparse.ArgumentParser):
    """The JSON document that ``flag`` names; a file that cannot be opened
    or parsed is bad input naming the flag and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read {flag} file {path}: {exc}")


def _config_tokens(path: str, subcommand: str, parser: argparse.ArgumentParser) -> list[str]:
    """The keys of a ``--config`` JSON object as ``--key=value`` tokens, so
    that the subcommand's own parser type-checks them like flags."""
    doc = _read_json(path, "--config", parser)
    if not isinstance(doc, dict):
        parser.error("config file must hold a JSON object")
    unknown = set(doc) - parser.commands[subcommand].config_keys()
    if unknown:
        parser.error(f"unknown config keys for {subcommand!r}: {sorted(unknown)}")
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            parser.error(f"config key {key!r} must be a string or a number, not {json.dumps(value)}")
    return [f"--{key}={value}" for key, value in doc.items()]


def _flag_type(parse, ok, expects: str):
    """An argparse type: the value ``parse(text)`` when it parses and
    satisfies ``ok``; otherwise "expects <expects>, got '<text>'"."""
    def flag_type(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expects {expects}, got {text!r}")
    return flag_type


def _algorithm_list(choices):
    """The ``--algos`` type: comma-separated names from ``choices``, none twice."""
    return _flag_type(lambda text: [a.strip() for a in text.split(",")],
                      lambda names: set(names) <= set(choices) and len(set(names)) == len(names),
                      f"distinct names from {','.join(choices)}, comma-separated")


def _whole_number(minimum: int):
    """A size, count or seed: n >= 2 for the planners; iterations, epochs,
    batches, replicas, processes, components >= 1; seeds, kswitch, PCA >= 0."""
    return _flag_type(int, lambda value: value >= minimum,
                      f"a whole number of at least {minimum}")


# a step size or planner constant; a rate or accuracy; a file
_positive_number = _flag_type(float, lambda value: value > 0.0 and isfinite(value),
                              "a positive finite number")
_open_unit = _flag_type(float, lambda value: 0.0 < value < 1.0, "a number in (0, 1)")
_path = _flag_type(str, bool, "a file path")


def _report_aborts(aborted) -> bool:
    """One ``aborted:`` line per aborted (algorithm, replica) on stderr;
    True when there was any."""
    lines = [f"aborted: {alg} replica {r} iteration {k}: {condition}"
             for alg, aborts in aborted.items() for r, k, condition in aborts]
    for line in lines:
        print(line, file=sys.stderr)
    return bool(lines)


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


# the optional plan flags, their argparse dests and the strategies that read them
PLAN_FLAG_STRATEGIES = (
    ("weights", "weights", ("nonuniform",)),
    ("epsilon", "epsilon", ("auto",)),
    ("mu", "mu", ("case1", "case2", "auto")),
    ("lambda", "lambda_", ("case1", "case2", "nonuniform", "auto")),
)


def cmd_plan(args, parser) -> int:
    for key in ("n", "kmax", "vmin", "L", "Lv"):
        if getattr(args, key) is None:
            parser.error(f"plan requires --{key}")
    for flag, dest, strategies in PLAN_FLAG_STRATEGIES:
        if getattr(args, dest) is not None and args.strategy not in strategies:
            parser.error(f"--{flag} applies only to --strategy {', '.join(strategies)}")
    for flag, strategy in (("weights", "nonuniform"), ("epsilon", "auto")):
        if args.strategy == strategy and getattr(args, flag) is None:
            parser.error(f"--strategy {strategy} requires --{flag}")
    # PlannerInputs holds the default mu and lambda of the flags left out
    rates = {key: value for key, value in (("mu", args.mu), ("lam", args.lambda_))
             if value is not None}
    inputs = PlannerInputs(n=args.n, k_max=args.kmax, v_min=args.vmin, l_rms=args.L,
                           l_gradv=args.Lv, **rates)
    try:
        weights = None if args.weights is None else np.loadtxt(args.weights, ndmin=1)
        plan = build_plan(args.strategy, inputs, weights=weights, epsilon=args.epsilon)
    except (OSError, ValueError) as exc:
        if args.weights is None:
            raise
        # only the nonuniform strategy reads a weights file
        parser.error(f"--weights {args.weights}: {' '.join(str(exc).split())}")
    _json_dump(plan.to_dict(), args.out)
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
    preset = TOY_PRESETS[args.preset or "desk"]  # no preset runs at desk scale
    n = preset["n"] if args.n is None else args.n
    kmax = preset["kmax_mult"] * n if args.kmax is None else args.kmax
    replicas = preset["replicas"] if args.replicas is None else args.replicas

    model = generate_toy(args.seed, n)
    constants = model.constants()
    inputs = PlannerInputs.from_constants(constants, n=n, k_max=kmax)
    if args.plan is not None:
        doc = _read_json(args.plan, "--plan", parser)
        gamma = doc.get("gamma") if isinstance(doc, dict) else None
        steps = gamma if isinstance(gamma, list) else [gamma]
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in steps):
            parser.error(f"--plan {args.plan} must hold \"gamma\": a number or a list of numbers")
        for i, x in enumerate(steps):
            if not (x > 0.0 and isfinite(x)):
                where = f"gamma[{i}]" if isinstance(gamma, list) else "gamma"
                parser.error(f"--plan {args.plan}: {where} = {x!r} is not a positive finite step size")
        if not isinstance(gamma, list):
            schedule = StepSchedule.constant(gamma, kmax)
        elif len(gamma) != kmax:
            raise ValueError(f"--plan {args.plan} holds {len(gamma)} step sizes, K_max is {kmax}")
        else:
            schedule = StepSchedule(np.asarray(gamma, dtype=float))
    else:
        schedule = plan_case1(inputs).schedule

    exp = ExperimentConfig(
        model=model,
        algorithms=args.algos,
        schedule=schedule,
        options=RunOptions(s0=np.zeros(model.q), compute_e0=True, theta_ref=model.theta_star),
        replicas=replicas,
        seed=args.seed,
        workers=args.threads,
    )
    table = run_replicated(exp)
    if _report_aborts(table.aborted):
        return EXIT_DOMAIN_ABORT
    summary = checkpoint_summary(table, schedule)
    for row in summary:
        stats = [stat for stat in ("mean", "std", "q25", "q75") if not isfinite(row[stat])]
        if stats:
            print(f"aborted: {row['algorithm']} {row['metric']} at k={row['k']}: "
                  f"non-finite {', '.join(stats)} over the replicas", file=sys.stderr)
            return EXIT_DOMAIN_ABORT

    os.makedirs(args.out, exist_ok=True)
    write_aggregates_csv(os.path.join(args.out, "aggregates.csv"), summary)
    write_diagnostics_csv(os.path.join(args.out, "diagnostics.csv"), table, kmax)
    karimi = karimi_plan(inputs)
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
        os.path.join(args.out, "constants.json"),
    )
    return EXIT_OK


# -- gmm ----------------------------------------------------------------


# the paper preset's other settings (batch 100, gamma 5e-3, 100 epochs,
# switch after 6) are the flag defaults
GMM_PRESETS = {None: {"g": 3, "preprocess": None}, "paper": {"g": 12, "preprocess": 20}}


def _synthetic_numbers(text: str) -> tuple[int, int, int, int, float]:
    """The ``--synthetic`` value ``seed,n,g,p,separation`` as numbers."""
    gen_seed, n, g_true, p, sep = text.split(",")
    return int(gen_seed), int(n), int(g_true), int(p), float(sep)


_synthetic_spec = _flag_type(
    _synthetic_numbers, lambda spec: spec[0] >= 0 and min(spec[1:4]) >= 1 and isfinite(spec[4]),
    "seed,n,g,p,separation with seed >= 0, n, g, p >= 1 and a finite separation")


def cmd_gmm(args, parser) -> int:
    if (args.data is None) == (args.synthetic is None):
        parser.error("provide exactly one of --data and --synthetic")
    preset = GMM_PRESETS[args.preset]
    source = f"--data {args.data}" if args.data is not None else \
        f"--synthetic {','.join(map(str, args.synthetic))}"
    if args.data is not None:
        dataset = load_csv_dataset(args.data)
        p_target = preset["preprocess"] if args.preprocess is None else args.preprocess
        if p_target:
            try:
                dataset = preprocess(dataset.observations, p_target)
            except np.linalg.LinAlgError:
                raise
            except ValueError as exc:  # the target is past the non-constant columns
                parser.error(f"--preprocess {exc} of {args.data}")
            except ConfigurationError as exc:  # a column's spread overflows
                parser.error(f"{source}: {exc}")
    elif args.preprocess is not None:
        parser.error("--preprocess applies to --data only, not to --synthetic")
    else:
        try:
            dataset, _truth = generate_gmm_synthetic(*args.synthetic)
        except ValueError as exc:
            parser.error(f"{source}: {exc}")

    try:
        model = GmmModel(dataset, preset["g"] if args.g is None else args.g)
    except ConfigurationError as exc:
        parser.error(f"{source}: {exc}")
    exp = GmmExperimentConfig(
        model=model,
        algorithms=args.algos,
        gamma=args.gamma,
        batch_size=args.batch,
        epochs=args.epochs,
        replicas=args.replicas,
        seed=args.seed,
        kswitch=args.kswitch,
        workers=args.threads,
    )
    rows, paths, aborted = table_report(exp)
    if _report_aborts(aborted):
        return EXIT_DOMAIN_ABORT

    outdir = args.out
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
        {alg: plist[0].params[-1].to_dict() for alg, plist in paths.items()},
        os.path.join(outdir, "fitted_params.json"),
    )
    return EXIT_OK


# -- check --------------------------------------------------------------


def _check_identities(seed: int) -> list[tuple[str, bool, str]]:
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
    inputs = PlannerInputs.from_constants(constants, n=1000, k_max=50)

    c = solve_c_case1(inputs)
    gap = case1_identity_gap(inputs, c)
    results.append(("case1 defining equation (1e-12 relative)", gap <= 1e-12,
                    f"identity gap {gap:.2e}"))

    c_plus = c_plus_closed_form(0.25, constants.v_min, constants.lipschitz_rms,
                                constants.lipschitz_gradv)
    c_eq = solve_c_lambda_eq_c(1000, 0.25, constants.v_min, constants.lipschitz_rms,
                               constants.lipschitz_gradv)
    results.append(("lambda=C solution below its closed-form cap", c_eq <= c_plus + 1e-12,
                    f"C={c_eq:.6f} C+={c_plus:.6f}"))

    uniform = nonuniform_plan(inputs, np.full(inputs.k_max, 1.0 / inputs.k_max))
    case1 = plan_case1(PlannerInputs.from_constants(constants, n=1000, k_max=50, mu=0.5))
    dev = np.max(np.abs(uniform.schedule.gammas - case1.schedule.gammas)) / case1.schedule.gammas[0]
    results.append(("uniform non-uniform plan equals case1 at mu=1/2", dev <= 1e-12,
                    f"max relative deviation {dev:.2e}"))

    sched = StepSchedule.constant(plan_case1(PlannerInputs.from_constants(
        constants, n=model.n, k_max=40)).gamma, 40)
    s0 = np.zeros(model.q)  # the runs compare final states: no h
    for twin, lam, label in (("online-em", 0.0, "Online EM"), ("fiem", 1.0, "FIEM")):
        d_twin = run(twin, model, sched, seed, RunOptions(s0=s0, compute_h=False))
        d_opt = run("opt-fiem", model, sched, seed,
                    RunOptions(s0=s0, compute_h=False, forced_lambda=lam))
        results.append((f"opt-FIEM lambda={lam:g} is {label} bitwise",
                        np.array_equal(d_twin.s_final, d_opt.s_final), ""))
    return results


def _check_theorem1(seed: int, scale: str | None, workers: int) -> list[tuple[str, bool, str]]:
    if scale == "paper":
        n, q_dims, k_max, replicas = 100, (15, 10, 20), 500, 2000
    else:  # desk, the default
        n, q_dims, k_max, replicas = 10, (4, 3, 3), 50, 2000
    model = generate_toy(seed, n, dims=q_dims)
    inputs = PlannerInputs.from_constants(model.constants(), n=n, k_max=k_max)
    schedule = plan_case1(inputs).schedule
    report = verify_theorem1(model, schedule, np.zeros(model.q), replicas, seed,
                             workers=workers)
    msg = f"lhs={report.lhs:.4e} deltaV={report.rhs:.4e} margin={report.margin_sigmas:.1f} sigma"
    if report.vacuous:
        msg = f"vacuous: {report.vacuous}; {msg}"
    return [("master inequality within 3 sigma", report.holds, msg)]


def _check_prop2(seed: int, workers: int) -> list[tuple[str, bool, str]]:
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
        options=RunOptions(s0=np.zeros(model.q), compute_e0=True),
        replicas=200, seed=seed, workers=workers,
    )
    est = estimate_e(run_replicated(exp), "fiem", TerminationRule.uniform(k_max), seed,
                     v_max=constants.v_max)
    ok_mc = est.e0 <= est.e1 + 3.0 * est.se1
    return [
        ("curvature inequality pointwise (1000 states)", ok_pointwise, f"worst excess {worst:.2e}"),
        ("E0 below E1 within 3 sigma", ok_mc, f"E0={est.e0:.4e} E1={est.e1:.4e}"),
    ]


def cmd_check(args, parser) -> int:
    if args.scale is not None and args.suite != "theorem1":
        parser.error("--scale applies to --suite theorem1 only")
    if args.suite == "identities":
        results = _check_identities(args.seed)
    elif args.suite == "theorem1":
        results = _check_theorem1(args.seed, args.scale, args.threads)
    else:
        results = _check_prop2(args.seed, args.threads)
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
    parser = _Parser(prog="fiem", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve a step-size plan and emit it as JSON")
    p.add_argument("--config", type=_path, help="JSON config file whose keys are the long flags")
    p.add_argument("--n", type=_whole_number(2))
    p.add_argument("--kmax", type=_whole_number(1))
    p.add_argument("--vmin", type=_positive_number)
    p.add_argument("--L", type=_positive_number)
    p.add_argument("--Lv", type=_positive_number)
    p.add_argument("--mu", type=_open_unit, help="case1, case2 and auto (default 0.25)")
    p.add_argument("--lambda", dest="lambda_", type=_open_unit,
                   help="every strategy but karimi (default 0.5)")
    p.add_argument("--strategy", choices=["case1", "case2", "nonuniform", "karimi", "auto"],
                   default="case1")
    p.add_argument("--weights", type=_path, help="file with termination weights (nonuniform)")
    p.add_argument("--epsilon", type=_open_unit, help="target accuracy for auto strategy")
    p.add_argument("--out", type=_path)

    threads = os.cpu_count() or 1
    t = sub.add_parser("toy", help="replicated runs on the linear-Gaussian benchmark")
    t.add_argument("--config", type=_path)
    t.add_argument("--seed", type=_whole_number(0), default=0)
    t.add_argument("--n", type=_whole_number(2))
    t.add_argument("--kmax", type=_whole_number(1))
    t.add_argument("--algos", type=_algorithm_list(ALGORITHMS), default="online-em,fiem,opt-fiem")
    t.add_argument("--plan", type=_path, help="step-size plan JSON from the plan subcommand")
    t.add_argument("--replicas", type=_whole_number(1))
    t.add_argument("--out", type=_path, default="toy-out")
    t.add_argument("--preset", choices=sorted(TOY_PRESETS))
    t.add_argument("--threads", type=_whole_number(1), default=threads)

    g = sub.add_parser("gmm", help="Gaussian-mixture fits with epoch tables")
    g.add_argument("--config", type=_path)
    g.add_argument("--data", type=_path, help="header-free CSV, one observation per row")
    g.add_argument("--synthetic", type=_synthetic_spec, help="seed,n,g,p,separation")
    g.add_argument("--preprocess", type=_whole_number(0),
                   help="PCA target dimension (0: the raw columns)")
    g.add_argument("--g", type=_whole_number(1), help="number of mixture components to fit")
    g.add_argument("--algos", type=_algorithm_list(GMM_ALGORITHMS),
                   default="em,iem,online-em,h-fiem")
    g.add_argument("--gamma", type=_positive_number, default=5e-3)
    g.add_argument("--batch", type=_whole_number(1), default=100)
    g.add_argument("--kswitch", type=_whole_number(0), default=KSWITCH)
    g.add_argument("--epochs", type=_whole_number(1), default=100)
    g.add_argument("--replicas", type=_whole_number(1), default=1)
    g.add_argument("--seed", type=_whole_number(0), default=0)
    g.add_argument("--out", type=_path, default="gmm-out")
    g.add_argument("--preset", choices=["paper"])
    g.add_argument("--threads", type=_whole_number(1), default=threads)

    c = sub.add_parser("check", help="verification suites")
    c.add_argument("--config", type=_path)
    c.add_argument("--suite", choices=["theorem1", "prop2", "identities"], default="identities")
    c.add_argument("--scale", choices=["desk", "paper"], help="theorem1 only (default: desk)")
    c.add_argument("--seed", type=_whole_number(0), default=0)
    c.add_argument("--threads", type=_whole_number(1), default=threads)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        # file values go in right after the subcommand, so flags override them
        tokens = _config_tokens(args.config, args.command, parser)
        args = parser.parse_args(argv[:1] + tokens + argv[1:])
    handlers = {"plan": cmd_plan, "toy": cmd_toy, "gmm": cmd_gmm, "check": cmd_check}
    try:
        return handlers[args.command](args, parser)
    except InfeasiblePlanError as exc:
        print(f"infeasible: {exc.condition}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RunAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ABORT
    except (OSError, ValueError, TypeError, KeyError, ConfigurationError) as exc:
        # bad input that only shows once a subcommand runs: a missing or
        # malformed file, or flag values that do not fit together
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        parser.exit(EXIT_INFEASIBLE, f"{parser.prog} {args.command}: error: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
