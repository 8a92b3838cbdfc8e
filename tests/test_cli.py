import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import fiem.cli
from fiem.cli import main
from fiem.errors import RunAbortError
from fiem.experiments import BoundReport


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree_bytes(root):
    return {p.name: read(p) for p in sorted(root.iterdir()) if p.is_file()}


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


PLAN_FLAGS = ["--vmin", "0.7", "--L", "1.4", "--Lv", "3"]


class TestPlan:
    def test_karimi_reference_value(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(["plan", "--strategy", "karimi", "--n", "1000", "--kmax", "100",
                     "--vmin", "1", "--L", "1", "--Lv", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["gamma"] == pytest.approx(1.0 / 600.0, rel=1e-12)

    def test_nonuniform_uniform_weights_match_case1_at_half(self, tmp_path):
        k_max = 32
        wfile = tmp_path / "weights.txt"
        np.savetxt(wfile, np.full(k_max, 1.0 / k_max))
        flags = ["--n", "2000", "--kmax", str(k_max), "--vmin", "1", "--L", "1", "--Lv", "1"]
        out1 = tmp_path / "nu.json"
        out2 = tmp_path / "c1.json"
        assert main(["plan", "--strategy", "nonuniform", "--weights", str(wfile),
                     "--out", str(out1)] + flags) == 0
        assert main(["plan", "--strategy", "case1", "--mu", "0.5", "--out", str(out2)] + flags) == 0
        nu = json.loads(out1.read_text())
        c1 = json.loads(out2.read_text())
        gammas = np.asarray(nu["gamma"])
        assert np.abs(gammas - c1["gamma"]).max() <= 1e-12 * c1["gamma"]
        assert nu["bound_value"] == pytest.approx(c1["bound_value"], rel=1e-12)

    def test_auto_strategy_crossover(self, tmp_path):
        n = 10**6
        for eps, expected in ((n ** -0.2, "case2"), (n ** -0.5, "case1")):
            out = tmp_path / "auto.json"
            assert main(["plan", "--strategy", "auto", "--epsilon", repr(eps),
                         "--n", str(n), "--kmax", "1000",
                         "--vmin", "1", "--L", "1", "--Lv", "1", "--out", str(out)]) == 0
            assert json.loads(out.read_text())["strategy"] == expected

    def test_infeasible_exit_code(self, tmp_path):
        code = main(["plan", "--strategy", "case2", "--n", "1000000", "--kmax", "2",
                     "--vmin", "1", "--L", "1", "--Lv", "1",
                     "--out", str(tmp_path / "p.json")])
        assert code == 2

    # sha256 of the plan JSON, recorded before the planners shared one root
    # solver and one plan constructor; a change here is a changed plan
    @pytest.mark.parametrize("argv, sha256", [
        (["--strategy", "case1", "--n", "1000000", "--kmax", "1000", "--vmin", "1", "--L", "1",
          "--Lv", "1", "--mu", "0.25", "--lambda", "0.5"],
         "37c5fcb1411fe0db312ff75e09ab419bb872917c78a7ec93d9d2d2e0a4ce8940"),
        (["--strategy", "case2", "--n", "1000000", "--kmax", "1000000"] + PLAN_FLAGS,
         "34498687980d846b236cb294fb7e0e0b58c81116149be4cd9a7dac037ada662e"),
        (["--strategy", "karimi", "--n", "1000", "--kmax", "100"] + PLAN_FLAGS,
         "f9ce2d0fc8c103c61567ce2949935fb6ebe42fb47c0299a919b680e143bcc3f5"),
        (["--strategy", "nonuniform", "--weights", "w.txt", "--n", "2000", "--kmax", "8"]
         + PLAN_FLAGS, "813548d88c9a1d429e7018045058d279812d187c2ed76bc98002cf67a368e307"),
        (["--strategy", "auto", "--epsilon", "0.05", "--n", "1000000", "--kmax", "1000"]
         + PLAN_FLAGS, "d8282bc190f5b7737266e872b06fd84e035f264807135fda72692aacff8a3f4b"),
        (["--strategy", "auto", "--epsilon", "0.001", "--n", "1000000", "--kmax", "1000"]
         + PLAN_FLAGS, "5735d759cc7ff53d06bbdb96e9703cd55274d2582cd6f4c60dfad21642c37d03"),
    ], ids=["case1-readme", "case2", "karimi", "nonuniform", "auto-above-crossover",
            "auto-below-crossover"])
    def test_plan_json_is_pinned(self, tmp_path, monkeypatch, argv, sha256):
        # epsilon = n^(-1/3) = 0.01 is the crossover: 0.05 picks case2, 0.001 case1
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.txt").write_text("0.25\n0.125\n0.125\n0.125\n0.125\n0.125\n0.0625\n0.0625\n")
        assert main(["plan"] + argv + ["--out", "plan.json"]) == 0
        assert hashlib.sha256(read(tmp_path / "plan.json")).hexdigest() == sha256

    @pytest.mark.parametrize("command, doc", [
        ("plan", {"n": 10, "bogus": 1}),
        ("plan", [1, 2]),
        ("toy", "{not json"),
        ("toy", {"n": [100]}),
        ("toy", {"n": {"value": 100}}),
        ("toy", {"replicas": True}),
        ("toy", {"seed": None}),
        ("toy", {"n": "abc"}),
        ("toy", {"preset": "bogus"}),
        ("plan", {"strategy": "bogus", "n": 10, "kmax": 10, "vmin": 1, "L": 1, "Lv": 1}),
        ("gmm", {"gamma": "fast", "synthetic": "0,100,2,2,3.0"}),
        ("check", {"scale": "Desk"}),
        ("toy", {"rep": 3}),
        ("check", {"config": "x"}),
    ], ids=["unknown-key", "not-an-object", "not-json", "list-value", "object-value", "bool-value",
            "null-value", "wrong-type", "bad-preset", "bad-strategy", "bad-float", "bad-scale",
            "abbreviated-key", "config-key"])
    def test_config_file_unknown_key_rejected(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = [] if command == "check" else ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as err:
            main([command, "--config", str(cfg)] + out)
        assert err.value.code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["plan", "toy", "gmm", "check"])
    def test_config_keys_are_the_long_flags(self, capsys, command):
        assert exit_code([command, "--help"]) == 0
        flags = set(re.findall(r"--(\w+)", capsys.readouterr().out)) - {"config", "help"}
        assert fiem.cli.build_parser().commands[command].config_keys() == flags

    def test_flags_override_config_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 1000, "kmax": 100, "vmin": 1.0, "L": 1.0, "Lv": 1.0,
            "strategy": "case1", "out": str(tmp_path / "ignored.json"),
        }))
        out = tmp_path / "out.json"
        assert main(["plan", "--config", str(cfg), "--strategy", "karimi", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["strategy"] == "karimi"
        assert not (tmp_path / "ignored.json").exists()

    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 1000, "kmax": 100, "vmin": 1.0, "L": 1.0, "Lv": 1.0,
            "strategy": "karimi", "out": str(tmp_path / "out.json"),
        }))
        assert main(["plan", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["strategy"] == "karimi"


class TestToy:
    def test_single_replica_em_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["toy", "--seed", "3", "--n", "20", "--kmax", "40",
                     "--algos", "em", "--replicas", "1", "--out", str(out),
                     "--threads", "1"])
        assert code == 0
        agg = (out / "aggregates.csv").read_text().splitlines()
        assert agg[0] == "algorithm,k,metric,mean,std,q25,q75"
        assert all(line.split(",")[4] == "0.0" for line in agg[1:] if ",h_sq," in line)
        constants = json.loads((out / "constants.json").read_text())
        for key in ("v_min", "v_max", "L", "L_gradV", "gamma_plan", "gamma_karimi"):
            assert key in constants

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["toy", "--seed", "5", "--n", "16", "--kmax", "30",
                "--algos", "online-em,fiem", "--replicas", "4", "--threads", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_small_run_is_pinned(self, tmp_path):
        # sha256 of every output, recorded before the experiment config took
        # its run options as one RunOptions; covers theta_err and vdot_sq
        out = tmp_path / "run"
        assert main(["toy", "--seed", "0", "--n", "20", "--kmax", "40", "--replicas", "3",
                     "--threads", "1", "--out", str(out)]) == 0
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in tree_bytes(out).items()} == {
            "aggregates.csv":
                "c56c2c50539c3d8f7c9d7d9c0f65848007602661853953ecf65dcb0a01a50fd9",
            "constants.json":
                "485adc1cfc3d35cefde8c07ca5ee6c59a5783460acf3290206b226f27052f31b",
            "diagnostics.csv":
                "eb50fd45fa986e29b850f60d48cb4b4605bee0e2c9f19787c8a1752de3f3a2f5",
        }

    def test_plan_file_input(self, tmp_path):
        plan = tmp_path / "plan.json"
        assert main(["plan", "--strategy", "karimi", "--n", "16", "--kmax", "30",
                     "--vmin", "0.5", "--L", "1.5", "--Lv", "2.0", "--out", str(plan)]) == 0
        out = tmp_path / "run"
        assert main(["toy", "--seed", "1", "--n", "16", "--kmax", "30",
                     "--algos", "fiem", "--replicas", "2", "--plan", str(plan),
                     "--out", str(out), "--threads", "1"]) == 0
        constants = json.loads((out / "constants.json").read_text())
        doc = json.loads(plan.read_text())
        assert constants["gamma_plan"] == doc["gamma"]

    def test_divergent_plan_exits_3_and_names_every_abort(self, tmp_path, capsys):
        plan = tmp_path / "g50.json"
        plan.write_text(json.dumps({"gamma": 50}))
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = main(["toy", "--seed", "0", "--n", "20", "--kmax", "200",
                         "--algos", "online-em,fiem", "--replicas", "2", "--plan", str(plan),
                         "--out", str(out), "--threads", "1"])
        assert code == 3
        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("aborted:")]
        assert len(lines) == 2 * 2
        assert all("iteration" in l and "non-finite" in l for l in lines)
        assert not out.exists()


class TestGmm:
    ARGS = ["gmm", "--synthetic", "3,200,3,3,3.0", "--g", "3",
            "--algos", "em,iem,online-em,h-fiem", "--batch", "25",
            "--epochs", "8", "--kswitch", "2", "--replicas", "2", "--seed", "9"]

    def test_outputs_and_invariants(self, tmp_path):
        out = tmp_path / "run"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        table = (out / "epoch_table.csv").read_text().splitlines()
        assert table[0] == "algorithm,epoch,mean,std"
        accounting = (out / "epoch_accounting.csv").read_text().splitlines()[1:]
        for line in accounting:
            alg, _, iters, examples, violations = line.split(",")
            assert int(examples) == 8 * 200
            assert int(violations) == 0
        weights = (out / "weights_trajectories.csv").read_text().splitlines()[1:]
        by_key = {}
        for line in weights:
            alg, r, e, comp, w = line.split(",")
            by_key.setdefault((alg, r, e), []).append(float(w))
        for vals in by_key.values():
            assert sum(vals) == pytest.approx(1.0, abs=1e-7)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_five_algorithm_fit_is_pinned(self, tmp_path):
        # sha256 of every output, recorded before the density kernel took a
        # column-major operand; a change here is a change in the fitted bits
        out = tmp_path / "run"
        assert main(["gmm", "--synthetic", "0,2000,3,5,3.0", "--g", "3",
                     "--algos", "em,iem,online-em,fiem,h-fiem", "--batch", "100",
                     "--epochs", "10", "--kswitch", "2", "--threads", "1", "--seed", "0",
                     "--out", str(out)]) == 0
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in tree_bytes(out).items()} == {
            "epoch_accounting.csv":
                "9cf51bb3147459c33b1ab0625c658234eacc3d3abfcde3939b687bfd08f840e2",
            "epoch_table.csv":
                "3bae279de5f33dbd60625aeef4f8cd9ae68e371dfed2f120751433524bfc9756",
            "fitted_params.json":
                "a4fc95793f46173cec49f2cad847845c61458c2a474349c42b83f408016334ea",
            "weights_trajectories.csv":
                "d66a6b51b71110d3a1001e8319eb71a7f48c3be993b09279b16a709a2cccca52",
        }

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gmm", "--g", "2", "--out", str(tmp_path / "x")])

    def test_collapsed_mixture_invariants(self, tmp_path):
        out = tmp_path / "run"
        assert main(["gmm", "--synthetic", "2,150,2,3,0.0", "--g", "2",
                     "--algos", "em,online-em", "--batch", "25", "--epochs", "5",
                     "--replicas", "1", "--seed", "6", "--out", str(out)]) == 0
        fitted = json.loads((out / "fitted_params.json").read_text())
        for alg in ("em", "online-em"):
            w = np.asarray(fitted[alg]["weights"])
            cov = np.asarray(fitted[alg]["covariance"])
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w >= 0.0)
            assert np.min(np.linalg.eigvalsh(cov)) > 0.0

    def test_csv_ingestion(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(60, 3))
        csv_path = tmp_path / "data.csv"
        np.savetxt(csv_path, data, delimiter=",")
        out = tmp_path / "run"
        assert main(["gmm", "--data", str(csv_path), "--g", "2", "--algos", "em",
                     "--epochs", "3", "--replicas", "1", "--seed", "1",
                     "--out", str(out)]) == 0
        assert (out / "epoch_table.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_domain_abort_exit_code(self, tmp_path, capsys, threads):
        # a unit step with tiny batches walks the statistic straight out of
        # the admissible region; the run must abort with exit code 3 and
        # name every aborted replica, with or without a process pool
        code = main(["gmm", "--synthetic", "10,120,3,4,3.0", "--g", "3",
                     "--algos", "online-em", "--gamma", "0.9", "--batch", "2",
                     "--epochs", "20", "--replicas", "2", "--seed", "1",
                     "--out", str(tmp_path / "run"), "--threads", threads])
        assert code == 3
        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("aborted:")]
        assert [l.split(" iteration ")[0] for l in lines] == [
            "aborted: online-em replica 0", "aborted: online-em replica 1"]
        assert not (tmp_path / "run").exists()


class TestCheck:
    def test_identities_suite_passes(self, capsys):
        assert main(["check", "--suite", "identities"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.startswith("[PASS]") for line in lines)

    def test_prop2_suite_passes(self, capsys):
        assert main(["check", "--suite", "prop2"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_aborted_replica_exits_3(self, monkeypatch, capsys):
        def aborting(*args, **kwargs):
            raise RunAbortError(7, "replica 2: diverged")

        monkeypatch.setattr(fiem.cli, "verify_theorem1", aborting)
        assert main(["check", "--suite", "theorem1"]) == 3
        assert "iteration 7: replica 2: diverged" in capsys.readouterr().err

    def test_prop2_pooled_stdout_equals_serial(self, capsys):
        outs = []
        for threads in ("1", "2"):
            assert main(["check", "--suite", "prop2", "--threads", threads]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_prop2_stdout_is_pinned(self, capsys):
        # recorded before the experiment config took its run options as one
        # RunOptions
        assert main(["check", "--suite", "prop2", "--seed", "0", "--threads", "1"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "b18be733fdf02391ba0b72538c311935aab4a05c9852e10c3bb3fbef9ec74891")

    def test_theorem1_desk_verdict_is_pinned(self, capsys):
        # at the default thread count, against the digest the benchmark gate holds
        digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
        expected = json.loads(digests.read_text())["mc-certify"]["<stdout>"]
        assert main(["check", "--suite", "theorem1", "--scale", "desk", "--seed", "0"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected

    @pytest.mark.parametrize("doc, workers", [
        ({"suite": "theorem1"}, os.cpu_count() or 1),
        ({"suite": "theorem1", "threads": 1}, 1),
        ({"suite": "theorem1", "threads": 3}, 3),
    ], ids=["default", "threads-1", "threads-3"])
    def test_threads_reach_the_replica_pool(self, tmp_path, monkeypatch, capsys, doc, workers):
        seen = []

        def report(*args, workers):
            seen.append(workers)
            return BoundReport(strategy="theorem1", lhs=0.0, rhs=1.0, margin_sigmas=1.0)

        monkeypatch.setattr(fiem.cli, "verify_theorem1", report)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["check", "--config", str(cfg)]) == 0
        assert seen == [workers]

    def test_vacuous_theorem1_fails_with_its_reason(self, monkeypatch, capsys):
        def report(*args, workers):
            return BoundReport(strategy="theorem1", lhs=-2.9, rhs=0.18, margin_sigmas=152.8,
                               vacuous="min alpha_k=-9.819e+00 <= 0")

        monkeypatch.setattr(fiem.cli, "verify_theorem1", report)
        assert main(["check", "--suite", "theorem1", "--threads", "1"]) == 1
        assert capsys.readouterr().out == (
            "[FAIL] master inequality within 3 sigma (vacuous: min alpha_k=-9.819e+00 <= 0; "
            "lhs=-2.9000e+00 deltaV=1.8000e-01 margin=152.8 sigma)\n")

    def test_prop2_aborted_replica_exits_3(self, monkeypatch, capsys):
        # E0 and E1 from the surviving replicas alone would be biased
        real = fiem.cli.run_replicated

        def one_aborted(config):
            table = real(config)
            table.runs["fiem"].pop(5)
            table.aborted["fiem"].append((5, 17, "diverged"))
            return table

        monkeypatch.setattr(fiem.cli, "run_replicated", one_aborted)
        assert main(["check", "--suite", "prop2"]) == 3
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out
        assert "iteration 17: replica 5: diverged (1 of 200 replicas aborted)" in captured.err


GMM_SMALL = ["gmm", "--synthetic", "0,100,2,2,3.0", "--threads", "1"]
TOY_SMALL = ["toy", "--n", "10", "--kmax", "20", "--replicas", "2", "--threads", "1"]


# what the message of a bad flag value must say, beyond exit 2 and one line
NAMES_THE_FLAG = {
    "gmm-batch-not-dividing-n": ("batch 30 does not divide n=100 for online-em",),
    "gmm-kswitch-past-last-epoch": ("kswitch=5 is outside 0..epochs=2",),
    "gmm-default-kswitch-past-epochs": ("kswitch=6 is outside 0..epochs=3",),
    "gmm-zero-batch": ("batch 0 is below 1",),
    "gmm-short-synthetic": ("--synthetic", "seed,n,g,p,separation", "'0,100'"),
    "gmm-non-numeric-synthetic": ("--synthetic", "seed,n,g,p,separation"),
    "toy-plan-wrong-length": ("--plan", "2 step sizes", "K_max is 20"),
    "plan-nan-vmin": ("v_min", "nan"),
    "plan-nan-weight": ("weights",),
    "gmm-zero-replicas": ("replicas",),
    "gmm-negative-replicas": ("replicas",),
    "toy-zero-threads": ("--threads", "at least 1", "'0'"),
    "gmm-negative-threads": ("--threads", "at least 1", "'-3'"),
    "check-zero-threads": ("--threads", "at least 1", "'0'"),
    "check-zero-threads-config": ("--threads", "at least 1", "'0'"),
    "toy-unknown-algorithm": ("--algos", "'bogus'"),
    "toy-repeated-algorithm": ("--algos", "'fiem,fiem'"),
    "gmm-repeated-algorithm": ("--algos", "'em,em'"),
    "toy-empty-algorithms": ("--algos", "''"),
    "gmm-empty-algorithms": ("--algos", "','"),
    "toy-repeated-algorithm-config": ("--algos", "'online-em,fiem,online-em'"),
    "gmm-negative-preprocess": ("p_target=-3", "at least 1"),
    "gmm-synthetic-preprocess": ("--preprocess", "--synthetic"),
    "gmm-synthetic-preprocess-config": ("--preprocess", "--synthetic"),
    "gmm-nan-data": ("nan-data.csv", "row 4, column 2", "nan"),
    "gmm-nan-data-preprocess": ("nan-data.csv", "row 4, column 2", "nan"),
    "gmm-inf-data": ("inf-data.csv", "row 100, column 3", "inf"),
    "gmm-empty-data": ("--data", "file path"),
    "gmm-empty-data-config": ("--data", "file path"),
    "toy-empty-plan": ("--plan", "file path"),
    "check-empty-config": ("--config", "file path"),
    "toy-empty-out": ("--out", "file path"),
    "plan-empty-out": ("--out", "file path"),
    "toy-plan-without-gamma": ("--plan", "no-gamma.json", "gamma"),
    "toy-plan-boolean-gamma": ("--plan", "bool-gamma.json", "gamma"),
    "check-scale-outside-theorem1": ("--scale", "theorem1"),
    "check-scale-outside-theorem1-config": ("--scale", "theorem1"),
    "plan-weights-outside-nonuniform": ("--weights", "nonuniform"),
    "plan-weights-outside-nonuniform-config": ("--weights", "nonuniform"),
    "plan-epsilon-outside-auto": ("--epsilon", "auto"),
    "toy-plan-not-json": ("--plan", "not-json.json"),
    "toy-plan-not-json-config": ("--plan", "not-json.json"),
    "toy-missing-plan": ("--plan", "nope.json"),
    "plan-mu-under-karimi": ("--mu", "case1, case2, auto"),
    "plan-mu-under-nonuniform": ("--mu", "case1, case2, auto"),
    "plan-mu-under-karimi-config": ("--mu", "case1, case2, auto"),
    "plan-lambda-under-karimi": ("--lambda", "nonuniform"),
    "plan-lambda-under-karimi-config": ("--lambda", "nonuniform"),
}


@pytest.mark.parametrize("argv", [
    GMM_SMALL + ["--batch", "30", "--algos", "online-em", "--epochs", "1"],
    ["gmm", "--synthetic", "0,100"],
    ["gmm", "--synthetic", "a,b,c,d,e"],
    GMM_SMALL + ["--batch", "10", "--algos", "h-fiem", "--kswitch", "5", "--epochs", "2"],
    GMM_SMALL + ["--batch", "10", "--epochs", "3"],
    GMM_SMALL + ["--batch", "0", "--algos", "online-em", "--epochs", "1"],
    ["gmm", "--data", "nope.csv"],
    GMM_SMALL + ["--batch", "10", "--algos", "em", "--epochs", "1", "--g", "0"],
    TOY_SMALL + ["--plan", "nope.json"],
    TOY_SMALL + ["--plan", "not-json.json"],
    TOY_SMALL + ["--plan", "no-gamma.json"],
    TOY_SMALL + ["--plan", "list.json"],
    TOY_SMALL + ["--plan", "short.json"],
    ["toy", "--n", "1", "--threads", "1"],
    ["toy", "--replicas", "0", "--threads", "1"],
    TOY_SMALL + ["--algos", "bogus"],
    ["plan", "--strategy", "nonuniform", "--n", "100", "--kmax", "10"] + PLAN_FLAGS,
    ["plan", "--strategy", "nonuniform", "--weights", "nope.txt", "--n", "100", "--kmax", "10"]
    + PLAN_FLAGS,
    ["plan", "--strategy", "auto", "--n", "100", "--kmax", "10"] + PLAN_FLAGS,
    ["plan", "--n", "1000", "--kmax", "100", "--vmin", "nan", "--L", "1", "--Lv", "1"],
    ["plan", "--strategy", "nonuniform", "--weights", "nan-weight.txt", "--n", "1000",
     "--kmax", "2", "--vmin", "1", "--L", "1", "--Lv", "1"],
    GMM_SMALL + ["--batch", "10", "--algos", "online-em", "--epochs", "1", "--gamma", "0"],
    GMM_SMALL + ["--batch", "10", "--algos", "online-em", "--epochs", "1", "--gamma", "-0.5"],
    GMM_SMALL + ["--batch", "10", "--algos", "online-em", "--epochs", "1", "--gamma", "nan"],
    GMM_SMALL + ["--batch", "10", "--algos", "em,online-em", "--epochs", "0"],
    GMM_SMALL + ["--batch", "10", "--algos", "online-em", "--epochs", "1", "--replicas", "0"],
    GMM_SMALL + ["--batch", "10", "--algos", "online-em", "--epochs", "1", "--replicas", "-2"],
    ["toy", "--n", "10", "--kmax", "20", "--replicas", "2", "--threads", "0"],
    ["gmm", "--synthetic", "0,100,2,2,3.0", "--batch", "10", "--algos", "online-em",
     "--epochs", "1", "--threads", "-3"],
    ["check", "--suite", "identities", "--threads", "0"],
    ["check", "--config", "zero-threads.json"],
    TOY_SMALL + ["--algos", "fiem,fiem"],
    GMM_SMALL + ["--batch", "10", "--algos", "em,em", "--epochs", "1"],
    TOY_SMALL + ["--algos", ""],
    GMM_SMALL + ["--batch", "10", "--algos", ",", "--epochs", "1"],
    TOY_SMALL + ["--config", "repeated-algos.json"],
    ["gmm", "--data", "data.csv", "--preprocess", "-3", "--algos", "em", "--epochs", "1",
     "--threads", "1"],
    GMM_SMALL + ["--preprocess", "2", "--algos", "em", "--epochs", "2"],
    ["gmm", "--config", "synthetic-preprocess.json", "--algos", "em", "--epochs", "2",
     "--threads", "1"],
    ["gmm", "--data", "nan-data.csv", "--algos", "em", "--epochs", "1", "--threads", "1"],
    ["gmm", "--data", "nan-data.csv", "--preprocess", "2", "--algos", "em", "--epochs", "1",
     "--threads", "1"],
    ["gmm", "--data", "inf-data.csv", "--algos", "em", "--epochs", "1", "--threads", "1"],
    ["gmm", "--data", "", "--algos", "em", "--epochs", "1", "--threads", "1"],
    ["gmm", "--config", "empty-data.json", "--algos", "em", "--epochs", "1", "--threads", "1"],
    TOY_SMALL + ["--plan", ""],
    ["check", "--config", ""],
    TOY_SMALL + ["--out", ""],
    ["plan", "--n", "100", "--kmax", "10", "--out", ""] + PLAN_FLAGS,
    TOY_SMALL + ["--plan", "bool-gamma.json"],
    ["check", "--suite", "identities", "--scale", "paper"],
    ["check", "--config", "scale.json"],
    ["plan", "--strategy", "case1", "--weights", "nope.txt", "--n", "100", "--kmax", "10"]
    + PLAN_FLAGS,
    ["plan", "--config", "weights.json", "--n", "100", "--kmax", "10"] + PLAN_FLAGS,
    ["plan", "--strategy", "case2", "--epsilon", "0.3", "--n", "100", "--kmax", "10"]
    + PLAN_FLAGS,
    TOY_SMALL + ["--config", "plan-not-json.json"],
    ["plan", "--strategy", "karimi", "--mu", "0.9", "--n", "100", "--kmax", "10"] + PLAN_FLAGS,
    ["plan", "--strategy", "nonuniform", "--weights", "half.txt", "--mu", "0.9", "--n", "100",
     "--kmax", "2"] + PLAN_FLAGS,
    ["plan", "--config", "karimi-mu.json", "--n", "100", "--kmax", "10"] + PLAN_FLAGS,
    ["plan", "--strategy", "karimi", "--lambda", "0.3", "--n", "100", "--kmax", "10"]
    + PLAN_FLAGS,
    ["plan", "--config", "karimi-lambda.json", "--n", "100", "--kmax", "10"] + PLAN_FLAGS,
], ids=["gmm-batch-not-dividing-n", "gmm-short-synthetic", "gmm-non-numeric-synthetic",
        "gmm-kswitch-past-last-epoch", "gmm-default-kswitch-past-epochs", "gmm-zero-batch",
        "gmm-missing-data", "gmm-zero-components",
        "toy-missing-plan", "toy-plan-not-json", "toy-plan-without-gamma",
        "toy-plan-not-an-object", "toy-plan-wrong-length", "toy-n-1", "toy-zero-replicas",
        "toy-unknown-algorithm",
        "plan-nonuniform-without-weights", "plan-missing-weights", "plan-auto-without-epsilon",
        "plan-nan-vmin", "plan-nan-weight", "gmm-zero-gamma", "gmm-negative-gamma",
        "gmm-nan-gamma", "gmm-zero-epochs", "gmm-zero-replicas", "gmm-negative-replicas",
        "toy-zero-threads", "gmm-negative-threads", "check-zero-threads",
        "check-zero-threads-config", "toy-repeated-algorithm", "gmm-repeated-algorithm",
        "toy-empty-algorithms", "gmm-empty-algorithms", "toy-repeated-algorithm-config",
        "gmm-negative-preprocess", "gmm-synthetic-preprocess", "gmm-synthetic-preprocess-config",
        "gmm-nan-data", "gmm-nan-data-preprocess", "gmm-inf-data", "gmm-empty-data",
        "gmm-empty-data-config", "toy-empty-plan", "check-empty-config", "toy-empty-out",
        "plan-empty-out", "toy-plan-boolean-gamma",
        "check-scale-outside-theorem1", "check-scale-outside-theorem1-config",
        "plan-weights-outside-nonuniform", "plan-weights-outside-nonuniform-config",
        "plan-epsilon-outside-auto", "toy-plan-not-json-config", "plan-mu-under-karimi",
        "plan-mu-under-nonuniform", "plan-mu-under-karimi-config", "plan-lambda-under-karimi",
        "plan-lambda-under-karimi-config"])
def test_bad_flag_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, request, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-json.json").write_text("{not json")
    (tmp_path / "no-gamma.json").write_text(json.dumps({"C": 0.1}))
    (tmp_path / "bool-gamma.json").write_text(json.dumps({"gamma": True}))
    (tmp_path / "empty-data.json").write_text(json.dumps({"data": ""}))
    (tmp_path / "scale.json").write_text(json.dumps({"suite": "prop2", "scale": "desk"}))
    (tmp_path / "weights.json").write_text(json.dumps({"weights": "nope.txt"}))
    (tmp_path / "list.json").write_text(json.dumps([0.1, 0.1]))
    (tmp_path / "short.json").write_text(json.dumps({"gamma": [0.1, 0.1]}))
    (tmp_path / "nan-weight.txt").write_text("0.5\nnan\n")
    (tmp_path / "zero-threads.json").write_text(json.dumps({"suite": "identities", "threads": 0}))
    (tmp_path / "repeated-algos.json").write_text(json.dumps({"algos": "online-em,fiem,online-em"}))
    (tmp_path / "plan-not-json.json").write_text(json.dumps({"plan": "not-json.json"}))
    (tmp_path / "half.txt").write_text("0.5\n0.5\n")
    (tmp_path / "karimi-mu.json").write_text(json.dumps({"strategy": "karimi", "mu": 0.9}))
    (tmp_path / "karimi-lambda.json").write_text(json.dumps({"strategy": "karimi", "lambda": 0.3}))
    np.savetxt(tmp_path / "data.csv", np.arange(24.0).reshape(6, 4) % 5, delimiter=",")
    (tmp_path / "synthetic-preprocess.json").write_text(
        json.dumps({"synthetic": "0,100,2,3,3.0", "preprocess": 2}))
    data = np.random.default_rng(0).standard_normal((100, 3))
    data[3, 1] = np.nan
    np.savetxt(tmp_path / "nan-data.csv", data, delimiter=",")
    data[3, 1], data[99, 2] = 0.0, np.inf
    np.savetxt(tmp_path / "inf-data.csv", data, delimiter=",")
    # flag values that do not fit together are rejected before any path runs
    paths = []
    monkeypatch.setattr(fiem.experiments, "gmm_epoch_path", lambda *a, **k: paths.append(a))
    # check writes to standard output and has no --out
    out = [] if argv[0] == "check" else ["--out", "out"]
    assert exit_code(argv + out) == 2
    assert paths == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    for part in NAMES_THE_FLAG.get(request.node.callspec.id, ()):
        assert part in err
    assert not (tmp_path / "out").exists()
