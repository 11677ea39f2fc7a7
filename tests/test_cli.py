import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

from biasrep import cli
from biasrep.cli import build_parser, main
from biasrep.gadgets import (build_logical_cnot, build_teleport_identity,
                             circuit_to_text)
from biasrep.montecarlo import prob_more_faults
from biasrep.noise_model import ErrorRateTable, Rates, default_rates

from conftest import REPREPARED_ANCILLA


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestBounds:
    def test_direct_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "7", "--t", "1",
                               "--eps", "0.05")
        assert code == 0
        body = csv_body(out)
        assert body[0] == "eps,bias,c,n,k,eps_L,epsp_L,total"
        fields = body[1].split(",")
        assert float(fields[5]) == pytest.approx(2.1875e-4)

    def test_sweep_monotone_curves(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--bias", "1e3", "--bias",
                               "1e4", "--eps-grid", "1e-4:1e-3:5",
                               "--c", "3", "--optimize", "n=k")
        assert code == 0
        rows = [line.split(",") for line in csv_body(out)[1:]]
        assert len(rows) == 10
        by_bias = {}
        for row in rows:
            by_bias.setdefault(float(row[1]), []).append(float(row[7]))
        for totals in by_bias.values():
            assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_free_optimization_with_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--rates", "table1",
                               "--optimize", "free")
        assert code == 0
        row = csv_body(out)[1].split(",")
        n_star, k_star = int(row[3]), int(row[4])
        assert k_star > n_star

    def test_header_has_version_and_config(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "3", "--t", "2",
                            "--eps", "0.01")
        lines = out.splitlines()
        assert lines[0].startswith("# biasrep ")
        config = json.loads(lines[1].removeprefix("# config: "))
        assert config["command"] == "bounds"
        assert config["eps"] == 0.01


class TestOptimize:
    def test_with_table(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--rates", "table1",
                               "--c", "3", "--n-max", "13")
        assert code == 0
        row = csv_body(out)[1].split(",")
        assert (int(row[3]), int(row[4])) == (5, 7)

    def test_missing_inputs_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "optimize")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("c", ["-3", "0", "nan"])
    def test_bad_step_constant_rejected(self, capsys, c):
        code, out, err = run_cli(capsys, "optimize", "--rates", "table1",
                                 "--c", c)
        assert code == 2
        assert "c must be finite and positive" in err
        assert out == ""

    @pytest.mark.parametrize("command", [
        ["optimize", "--eps", "1e-3"],
        ["bounds", "--n", "5", "--k", "7", "--eps", "1e-3"]])
    def test_repeated_bias_rejected(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--bias", "1e3",
                                 "--bias", "10")
        assert code == 2
        assert "--bias given 2 times" in err
        assert out == ""


class TestOptimizeRow:
    @pytest.mark.parametrize("constraint", ["free", "n=k"])
    def test_bounds_optimize_equals_optimize(self, capsys, constraint):
        code_b, out_b, _ = run_cli(capsys, "bounds", "--optimize", constraint,
                                   "--rates", "table1")
        code_o, out_o, _ = run_cli(capsys, "optimize", "--rates", "table1",
                                   "--constraint", constraint)
        assert code_b == code_o == 0
        assert csv_body(out_b) == csv_body(out_o)
        assert len(csv_body(out_b)) == 2

    def test_infinite_bias_has_no_non_phase_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "5", "--k", "7",
                               "--eps", "0.001")
        assert code == 0
        assert csv_body(out)[1] == "0.001,inf,3,5,7,9.261e-05,0,9.261e-05"

    @pytest.mark.parametrize("extra", [["--bias", "nan"], ["--bias", "-1"],
                                       ["--eps", "-0.001"], ["--t", "-2"]])
    def test_bad_point_rejected(self, capsys, extra):
        argv = ["bounds", "--n", "5", "--k", "7", "--eps", "0.001"] + extra
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "must be" in err


class TestRatesFixEveryRate:
    """A rate table fixes every rate, so a rate point beside it is refused
    rather than printed or dropped."""

    @pytest.mark.parametrize("argv,flags", [
        (["optimize", "--rates", "table1", "--eps", "1e-3", "--bias", "10"],
         "--eps and --bias"),
        (["bounds", "--n", "5", "--k", "7", "--eps", "1e-3",
          "--rates", "table1"], "--eps"),
        (["bounds", "--rates", "table1", "--optimize", "free", "--bias", "10",
          "--eps-grid", "1e-3:1e-2"], "--bias and --eps-grid"),
        (["bounds", "--rates", "table1", "--n", "5", "--k", "7",
          "--bias", "10"], "--bias"),
        (["optimize", "--rates", "table1", "--eps", "0"], "--eps")],
        ids=["optimize", "bounds-direct", "bounds-sweep", "bounds-bias",
             "optimize-zero-eps"])
    def test_rate_point_beside_table_rejected(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"drop {flags}" in err
        assert out == ""

    def test_direct_bound_from_table_alone(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--rates", "table1",
                               "--n", "5", "--k", "7")
        assert code == 0
        config = json.loads(out.splitlines()[1].removeprefix("# config: "))
        assert config["eps"] is None and config["bias"] is None
        row = csv_body(out)[1].split(",")
        assert row[:5] == ["nan", "nan", "3", "5", "7"]
        # the optimum at (5, 7) is the same table-derived bound
        _, opt, _ = run_cli(capsys, "optimize", "--rates", "table1")
        assert csv_body(opt)[1] == csv_body(out)[1]

    def test_direct_bound_needs_n(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--rates", "table1",
                                 "--k", "7")
        assert code == 2
        assert "needs --n" in err
        assert out == ""


class TestBoundsDropsNoFlag:
    """A flag that the chosen bounds mode would ignore is refused, named,
    before any work, rather than dropped."""

    SWEEP = ["bounds", "--eps-grid", "1e-4:1e-2:3", "--bias", "1e3"]

    @pytest.mark.parametrize("argv,flags", [
        (SWEEP + ["--optimize", "n=k", "--n", "5"], "--n"),
        (SWEEP + ["--optimize", "n=k", "--k", "5"], "--k"),
        (SWEEP + ["--optimize", "free", "--t", "2"], "--t"),
        (SWEEP + ["--optimize", "free", "--eps", "0.5"], "--eps"),
        (SWEEP + ["--optimize", "free", "--n", "5", "--k", "7"], "--n and --k"),
        (["bounds", "--rates", "table1", "--optimize", "free", "--n", "5"], "--n"),
        (["bounds", "--n", "5", "--eps", "1e-3", "--eps-grid", "1e-3,2e-3"],
         "--eps-grid"),
        (["bounds", "--n", "5", "--eps", "1e-3", "--n-max", "7"], "--n-max")],
        ids=["optimize-n", "optimize-k", "optimize-t", "optimize-eps",
             "optimize-n-and-k", "optimize-rates-n", "direct-grid",
             "direct-n-max"])
    def test_ignored_flag_rejected(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"drop {flags}" in err
        assert out == ""


class TestSimulate:
    def test_zero_rates(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--gadget", "teleport",
                               "--n", "3", "--k", "3", "--rates", "zero",
                               "--trials", "2000", "--seed", "5")
        assert code == 0
        row = csv_body(out)[1].split(",")
        assert row[0] == "teleport"
        assert float(row[5]) == 0.0 and float(row[7]) == 0.0

    def test_even_n_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--gadget", "cnot",
                               "--n", "4", "--k", "3", "--trials", "10")
        assert code == 2
        assert "odd" in err

    def test_pre_teleport_needs_cnot(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--gadget", "teleport",
                                 "--n", "3", "--k", "1", "--trials", "10",
                                 "--pre-teleport")
        assert code == 2
        assert out == ""
        assert "pre-teleport" in err and "cnot" in err

    def test_scientific_trials(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--gadget", "teleport",
                               "--n", "1", "--k", "1", "--rates", "zero",
                               "--trials", "1e3")
        assert code == 0
        assert csv_body(out)[1].split(",")[3] == "1000"

    @pytest.mark.parametrize("trials", ["inf", "nan", "2.5", "1e6x"])
    def test_bad_trials_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "simulate", "--gadget", "teleport",
                                 "--n", "1", "--k", "1", "--rates", "zero",
                                 "--trials", trials)
        assert code == 2
        assert "--trials" in err
        assert out == ""

    def test_leak_policy_choices_are_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--leak-policy {random-z,always-z,never-z}" in \
            capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--gadget", "cnot", "--n", "3", "--k", "3",
                  "--leak-policy", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--leak-policy: invalid choice: 'bogus'" in err
        assert "random-z" in err and "never-z" in err
        code, out, _ = run_cli(capsys, "simulate", "--gadget", "teleport",
                               "--n", "1", "--k", "1", "--rates", "zero",
                               "--trials", "10", "--leak-policy", "never-z")
        assert code == 0
        assert '"leak_policy": "never-z"' in out

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, capsys, workers):
        code, out, err = run_cli(capsys, "simulate", "--gadget", "teleport",
                                 "--n", "1", "--k", "1", "--rates", "zero",
                                 "--trials", "10", "--workers", workers)
        assert code == 2
        assert f"--workers must be >= 1, got {workers}" in err
        assert out == ""

    def test_worker_invariance(self, capsys, tmp_path):
        args = ["simulate", "--gadget", "teleport", "--n", "3", "--k", "3",
                "--rates", "table1", "--trials", "20000", "--seed", "9"]
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        assert main(args + ["--workers", "1", "--output", str(out1)]) == 0
        assert main(args + ["--workers", "3", "--output", str(out2)]) == 0
        assert csv_body(out1.read_text()) == csv_body(out2.read_text())

    def test_custom_rate_table_file(self, capsys, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text(default_rates().to_json())
        code, out, _ = run_cli(capsys, "simulate", "--gadget", "teleport",
                               "--n", "3", "--k", "1", "--rates", str(path),
                               "--trials", "5000", "--seed", "2")
        assert code == 0
        assert float(csv_body(out)[1].split(",")[5]) >= 0.0

    def test_incomplete_rate_table(self, capsys, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text(json.dumps({"rates": [
            {"operation": "cz", "species": "A", "eps": 1e-3}]}))
        code, _, err = run_cli(capsys, "simulate", "--gadget", "teleport",
                               "--n", "3", "--k", "1", "--rates", str(path),
                               "--trials", "10")
        assert code == 2
        assert "(prep, A)" in err and "(cz, B)" in err
        assert "(cz, A)" not in err

    @pytest.mark.parametrize("doc,message", [
        ([], "bad rate table"),
        ({"rates": [{"operation": "cz", "species": "A", "eps": None}]},
         "bad rate table"),
        ({"rates": [dict(row, eps_other=0.3, eps_leak=0.2)
                    if row["operation"] == "measx" else row
                    for row in json.loads(default_rates().to_json())["rates"]]},
         "a measurement takes eps"),
        ({"rates": [dict(row, eps_leek=0.1) if row["operation"] == "cz"
                    else row
                    for row in json.loads(default_rates().to_json())["rates"]]},
         "unknown key 'eps_leek' in rate row (cz, A)"),
        (dict(json.loads(default_rates().to_json()), cphase_z=0.01),
         "unknown key 'cphase_z' in rate table"),
        ({"rates": [*json.loads(default_rates().to_json())["rates"],
                    {"operation": "cz", "species": "A", "eps": 0.5}]},
         "a second rate row for (cz, A)"),
    ], ids=["list", "null-eps", "measx-other-and-leak", "unknown-row-key",
            "unknown-top-level-key", "duplicate-row"])
    def test_malformed_rate_table_is_config_error(self, capsys, tmp_path,
                                                  doc, message):
        path = tmp_path / "rates.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--gadget", "teleport",
                                 "--n", "3", "--k", "1", "--rates", str(path),
                                 "--trials", "10")
        assert code == 2
        assert message in err
        assert out == ""

    def test_missing_rate_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--gadget", "teleport",
                               "--n", "3", "--k", "1", "--rates",
                               "/nonexistent.json", "--trials", "10")
        assert code == 2


class TestChannel:
    def test_builtin_bell_report(self, capsys):
        code, out, _ = run_cli(capsys, "channel", "--builtin", "cphase",
                               "--input", "bell")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["phase_rate"] == pytest.approx(4.73e-3,
                                                               rel=0.15)

    def test_qubit_resolved(self, capsys):
        code, out, _ = run_cli(capsys, "channel", "--builtin", "cphase",
                               "--qubit", "A")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["phase_rate"] == pytest.approx(1.96e-3,
                                                               rel=0.15)

    def test_amplitude_damping(self, capsys):
        code, out, _ = run_cli(capsys, "channel", "--amplitude-damping",
                               "3.5e-6")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["other_rate"] == pytest.approx(3.5e-6,
                                                               rel=1e-9)

    def test_amplitude_damping_takes_no_qubit(self, capsys):
        code, out, err = run_cli(capsys, "channel", "--amplitude-damping",
                                 "3.5e-6", "--qubit", "A")
        assert code == 2
        assert out == ""
        assert "--qubit" in err

    def test_no_source_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "channel")
        assert code == 2

    @pytest.mark.parametrize("sources", [
        ["--builtin", "cphase", "--amplitude-damping", "1e-3"],
        ["--kraus-json", "k.json", "--amplitude-damping", "1e-3"],
        ["--builtin", "cphase", "--kraus-json", "k.json"]])
    def test_two_sources_rejected(self, capsys, sources):
        code, out, err = run_cli(capsys, "channel", *sources)
        assert code == 2
        assert "channel takes one channel source" in err
        assert all(flag in err for flag in sources if flag.startswith("--"))
        assert out == ""

    def test_unknown_input_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["channel", "--builtin", "cphase", "--input", "ghz"])
        assert exc.value.code == 2
        assert "--input" in capsys.readouterr().err

    def test_missing_kraus_file_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run_cli(capsys, "channel", "--kraus-json", str(path))
        assert code == 2
        assert out == ""
        assert "cannot read Kraus file" in err and str(path) in err

    def test_kraus_entry_not_a_pair_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(
            {"dim": 2, "operators": [{"identity": [[1, 0], [0, 1]]}]}))
        code, out, err = run_cli(capsys, "channel", "--kraus-json", str(path))
        assert code == 2
        assert out == ""
        assert "bad Kraus file" in err and str(path) in err

    def test_kraus_beyond_completeness_is_config_error(self, capsys, tmp_path):
        # 3 I + 0.5 Z on one qubit of two: sum M^dagger M is far above I
        z = [1.0, -1.0, 1.0, -1.0]
        identity = [[[3.0 * (i == j), 0.0] for j in range(4)] for i in range(4)]
        diagonal = [[[0.5 * z[i] * (i == j), 0.0] for j in range(4)]
                    for i in range(4)]
        path = tmp_path / "excess.json"
        path.write_text(json.dumps({"dim": 4, "operators": [
            {"identity": identity, "diagonal": diagonal}]}))
        code, out, err = run_cli(capsys, "channel", "--kraus-json", str(path),
                                 "--input", "search")
        assert code == 2
        assert out == ""
        assert "bad Kraus file" in err and "completeness violated" in err

    def test_bell_input_needs_two_qubit_space(self, capsys, tmp_path):
        identity = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
                    for i in range(4)]
        path = tmp_path / "id4.json"
        path.write_text(json.dumps(
            {"dim": 4, "operators": [{"identity": identity}]}))
        code, out, err = run_cli(capsys, "channel", "--kraus-json", str(path))
        assert code == 2
        assert out == ""
        assert "16-dimensional" in err and "dimension 4" in err
        assert "unknown input" not in err
        code, _, _ = run_cli(capsys, "channel", "--kraus-json", str(path),
                             "--input", "search", "--restarts", "2")
        assert code == 0

    @pytest.mark.parametrize("qubit, restarts", [
        pytest.param(q, r, id=str(q) + (f"-restarts{r}" if r else ""))
        for r in (0, 2) for q in (None, "A", "B")])
    def test_search_never_below_bell(self, capsys, qubit, restarts):
        extra = ["--qubit", qubit] if qubit else []
        rates = {}
        for probe in ("bell", "search"):
            search = ["--restarts", str(restarts)] if probe == "search" else []
            code, out, _ = run_cli(capsys, "channel", "--builtin", "cphase",
                                   "--input", probe, *search, *extra)
            assert code == 0
            rates[probe] = json.loads(out)["result"]["phase_rate"]
        assert rates["search"] >= rates["bell"]

    @pytest.mark.parametrize("probe", [["--input", "bell"],
                                       ["--input", "search", "--restarts", "2"]])
    def test_builtin_non_phase_rates_exactly_zero(self, capsys, probe):
        code, out, _ = run_cli(capsys, "channel", "--builtin", "cphase", *probe)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["other_rate"] == 0.0
        assert result["leak_rate"] == 0.0
        assert result["decomposition_error"] <= 1e-15

    @pytest.mark.parametrize("source", [["--builtin", "cphase", "--input",
                                         "search"],
                                        ["--amplitude-damping", "1e-3"]])
    def test_negative_restarts_rejected(self, capsys, source):
        code, out, err = run_cli(capsys, "channel", *source,
                                 "--restarts", "-3")
        assert code == 2
        assert out == ""
        assert "--restarts" in err and "-3" in err

    def test_restarts_with_bell_input_rejected(self, capsys):
        code, out, err = run_cli(capsys, "channel", "--builtin", "cphase",
                                 "--input", "bell", "--restarts", "2")
        assert code == 2
        assert out == ""
        assert "--restarts" in err and "--input search" in err


class TestOracleCommand:
    def test_teleport_weight_one(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--gadget", "teleport",
                               "--n", "3", "--k", "1", "--rates", "zero",
                               "--weight", "1")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["prob_z"] == 0.0

    def test_rates_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--gadget", "teleport", "--n", "3", "--k", "1"])
        assert exc.value.code == 2
        assert "--rates" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["-1", "-3"])
    def test_negative_weight_rejected(self, capsys, weight):
        code, out, err = run_cli(capsys, "oracle", "--gadget", "teleport",
                                 "--n", "3", "--k", "1", "--rates", "zero",
                                 "--weight", weight)
        assert code == 2
        assert out == ""
        assert f"--weight must be >= 0, got {weight}" in err

    @pytest.mark.parametrize("limit", ["-1", "-5"])
    def test_negative_max_patterns_rejected(self, capsys, limit):
        code, out, err = run_cli(capsys, "oracle", "--gadget", "teleport",
                                 "--n", "3", "--k", "1", "--rates", "zero",
                                 "--max-patterns", limit)
        assert code == 2
        assert out == ""
        assert f"--max-patterns must be >= 0, got {limit}" in err

    def test_tail_key(self, capsys, tmp_path):
        path = tmp_path / "phase.json"
        table = scaled_table1(1.0, phase_only=True)
        path.write_text(table.to_json())
        code, out, _ = run_cli(capsys, "oracle", "--gadget", "teleport",
                               "--n", "3", "--k", "3", "--weight", "2",
                               "--rates", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["tail"] == {"prob_more_faults": prob_more_faults(
            build_teleport_identity(3, 3), table, 2)}
        assert 0.0 < report["tail"]["prob_more_faults"] \
            < report["result"]["remainder_bound"]

    def test_leaky_table_rejected(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--gadget", "teleport",
                               "--n", "3", "--k", "1", "--rates", "table1",
                               "--weight", "1")
        assert code == 2
        assert "leak" in err


class TestValidate:
    def test_built_gadget_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--gadget", "cnot",
                               "--n", "3", "--k", "3")
        assert code == 0
        assert "ok" in out

    def test_pre_teleport_needs_cnot(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--gadget", "teleport",
                                 "--pre-teleport")
        assert code == 2
        assert out == ""
        assert "pre-teleport" in err and "cnot" in err

    def test_circuit_file(self, capsys, tmp_path):
        path = tmp_path / "circuit.txt"
        path.write_text(circuit_to_text(build_teleport_identity(3, 1)))
        code, out, _ = run_cli(capsys, "validate", "--circuit", str(path))
        assert code == 0

    def test_violating_circuit_exit_code(self, capsys, tmp_path):
        text = ("# qubit 0 A data d\n"
                "# qubit 1 A data d\n"
                "# block d input 0 1\n"
                "CZ 0 1\n")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, _, err = run_cli(capsys, "validate", "--circuit", str(path))
        assert code == 3
        assert "violation" in err

    def test_block_naming_a_missing_qubit_is_violation(self, capsys, tmp_path):
        text = circuit_to_text(build_teleport_identity(3, 1)).replace(
            "# block out output 3 4 5", "# block out output 3 4 99")
        path = tmp_path / "block99.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", "--circuit", str(path))
        assert code == 3
        assert out == ""
        assert "block 'out' names qubit 99" in err

    def test_no_source_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "validate")
        assert code == 2
        assert out == ""
        assert "--gadget or --circuit" in err

    @pytest.mark.parametrize("flags", [["--gadget", "cnot", "--n", "5", "--k", "7"],
                                       ["--pre-teleport"],
                                       ["--gadget", "cnot", "--pre-teleport"]])
    def test_gadget_flags_beside_circuit_are_config_error(self, capsys,
                                                          tmp_path, flags):
        path = tmp_path / "circuit.txt"
        path.write_text(circuit_to_text(build_teleport_identity(3, 1)))
        code, out, err = run_cli(capsys, "validate", *flags, "--circuit", str(path))
        assert code == 2
        assert out == ""
        assert "--circuit" in err
        named = [f for f in ("--gadget", "--pre-teleport") if f in flags]
        assert all(f in err for f in named)

    @pytest.mark.parametrize("flags", [["--n", "5", "--k", "9"], ["--n", "5"],
                                       ["--k", "3"]])
    def test_size_flags_beside_circuit_are_config_error(self, capsys,
                                                        tmp_path, flags):
        # --n and --k size a built gadget; a circuit file has its own size
        path = tmp_path / "teleport.txt"
        path.write_text(circuit_to_text(build_teleport_identity(3, 1)))
        code, out, err = run_cli(capsys, "validate", *flags, "--circuit", str(path))
        assert code == 2
        assert out == ""
        assert "drop" in err
        assert all(f in err for f in flags if f.startswith("--"))

    def test_built_gadget_defaults_to_n3_k3(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--gadget", "cnot")
        assert code == 0
        assert out.strip() == (f"ok: {len(build_logical_cnot(3, 3).locations)} "
                               f"locations, {build_logical_cnot(3, 3).n_qubits} qubits")

    def test_even_majority_group_is_violation(self, capsys, tmp_path):
        text = circuit_to_text(build_teleport_identity(1, 1)).replace(
            "# group xread_in 5", "# group xread_in 4 5")
        path = tmp_path / "even.txt"
        path.write_text(text)
        code, _, err = run_cli(capsys, "validate", "--circuit", str(path))
        assert code == 3
        assert "even size" in err

    def test_reprepared_ancilla_ok(self, capsys, tmp_path):
        path = tmp_path / "reprep.txt"
        path.write_text(REPREPARED_ANCILLA)
        code, out, err = run_cli(capsys, "validate", "--circuit", str(path))
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("line", ["CZ 1", "MEASX", "# qubit 1"])
    def test_short_line_is_config_error(self, capsys, tmp_path, line):
        path = tmp_path / "short.txt"
        path.write_text(f"# qubit 0 A data d\n{line}\n")
        code, _, err = run_cli(capsys, "validate", "--circuit", str(path))
        assert code == 2
        assert "line 2" in err


def scaled_table1(scale: float, phase_only: bool = False) -> ErrorRateTable:
    keep = 0.0 if phase_only else scale
    return ErrorRateTable(entries={
        key: Rates(scale * r.eps, keep * r.eps_other, keep * r.eps_leak)
        for key, r in default_rates().entries.items()})


@pytest.mark.parametrize("policy", ["random-z", "always-z", "never-z"])
def test_simulate_leaves_numpy_ma_unimported(tmp_path, policy):
    # numpy.ma takes about 14 ms to import, and np.unique or np.union1d
    # import it on first use; a forked worker would pay that in its first
    # batch.  table1 x5 on cnot(3,3) leaks in every batch of 2^17 trials.
    path = tmp_path / "x5.json"
    path.write_text(scaled_table1(5.0).to_json())
    argv = ["simulate", "--gadget", "cnot", "--n", "3", "--k", "3", "--rates",
            str(path), "--trials", str(2**17), "--leak-policy", policy]
    script = ("import contextlib, io, sys\n"
              "from biasrep.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    assert main({argv!r}) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False"]


class TestGoldenOutputs:
    """Exact outputs, pinned so that any change to the keyed draws, the
    class thresholds or the class order shows up."""

    def test_simulate_csv_body(self, capsys, tmp_path):
        path = tmp_path / "x5.json"
        path.write_text(scaled_table1(5.0).to_json())
        code, out, _ = run_cli(capsys, "simulate", "--gadget", "cnot",
                               "--n", "3", "--k", "3", "--rates", str(path),
                               "--trials", "2e5", "--seed", "1")
        assert code == 0
        assert csv_body(out) == [
            "gadget,n,k,trials,seed,eps_L,eps_L_stderr,epsp_L,epsp_L_stderr",
            "cnot,3,3,200000,1,0.028005,0.0003689222139,0.14339,0.0007836750216"]
        config = json.loads(out.splitlines()[1].removeprefix("# config: "))
        assert config["stream"] == 2

    def test_oracle_json(self, capsys, tmp_path):
        path = tmp_path / "phase.json"
        path.write_text(scaled_table1(1.0, phase_only=True).to_json())
        code, out, _ = run_cli(capsys, "oracle", "--gadget", "teleport",
                               "--n", "3", "--k", "3", "--weight", "2",
                               "--rates", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["config"] == {
            "command": "oracle", "gadget": "teleport", "n": 3, "k": 3,
            "rates": str(path), "weight": 2}
        assert report["result"] == {
            "by_weight_x": [0.0, 0.0, 0.00270828961616582],
            "by_weight_z": [0.0, 0.0, 0.0003487031909469608],
            "count_x": [0, 0, 192],
            "count_z": [0, 0, 96],
            "patterns_run": 1176,
            "prob_either": 0.0030569928071127765,
            "prob_x": 0.00270828961616582,
            "prob_z": 0.0003487031909469608,
            "remainder_bound": 0.0016835234559999998,
            "sites": 48,
        }

    def test_oracle_weight3_json(self, capsys, tmp_path):
        # table1 without its leak rates: sites of 1, 2 and 3 fault classes
        # and 4,689,861 patterns, too many for a pattern-by-pattern replay
        path = tmp_path / "leakfree.json"
        path.write_text(ErrorRateTable(entries={
            key: Rates(r.eps, r.eps_other)
            for key, r in default_rates().entries.items()}).to_json())
        code, out, _ = run_cli(capsys, "oracle", "--gadget", "cnot",
                               "--n", "3", "--k", "3", "--weight", "3",
                               "--max-patterns", "5000000",
                               "--rates", str(path))
        assert code == 0
        assert json.loads(out)["result"] == {
            "by_weight_x": [0.0, 6.665001854630846e-05,
                            0.0067375281372870485, 0.0016192810024842452],
            "by_weight_z": [0.0, 6.682678835508538e-05,
                            0.0008808983978204466, 0.0002793458453061492],
            "count_x": [0, 54, 16452, 2287818],
            "count_z": [0, 54, 15024, 2026746],
            "patterns_run": 4689861,
            "prob_either": 0.009645520268380127,
            "prob_x": 0.008423459158317602,
            "prob_z": 0.0012270710314816811,
            "remainder_bound": 0.002996854406484665,
            "sites": 114,
        }

    @pytest.mark.parametrize("argv,digest", [
        (["--optimize", "free", "--eps-grid", "1e-4:1e-2:25", "--bias", "1e3",
          "--bias", "1e4"],
         "bc4a03ff1ea553d1bb9c658800a6f757b4aff6a8f5fbca73853316ebe1841a88"),
        (["--optimize", "n=k", "--eps-grid", "1e-5:1e-1:40", "--bias", "10",
          "--bias", "1e3"],
         "a49342df3a24da720d85ca77f867bf1f5436e5c88febbebd3de5e4f825ca08f7")],
        ids=["analysis-sweep", "n=k-sweep"])
    def test_optimizing_sweep_body(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 0
        body = "\n".join(csv_body(out)) + "\n"
        assert hashlib.sha256(body.encode()).hexdigest() == digest

    @pytest.mark.parametrize("constraint,row", [
        ("free", "nan,nan,3,5,7,0.004722177827,0.004210531691,0.008932709518"),
        ("n=k", "nan,nan,3,5,5,0.002302299705,0.007411050794,0.009713350499")])
    def test_optimize_table1_body(self, capsys, constraint, row):
        code, out, _ = run_cli(capsys, "optimize", "--rates", "table1",
                               "--constraint", constraint)
        assert code == 0
        assert csv_body(out) == [_BOUNDS_HEADER, row]

    @pytest.mark.parametrize("argv,digest", [
        (["--builtin", "cphase", "--input", "bell"],
         "c549983e6d9540852b796fb1734fd3b9a1bac00844e1f7e32b610adc5066670b"),
        (["--builtin", "cphase", "--input", "bell", "--qubit", "A"],
         "22abb4fb0be9f5307746a13bab9ad5197ab94f7ac832f09ae7cf28406b2c6b9f"),
        (["--builtin", "cphase", "--input", "bell", "--qubit", "B"],
         "17dbcc3e49dd5d8dda98514a5fea4c9325205602ee0c57379a9a3de5d6463179"),
        (["--builtin", "cphase", "--input", "search", "--restarts", "2",
          "--seed", "1000"],
         "c549983e6d9540852b796fb1734fd3b9a1bac00844e1f7e32b610adc5066670b"),
        (["--builtin", "cphase", "--input", "search", "--restarts", "2",
          "--seed", "1000", "--qubit", "A"],
         "22abb4fb0be9f5307746a13bab9ad5197ab94f7ac832f09ae7cf28406b2c6b9f"),
        (["--builtin", "cphase", "--input", "search", "--restarts", "2",
          "--seed", "1000", "--qubit", "B"],
         "17dbcc3e49dd5d8dda98514a5fea4c9325205602ee0c57379a9a3de5d6463179"),
        (["--amplitude-damping", "0.00770519", "--restarts", "8",
          "--seed", "1000"],
         "d8ba2f9b5af61972fdff22201ac192f2ed4f885df1570d9ac6465bb09eed0a0a"),
        (["--amplitude-damping", "0.00223423", "--restarts", "8",
          "--seed", "1000"],
         "f012c2f20d1d4662ef40d250d82dab0d75cdbc5c3da5b2ed08cb36faa578abc3"),
        (["--amplitude-damping", "3.13111e-06", "--restarts", "8",
          "--seed", "1000"],
         "1f6c147fd2b539a736a465a2d07b7110dcc0a68b3c6b232400b182d4a39e102e")],
        ids=["bell", "bell-A", "bell-B", "search", "search-A", "search-B",
             "damping-7.7e-3", "damping-2.2e-3", "damping-3.1e-6"])
    def test_channel_result(self, capsys, argv, digest):
        """The search finds the Bell input's value, so each pair of bell
        and search reports is the same."""
        code, out, _ = run_cli(capsys, "channel", *argv)
        assert code == 0
        result = json.dumps(json.loads(out)["result"], sort_keys=True)
        assert hashlib.sha256(result.encode()).hexdigest() == digest


_BOUNDS_HEADER = "eps,bias,c,n,k,eps_L,epsp_L,total"


class TestBoundInputRanges:
    """A rate outside [0, 1], a malformed --eps-grid or a size whose bound
    overflows a float exits 2 naming the flag that set it."""

    RANGE = "eps must be in [0, 1]"

    @pytest.mark.parametrize("argv,flag,message", [
        (["bounds", "--n", "5", "--eps", "1.5"], "--eps", RANGE),
        (["bounds", "--n", "5", "--eps", "inf"], "--eps", RANGE),
        (["optimize", "--eps", "2", "--bias", "1e3"], "--eps", RANGE),
        (["bounds", "--optimize", "free", "--eps-grid", "1e-4:2:5",
          "--bias", "1e3"], "--eps-grid", RANGE),
        (["bounds", "--optimize", "n=k", "--eps-grid", "0.5,3",
          "--bias", "1e3"], "--eps-grid", RANGE),
        (["bounds", "--optimize", "free", "--eps-grid", "a,b",
          "--bias", "1e3"], "--eps-grid", "'a,b'"),
        (["bounds", "--optimize", "free", "--eps-grid", "1e-3:1e-2:1.5",
          "--bias", "1e3"], "--eps-grid", "'1e-3:1e-2:1.5'"),
        (["bounds", "--optimize", "free", "--eps-grid", ",",
          "--bias", "1e3"], "--eps-grid", "','")],
        ids=["bounds-1.5", "bounds-inf", "optimize-2", "grid-range",
             "grid-list", "grid-words", "grid-points", "grid-empty"])
    def test_eps_outside_unit_interval(self, capsys, argv, flag, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: ")
        assert message in err

    @pytest.mark.parametrize("argv,flag", [
        (["bounds", "--n", "2001", "--eps", "1e-3"], "--n"),
        (["bounds", "--rates", "table1", "--n", "5", "--k", "2001"], "--k"),
        (["optimize", "--rates", "table1", "--n-max", "2049"], "--n-max"),
        (["bounds", "--n", "5", "--eps", "1e-3", "--t", "1e300"], "--t"),
        (["optimize", "--eps", "1e-3", "--bias", "1e3", "--c", "1e200"], "--c")],
        ids=["n", "k", "n-max", "t", "c"])
    def test_overflow_is_config_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: ")
        assert "invariant" not in err

    @pytest.mark.parametrize("grid", ["1e-4:1e-2:3", "1e-4,1e-3,1e-2"])
    def test_overflowing_sweep_is_config_error(self, capsys, grid):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "bounds", "--optimize", "free",
                                     "--eps-grid", grid, "--bias", "1e3",
                                     "--c", "1e200")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --c: ")
        assert caught == []

    @pytest.mark.parametrize("argv,row", [
        (["bounds", "--n", "5", "--eps", "1"], "1,inf,3,5,1,270,0,270"),
        (["bounds", "--n", "1029", "--eps", "1e-9"],
         "1e-09,inf,3,1029,1,0,0,0"),
        (["bounds", "--n", "5", "--k", "2001", "--eps", "1e-6"],
         "1e-06,inf,3,5,2001,2.16324162e-06,0,2.16324162e-06")])
    def test_edges_still_evaluate(self, capsys, argv, row):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert csv_body(out)[1] == row


class TestSeedRange:
    """simulate and channel take one seed rule: an integer in [0, 2^64).
    The keyed streams use the seed's low 64 bits, so a wider seed would
    repeat the draws of another."""

    COMMANDS = {
        "simulate": ["simulate", "--gadget", "teleport", "--n", "1",
                     "--k", "1", "--rates", "zero", "--trials", "100"],
        "channel": ["channel", "--amplitude-damping", "1e-3",
                    "--restarts", "1"],
    }

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_outside_rejected(self, capsys, command, seed):
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command] + ["--seed", seed])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err

    @pytest.mark.parametrize("seed", ["0", str((1 << 64) - 1)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_edges_accepted(self, capsys, command, seed):
        code, out, _ = run_cli(capsys, *self.COMMANDS[command],
                               "--seed", seed)
        assert code == 0
        assert f'"seed": {seed}' in out


class TestUnwritableOutput:
    """An --output path that cannot be written is bad input: exit 2 naming
    the flag, not an invariant violation."""

    COMMANDS = {
        "simulate": ["simulate", "--gadget", "teleport", "--n", "1",
                     "--k", "1", "--rates", "zero", "--trials", "10"],
        "bounds": ["bounds", "--n", "5", "--eps", "1e-3"],
        "optimize": ["optimize", "--rates", "table1"],
        "channel": ["channel", "--builtin", "cphase"],
        "oracle": ["oracle", "--gadget", "teleport", "--n", "1", "--k", "1",
                   "--rates", "zero", "--weight", "1"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_2_naming_output(self, capsys, tmp_path, command):
        path = tmp_path / "absent" / "out.txt"
        code, out, err = run_cli(capsys, *self.COMMANDS[command],
                                 "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --output: ") and str(path) in err
        assert "invariant" not in err

    @pytest.mark.parametrize("command", ["simulate", "oracle"])
    def test_rejected_before_any_work(self, capsys, tmp_path, monkeypatch,
                                      command):
        def never(*args, **kwargs):
            raise AssertionError("ran before --output was checked")
        monkeypatch.setattr(cli, "estimate_logical_rates", never)
        monkeypatch.setattr(cli, "brute_force_oracle", never)
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, *self.COMMANDS[command],
                                 "--output", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: --output: ") and str(path) in err

    def test_directory_is_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.COMMANDS["bounds"],
                               "--output", str(tmp_path))
        assert code == 2 and "--output" in err and "directory" in err

    def test_read_only_file_is_rejected_and_kept(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"kept\n")
        path.chmod(0o444)
        if os.access(path, os.W_OK):
            pytest.skip("file permissions do not bind this user")
        code, _, err = run_cli(capsys, *self.COMMANDS["bounds"],
                               "--output", str(path))
        assert code == 2 and "--output" in err
        assert path.read_bytes() == b"kept\n"

    def test_other_bad_input_leaves_the_output_file_alone(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"earlier run\n")
        code, _, err = run_cli(capsys, "simulate", "--gadget", "cnot", "--n",
                               "2", "--k", "3", "--trials", "10",
                               "--output", str(path))
        assert code == 2 and "--output" not in err
        assert path.read_bytes() == b"earlier run\n"


class TestParserReuse:
    """main builds its parser on the first call of a process and reuses it
    for every later call."""

    SEQUENCE = [
        ["bounds", "--optimize", "free", "--eps-grid", "1e-4:1e-2:25",
         "--bias", "1e3", "--bias", "1e4"],
        ["bounds", "--n", "5", "--eps", "1e-3"],
        ["optimize", "--eps", "1e-3", "--bias", "10"],
        ["simulate", "--gadget", "cnot", "--n", "x", "--k", "3"],
        ["channel", "--builtin", "cphase", "--input", "bell"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse rejects the command
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_built_on_first_call_only(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        argv = ["optimize", "--rates", "table1"]
        first = self.outcome(capsys, argv)
        after_first = len(built)
        assert self.outcome(capsys, argv) == first
        assert first[0] == 0
        assert after_first > 0 and len(built) == after_first

    def test_outputs_match_a_fresh_parser(self, capsys):
        """The sequence runs twice on one parser, so the second pass reads
        each shared default (such as the [] of --bias) after the first pass
        has used it."""
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0]
        build_parser.cache_clear()
        reused = [self.outcome(capsys, argv)
                  for _ in range(2) for argv in self.SEQUENCE]
        assert reused == fresh * 2
