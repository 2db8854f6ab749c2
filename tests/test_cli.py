"""Exit codes, CSV emission, and determinism of the command line tool."""

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wpcn_ee import MODE_IELCN, MODE_PWPCN, MODE_QOS, RAW_COLUMNS, cli, experiments
from wpcn_ee.cli import _build_parser, main

from conftest import cfg_file


def test_solve_best_effort_to_stdout(capsys):
    rc = main(["solve-best-effort", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(RAW_COLUMNS)
    row = lines[1].split(",")
    assert row[3] == "ee_optimal"
    assert row[4] in (MODE_PWPCN, MODE_IELCN)
    assert row[11] == "1"
    assert float(row[5]) > 0.0


def test_solve_qos_requires_a_floor(capsys):
    # feasibility and convergence read the floor too
    for command in ("solve-qos", "feasibility", "convergence"):
        assert main([command]) == 1
        assert f"{command} needs Rmin_bits in the configuration" in capsys.readouterr().err


def test_solve_qos_with_floor(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"system": {"Rmin_bits": 100.0}, "geometry": {"K": 3}})
    rc = main(["solve-qos", "--config", cfg, "--seed", "5"])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[4] == MODE_QOS
    assert float(row[6]) >= 100.0 * (1.0 - 1e-9)


def test_infeasible_floor_exit_codes(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"system": {"Rmin_bits": 1e9}, "geometry": {"K": 2}})
    assert main(["solve-qos", "--config", cfg]) == 2
    capsys.readouterr()
    assert main(["feasibility", "--config", cfg]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "R_star_bits,Rmin_bits,feasible"
    assert out[1].endswith(",0")

    easy = cfg_file(tmp_path, {"system": {"Rmin_bits": 10.0}, "geometry": {"K": 2}}, "easy.json")
    assert main(["feasibility", "--config", easy]) == 0
    assert capsys.readouterr().out.strip().splitlines()[1].endswith(",1")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    # oracle-check's agreement flag allows the oracle's resolution bound
    # and nothing more, so no command takes a --tolerance
    capsys.readouterr()
    for command in ("sweep", "oracle-check"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--tolerance", "1"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
    # a sweep seeds its trials from base_seed, so --seed is not a sweep flag
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--seed", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    single = ("solve-best-effort", "solve-qos", "feasibility", "oracle-check", "convergence")
    for command in single:
        assert _build_parser().parse_args([command, "--seed", "3"]).seed == 3


WRONG = "wrong JSON type in configuration: "  # load_config's prefix for a TypeError
OUT_OF_RANGE = "number out of range in configuration: int too large to convert to float"


def test_config_errors_exit_one(tmp_path, capsys):
    bad = cfg_file(tmp_path, {"system": {"wattage": 3}})
    assert main(["solve-best-effort", "--config", bad]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert main(["solve-best-effort", "--config", str(tmp_path / "missing.json")]) == 1
    not_a_power = cfg_file(tmp_path, {"system": {"Pmax_dBm": math.nan}}, "nan.json")
    assert main(["solve-best-effort", "--config", not_a_power]) == 1
    assert "Pmax must be finite" in capsys.readouterr().err
    # blocks and lists of the wrong JSON type, and null for a number, are
    # configuration errors, not TypeError tracebacks
    wrong_types = [
        ({"system": None}, "'system' block must be a JSON object"),
        ({"geometry": [5]}, "'geometry' block must be a JSON object"),
        ({"grid": 3}, "'grid' block must be a JSON object"),
        ({"sweep": "K"}, "'sweep' block must be a JSON object"),
        ({"sweep": {"axis": "K", "values": 3}}, "'values' must be a JSON list"),
        # a missing axis used to print the bare KeyError, 'axis'
        ({"sweep": {"values": [0.9]}}, "sweep needs an 'axis'"),
        ({"schemes": "ee_optimal"}, "'schemes' must be a JSON list"),
        ({"rho_list": 0.5}, "'rho_list' must be a JSON list"),
        # a repeated scheme used to write every row twice and count each
        # trial twice in the means
        ({"schemes": ["ee_optimal", "ee_optimal"]}, "scheme names must be distinct"),
        ({"schemes": ["fixed_proportion", "fixed_proportion"]}, "scheme names must be distinct"),
        # a repeated sweep value used to write its trials' rows twice and
        # count each trial twice in its means
        ({"sweep": {"axis": "Pmax_dBm", "values": [30, 30.0]}}, "sweep values must be distinct"),
        ({"sweep": {"axis": "eta", "values": []}}, "sweep needs at least one value"),
        ({"sweep": {"axis": "eta", "values": [0.5], "trials": 0}}, "trials must be >= 1"),
        # a NaN value and a negative base seed used to fail only at the draw
        ({"sweep": {"axis": "eta", "values": [math.nan]}}, "sweep values must be finite"),
        (
            {"sweep": {"axis": "eta", "values": [0.5], "base_seed": -1}},
            "base_seed must be non-negative, got -1",
        ),
        ([{"geometry": {"K": 2}}], "configuration must be a JSON object"),
        ({"system": {"eta": None}}, "wrong JSON type"),
        # integers too large for a float used to end in an OverflowError
        # traceback
        ({"geometry": {"K": 10**400}}, OUT_OF_RANGE),
        ({"system": {"eta": 10**400}}, OUT_OF_RANGE),
        # and a base seed that large used to fail only at the first draw
        ({"sweep": {"axis": "eta", "values": [0.5], "base_seed": 10**400}}, OUT_OF_RANGE),
        ({"initial_energy_J": None}, "wrong JSON type"),
        # an inadmissible geometry used to end in a RuntimeError traceback
        ({"geometry": {"ref_gain": 1e6}}, "no admissible channel draw in 100 attempts"),
        # strings and booleans in numeric entries used to be converted
        ({"system": {"Pmax_dBm": "30"}}, WRONG + "'Pmax_dBm' must be a number, got '30'"),
        ({"system": {"Pmax_dBm": "nan"}}, WRONG + "'Pmax_dBm' must be a number, got 'nan'"),
        ({"system": {"eta": True}}, WRONG + "'eta' must be a number, got True"),
        ({"system": {"Rmin_bits": "5e4"}}, WRONG + "'Rmin_bits' must be a number, got '5e4'"),
        ({"geometry": {"alpha": False}}, WRONG + "'alpha' must be a number, got False"),
        ({"initial_energy_J": True}, WRONG + "'initial_energy_J' must be a number, got True"),
        ({"initial_energy_J": [0.1, "0"]}, WRONG + "'initial_energy_J' must be a number, got '0'"),
        ({"rho_list": ["0.5"]}, WRONG + "'rho_list' must be a number, got '0.5'"),
        ({"sweep": {"axis": "eta", "values": [True]}}, WRONG + "'values' must be a number, got True"),
        # the oracle's power cap and the start/stop/step sweep range are
        # gone: the oracle sizes its own power axes, and a sweep lists its
        # values
        ({"grid": {"p_max_search": 1.0}}, "unknown keys ['p_max_search'] in 'grid' block"),
        (
            {"sweep": {"axis": "eta", "start": 0.5, "stop": 0.9, "step": 0.2}},
            "unknown keys ['start', 'step', 'stop'] in 'sweep' block",
        ),
        # integer fields used to truncate: K 2.9 solved K = 2
        ({"geometry": {"K": 2.9}}, "'K' must be an integer, got 2.9"),
        ({"geometry": {"seed": "3"}}, "'seed' must be an integer, got '3'"),
        ({"grid": {"n_tau": 40.5}}, "'n_tau' must be an integer, got 40.5"),
        (
            {"sweep": {"axis": "eta", "values": [0.5], "trials": 1.5}},
            "'trials' must be an integer, got 1.5",
        ),
        (
            {"sweep": {"axis": "eta", "values": [0.5], "base_seed": True}},
            "'base_seed' must be an integer, got True",
        ),
    ]
    for i, (payload, message) in enumerate(wrong_types):
        cfg = cfg_file(tmp_path, payload, f"type{i}.json")
        assert main(["solve-best-effort", "--config", cfg]) == 1, payload
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err, payload
        assert "Traceback" not in err
    # a K sweep value is an integer field too; integral floats pass
    k_sweep = {"sweep": {"axis": "K", "values": [2, 2.5]}, "output": str(tmp_path / "k.csv")}
    assert main(["sweep", "--config", cfg_file(tmp_path, k_sweep, "k.json")]) == 1
    assert "configuration error: 'K' must be an integer, got 2.5" in capsys.readouterr().err
    # a sweep over an inadmissible geometry fails the same way
    inadmissible = {
        "geometry": {"ref_gain": 1e6},
        "sweep": {"axis": "eta", "values": [0.9]},
        "output": str(tmp_path / "g.csv"),
    }
    assert main(["sweep", "--config", cfg_file(tmp_path, inadmissible, "g.json")]) == 1
    err = capsys.readouterr().err
    assert "configuration error: no admissible channel draw" in err and "Traceback" not in err
    # a bandwidth whose rate constants overflow used to end in the floor
    # solver's RuntimeError traceback
    huge_w = cfg_file(tmp_path, {"system": {"bandwidth_Hz": 1e305, "Rmin_bits": 1000}}, "w.json")
    for command in ("feasibility", "solve-qos"):
        assert main([command, "--config", huge_w]) == 1
        err = capsys.readouterr().err
        assert "configuration error: W = 1e+305 overflows a user's rate constant" in err
        assert "Traceback" not in err
    integral = cfg_file(tmp_path, {"geometry": {"K": 2.0, "seed": 4.0}}, "integral.json")
    assert main(["solve-best-effort", "--config", integral]) == 0


def test_output_must_be_a_string(tmp_path, monkeypatch, capsys):
    # null used to write CSVs named None and None_mean and exit 0
    monkeypatch.chdir(tmp_path)
    sweep = {"geometry": {"K": 2}, "sweep": {"axis": "eta", "values": [0.9]}}
    for i, output in enumerate((None, 3, ["a"])):
        cfg = cfg_file(tmp_path, {**sweep, "output": output}, f"out{i}.json")
        assert main(["sweep", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: 'output' must be a string, got {output!r}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out0.json", "out1.json", "out2.json"]


def test_sweep_reaches_the_library_through_module_globals(tmp_path, monkeypatch, capsys):
    # the benchmark's layer spans time load_config and run_sweep by
    # replacing these two names in wpcn_ee.cli
    calls = []
    for name in ("load_config", "run_sweep"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    sweep = cfg_file(tmp_path, {"geometry": {"K": 2}, "sweep": {"axis": "eta", "values": [0.9]}})
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == ["load_config", "run_sweep"]


def test_zero_battery_list_must_match_the_user_count(tmp_path, capsys):
    # the all-zero shortcut of the scenario draw must not skip the
    # length check that a charged list of the same length fails
    for energy in ([0, 0], [1, 1]):
        cfg = cfg_file(tmp_path, {"initial_energy_J": energy})
        assert main(["solve-best-effort", "--config", cfg]) == 1
        assert "Q must be scalar or match the user count" in capsys.readouterr().err
    ok = cfg_file(tmp_path, {"initial_energy_J": [0] * 5}, "ok.json")
    assert main(["solve-best-effort", "--config", ok]) == 0


def test_output_files_are_reproducible(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["solve-best-effort", "--seed", "9", "--out", str(a)]) == 0
    assert main(["solve-best-effort", "--seed", "9", "--out", str(b)]) == 0
    assert main(["solve-best-effort", "--seed", "10", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_oracle_check_agrees(tmp_path, capsys):
    cfg = cfg_file(
        tmp_path,
        {"geometry": {"K": 1}, "grid": {"n_tau": 25, "n_p": 15}},
    )
    rc = main(["oracle-check", "--config", cfg, "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    solver_row = lines[1].split(",")
    oracle_row = lines[2].split(",")
    assert solver_row[0] == "solve_best_effort" and oracle_row[0] == "grid_oracle"
    assert solver_row[7] == "1" and oracle_row[7] == "1"


def test_oracle_check_with_a_floor_runs_the_floor_oracle(tmp_path, capsys):
    # a binding floor at K = 1: the best-effort optimum carries fewer bits
    payload = {
        "system": {"Rmin_bits": 2.6e5},
        "geometry": {"K": 1},
        "grid": {"n_tau": 25, "n_p": 15},
    }
    rc = main(["oracle-check", "--config", cfg_file(tmp_path, payload), "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    solver_row, oracle_row = (line.split(",") for line in lines[1:])
    assert solver_row[0] == "solve_qos" and oracle_row[0] == "grid_oracle"
    assert float(solver_row[2]) == pytest.approx(2.6e5, rel=1e-9)
    assert float(oracle_row[2]) >= 2.6e5
    assert float(solver_row[1]) >= float(oracle_row[1])
    assert solver_row[7] == "1" and oracle_row[7] == "1"


def test_oracle_check_needs_a_small_instance(capsys):
    # default geometry has five users; the grid oracle refuses
    assert main(["oracle-check"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_sweep_prints_both_paths(tmp_path, capsys):
    cfg = cfg_file(
        tmp_path,
        {
            "geometry": {"K": 2},
            "sweep": {"axis": "Pmax_dBm", "values": [43.0], "trials": 1, "base_seed": 1},
            "schemes": ["ee_optimal"],
            "output": str(tmp_path / "s.csv"),
        },
    )
    rc = main(["sweep", "--config", cfg])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [str(tmp_path / "s.csv"), str(tmp_path / "s_mean.csv")]
    assert Path(lines[0]).exists() and Path(lines[1]).exists()


def test_convergence_trace_output(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"system": {"Rmin_bits": 50.0}, "geometry": {"K": 2}})
    rc = main(["convergence", "--config", cfg, "--seed", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "iteration,q_bits_per_joule,T_bits"
    assert len(lines) >= 2

    hopeless = cfg_file(tmp_path, {"system": {"Rmin_bits": 1e9}, "geometry": {"K": 2}}, "h.json")
    capsys.readouterr()
    assert main(["convergence", "--config", hopeless]) == 2
    assert capsys.readouterr().out.strip() == "iteration,q_bits_per_joule,T_bits"


def test_convergence_reports_configuration_errors_as_solve_qos_does(tmp_path, capsys):
    # convergence used to print these as an infeasible floor and exit 2
    floor = {"system": {"Rmin_bits": 1e5}}
    wrong_length = cfg_file(tmp_path, {**floor, "initial_energy_J": [0.0, 0.0]}, "q.json")
    cases = (
        (["--config", cfg_file(tmp_path, floor), "--seed", "-1"], "expected non-negative integer"),
        (["--config", wrong_length], "Q must be scalar or match the user count"),
    )
    for args, message in cases:
        for command in ("solve-qos", "convergence"):
            assert main([command, *args]) == 1, (command, args)
            captured = capsys.readouterr()
            assert f"configuration error: {message}" in captured.err
            assert captured.out == ""


def test_module_entry_point_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "wpcn_ee.cli", "solve-best-effort", "--seed", "1"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(RAW_COLUMNS[:2]))


def test_every_setting_is_in_the_readme():
    # a configuration key or command line flag that README.md does not
    # name is a setting nobody can find
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = [*experiments._TOP_KEYS, *experiments._SWEEP_KEYS, *experiments._GRID_KEYS]
    for table in experiments._KEY_TABLES.values():
        keys.extend(table)
    missing = [k for k in keys if f'"{k}"' not in readme and f"`{k}`" not in readme]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        if f"wpcn-ee {command}" not in readme:
            missing.append(command)
        for action in parser._actions:
            missing.extend(
                flag for flag in action.option_strings
                if flag not in ("-h", "--help") and f"`{flag}`" not in readme
            )
    assert not missing
