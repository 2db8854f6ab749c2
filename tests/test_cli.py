"""Exit codes, CSV emission, and determinism of the command line tool."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from wpcn_ee import MODE_IELCN, MODE_PWPCN, MODE_QOS, RAW_COLUMNS
from wpcn_ee.cli import _build_parser, main


def cfg_file(tmp_path: Path, payload: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
    rc = main(["solve-qos"])
    assert rc == 1
    assert "Rmin_bits" in capsys.readouterr().err


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
    # only oracle-check reads --tolerance; elsewhere it is not a flag
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--tolerance", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
    assert _build_parser().parse_args(["oracle-check", "--tolerance", "1"]).tolerance == 1.0


def test_config_errors_exit_one(tmp_path, capsys):
    bad = cfg_file(tmp_path, {"system": {"wattage": 3}})
    assert main(["solve-best-effort", "--config", bad]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert main(["solve-best-effort", "--config", str(tmp_path / "missing.json")]) == 1
    not_a_power = cfg_file(tmp_path, {"system": {"Pmax_dBm": "nan"}}, "nan.json")
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
        ({"schemes": "ee_optimal"}, "'schemes' must be a JSON list"),
        ({"rho_list": 0.5}, "'rho_list' must be a JSON list"),
        ({"system": {"eta": None}}, "wrong JSON type"),
        ({"initial_energy_J": None}, "wrong JSON type"),
        # non-finite sweep ranges used to end in OverflowError tracebacks
        # or in a message about converting NaN to an integer
        (
            {"sweep": {"axis": "eta", "start": 0.5, "stop": math.inf, "step": 0.1}},
            "sweep 'stop' must be finite, got inf",
        ),
        (
            {"sweep": {"axis": "eta", "start": 0.5, "stop": 0.9, "step": math.nan}},
            "sweep 'step' must be finite, got nan",
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
    integral = cfg_file(tmp_path, {"geometry": {"K": 2.0, "seed": 4.0}}, "integral.json")
    assert main(["solve-best-effort", "--config", integral]) == 0


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
    assert main(["convergence", "--config", hopeless]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wpcn_ee.cli", "solve-best-effort", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(RAW_COLUMNS[:2]))
