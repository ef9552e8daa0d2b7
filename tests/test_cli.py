import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bb84eve import cli, povm
from bb84eve.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_thresholds_all(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--all")
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    rows = {r["curve"]: r for r in record["rows"]}
    assert set(rows) == {"honest", "maxent", "minconc", "hsw"}
    assert abs(rows["minconc"]["epsilon_star"] - 0.2) <= 1e-6
    assert abs(rows["minconc"]["qber"] - 0.1) <= 1e-6
    assert abs(rows["hsw"]["epsilon_star"] - 0.1230) <= 5e-4
    assert abs(rows["hsw"]["qber"] - 0.0615) <= 2.5e-4
    assert abs(rows["honest"]["epsilon_star"] - 0.29289) <= 1e-4
    assert abs(rows["maxent"]["epsilon_star"] - 0.21380) <= 1e-4


def test_thresholds_single_curve_tolerance(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--curve", "honest", "--tol", "1e-9")
    assert code == 0
    record = json.loads(out)
    (row,) = record["rows"]
    assert row["residual"] <= 1e-9


def test_thresholds_bad_tolerance_exits_one(capsys):
    for tol in ("inf", "0.5", "nan", "1e-13"):
        code, out, err = run_cli(
            capsys, "thresholds", "--curve", "minconc", "--tol", tol
        )
        assert code == 1, tol
        assert out == ""
        assert "error" in err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["thresholds", "--all"], "thresholds_all.json"),
        (["scan", "--start", "0", "--stop", "0.5", "--step", "0.005"],
         "scan_0_0.5_0.005.csv"),
    ],
)
def test_closed_form_output_matches_golden_bytes(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_emit_json_refuses_nan(capsys):
    with pytest.raises(ValueError):
        cli._emit_json(None, "table", {}, [{"z": float("nan")}], {})
    assert capsys.readouterr().out == ""


def test_scan_grid(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys, "scan", "--start", "0", "--stop", "0.5", "--step", "0.01",
        "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "epsilon,I_AB,I_honest,I_maxent,I_minconc,I_hsw,qber"
    assert len(lines) == 52  # header + 51 grid points
    assert "\r" not in text
    first = lines[1].split(",")
    assert first == ["0", "0.5", "0", "0", "0", "0", "0"]
    at_02 = lines[21].split(",")
    assert float(at_02[0]) == pytest.approx(0.2)
    assert abs(float(at_02[1]) - float(at_02[4])) <= 1e-9  # I_AB == I_minconc


def test_scan_rejects_bad_grid(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--start", "0.4", "--stop", "0.2", "--step", "0.01"])
    assert err.value.code == 2


def test_scan_rejects_nonfinite_or_oversized_step(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid must not be built")

    monkeypatch.setattr(np, "arange", no_grid)
    for step in ("nan", "inf", "-inf", "1e-9", "5e-324"):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--start", "0", "--stop", "0.5", "--step", step])
        assert err.value.code == 2, step


def test_table_values_and_blindness(capsys):
    code, out, _ = run_cli(capsys, "table", "--epsilon", "0.2")
    assert code == 0
    record = json.loads(out)
    probs = sorted({r["p"] for r in record["rows"]})
    assert probs == [0.0125, 0.0625, 0.1125]
    code, out2, _ = run_cli(capsys, "table", "--epsilon", "0.2", "--c22", "-0.8")
    assert code == 0
    other = json.loads(out2)
    assert [r["p"] for r in other["rows"]] == [r["p"] for r in record["rows"]]


def test_table_simulation_z_scores(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--epsilon", "0.2", "--simulate", "1000000", "--seed", "7"
    )
    assert code == 0
    record = json.loads(out)
    for row in record["rows"]:
        assert abs(row["z"]) <= 4
    _, again, _ = run_cli(
        capsys, "table", "--epsilon", "0.2", "--simulate", "1000000", "--seed", "7"
    )
    assert again == out  # byte-identical for a fixed seed


def test_table_infeasible_point_exits_one(capsys):
    code, _, err = run_cli(capsys, "table", "--epsilon", "0.2", "--c22", "0.5")
    assert code == 1
    assert "error" in err


def test_povm_check_interior(capsys):
    code, out, _ = run_cli(capsys, "povm-check", "--epsilon", "0.3", "--c22", "-0.5")
    assert code == 0
    checks = {r["check"]: r["value"] for r in json.loads(out)["rows"]}
    assert checks["completeness_residual"] <= 1e-9
    assert checks["formula_gap"] <= 1e-9
    assert checks["conjugate_gap"] <= 1e-10
    assert checks["equal_weight_gap"] <= 1e-10
    assert checks["equal_weight_max_imag"] <= 1e-12


def test_povm_check_boundary(capsys):
    code, out, _ = run_cli(capsys, "povm-check", "--epsilon", "0.25", "--c22", "-0.5")
    assert code == 0
    checks = {r["check"]: r["value"] for r in json.loads(out)["rows"]}
    assert checks["completeness_residual"] <= 1e-9


def test_povm_check_optimize(capsys):
    code, out, _ = run_cli(
        capsys, "povm-check", "--epsilon", "0.3", "--c22", "-0.5",
        "--optimize", "--restarts", "6", "--seed", "1",
    )
    assert code == 0
    checks = {r["check"]: r["value"] for r in json.loads(out)["rows"]}
    assert checks["optimizer_gap"] <= 1e-5


def no_optimizer_start(monkeypatch):
    def no_start(*args, **kwargs):
        raise AssertionError("no start may be drawn")

    monkeypatch.setattr(povm, "_random_start", no_start)


def test_povm_check_bad_restarts_exit_two(capsys, monkeypatch):
    no_optimizer_start(monkeypatch)
    for restarts in ("0", str(povm.MAX_RESTARTS + 1)):
        with pytest.raises(SystemExit) as err:
            main(["povm-check", "--epsilon", "0.3", "--c22", "-0.5",
                  "--optimize", "--restarts", restarts])
        assert err.value.code == 2


def test_search_nonsym_report_and_determinism(capsys):
    args = ["search-nonsym", "--epsilon", "0.25", "--trials", "8", "--seed", "42"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out2 == out
    (row,) = json.loads(out)["rows"]
    assert row["best_value"] <= row["symmetric_optimum"] + 1e-4
    assert row["trials"] == 8


def test_search_nonsym_one_trial(capsys):
    code, out, _ = run_cli(
        capsys, "search-nonsym", "--epsilon", "0.3", "--trials", "1", "--seed", "0"
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["accepted"] == 1


def test_search_nonsym_bad_flags_exit_two(capsys, monkeypatch):
    no_optimizer_start(monkeypatch)
    for argv in (
        ["search-nonsym", "--epsilon", "0", "--trials", "5"],
        ["search-nonsym", "--epsilon", "0.3", "--trials", "0"],
        ["search-nonsym", "--epsilon", "0.3", "--trials", "2", "--restarts", "0"],
        ["search-nonsym", "--epsilon", "0.3", "--trials", "2",
         "--restarts", str(povm.MAX_RESTARTS + 1)],
        ["search-nonsym", "--epsilon", "0.25", "--trials", "2",
         "--max-iterations", "-5"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["table", "--epsilon", "0.2", "--simulate", "10"],
    ["table", "--epsilon", "0.2"],
    ["povm-check", "--epsilon", "0.3", "--c22", "-0.5", "--optimize"],
    ["search-nonsym", "--epsilon", "0.25", "--trials", "2"],
])
def test_negative_seed_exits_two(capsys, monkeypatch, argv):
    no_optimizer_start(monkeypatch)
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seed", "-1"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_help_exits_zero():
    for sub in ("thresholds", "scan", "table", "povm-check", "search-nonsym"):
        proc = subprocess.run(
            [sys.executable, "-m", "bb84eve.cli", sub, "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "--out" in proc.stdout


def test_imports_load_no_scipy():
    probe = (
        "import sys, bb84eve, bb84eve.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bb84eve.cli", "thresholds", "--curve", "minconc"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert abs(record["rows"][0]["epsilon_star"] - 0.2) <= 1e-6
