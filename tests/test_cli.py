import errno
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bb84eve import cli, config, povm, states
from bb84eve.curves import CURVES
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
    assert record["parameters"] == {"curves": list(CURVES)}
    assert record["provenance"] == {}
    rows = {r["curve"]: r for r in record["rows"]}
    assert set(rows) == {"honest", "maxent", "minconc", "hsw"}
    assert (rows["minconc"]["epsilon_star"], rows["minconc"]["qber"]) == (0.2, 0.1)
    assert abs(rows["hsw"]["epsilon_star"] - 0.1230) <= 5e-4
    assert abs(rows["hsw"]["qber"] - 0.0615) <= 2.5e-4
    assert abs(rows["honest"]["epsilon_star"] - 0.29289) <= 1e-4
    assert abs(rows["maxent"]["epsilon_star"] - 0.21380) <= 1e-4


def test_thresholds_tol_is_not_a_flag(capsys):
    """Bisection runs until its bracket collapses, so no tolerance is taken."""
    for argv in (["--curve", "minconc", "--tol", "1e-9"], ["--all", "--tol=1e-6"]):
        with pytest.raises(SystemExit) as err:
            main(["thresholds", *argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["thresholds", "--all"], "thresholds_all.json"),
        (["scan", "--start", "0", "--stop", "0.5", "--step", "0.005"],
         "scan_0_0.5_0.005.csv"),
        (["table", "--epsilon", "0.2"], "table_0.2.json"),
    ],
)
def test_closed_form_output_matches_golden_bytes(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# povm-check rows that hold only roundoff; their digits may differ across
# BLAS builds, so each is bounded instead of compared.
ROUNDOFF_CHECKS = (
    "completeness_residual", "formula_gap", "conjugate_gap", "equal_weight_gap",
    "equal_weight_max_imag",
)


# povm-check --optimize rows that hold optimizer floats, bounded against the
# golden value as in the search-nonsym golden.
OPTIMIZER_CHECKS = ("optimizer_best", "optimizer_gap")


def _assert_povm_check_matches_golden(capsys, golden, *flags):
    """The povm-check output at ε = 0.3, c22 = -0.4 equals ``golden`` byte for
    byte, bar the value lines of ROUNDOFF_CHECKS (each in [0, 1e-12]) and of
    OPTIMIZER_CHECKS (each within 1e-9 of the golden value)."""
    code, out, _ = run_cli(
        capsys, "povm-check", "--epsilon", "0.3", "--c22", "-0.4", *flags
    )
    assert code == 0
    got = out.splitlines(keepends=True)
    want = (GOLDEN / golden).read_text().splitlines(keepends=True)
    assert len(got) == len(want)
    roundoff = {f'"check": "{name}",' for name in ROUNDOFF_CHECKS}
    optimizer = {f'"check": "{name}",' for name in OPTIMIZER_CHECKS}
    bounded = 0
    for before, line, golden_line in zip(["", *got], got, want):
        if before.strip() in roundoff | optimizer:  # the row's "value" line
            key, value = line.split(":")
            golden_key, golden_value = golden_line.split(":")
            assert key == golden_key
            if before.strip() in roundoff:
                assert 0 <= float(value) <= 1e-12, line
            else:
                assert abs(float(value) - float(golden_value)) <= 1e-9, line
            bounded += 1
        else:
            assert line == golden_line
    return bounded


def test_povm_check_matches_golden_bytes_but_roundoff(capsys):
    bounded = _assert_povm_check_matches_golden(capsys, "povm_check_0.3_-0.4.json")
    assert bounded == len(ROUNDOFF_CHECKS)


def test_povm_check_optimize_matches_golden_but_roundoff_and_optimizer(capsys):
    bounded = _assert_povm_check_matches_golden(
        capsys, "povm_check_0.3_-0.4_optimize_20_1.json",
        "--optimize", "--restarts", "20", "--seed", "1",
    )
    assert bounded == len(ROUNDOFF_CHECKS) + len(OPTIMIZER_CHECKS)


def test_search_nonsym_matches_golden(capsys):
    code, out, _ = run_cli(
        capsys, "search-nonsym", "--epsilon", "0.25", "--trials", "20", "--seed", "42"
    )
    assert code == 0
    got = json.loads(out)
    want = json.loads((GOLDEN / "search_nonsym_0.25_20_42.json").read_text())
    (row,), (golden_row,) = got["rows"], want["rows"]
    # Optimizer floats: bounded, not compared.  A tighter bound waits for
    # evidence of the precision that every CI platform reproduces.
    for key in ("best_value", "exceeds_symmetric_by"):
        assert abs(row.pop(key) - golden_row.pop(key)) <= 1e-9, key
    # trials, accepted, seed, near_optimum_count, best_parameters,
    # symmetric_optimum, provenance and the rest, exactly
    assert got == want


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


@pytest.mark.parametrize(
    "start, stop, step", [("0", "3.6e-13", "1e-13"), ("0.4", "0.5", "0.05001")]
)
def test_scan_prints_no_point_past_stop(capsys, start, stop, step):
    # a point past stop by more than 1/1024 of a step is dropped (the first
    # grid), and one past it by less prints as stop (the second, 0.50002):
    # neither is printed or passed to scan_curves out of range
    code, out, _ = run_cli(capsys, "scan", "--start", start, "--stop", stop, "--step", step)
    assert code == 0
    epsilons = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert epsilons[0] == float(start) and max(epsilons) <= float(stop)


def test_scan_rejects_a_step_below_the_printed_resolution(capsys):
    # ε prints with 12 significant digits; a step no wider than one unit in
    # the 12th digit of stop would print equal ε rows
    with pytest.raises(SystemExit) as err:
        main(["scan", "--start", "0.4999999", "--stop", "0.5", "--step", "3.6e-13"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    for start, stop, step, rows in (
        ("0.4999999", "0.5", "2e-12", 50001), ("0", "1e-10", "1e-12", 101)
    ):
        code, out, _ = run_cli(capsys, "scan", "--start", start, "--stop", stop, "--step", step)
        epsilons = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert code == 0 and len(set(epsilons)) == len(epsilons) == rows


def test_scan_rejects_bad_grid(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--start", "0.4", "--stop", "0.2", "--step", "0.01"])
    assert err.value.code == 2


def test_scan_rejects_nonfinite_or_oversized_step(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid must not be built")

    monkeypatch.setattr(cli, "cmd_scan", no_grid)
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


# an integer flag's bound and its message are config.require_int's
SIMULATE_BOUND = f"must be an integer in [0, {config.MAX_SAMPLES}]"
RESTARTS_BOUND = f"must be an integer in [1, {config.MAX_RESTARTS}]"
TRIALS_BOUND = f"must be an integer in [1, {config.MAX_TRIALS}]"


@pytest.mark.parametrize(
    "count", ["-1", "-5", str(config.MAX_SAMPLES + 1), "100000000000000000000"]
)
def test_table_bad_simulate_exits_two(capsys, monkeypatch, count):
    def no_draw(*args, **kwargs):
        raise AssertionError("no sample may be drawn")

    monkeypatch.setattr(states, "simulate_raw_data", no_draw)
    with pytest.raises(SystemExit) as err:
        main(["table", "--epsilon", "0.2", "--simulate", count])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"argument --simulate: value={count} {SIMULATE_BOUND}" in stderr


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

    monkeypatch.setattr(povm, "_random_starts", no_start)


def test_povm_check_bad_restarts_exit_two(capsys, monkeypatch):
    no_optimizer_start(monkeypatch)
    for restarts in ("0", str(config.MAX_RESTARTS + 1)):
        with pytest.raises(SystemExit) as err:
            main(["povm-check", "--epsilon", "0.3", "--c22", "-0.5",
                  "--optimize", "--restarts", restarts])
        assert err.value.code == 2
        assert f"value={restarts} {RESTARTS_BOUND}" in capsys.readouterr().err


def test_search_nonsym_report_and_determinism(capsys):
    args = ["search-nonsym", "--epsilon", "0.25", "--trials", "8", "--seed", "42"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out2 == out
    data = json.loads(out)
    (row,) = data["rows"]
    assert row["best_value"] <= row["symmetric_optimum"] + 1e-4
    assert row["trials"] == 8
    # both optimizer settings change the reported numbers
    assert data["provenance"] == {"seed": 42, "restarts": 4, "max_iterations": 300}


def test_search_nonsym_one_trial(capsys):
    code, out, _ = run_cli(
        capsys, "search-nonsym", "--epsilon", "0.3", "--trials", "1", "--seed", "0"
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["accepted"] == 1


def test_search_nonsym_bad_flags_exit_two(capsys, monkeypatch):
    no_optimizer_start(monkeypatch)
    too_many = str(config.MAX_TRIALS + 1)
    for argv, message in (
        (["--epsilon", "0.3", "--trials", "0"], f"value=0 {TRIALS_BOUND}"),
        (["--epsilon", "0.3", "--trials", too_many], f"value={too_many} {TRIALS_BOUND}"),
        # the search's optimizer settings are fixed
        (["--epsilon", "0.3", "--trials", "2", "--restarts", "4"],
         "unrecognized arguments: --restarts 4"),
        (["--epsilon", "0.3", "--trials", "2", "--max-iterations", "300"],
         "unrecognized arguments: --max-iterations 300"),
    ):
        with pytest.raises(SystemExit) as err:
            main(["search-nonsym", *argv])
        assert err.value.code == 2
        assert message in capsys.readouterr().err


def test_search_nonsym_epsilon_follows_the_library_rule(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "search-nonsym", "--epsilon", "0", "--trials", "5")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["best_value"] == row["symmetric_optimum"] == 0
    no_optimizer_start(monkeypatch)
    for eps in ("1.5", "-0.1", "nan"):
        code, out, err = run_cli(
            capsys, "search-nonsym", "--epsilon", eps, "--trials", "5"
        )
        assert (code, out) == (1, ""), eps
        assert f"epsilon={float(eps)} outside [0, 1]" in err


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
    stderr = capsys.readouterr().err
    assert "argument --seed: value=-1 must be an integer >= 0" in stderr


def test_optimizer_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["povm-check", "--epsilon", "0.3", "--c22", "-0.5"])
    assert args.restarts == povm.OptimizerConfig().restarts == config.DEFAULT_RESTARTS


@pytest.mark.parametrize("argv", [
    ["thresholds", "--all"],
    ["scan", "--start", "0", "--stop", "0.5", "--step", "0.01"],
    ["table", "--epsilon", "0.2"],
    ["povm-check", "--epsilon", "0.3", "--c22", "-0.5"],
    ["search-nonsym", "--epsilon", "0.25", "--trials", "2"],
])
def test_unwritable_out_exits_two_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("no command may run")

    for name in ("thresholds", "scan", "table", "povm_check", "search_nonsym"):
        monkeypatch.setattr(cli, f"cmd_{name}", no_work)
    (tmp_path / "file").write_text("")
    paths = ["", str(tmp_path), str(tmp_path / "missing" / "x"), str(tmp_path / "file" / "x")]
    for out in paths:
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", out])
        assert err.value.code == 2, out
        assert f"argument --out: cannot write {out!r}" in capsys.readouterr().err
    # a folder or file the process may not write; os.access is faked, since
    # permission bits do not stop a superuser
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    for out in (str(tmp_path / "new"), str(tmp_path / "file")):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", out])
        assert err.value.code == 2, out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == ""


def test_domain_error_writes_no_out_file(capsys, tmp_path):
    out = tmp_path / "table.json"
    code, _, err = run_cli(
        capsys, "table", "--epsilon", "0.2", "--c22", "0.5", "--out", str(out)
    )
    assert code == 1 and "error" in err
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_out_onto_a_full_device_exits_two_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "bb84eve.cli", "thresholds", "--all", "--out", "/dev/full"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: cannot write '/dev/full': ")


def test_failed_out_write_exits_two(capsys, monkeypatch, tmp_path):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
    out = str(tmp_path / "thresholds.json")
    with pytest.raises(SystemExit) as err:
        main(["thresholds", "--all", "--out", out])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out!r}: {os.strerror(errno.ENOSPC)}\n"


# Adversarial flag values: non-finite, signed zero, subnormal, huge,
# negative and non-numeric; None leaves the flag out.  Valid counts stay
# small, so that no example runs a long search or optimization.
FLOATS = (
    "nan", "inf", "-inf", "-0.0", "0", "5e-324", "2.2e-308", "0.25", "0.5", "1",
    "1.5", "-1", "-0.4", "1e308", "-1e308", "1e400", "abc", "",
)
COUNTS = ("-1", "0", "1", "1.5", "nan", "abc", "9" * 30)
EPSILONS = ("0", "-0.0", "5e-324", "0.2", "0.25", "1")
SEEDS = (None, "0", "7", "9" * 30)
BAD_OUTS = ("", "folder", "missing/x", "file/x") + (
    ("/dev/full",) if os.path.exists("/dev/full") else ()
)


def part(name, valid, adversarial):
    """The argv pieces of one flag: valid ones and adversarial ones."""

    def pieces(values):
        return [[] if v is None else [f"{name}={v}"] for v in values]

    return pieces(valid), pieces(adversarial)


ARGV_PARTS = {
    "thresholds": [
        ([["--all"], ["--curve=hsw"], ["--curve=minconc"]],
         [[], ["--all", "--curve=hsw"], ["--curve=bogus"]]),
        part("--tol", (None,), ("1e-9", *FLOATS)),  # removed: a usage error
    ],
    "scan": [
        part("--start", ("0", "-0.0", "0.1"), (None, *FLOATS)),
        part("--stop", ("0.3", "0.5"), (None, *FLOATS)),
        part("--step", ("0.05", "0.25"), (None, *FLOATS)),
    ],
    "table": [
        part("--epsilon", EPSILONS, (None, *FLOATS)),
        part("--c22", (None, "-1", "-0.5"), FLOATS),
        part("--simulate", (None, "0", "10", str(config.MAX_SAMPLES)),
             (*COUNTS, str(config.MAX_SAMPLES + 1))),
        part("--seed", SEEDS, COUNTS),
    ],
    "povm-check": [
        part("--epsilon", EPSILONS, (None, *FLOATS)),
        part("--c22", ("-1", "-0.5", "-0.4"), (None, *FLOATS)),
        ([[], ["--optimize"]], [["--optimize=1"]]),
        part("--restarts", ("1", "2"), (*COUNTS, str(config.MAX_RESTARTS + 1))),
        part("--seed", SEEDS, COUNTS),
    ],
    "search-nonsym": [
        part("--epsilon", EPSILONS, (None, *FLOATS)),
        part("--trials", ("1", "2"), (None, *COUNTS, str(config.MAX_TRIALS + 1))),
        part("--seed", SEEDS, COUNTS),
    ],
}


@st.composite
def argvs(draw):
    """A subcommand's argv with up to two adversarial flags, and an ``--out``
    key: None for stdout, "new" for a fresh file, else a bad path."""
    command = draw(st.sampled_from(sorted(ARGV_PARTS)))
    parts = ARGV_PARTS[command]
    bad = draw(st.sets(st.integers(0, len(parts) - 1), max_size=2))
    argv = [command]
    for i, (valid, adversarial) in enumerate(parts):
        argv += draw(st.sampled_from(adversarial if i in bad else valid))
    out = draw(st.one_of(st.sampled_from((None, "new")), st.sampled_from(BAD_OUTS)))
    return argv, out


@pytest.fixture(scope="module")
def out_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("out")
    (folder / "file").write_text("")
    return folder


def strict_json(text):
    def reject(constant):
        raise ValueError(f"JSON holds {constant}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argvs())
def test_no_argv_ends_in_a_traceback(out_folder, argv_and_out):
    """Every subcommand exits 0, 1 or 2 on adversarial flags; nothing but
    ``SystemExit`` escapes, and what it writes is finite JSON (CSV for scan)."""
    argv, out = argv_and_out
    target = out_folder / "new"
    paths = {
        None: None, "new": str(target), "folder": str(out_folder),
        "missing/x": str(out_folder / "missing" / "x"),
        "file/x": str(out_folder / "file" / "x"),
    }
    if out is not None:
        argv = [*argv, "--out", paths.get(out, out)]
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    written = target.read_text() if target.exists() else stdout.getvalue()
    target.unlink(missing_ok=True)
    if code != 0:
        assert written == "", argv
    elif argv[0] == "scan":
        for line in written.splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in line.split(",")), argv
    else:
        strict_json(written)


def test_help_exits_zero():
    for sub in ("thresholds", "scan", "table", "povm-check", "search-nonsym"):
        proc = subprocess.run(
            [sys.executable, "-m", "bb84eve.cli", sub, "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "--out" in proc.stdout


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["thresholds", "--all"], "thresholds_all.json"),
        (["scan", "--start", "0", "--stop", "0.5", "--step", "0.005"],
         "scan_0_0.5_0.005.csv"),
    ],
)
def test_closed_form_commands_never_import_numpy(argv, golden):
    """The headline commands start without numpy, and without dataclasses
    and the inspect module it loads."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bb84eve.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "bb84eve.curves" in imported
    assert not [m for m in imported if m.split(".")[0] in ("numpy", "dataclasses", "inspect")]


def test_imports_load_no_scipy():
    probe = (
        "import importlib, sys, bb84eve, bb84eve.cli\n"
        "for name in bb84eve._SUBMODULES:\n"
        "    importlib.import_module('bb84eve.' + name)\n"
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
