"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    result, stdout = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert "fail_frac" in stdout and '"machine"' in stdout


def test_counts_repeat_for_a_seed():
    counts = [
        {n: m["value"] for n, m in tiny_run("search", 1)[0]["metrics"].items()
         if m["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["povm.optimize_povm.iterations"] > 0
    assert counts[0]["analysis.nonsymmetric_search.accepted"] > 0


def _wrong_threshold(monkeypatch):
    monkeypatch.setitem(workloads.THRESHOLDS, "minconc", (0.25, 1e-6))


def _wrong_information(monkeypatch):
    monkeypatch.setattr(workloads, "mi_eve", lambda c22: 1.0)
    monkeypatch.setattr(workloads, "mi_eve_optimal", lambda epsilon: 0.0)


@pytest.mark.parametrize(
    "workload, ops, wrong",
    [
        ("cli-cold", 1, _wrong_threshold),
        ("closed-form", 4, _wrong_threshold),
        ("closed-form", 4, _wrong_information),
        ("oracle", 1, _wrong_information),
        ("search", 1, _wrong_information),
    ],
)
def test_wrong_reference_makes_ops_fail(monkeypatch, workload, ops, wrong):
    wl = workloads.WORKLOADS[workload](3)
    wl.setup()
    probe = run.HostProbe()
    right = run.Tally()
    run.measure(wl, 0, right, probe, min_ops=ops)
    assert right.failed == 0

    wrong(monkeypatch)
    tally = run.Tally()
    run.measure(wl, 0, tally, probe, min_ops=ops)
    assert tally.failed / tally.attempted > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_has_ten_samples_above():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and pct == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


class _Sleep:
    name, block = "sleep", 1

    def input(self, i):
        return 0.02

    def run(self, x, tracer=None):
        time.sleep(x)

    def check(self, x, out):
        return []


class _SlowHost:
    def slowdown(self, op_s=0.0):
        return 2.0


def test_times_are_divided_by_the_host_slowdown():
    latencies, slowdowns = run.measure(_Sleep(), 0, run.Tally(), _SlowHost(), min_ops=3)
    assert slowdowns == [2.0] * 4
    assert len(latencies) == 3 and all(0.01 <= t < 0.015 for t in latencies)
