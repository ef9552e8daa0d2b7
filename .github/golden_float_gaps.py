"""Print how far this platform's optimizer floats are from their goldens.

Runs the two optimizer commands whose golden files ``tests/test_cli.py``
bounds at 1e-9 and prints |value - golden| for each bounded float, both
sides read at the 12 significant digits the CLI prints.  A report, not a
gate: it exits 0 whatever the gaps, and fails only if a command does.

The arguments are the command that runs the CLI:

    python .github/golden_float_gaps.py bb84eve
    PYTHONPATH=src python .github/golden_float_gaps.py python -m bb84eve.cli
"""

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
RUNS = (
    (
        "povm-check --epsilon 0.3 --c22 -0.4 --optimize --restarts 20 --seed 1",
        "povm_check_0.3_-0.4_optimize_20_1.json",
        ("optimizer_best", "optimizer_gap"),
    ),
    (
        "search-nonsym --epsilon 0.25 --trials 20 --seed 42",
        "search_nonsym_0.25_20_42.json",
        ("best_value", "exceeds_symmetric_by"),
    ),
)


def floats(document: dict) -> dict:
    """A povm-check document's checks by name, or search-nonsym's one row."""
    if document["command"] == "povm-check":
        return {row["check"]: row["value"] for row in document["rows"]}
    (row,) = document["rows"]
    return row


def main(cli: list[str]) -> None:
    for argv, golden, keys in RUNS:
        out = subprocess.run([*cli, *argv.split()], check=True, capture_output=True, text=True)
        got = floats(json.loads(out.stdout))
        want = floats(json.loads((GOLDEN / golden).read_text()))
        for key in keys:
            gap = abs(got[key] - want[key])
            print(f"{argv.split()[0]} {key}: got {got[key]!r}, golden {want[key]!r}, gap {gap:.3e}")


if __name__ == "__main__":
    main(sys.argv[1:])
