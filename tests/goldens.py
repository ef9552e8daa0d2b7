"""The CLI's golden outputs, one row per file in ``tests/golden/``, and the
one rule that compares an output with its golden: the same lines, byte for
byte, except the value of a bounded key, which must be a number that meets
its rule.  A roundoff value (a povm-check residual or gap) lies in
[0, 1e-12]; an optimizer value lies within 1e-9 of the golden's.

As a script, it runs every row through the given CLI command, prints each
bounded key's gap (its value, for a roundoff key) and exits 1 on any
difference or failed command:

    python tests/goldens.py bb84eve
    PYTHONPATH=src python tests/goldens.py python -m bb84eve.cli
"""

import math
import re
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# a bounded key's rule, (what lies in [0, limit], limit): the value itself,
# or its gap from the golden's value.  These digits differ across BLAS builds;
# a tighter optimizer bound waits for CI logs of every platform's gaps.
ROUNDOFF = ("value", 1e-12)
OPTIMIZER = ("gap", 1e-9)

POVM_CHECK = "povm-check --epsilon 0.3 --c22 -0.4"
ROUNDOFF_CHECKS = dict.fromkeys(("completeness_residual", "formula_gap", "conjugate_gap",
                                 "equal_weight_gap", "equal_weight_max_imag"), ROUNDOFF)

# golden file: (the CLI argv that prints it, {bounded key: rule})
GOLDENS = {
    "thresholds_all.json": ("thresholds --all", {}),
    "scan_0_0.5_0.005.csv": ("scan --start 0 --stop 0.5 --step 0.005", {}),
    "table_0.2.json": ("table --epsilon 0.2", {}),
    "povm_check_0.3_-0.4.json": (POVM_CHECK, ROUNDOFF_CHECKS),
    "povm_check_0.3_-0.4_optimize_20_1.json": (
        f"{POVM_CHECK} --optimize --restarts 20 --seed 1",
        {**ROUNDOFF_CHECKS, "optimizer_best": OPTIMIZER, "optimizer_gap": OPTIMIZER},
    ),
    "search_nonsym_0.25_20_42.json": (
        "search-nonsym --epsilon 0.25 --trials 20 --seed 42",
        {"best_value": OPTIMIZER, "exceeds_symmetric_by": OPTIMIZER},
    ),
}

# a JSON number that ends a '"key": value' line, before any comma
NUMBER = re.compile(r'(?<=": )-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?=,?$)')


def value_lines(lines: list[str], key: str) -> list[int]:
    """The indices of the lines that hold ``key``'s value: the line after
    ``"check": "<key>",`` (povm-check), or a line ``"<key>": <value>``."""
    check = f'"check": "{key}",'
    return [i + (line.strip() == check) for i, line in enumerate(lines)
            if line.strip() == check or line.lstrip().startswith(f'"{key}": ')]


def compare(name: str, output: str) -> tuple[list[str], list[str]]:
    """``output`` against golden ``name`` by the one rule, as (differences,
    readings): a line per difference, none when they match, and a line per
    bounded key with what its rule bounds."""
    got = output.splitlines(keepends=True)
    want = (GOLDEN / name).read_text().splitlines(keepends=True)
    if len(got) != len(want):
        return [f"{name}: {len(got)} lines, golden {len(want)}"], []
    bounded = {i: (key, rule) for key, rule in GOLDENS[name][1].items()
               for i in value_lines(want, key)}
    differences, readings = [], []
    for i, (line, golden) in enumerate(zip(got, want)):
        same = line == golden
        if i in bounded:
            key, (what, limit) = bounded[i]
            value = float(number[0]) if (number := NUMBER.search(line)) else math.nan
            reading = value if what == "value" else abs(value - float(NUMBER.search(golden)[0]))
            readings.append(f"{name} {key}: {what} {reading:.3e}, bound {limit:g}")
            same = NUMBER.sub("", line) == NUMBER.sub("", golden) and 0 <= reading <= limit
        if not same:
            differences.append(f"{name} line {i + 1}: {line!r}, golden {golden!r}")
    return differences, readings


def main(cli: list[str]) -> int:
    report, failed = [], False
    for name, (argv, _) in GOLDENS.items():
        proc = subprocess.run([*cli, *argv.split()], check=True, stdout=subprocess.PIPE, text=True)
        differences, readings = compare(name, proc.stdout)
        report += readings + differences
        failed = failed or bool(differences)
    print("\n".join(report))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if sys.argv[1:] else __doc__)
