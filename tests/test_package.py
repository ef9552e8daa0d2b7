"""The package's names: every one is listed and importable, and the numeric
modules, which import numpy, load only when one of their names is used.
And the source rules that a line-by-line grep checks."""

import pathlib
import re
import subprocess
import sys

import bb84eve

# Every public name of ``bb84eve`` before the numeric modules became lazy.
NAMES = (
    "AncillaEnsemble", "CURVES", "EntanglementNumbers", "FamilyPoint", "OUTCOMES",
    "OptimizeResult", "OptimizerConfig", "Povm", "SearchReport", "Spectrum",
    "ThresholdResult", "accessible_info", "analysis", "analytic_povm", "bell_basis",
    "bell_diagonal_state", "bell_weights", "binary_entropy", "concurrence",
    "conditioned_ancilla", "conditioned_ancilla_from_state",
    "conjugate_povm", "convex_combine", "correlation_info", "eig_hermitian",
    "entanglement_numbers", "errors", "eve_curve", "find_threshold", "general_state",
    "hsw_bound", "hsw_optimal", "infotheory", "joint_table", "key_rate", "linalg",
    "max_entropy_c22", "mi_alice_bob", "mi_eve_analytic", "mi_eve_optimal",
    "mutual_information", "nonsymmetric_search", "optimal_c22", "optimize_povm",
    "partial_trace", "pauli_coefficients", "povm", "purification", "scan_curves",
    "simulate_raw_data", "state_from_pauli", "states", "unbiased_noise_state",
    "validate_povm", "von_neumann_entropy",
)


def test_every_name_is_listed_importable_and_starred():
    starred = {}
    exec("from bb84eve import *", starred)
    listed, shown = set(bb84eve.__all__), set(dir(bb84eve))
    for name in NAMES:
        assert name in listed and name in shown, name
        assert starred[name] is getattr(bb84eve, name), name
    assert len(bb84eve.__all__) == len(listed)
    assert listed <= set(starred)


def test_import_loads_numpy_only_for_a_numeric_name():
    probe = (
        "import sys, bb84eve; "
        "before = 'numpy' in sys.modules; "
        "bb84eve.find_threshold('minconc'); "
        "closed_form = 'numpy' in sys.modules; "
        "bb84eve.optimize_povm; "
        "numeric = 'numpy' in sys.modules; "
        "bb84eve.analysis.max_entropy_c22; "  # a submodule attribute, as before
        "print(before, closed_form, numeric)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


# Each rule: the files it reads, the pattern that flags a line, the pattern
# that excuses one, matched against the line as grep -n prints it, and the fix.
SOURCE_RULES = (
    ("*.py", r"outside \[", r"^src/bb84eve/config\.py:", "call config.require_in"),
    ("*.py", r"Integral", r"^src/bb84eve/config\.py:", "call config.require_int"),
    ("__init__.py", r"^\s*from \.", None, "bind the names through _NAMES, not an import"),
    # an unbounded cache grows with every distinct input for the life of the
    # process; a one-entry lru_cache holds only its last call's result
    (
        "*.py",
        r"functools\.cache\b|from functools import .*\bcache\b|lru_cache\((maxsize *= *)?None",
        None,
        "give functools.lru_cache a maxsize",
    ),
    # a literal such as 1e-12 or 1e-4 is a tolerance no constant names, in
    # code or in a docstring that should cite the constant
    ("*.py", r"[0-9]e-[0-9]", r":[0-9]+:[A-Z_]+ = [0-9.]+e-[0-9]+$", "name the tolerance once"),
)


def test_source_follows_every_rule():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "bb84eve"
    broken = []
    for files, flag, excuse, fix in SOURCE_RULES:
        for path in sorted(src.glob(files)):
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                hit = f"src/bb84eve/{path.name}:{n}:{line}"
                if re.search(flag, line) and not (excuse and re.search(excuse, hit)):
                    broken.append(f"{hit}  ({fix})")
    assert not broken, "\n".join(broken)
