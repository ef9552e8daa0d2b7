"""The package's names: every one is listed and importable, and the numeric
modules, which import numpy, load only when one of their names is used."""

import subprocess
import sys

import bb84eve

# Every public name of ``bb84eve`` before the numeric modules became lazy.
NAMES = (
    "AncillaEnsemble", "CURVES", "EntanglementNumbers", "FamilyPoint", "OUTCOMES",
    "OptimizeResult", "OptimizerConfig", "Povm", "SearchReport", "Spectrum",
    "ThresholdResult", "accessible_info", "analysis", "analytic_povm", "bell_basis",
    "bell_diagonal_state", "bell_weights", "binary_entropy", "canonical_optimal_povm",
    "concurrence", "conditioned_ancilla", "conditioned_ancilla_from_state",
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
