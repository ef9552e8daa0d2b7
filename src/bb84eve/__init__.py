"""Eavesdropping analysis of the partially tomographic BB84 protocol.

Builds the eavesdropper's optimal states and measurements, computes the
mutual-information curves and security thresholds, and cross-checks the
closed forms with brute-force numerical optimizers.

Every public name is bound on first access through one table (PEP 562),
so ``import bb84eve`` alone loads no submodule and no numpy.
"""

import importlib

_NAMES = {
    "curves": (
        "CURVES",
        "ThresholdResult",
        "binary_entropy",
        "correlation_info",
        "eve_curve",
        "find_threshold",
        "hsw_optimal",
        "key_rate",
        "mi_alice_bob",
        "mi_eve_analytic",
        "mi_eve_optimal",
        "optimal_c22",
        "scan_curves",
    ),
    "analysis": ("SearchReport", "max_entropy_c22", "nonsymmetric_search"),
    "infotheory": (
        "EntanglementNumbers",
        "concurrence",
        "entanglement_numbers",
        "hsw_bound",
        "mutual_information",
    ),
    "linalg": (
        "bell_basis",
        "eig_hermitian",
        "partial_trace",
        "von_neumann_entropy",
    ),
    "povm": (
        "OptimizeResult",
        "OptimizerConfig",
        "Povm",
        "accessible_info",
        "analytic_povm",
        "conjugate_povm",
        "convex_combine",
        "optimize_povm",
        "validate_povm",
    ),
    "states": (
        "AncillaEnsemble",
        "FamilyPoint",
        "OUTCOMES",
        "bell_diagonal_state",
        "bell_weights",
        "conditioned_ancilla",
        "conditioned_ancilla_from_state",
        "general_state",
        "joint_table",
        "pauli_coefficients",
        "purification",
        "simulate_raw_data",
        "state_from_pauli",
        "unbiased_noise_state",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = ("config", "errors", *_NAMES)

__all__ = [*_MODULE_OF, *_SUBMODULES]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
