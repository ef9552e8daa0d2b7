"""Eavesdropping analysis of the partially tomographic BB84 protocol.

Builds the eavesdropper's optimal states and measurements, computes the
mutual-information curves and security thresholds, and cross-checks the
closed forms with brute-force numerical optimizers.
"""

from .analysis import (
    CURVES,
    SearchReport,
    ThresholdResult,
    eve_curve,
    find_threshold,
    key_rate,
    max_entropy_c22,
    nonsymmetric_search,
    scan_curves,
)
from .infotheory import (
    EntanglementNumbers,
    binary_entropy,
    concurrence,
    correlation_info,
    entanglement_numbers,
    hsw_bound,
    hsw_optimal,
    mi_alice_bob,
    mi_eve_analytic,
    mi_eve_optimal,
    mutual_information,
    optimal_c22,
)
from .linalg import (
    Spectrum,
    bell_basis,
    eig_hermitian,
    partial_trace,
    von_neumann_entropy,
)
from .povm import (
    OptimizerConfig,
    OptimizeResult,
    Povm,
    accessible_info,
    analytic_povm,
    canonical_optimal_povm,
    conjugate_povm,
    convex_combine,
    optimize_povm,
    validate_povm,
)
from .states import (
    AncillaEnsemble,
    FamilyPoint,
    OUTCOMES,
    bell_diagonal_state,
    bell_weights,
    conditioned_ancilla,
    conditioned_ancilla_from_state,
    general_state,
    joint_table,
    pauli_coefficients,
    purification,
    simulate_raw_data,
    state_from_pauli,
    unbiased_noise_state,
)

__version__ = "0.1.0"
