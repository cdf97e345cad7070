"""qeclab: a desk-scale quantum error-correction laboratory.

Dense state-vector simulation of the Shor 9-qubit and Steane 7-qubit
codes, an error catalog covering discrete flips, continuous unitary
errors, amplitude decay, and correlated placement statistics, and a
seeded Monte Carlo harness for measuring the residual error that
survives syndrome-based correction.
"""

from .codes import CODE_NAMES, CodeSpec, LogicalQubit, get_code
from .errors import (
    ALL_QUBITS,
    ERROR_KINDS,
    DecayModel,
    ErrorModel,
    GeneralErrorParams,
    Placement,
    RotationErrorParams,
    apply_error_model,
    bose_einstein_pattern_prob,
    build_general_unitary,
    decoherence_prob,
    fermi_pattern_prob,
    pauli_unitary,
    rotation_unitary,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    SweepRow,
    fit_power_law,
    model_for,
    proliferation_experiment,
    sensitivity_experiment,
    sweep_theta,
)
from .statevec import (
    MAX_QUBITS,
    StateVector,
    apply_pauli_string,
    fidelity,
    support_size,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_QUBITS",
    "CODE_NAMES",
    "CodeSpec",
    "DecayModel",
    "ERROR_KINDS",
    "ErrorModel",
    "ExperimentConfig",
    "GeneralErrorParams",
    "LogicalQubit",
    "MAX_QUBITS",
    "Placement",
    "RotationErrorParams",
    "StateVector",
    "SweepResult",
    "SweepRow",
    "apply_error_model",
    "apply_pauli_string",
    "bose_einstein_pattern_prob",
    "build_general_unitary",
    "decoherence_prob",
    "fermi_pattern_prob",
    "fidelity",
    "fit_power_law",
    "get_code",
    "model_for",
    "pauli_unitary",
    "proliferation_experiment",
    "rotation_unitary",
    "sensitivity_experiment",
    "support_size",
    "sweep_theta",
]
