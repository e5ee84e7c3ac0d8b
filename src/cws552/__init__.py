"""Simulator for the ((5,5,2)) codeword-stabilized quantum code.

Encoding, single-qubit errors at a known location, decoding with syndrome
readout, amplitude observables with scalar fits, and an NMR-style dephasing
noise model with spectrum simulation.
"""
from .statevec import (
    GateOp,
    MixedState,
    PureState,
    apply_gate,
    apply_gate_mixed,
    gate_matrix,
    partial_trace,
)
from .code552 import (
    CodeSpec,
    SYNDROME_MAP,
    build_code,
    code_from_json_dict,
    code_to_json_dict,
    decode,
    encode,
    verify_distance,
    verify_erasure_correctability,
)
from .error_model import ErrorSpec, PauliExpansion, error_unitary, pauli_expand
from .nmr_noise import (
    NmrSystem,
    NoiseModel,
    apply_dephasing,
    run_noisy_qecc,
    simulate_spectrum,
)
from .experiment import (
    Observables,
    SweepResult,
    fit_constant,
    fit_line,
    fit_scale,
    run_point,
    run_setting_a,
    run_setting_b,
    run_setting_c,
)

__version__ = "0.1.0"

__all__ = [
    "CodeSpec",
    "ErrorSpec",
    "GateOp",
    "MixedState",
    "NmrSystem",
    "NoiseModel",
    "Observables",
    "PauliExpansion",
    "PureState",
    "SweepResult",
    "SYNDROME_MAP",
    "apply_dephasing",
    "apply_gate",
    "apply_gate_mixed",
    "build_code",
    "code_from_json_dict",
    "code_to_json_dict",
    "decode",
    "encode",
    "error_unitary",
    "fit_constant",
    "fit_line",
    "fit_scale",
    "gate_matrix",
    "partial_trace",
    "pauli_expand",
    "run_noisy_qecc",
    "run_point",
    "run_setting_a",
    "run_setting_b",
    "run_setting_c",
    "simulate_spectrum",
    "verify_distance",
    "verify_erasure_correctability",
]
