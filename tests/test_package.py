"""The package's public surface: exactly these names, each one resolvable."""
import cws552

PUBLIC = [
    "CodeSpec",
    "ErrorSpec",
    "GateOp",
    "MixedState",
    "NmrSystem",
    "NoiseModel",
    "Observables",
    "PauliExpansion",
    "PureState",
    "SYNDROME_MAP",
    "SweepResult",
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


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 34
    assert sorted(cws552.__all__) == PUBLIC


def test_every_public_name_resolves_and_star_import_binds_exactly_them():
    assert all(hasattr(cws552, name) for name in PUBLIC)
    namespace = {}
    exec("from cws552 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
