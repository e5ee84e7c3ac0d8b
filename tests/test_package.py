"""The package's public surface: exactly these names, each one resolvable, and
the README's library quick start, which runs on them."""
from pathlib import Path

import cws552

PUBLIC = [
    "CodeSpec",
    "ErrorSpec",
    "GateOp",
    "MixedState",
    "NmrSystem",
    "NoiseModel",
    "Observables",
    "PureState",
    "SYNDROME_MAP",
    "SweepResult",
    "apply_gate",
    "build_code",
    "code_from_json_dict",
    "code_to_json_dict",
    "decode",
    "encode",
    "error_unitary",
    "fit_constant",
    "fit_line",
    "fit_scale",
    "partial_trace",
    "pauli_expand",
    "run_point",
    "run_setting_a",
    "run_setting_b",
    "run_setting_c",
    "simulate_spectrum",
    "verify_distance",
    "verify_erasure_correctability",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 29
    assert sorted(cws552.__all__) == PUBLIC


def test_every_public_name_resolves_and_star_import_binds_exactly_them():
    assert all(hasattr(cws552, name) for name in PUBLIC)
    namespace = {}
    exec("from cws552 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_the_readme_library_quick_start_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    i0, i1 = map(float, lines[0].split())
    assert abs(i0 - 0.75) < 1e-12 and abs(i1 - 0.25) < 1e-12
