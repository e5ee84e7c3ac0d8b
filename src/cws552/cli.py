"""Command line interface: verify, sweep, spectrum, export-code.

Configuration can come from a JSON file (--config) whose keys are the chosen
subcommand's option names; explicit flags win over file values.  All outputs
are deterministic for a fixed configuration.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import code552, experiment, nmr_noise
from .code552 import (
    build_code,
    code_from_json_dict,
    code_to_json_dict,
    codeword_orthonormality_deviation,
    verify_distance,
    verify_erasure_correctability,
)
from .error_model import ErrorSpec
from .statevec import MixedState, PureState

ORTHO_TOL = 1e-12
ACTION_TOL = 1e-10


def _read_json(path: str):
    """The JSON document at `path`; every JSON input is read here."""
    with open(path) as fh:
        return json.load(fh)


def _load_config(path: str | None, keys: set[str]) -> dict:
    """The config file's object; every key must be one of `keys`."""
    if path is None:
        return {}
    doc = _read_json(path)
    code552._check_keys(doc, "config", optional=keys)
    return doc


def _pick(flag_value, config: dict, key: str, default, kind: type = str):
    """Flag beats config file beats built-in default; a config value must be a
    `kind` (an int is taken for a float)."""
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    value = config[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def cmd_verify(args, config: dict) -> int:
    code_path = _pick(args.code, config, "code", None)
    code = build_code() if code_path is None else code_from_json_dict(_read_json(code_path))

    ortho = codeword_orthonormality_deviation(code)
    ortho_ok = ortho <= ORTHO_TOL
    enc_dev = code552._encoder_deviation(code)
    enc_ok = enc_dev <= ACTION_TOL
    dec_dev = code552._decoder_deviation(code)
    dec_ok = dec_dev <= ACTION_TOL
    erasure = verify_erasure_correctability(code)
    dist = verify_distance(code)
    dist_ok = dist.distance == code552.DISTANCE and dist.witness is not None
    passed = ortho_ok and enc_ok and dec_ok and erasure.passed and dist_ok

    if _pick(args.json, config, "json", False, bool):
        report = {
            "passed": passed,
            "orthonormality": {"deviation": ortho, "passed": ortho_ok},
            "encoder": {"deviation": enc_dev, "passed": enc_ok},
            "decoders": {"deviation": dec_dev, "passed": dec_ok},
            "erasure": {
                "passed": erasure.passed,
                "labels": list(erasure.labels),
                "locations": {
                    str(loc.location): {
                        "passed": loc.passed,
                        "max_violation": loc.max_violation,
                        "c_matrix": code552._complex_to_pairs(loc.c_matrix),
                    }
                    for loc in erasure.locations
                },
            },
            "distance": {
                "value": dist.distance,
                "passed": dist_ok,
                "witness": [[q, lab] for q, lab in dist.witness] if dist.witness else None,
                "witness_violation": dist.witness_violation,
            },
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        def line(name, ok, detail):
            print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")

        line("codeword orthonormality", ortho_ok, f"max deviation {ortho:.3e}")
        line("encoder action on logical basis", enc_ok, f"max deviation {enc_dev:.3e}")
        line("decoder branch action", dec_ok, f"max deviation {dec_dev:.3e}")
        for loc in erasure.locations:
            line(
                f"erasure correctability at location {loc.location}",
                loc.passed,
                f"max violation {loc.max_violation:.3e}",
            )
        witness = (
            " ".join(f"{lab}{q}" for q, lab in dist.witness) if dist.witness else "none"
        )
        line("distance", dist_ok, f"d = {dist.distance}, witness {witness}")
        print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_sweep(args, config: dict) -> int:
    setting = _pick(args.setting, config, "setting", None)
    if setting not in ("A", "B", "C"):
        raise ValueError("setting must be A, B, or C")
    grid_n = _pick(args.grid, config, "grid", 13, int)
    theta_max = _pick(args.theta_max, config, "theta_max", float(np.pi), float)
    # Setting A runs no angle grid, but its summary records the grid options.
    grid = experiment.default_grid(grid_n, theta_max)
    noise_path = _pick(args.noise, config, "noise", None)
    out_dir = _pick(args.out, config, "out", None)
    if out_dir is None:
        raise ValueError("an output directory is required (--out)")
    os.makedirs(out_dir, exist_ok=True)

    noise = nmr_noise.NoiseModel.from_json_dict(_read_json(noise_path)) if noise_path else None
    code = build_code()

    meta = {
        "setting": setting,
        "grid": grid_n,
        "theta_max": theta_max,
        "noise": noise.to_json_dict() if noise else None,
    }

    if setting == "A":
        rows = experiment.run_setting_a(code, noise)
        csv_path = os.path.join(out_dir, "setting_A.csv")
        experiment.write_setting_a_csv(rows, csv_path)
        summary = dict(meta)
        summary["rows"] = len(rows)
        summary["all_match"] = all(r.matches for r in rows)
        json_path = os.path.join(out_dir, "setting_A_summary.json")
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {csv_path} and {json_path}")
        return 0

    runner = experiment.run_setting_b if setting == "B" else experiment.run_setting_c
    result = runner(code, grid, noise)
    csv_path = os.path.join(out_dir, f"setting_{setting}.csv")
    experiment.write_sweep_csv(result, csv_path)
    summary = dict(meta)
    summary.update(experiment.fit_summary(result))
    json_path = os.path.join(out_dir, f"setting_{setting}_fits.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}")
    return 0


_SINGLE_STATES = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}


def _state_from_spec(spec: str, n_spins: int) -> MixedState:
    """Build the initial density matrix from a state spec string.

    Either a product string over {0,1,+,-} (one char per spin, spin 1 first)
    or "qecc:LABEL:LOCATION", the decoded output of the five-qubit pipeline
    run on input k=2 with an exact Pauli error.
    """
    if spec.startswith("qecc:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("qecc state spec must look like qecc:X:3")
        label, location = parts[1:]
        if not (location.isascii() and location.isdigit()):
            raise ValueError(f"--state {spec!r}: location {location!r} must be a qubit label in decimal digits")
        if n_spins != 5:
            raise ValueError("qecc state specs need a five-spin system")
        return experiment.final_state(build_code(), experiment.INPUTS[2].register, ErrorSpec.pauli(int(location), label))
    if len(spec) != n_spins or set(spec) - set(_SINGLE_STATES):
        raise ValueError(
            f"state spec must be {n_spins} chars over 0/1/+/- or qecc:LABEL:LOC, got {spec!r}"
        )
    amps = np.array([1.0 + 0j])
    for ch in spec:
        amps = np.kron(amps, _SINGLE_STATES[ch])
    return PureState(n_spins, amps).density()


def cmd_spectrum(args, config: dict) -> int:
    system_path = _pick(args.system, config, "system", None)
    if system_path is None:
        raise ValueError("an NMR system file is required (--system)")
    observe = _pick(args.observe, config, "observe", 1, int)
    state_spec = _pick(args.state, config, "state", None)
    if state_spec is None:
        raise ValueError("a state spec is required (--state)")
    t_max = _pick(args.t_max, config, "t_max", 2.0, float)
    dt = _pick(args.dt, config, "dt", 0.001, float)
    out_path = _pick(args.out, config, "out", None)
    if out_path is None:
        raise ValueError("an output file is required (--out)")

    system = nmr_noise.NmrSystem.from_json_dict(_read_json(system_path))
    state = _state_from_spec(state_spec, system.n_spins)
    spectrum = nmr_noise.simulate_spectrum(state, system, observe, t_max, dt)
    with open(out_path, "w", newline="") as fh:
        fh.write("frequency_hz,real,imag,magnitude\n")
        for freq, amp in spectrum:
            fh.write(
                f"{freq:.17g},{amp.real:.17g},{amp.imag:.17g},{abs(amp):.17g}\n"
            )
    print(f"wrote {out_path}")
    return 0


def cmd_export_code(args, config: dict) -> int:
    out_path = _pick(args.out, config, "out", None)
    if out_path is None:
        raise ValueError("an output file is required (--out)")
    code = build_code()
    with open(out_path, "w") as fh:
        json.dump(code_to_json_dict(code), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cws552",
        description="Simulator for the ((5,5,2)) codeword-stabilized code.",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check code validity and distance")
    p_verify.add_argument("--json", action="store_true", default=None, help="machine-readable report")
    p_verify.add_argument("--code", help="verify a code exported to JSON instead of rebuilding")

    p_sweep = sub.add_parser("sweep", help="run an experiment setting and write CSV/JSON")
    p_sweep.add_argument("--setting", choices=("A", "B", "C"))
    p_sweep.add_argument("--grid", type=int, help="number of theta points (default 13)")
    p_sweep.add_argument("--theta-max", dest="theta_max", type=float, help="sweep upper limit in radians (default pi)")
    p_sweep.add_argument("--noise", help="noise model JSON file")
    p_sweep.add_argument("--out", help="output directory")

    p_spec = sub.add_parser("spectrum", help="simulate an NMR spectrum of a prepared state")
    p_spec.add_argument("--system", help="NMR system JSON file")
    p_spec.add_argument("--observe", type=int, help="spin to observe (1-based)")
    p_spec.add_argument("--state", help="product string over 0/1/+/- or qecc:LABEL:LOC")
    p_spec.add_argument("--t-max", dest="t_max", type=float, help="acquisition time in seconds (default 2.0)")
    p_spec.add_argument("--dt", type=float, help="sample spacing in seconds (default 0.001)")
    p_spec.add_argument("--out", help="output CSV file")

    p_export = sub.add_parser("export-code", help="write the code spec to JSON")
    p_export.add_argument("--out", help="output JSON file")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "export-code": cmd_export_code,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config, set(vars(args)) - {"config", "command"})
        return _COMMANDS[args.command](args, config)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
