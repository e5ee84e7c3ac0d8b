"""Command line interface: verify, sweep, spectrum, export-code.

Each subcommand's options are declared once, in `_COMMANDS`, which drives both
the argparse flags and the keys of the JSON config file (--config); explicit
flags win over file values.  A command that fails writes nothing, and all
outputs are deterministic for a fixed configuration.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from . import code552, experiment, nmr_noise
from .code552 import (
    build_code,
    code_from_json_dict,
    codeword_orthonormality_deviation,
    verify_distance,
    verify_erasure_correctability,
)
from .error_model import ErrorSpec
from .statevec import MixedState, PureState

ORTHO_TOL = 1e-12
ACTION_TOL = 1e-10

_REQUIRED = object()  # the default of an option that the flag or the config file must give


class Option(NamedTuple):
    """One subcommand option: its flag is --name (dashes for underscores) and
    its config key is name.  `help` may show the default through `{}`."""

    kind: type
    default: object
    help: str | None = None
    choices: tuple | None = None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read_json(path: str):
    """The JSON document at `path`; every JSON input is read here."""
    with open(path) as fh:
        return json.load(fh)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    """A float as strict JSON: json's spelling of a finite float, its repr,
    and null for NaN, Infinity or -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else "null"


@lru_cache(maxsize=32)
def _array_frame(shape: tuple[int, ...], level: int) -> tuple[tuple[str | None, ...], str]:
    """The pieces of a float64 array of `shape`, with no empty axis, whose
    opening bracket sits at indent `level`: the text before each number at
    the even places, None at the odd ones for the numbers, and the text after
    the last number.  The text before each number is fixed by how many
    trailing axes start over there, so it comes from the shape."""
    k, size = len(shape), math.prod(shape)
    ind = ["\n" + "  " * t for t in range(level + k + 1)]
    # Before a number where exactly the last m axes start over: closes[m], a
    # comma, the indent of axis k - 1 - m and opens[m].
    opens = ["".join("[" + ind[level + t + 1] for t in range(k - m, k)) for m in range(k + 1)]
    closes = ["".join(ind[level + t] + "]" for t in range(k - 1, k - 1 - m, -1)) for m in range(k + 1)]
    pieces: list[str | None] = [None] * (2 * size)
    stride = 1
    for m in range(k):
        pieces[:: 2 * stride] = [closes[m] + "," + ind[level + k - m] + opens[m]] * (size // stride)
        stride *= shape[k - 1 - m]
    pieces[0] = opens[k]
    return tuple(pieces), closes[k]


def _array_pieces(arr: np.ndarray, level: int, out: list) -> None:
    """A float64 array with no empty axis as nested lists whose opening
    bracket sits at indent `level`.  Each distinct bit pattern is spelled
    once, so -0.0 and 0.0 stay apart, and the spellings are gathered."""
    frame, close = _array_frame(arr.shape, level)
    bits = arr.ravel().view(np.int64)
    distinct = np.sort(bits)
    distinct = distinct[np.append(distinct[1:] != distinct[:-1], True)]
    spellings = np.array([_float_text(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    pieces = list(frame)
    pieces[1::2] = spellings[np.searchsorted(distinct, bits)].tolist()
    out += pieces
    out.append(close)


def _json_pieces(obj, level: int, out: list) -> None:
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        if obj.size and obj.ndim:
            _array_pieces(obj, level, out)
        else:
            _json_pieces(obj.tolist(), level, out)
    elif isinstance(obj, (list, tuple, dict)):
        if isinstance(obj, dict):
            if not all(isinstance(key, str) for key in obj):
                raise TypeError("keys must be str")
            items, brackets = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())], "{}"
        else:
            items, brackets = [("", v) for v in obj], "[]"
        inner = "\n" + "  " * (level + 1)
        for i, (head, value) in enumerate(items):
            out.append(("," if i else brackets[0]) + inner + head)
            _json_pieces(value, level + 1, out)
        out.append(inner[:-2] + brackets[1] if items else brackets)
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """`doc` as json.dumps(doc, indent=2, sort_keys=True) spells it, byte for
    byte, with each float64 array taken as its nested lists and each
    non-finite float taken as None, so the text is strict JSON; keys must be
    str.  json indents in pure Python, number by number; this renders arrays
    whole."""
    out: list[str] = []
    _json_pieces(doc, 0, out)
    return "".join(out)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(doc) + "\n")


def _resolve(options: dict[str, Option], args, config: dict) -> argparse.Namespace:
    """Each option's value: the flag, else the config value (which must be of
    the option's kind; an int is taken for a float), else the default."""
    code552._check_keys(config, "config", optional=options)
    values = {}
    for name, opt in options.items():
        value = getattr(args, name)
        if value is None and name in config:
            value = config[name]
            accepted = (int, float) if opt.kind is float else opt.kind
            if isinstance(value, bool) != (opt.kind is bool) or not isinstance(value, accepted):
                raise ValueError(f"config key {name!r} must be {opt.kind.__name__}, got {value!r}")
            value = opt.kind(value)
        if value is None:
            value = opt.default
        if value is _REQUIRED:
            raise ValueError(f"{_flag(name)} is required" + (f" ({opt.help})" if opt.help else ""))
        if opt.choices and value not in opt.choices:
            raise ValueError(f"{name} must be {', '.join(opt.choices[:-1])}, or {opt.choices[-1]}")
        values[name] = value
    return argparse.Namespace(**values)


# A code file of huge entries can overflow the checks; each check then fails on
# its non-finite number, which the report states (--json as null), so numpy
# need not warn.
@np.errstate(over="ignore", invalid="ignore")
def cmd_verify(opts) -> int:
    code = build_code() if opts.code is None else code_from_json_dict(_read_json(opts.code))
    report = {
        key: {"deviation": deviation, "passed": deviation <= tol}
        for key, deviation, tol in (
            ("orthonormality", codeword_orthonormality_deviation(code), ORTHO_TOL),
            ("encoder", code552._encoder_deviation(code), ACTION_TOL),
            ("decoders", code552._decoder_deviation(code), ACTION_TOL),
        )
    }
    erasure = verify_erasure_correctability(code)
    report["erasure"] = {
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
    }
    dist = verify_distance(code)
    report["distance"] = {
        "value": dist.distance,
        "passed": (
            dist.distance == code552.DISTANCE and dist.witness is not None and math.isfinite(dist.witness_violation)
        ),
        "witness": [[q, lab] for q, lab in dist.witness] if dist.witness else None,
        "witness_violation": dist.witness_violation,
    }
    report["passed"] = all(part["passed"] for part in report.values())

    if opts.json:
        print(_json_text(report))
    else:
        def line(name, part, detail):
            print(f"{name}: {'PASS' if part['passed'] else 'FAIL'} ({detail})")

        for key, name in (
            ("orthonormality", "codeword orthonormality"),
            ("encoder", "encoder action on logical basis"),
            ("decoders", "decoder branch action"),
        ):
            line(name, report[key], f"max deviation {report[key]['deviation']:.3e}")
        for loc, part in report["erasure"]["locations"].items():
            line(f"erasure correctability at location {loc}", part, f"max violation {part['max_violation']:.3e}")
        dist = report["distance"]
        witness = " ".join(f"{lab}{q}" for q, lab in dist["witness"]) if dist["witness"] else "none"
        line("distance", dist, f"d = {dist['value']}, witness {witness}")
        print(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def cmd_sweep(opts) -> int:
    # Setting A runs no angle grid, but its summary records the grid options.
    grid = experiment.default_grid(opts.grid, opts.theta_max)
    noise = nmr_noise.NoiseModel.from_json_dict(_read_json(opts.noise)) if opts.noise else None
    code = build_code()
    summary = {"setting": opts.setting, "grid": opts.grid, "theta_max": opts.theta_max,
               "noise": noise.to_json_dict() if noise else None}
    if opts.setting == "A":
        table = experiment.run_setting_a(code, noise)
        write_table, kind = experiment.write_setting_a_csv, "summary"
        summary.update(rows=len(table), all_match=all(r.matches for r in table))
    else:
        runner = experiment.run_setting_b if opts.setting == "B" else experiment.run_setting_c
        table = runner(code, grid, noise)
        write_table, kind = experiment.write_sweep_csv, "fits"
        summary.update(experiment.fit_summary(table))

    os.makedirs(opts.out, exist_ok=True)
    csv_path = os.path.join(opts.out, f"setting_{opts.setting}.csv")
    json_path = os.path.join(opts.out, f"setting_{opts.setting}_{kind}.json")
    write_table(table, csv_path)
    _write_json(json_path, summary)
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
        raise ValueError(f"state spec must be {n_spins} chars over 0/1/+/- or qecc:LABEL:LOC, got {spec!r}")
    amps = np.array([1.0 + 0j])
    for ch in spec:
        amps = np.kron(amps, _SINGLE_STATES[ch])
    return PureState(n_spins, amps).density()


# Rows formatted per write: a spectrum at the sample cap is not built as
# one string.
_SPECTRUM_BLOCK_ROWS = 4096


def cmd_spectrum(opts) -> int:
    system = nmr_noise.NmrSystem.from_json_dict(_read_json(opts.system))
    state = _state_from_spec(opts.state, system.n_spins)
    freqs, amps = nmr_noise._spectrum_arrays(state, system, opts.observe, opts.t_max, opts.dt)
    # np.hypot, like abs() on a Python complex, calls libm's hypot; np.abs
    # on complex128 differs from both in the last bit on about a third of rows.
    rows = np.column_stack((freqs, amps.real, amps.imag, np.hypot(amps.real, amps.imag)))
    with open(opts.out, "w", newline="") as fh:
        fh.write("frequency_hz,real,imag,magnitude\n")
        for start in range(0, len(rows), _SPECTRUM_BLOCK_ROWS):
            block = rows[start : start + _SPECTRUM_BLOCK_ROWS]
            fh.write(("%.17g,%.17g,%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist()))
    print(f"wrote {opts.out}")
    return 0


def cmd_export_code(opts) -> int:
    _write_json(opts.out, code552._code_document(build_code()))
    print(f"wrote {opts.out}")
    return 0


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    options: dict[str, Option]


_COMMANDS = {
    "verify": Command(cmd_verify, "check code validity and distance", {
        "json": Option(bool, False, "machine-readable report"),
        "code": Option(str, None, "verify a code exported to JSON instead of rebuilding"),
    }),
    "sweep": Command(cmd_sweep, "run an experiment setting and write CSV/JSON", {
        "setting": Option(str, _REQUIRED, choices=("A", "B", "C")),
        "grid": Option(int, 13, "number of theta points (default {})"),
        "theta_max": Option(float, float(np.pi), "sweep upper limit in radians (default pi)"),
        "noise": Option(str, None, "noise model JSON file"),
        "out": Option(str, _REQUIRED, "output directory"),
    }),
    "spectrum": Command(cmd_spectrum, "simulate an NMR spectrum of a prepared state", {
        "system": Option(str, _REQUIRED, "NMR system JSON file"),
        "observe": Option(int, 1, "spin to observe (1-based)"),
        "state": Option(str, _REQUIRED, "product string over 0/1/+/- or qecc:LABEL:LOC"),
        "t_max": Option(float, 2.0, "acquisition time in seconds (default {})"),
        "dt": Option(float, 0.001, "sample spacing in seconds (default {})"),
        "out": Option(str, _REQUIRED, "output CSV file"),
    }),
    "export-code": Command(cmd_export_code, "write the code spec to JSON", {
        "out": Option(str, _REQUIRED, "output JSON file"),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cws552",
        description="Simulator for the ((5,5,2)) codeword-stabilized code.",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name, opt in spec.options.items():
            help_text = opt.help and opt.help.format(opt.default)
            kind = {"action": "store_true"} if opt.kind is bool else {"type": opt.kind, "choices": opt.choices}
            p.add_argument(_flag(name), dest=name, default=None, help=help_text, **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        config = _read_json(args.config) if args.config is not None else {}
        return command.run(_resolve(command.options, args, config))
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
