"""Write the golden CLI outputs that tests/test_golden.py compares against.

Runs a fixed matrix of `cws552` commands through `cli.main` and records, for
each command, its stdout, stderr, exit code and every file it writes.
`tests/golden/SHA256SUMS` holds a sha256 of each of these outputs;
`tests/golden/platform.json` records where they were made.  The small
outputs (every stdout, stderr and exit code, and the summary and fits JSON)
are also kept verbatim under `tests/golden/`, so that a mismatch shows a
readable diff.  This script is the only writer of those files:

    PYTHONPATH=src python tests/make_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

from cws552 import cli
from cws552.nmr_noise import NmrSystem, NoiseModel

GOLDEN = Path(__file__).resolve().parent / "golden"
# Written in place of the scratch directory, so stdout does not depend on it.
OUT = "$OUT"

NOISE_FILES = {
    "default": NoiseModel.default().to_json_dict(),
    "t1": {
        **NoiseModel.default().to_json_dict(),
        "t1": [5.0, 8.0, 7.0, 6.0, 9.0],
        "amplitude_damping": True,
        "depolarizing": 0.1,
        "coherence_scale": 0.9,
    },
}


def commands(work: Path) -> dict[str, list[str]]:
    """Command name -> argv, with every path inside `work`."""
    code_file = str(work / "export_code" / "code.json")
    matrix = {
        "verify": ["verify"],
        "verify_json": ["verify", "--json"],
        "export_code": ["export-code", "--out", code_file],
        # Reads the file export_code wrote, so the order of the matrix matters.
        "verify_code": ["verify", "--code", code_file],
        "verify_code_json": ["verify", "--code", code_file, "--json"],
    }
    for setting in "ABC":
        for noise in ("none", *NOISE_FILES):
            noise_args = [] if noise == "none" else ["--noise", str(work / "inputs" / f"{noise}.json")]
            name = f"sweep_{setting}_{noise}"
            matrix[name] = ["sweep", "--setting", setting, "--grid", "21", *noise_args, "--out", str(work / name)]
    matrix["spectrum"] = [
        "spectrum", "--system", str(work / "inputs" / "system.json"), "--state", "qecc:Y:3",
        "--observe", "4", "--t-max", "2", "--dt", "0.001", "--out", str(work / "spectrum" / "spectrum.csv"),
    ]
    return matrix


def _write_inputs(work: Path) -> None:
    inputs = work / "inputs"
    inputs.mkdir()
    (inputs / "system.json").write_text(json.dumps(NmrSystem.placeholder_five_spin().to_json_dict()))
    for name, doc in NOISE_FILES.items():
        (inputs / f"{name}.json").write_text(json.dumps(doc))


def run_matrix(work: Path) -> dict[str, bytes]:
    """Run every command in `work`; output name -> bytes.

    Names are `<command>/stdout`, `<command>/stderr`, `<command>/exit_code`
    and `<command>/<file>` for each file the command writes.
    """
    _write_inputs(work)
    outputs = {}
    for name, argv in commands(work).items():
        (work / name).mkdir(exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        outputs[f"{name}/stdout"] = stdout.getvalue().replace(str(work), OUT).encode()
        outputs[f"{name}/stderr"] = stderr.getvalue().replace(str(work), OUT).encode()
        outputs[f"{name}/exit_code"] = f"{code}\n".encode()
        for path in sorted((work / name).iterdir()):
            outputs[f"{name}/{path.name}"] = path.read_bytes()
    return outputs


def is_small(name: str) -> bool:
    """Outputs kept verbatim: the streams, the exit codes and the JSON summaries."""
    return name.rsplit("/", 1)[1] in ("stdout", "stderr", "exit_code") or name.endswith(
        ("_summary.json", "_fits.json")
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def platform_key() -> dict[str, str]:
    """What exact hashes depend on: numpy, the platform, and the product
    kernels the linked BLAS picks on this CPU (a fixed 32x32 complex product)."""
    a = np.exp(0.37j * np.arange(32 * 32, dtype=float)).reshape(32, 32)
    probe = a @ a.conj().T @ a
    return {
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
        "blas_probe": sha256(np.ascontiguousarray(probe).tobytes()),
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_matrix(Path(tmp))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    (GOLDEN / "platform.json").write_text(json.dumps(platform_key(), indent=2, sort_keys=True) + "\n")
    (GOLDEN / "SHA256SUMS").write_text("".join(f"{sha256(data)}  {name}\n" for name, data in outputs.items()))
    for name, data in outputs.items():
        if is_small(name):
            path = GOLDEN / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    print(f"wrote {len(outputs)} hashes and {sum(map(is_small, outputs))} verbatim files to {GOLDEN}")


if __name__ == "__main__":
    main()
