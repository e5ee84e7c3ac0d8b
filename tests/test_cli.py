"""End-to-end tests for the command line interface."""
import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cws552.cli import _SPECTRUM_BLOCK_ROWS, _state_from_spec, main
from cws552.code552 import build_code, code_to_json_dict
from cws552.experiment import GRID_SIZE_CAP
from cws552.nmr_noise import NmrSystem, NoiseModel, simulate_spectrum


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "FAIL" not in out


def test_verify_json_report(capsys):
    assert main(["verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["distance"]["value"] == 2
    assert report["distance"]["witness"] is not None
    locations = report["erasure"]["locations"]
    assert sorted(locations) == ["1", "2", "3", "4", "5"]
    c = locations["3"]["c_matrix"]
    assert len(c) == 4 and len(c[0]) == 4 and len(c[0][0]) == 2
    assert abs(c[0][0][0] - 1.0) < 1e-12  # diagonal of the identity


def test_export_then_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["export-code", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--code", str(path)]) == 0


def test_verify_rejects_corrupted_export(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["export-code", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["codewords"][0][1] = [0.7, 0.0]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--code", str(path)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_fails_a_code_whose_only_defect_is_decoder_5(tmp_path, capsys):
    """Swapping two columns keeps decoder 5 unitary but misroutes location 5."""
    doc = code_to_json_dict(build_code())
    doc["decoders"]["5"] = [[row[1], row[0], *row[2:]] for row in doc["decoders"]["5"]]
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--code", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "FAIL" in line] == [
        next(line for line in lines if line.startswith("decoder branch action: FAIL")),
        "overall: FAIL",
    ]
    assert main(["verify", "--json", "--code", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["decoders"]["passed"] is False
    assert all(report[key]["passed"] for key in ("orthonormality", "encoder", "erasure", "distance"))


def test_sweep_setting_b_outputs(tmp_path, capsys):
    out = tmp_path / "b"
    assert main(["sweep", "--setting", "B", "--grid", "5", "--out", str(out)]) == 0
    with open(out / "setting_B.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 5 * 3 * 5
    assert rows[0][0] == "setting" and rows[1][0] == "B"
    fits = json.loads((out / "setting_B_fits.json").read_text())
    assert fits["noise"] is None
    for loc in ("1", "2", "3", "4", "5"):
        entry = fits["locations"][loc]
        assert abs(entry["alpha0"] - 1.0) < 1e-8
        assert abs(entry["a"] - 1.0) < 1e-8
        assert abs(entry["b"]) < 1e-8


def test_sweep_outputs_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    args = ["sweep", "--setting", "B", "--grid", "4"]
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert (d1 / "setting_B.csv").read_bytes() == (d2 / "setting_B.csv").read_bytes()
    assert (d1 / "setting_B_fits.json").read_bytes() == (d2 / "setting_B_fits.json").read_bytes()


def test_sweep_setting_a(tmp_path, capsys):
    out = tmp_path / "a"
    assert main(["sweep", "--setting", "A", "--out", str(out)]) == 0
    with open(out / "setting_A.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 21
    summary = json.loads((out / "setting_A_summary.json").read_text())
    assert summary["all_match"] is True
    assert summary["rows"] == 20


def test_sweep_setting_c_with_noise_file(tmp_path, capsys):
    noise_path = tmp_path / "noise.json"
    noise_path.write_text(json.dumps(NoiseModel.default().to_json_dict()))
    out = tmp_path / "c"
    assert (
        main(["sweep", "--setting", "C", "--grid", "5", "--noise", str(noise_path), "--out", str(out)])
        == 0
    )
    fits = json.loads((out / "setting_C_fits.json").read_text())
    assert fits["noise"] is not None
    for loc in ("1", "2", "3", "4", "5"):
        entry = fits["locations"][loc]
        assert 0.0 < entry["ibar"] < 1.0
        assert 0.9 < entry["a"] < 1.1


def test_spectrum_command(tmp_path, capsys):
    system_path = tmp_path / "system.json"
    system_path.write_text(
        json.dumps(
            {
                "nu": [30.0, -20.0],
                "J": [[0.0, 7.0], [7.0, 0.0]],
                "T1": [5.0, 5.0],
                "T2": [1.0, 1.0],
                "T2star": [2.0, 2.0],
            }
        )
    )
    out = tmp_path / "spec.csv"
    assert (
        main(
            [
                "spectrum",
                "--system", str(system_path),
                "--observe", "1",
                "--state", "+0",
                "--t-max", "4.0",
                "--dt", "0.005",
                "--out", str(out),
            ]
        )
        == 0
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    best = max(rows, key=lambda r: float(r["magnitude"]))
    assert abs(float(best["frequency_hz"]) - 33.5) <= 0.25 + 1e-9


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_a = tmp_path / "from_config"
    cfg.write_text(json.dumps({"setting": "A", "out": str(out_a), "grid": 4}))
    assert main(["--config", str(cfg), "sweep"]) == 0
    assert (out_a / "setting_A.csv").exists()

    out_b = tmp_path / "flag_override"
    assert main(["--config", str(cfg), "sweep", "--setting", "B", "--out", str(out_b)]) == 0
    assert (out_b / "setting_B.csv").exists()
    with open(out_b / "setting_B.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 5 * 3 * 4  # grid=4 came from the config


@pytest.mark.parametrize(
    "doc",
    [
        {"grdi": 3, "setting": "B"},  # misspelt grid
        {"seed": 7, "setting": "A"},  # the pipeline takes no seed
        {"system": "sys.json", "setting": "A"},  # a spectrum option
    ],
)
def test_config_rejects_keys_the_command_does_not_take(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps(dict(doc, out=str(out))))
    assert main(["--config", str(cfg), "sweep"]) == 1
    err = capsys.readouterr().err
    bad = sorted(set(doc) - {"setting"})
    assert f"unknown config keys {bad}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("sweep", {"setting": "B", "grid": [3]}),
        ("sweep", {"setting": "B", "grid": "3"}),
        ("sweep", {"setting": "B", "grid": True}),
        ("sweep", {"setting": "B", "grid": 2.5}),
        ("sweep", {"setting": "B", "theta_max": "pi"}),
        ("sweep", {"setting": "B", "noise": ["noise.json"]}),
        ("sweep", {"setting": 2}),
        ("spectrum", {"system": "sys.json", "state": "00", "dt": [0.1]}),
        ("spectrum", {"system": "sys.json", "state": "00", "observe": 1.0}),
        ("verify", {"json": "yes"}),
        ("verify", {"code": 5}),
        ("sweep", {"setting": "B", "out": 7}),
        ("spectrum", {"system": ["sys.json"], "state": "00"}),
        ("spectrum", {"system": "sys.json", "state": 0}),
        ("spectrum", {"system": "sys.json", "state": "00", "t_max": "2.0"}),
        ("spectrum", {"system": "sys.json", "state": "00", "out": False}),
        ("export-code", {"out": ["code.json"]}),
    ],
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, command, doc):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    if command != "verify":
        doc = {"out": str(out), **doc}
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key ")
    assert "must be" in err
    assert not out.exists()


def test_config_takes_an_int_where_a_float_is_expected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"setting": "B", "grid": 3, "theta_max": 3, "out": str(out)}))
    assert main(["--config", str(cfg), "sweep"]) == 0
    assert json.loads((out / "setting_B_fits.json").read_text())["theta_max"] == 3.0


def test_verify_reads_its_options_from_the_config(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    assert main(["export-code", "--out", str(code_path)]) == 0
    doc = json.loads(code_path.read_text())
    doc["codewords"][0][1] = [0.7, 0.0]
    code_path.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"code": str(code_path), "json": True}))
    capsys.readouterr()
    assert main(["--config", str(cfg), "verify"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_error_paths_return_nonzero(tmp_path, capsys):
    assert main(["sweep", "--setting", "B"]) == 1  # no output directory
    assert "error:" in capsys.readouterr().err

    assert main(["spectrum", "--system", str(tmp_path / "missing.json"), "--state", "00", "--out", str(tmp_path / "x.csv")]) == 1

    system_path = tmp_path / "sys.json"
    system_path.write_text(
        json.dumps({"nu": [10.0], "J": [[0.0]], "T1": [1.0], "T2": [1.0], "T2star": [1.0]})
    )
    assert (
        main(["spectrum", "--system", str(system_path), "--state", "2", "--out", str(tmp_path / "y.csv")])
        == 1
    )
    assert "state spec" in capsys.readouterr().err

    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"setting": "Q", "out": str(tmp_path / "q")}))
    assert main(["--config", str(cfg), "sweep"]) == 1


# The value each required option gets when it is not the one left out;
# paths are relative to the test's tmp_path.
REQUIRED_OPTIONS = {
    "sweep": {"setting": "B", "out": "out"},
    "spectrum": {"system": "sys5.json", "state": "00000", "out": "spec.csv"},
    "export-code": {"out": "code.json"},
}


@pytest.mark.parametrize(
    "command, missing", [(command, name) for command, options in REQUIRED_OPTIONS.items() for name in options]
)
def test_a_missing_required_option_exits_with_an_error_naming_its_flag(tmp_path, capsys, command, missing):
    (tmp_path / "sys5.json").write_text(json.dumps(NmrSystem.placeholder_five_spin().to_json_dict()))
    argv = [command]
    for name, value in REQUIRED_OPTIONS[command].items():
        if name != missing:
            argv += [f"--{name}", str(tmp_path / value) if name in ("system", "out") else value]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{missing} is required") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_an_unknown_setting_stops_in_argparse_as_a_flag_and_exits_1_from_a_config(tmp_path, capsys):
    out = tmp_path / "q"
    with pytest.raises(SystemExit) as stop:
        main(["sweep", "--setting", "Q", "--out", str(out)])
    assert stop.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"setting": "Q", "out": str(out)}))
    assert main(["--config", str(cfg), "sweep"]) == 1
    assert capsys.readouterr().err == "error: setting must be A, B, or C\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "noise_doc, message",
    [
        pytest.param(dict(NoiseModel.default().to_json_dict(), t2=[0.85, 1.1]), "noise model covers 2 qubits, state has 5", id="two-qubit-t2"),
        pytest.param(None, "No such file or directory", id="missing-file"),
    ],
)
def test_a_failed_sweep_creates_no_output_directory(tmp_path, capsys, noise_doc, message):
    noise_path = tmp_path / "noise.json"
    if noise_doc is not None:
        noise_path.write_text(json.dumps(noise_doc))
    out = tmp_path / "out"
    assert main(["sweep", "--setting", "B", "--noise", str(noise_path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("spectrum", "--t-max", "inf"),
        ("spectrum", "--t-max", "nan"),
        ("spectrum", "--dt", "inf"),
        ("spectrum", "--dt", "nan"),
        ("sweep", "--theta-max", "inf"),
        ("sweep", "--theta-max", "nan"),
    ],
)
def test_non_finite_times_and_angles_exit_with_an_error_naming_the_option(tmp_path, capsys, command, flag, value):
    system_path = tmp_path / "sys5.json"
    system_path.write_text(json.dumps(NmrSystem.placeholder_five_spin().to_json_dict()))
    args = {
        "spectrum": ["--system", str(system_path), "--state", "qecc:X:3", "--out", str(tmp_path / "spec.csv")],
        "sweep": ["--setting", "B", "--out", str(tmp_path / "sweep")],
    }[command]
    assert main([command, *args, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err


def test_spectrum_with_a_sample_count_that_overflows_exits_with_an_error(tmp_path, capsys):
    system_path = tmp_path / "sys5.json"
    system_path.write_text(json.dumps(NmrSystem.placeholder_five_spin().to_json_dict()))
    out = tmp_path / "spec.csv"
    argv = ["spectrum", "--system", str(system_path), "--state", "qecc:X:3", "--out", str(out)]
    assert main([*argv, "--t-max", "1e300", "--dt", "1e-300"]) == 1
    assert capsys.readouterr().err == "error: t_max / dt overflows: t_max 1e+300, dt 1e-300\n"
    assert not out.exists()


def test_spectrum_with_a_sample_count_over_the_cap_exits_with_an_error(tmp_path, capsys):
    system_path = tmp_path / "sys5.json"
    system_path.write_text(json.dumps(NmrSystem.placeholder_five_spin().to_json_dict()))
    out = tmp_path / "spec.csv"
    argv = ["spectrum", "--system", str(system_path), "--state", "qecc:X:3", "--out", str(out)]
    assert main([*argv, "--t-max", "1e300", "--dt", "1e-3"]) == 1
    assert capsys.readouterr().err == (
        "error: t_max / dt = 1e+303 samples for 16 transitions exceeds the cap of 16777216 "
        "transition-samples: t_max 1e+300, dt 0.001\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("setting, count", [("B", GRID_SIZE_CAP + 1), ("C", 10**12), ("A", 10**12)])
def test_sweep_with_a_grid_over_the_cap_exits_with_an_error(tmp_path, capsys, setting, count):
    # Setting A runs no grid, but its summary records the option, so it is checked too.
    out = tmp_path / "out"
    assert main(["sweep", "--setting", setting, "--grid", str(count), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: grid of {count} points exceeds the cap of {GRID_SIZE_CAP} points\n"
    assert not out.exists()


def test_qecc_state_spec_requires_five_spins(tmp_path, capsys):
    system_path = tmp_path / "sys2.json"
    system_path.write_text(
        json.dumps(
            {
                "nu": [30.0, -20.0],
                "J": [[0.0, 7.0], [7.0, 0.0]],
                "T1": [5.0, 5.0],
                "T2": [1.0, 1.0],
                "T2star": [2.0, 2.0],
            }
        )
    )
    assert (
        main(["spectrum", "--system", str(system_path), "--state", "qecc:X:3", "--out", str(tmp_path / "z.csv")])
        == 1
    )
    assert "five-spin" in capsys.readouterr().err


@pytest.mark.parametrize("location", ["abc", "3.0", " 3", "+3", "", "\u0663"])
def test_qecc_state_location_must_be_decimal_digits(tmp_path, capsys, location):
    system_path = tmp_path / "sys5.json"
    system_path.write_text(json.dumps(NmrSystem.placeholder_five_spin().to_json_dict()))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--system", str(system_path), "--state", f"qecc:X:{location}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --state ") and f"location {location!r}" in err
    assert not out.exists()


def test_qecc_state_spectrum_runs(tmp_path, capsys):
    from cws552.nmr_noise import NmrSystem

    system_path = tmp_path / "sys5.json"
    system_path.write_text(json.dumps(NmrSystem.placeholder_five_spin().to_json_dict()))
    out = tmp_path / "qecc_spec.csv"
    assert (
        main(
            [
                "spectrum",
                "--system", str(system_path),
                "--observe", "4",
                "--state", "qecc:E:3",
                "--t-max", "2.0",
                "--dt", "0.002",
                "--out", str(out),
            ]
        )
        == 0
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    total = sum(float(r["real"]) for r in rows)
    # observed spin 4 carries the protected coherence; M(0) = 1
    assert abs(total - 1.0) < 1e-6


def _swap_e_and_y(syndrome_map):
    return dict(syndrome_map, E=syndrome_map["Y"], Y=syndrome_map["E"])


def _with_first_entry(matrix, edit):
    """`matrix` with its [0][0] entry [re, im] replaced by edit(re, im)."""
    first = [edit(*matrix[0][0]), *matrix[0][1:]]
    return [first, *matrix[1:]]


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "kind, edit, names",
    [
        pytest.param("noise", lambda doc: dict(doc, t2=5), "T2 entries", id="noise-t2-scalar"),
        pytest.param("noise", lambda doc: dict(doc, t2=None), "T2 entries", id="noise-t2-null"),
        pytest.param("noise", lambda doc: dict(doc, schedule=3), "schedule", id="noise-schedule-scalar"),
        pytest.param(
            "noise",
            lambda doc: dict(doc, t1=[5.0] * 5, amplitude_damping="false"),
            "amplitude_damping",
            id="noise-damping-string",
        ),
        pytest.param("system", lambda doc: [1, 2], "system must be a JSON object", id="system-list"),
        pytest.param("system", lambda doc: dict(doc, T2_typo=[1.0]), "unknown system keys ['T2_typo']", id="system-unknown-key"),
        pytest.param("system", lambda doc: _without(doc, "T2star"), "missing keys ['T2star']", id="system-without-T2star"),
        pytest.param("code", lambda doc: [1], "code must be a JSON object", id="code-list"),
        pytest.param("code", lambda doc: dict(doc, codewords=3), "codewords entries", id="code-codewords-scalar"),
        pytest.param("code", lambda doc: dict(doc, decoders=[1]), "decoders must be a JSON object", id="code-decoders-list"),
        pytest.param("code", lambda doc: dict(doc, n=[5]), "n must be 5", id="code-n-list"),
        pytest.param("code", lambda doc: dict(doc, n=5.0), "n must be 5", id="code-n-float"),
        pytest.param("code", lambda doc: dict(doc, n=True), "n must be 5", id="code-n-true"),
        pytest.param("code", lambda doc: dict(doc, register_qubits=3), "register_qubits", id="code-register-scalar"),
        pytest.param("code", lambda doc: dict(doc, syndrome_qubits=[1, 6]), "syndrome_qubits", id="code-syndrome-out-of-range"),
        pytest.param("code", lambda doc: dict(doc, d=3), "d must be 2", id="code-distance-3"),
        pytest.param("code", lambda doc: dict(doc, syndrome_qubits=[5, 1]), "syndrome_qubits", id="code-syndrome-reversed"),
        pytest.param("code", lambda doc: dict(doc, logical_basis=["x"]), "logical_basis", id="code-logical-basis"),
        pytest.param(
            "code",
            lambda doc: dict(doc, syndrome_map=_swap_e_and_y(doc["syndrome_map"])),
            "syndrome_map",
            id="code-syndrome-map-swapped",
        ),
        pytest.param("code", lambda doc: dict(doc, colour="red"), "unknown code keys ['colour']", id="code-unknown-key"),
        pytest.param("code", lambda doc: dict(doc, K=4), "K must be 5", id="code-K-4"),
        pytest.param(
            "code",
            lambda doc: dict(doc, encoder=_with_first_entry(doc["encoder"], lambda re, im: [str(re), "0"])),
            "encoder entries ([re, im] pairs) must be real numbers",
            id="code-encoder-entry-strings",
        ),
        pytest.param(
            "code",
            lambda doc: dict(doc, encoder=_with_first_entry(doc["encoder"], lambda re, im: [True, im])),
            "encoder entries ([re, im] pairs) must be real numbers, got True",
            id="code-encoder-real-part-true",
        ),
        pytest.param(
            "code",
            lambda doc: dict(doc, codewords=[*doc["codewords"][:4], doc["codewords"][4][:31]]),
            "codewords entries ([re, im] pairs) must be a 3-dimensional array",
            id="code-codewords-ragged",
        ),
        pytest.param(
            "code", lambda doc: dict(doc, codewords=doc["codewords"][:4]), "codewords must have shape", id="code-four-codewords"
        ),
        pytest.param(
            "code",
            lambda doc: dict(doc, encoder=[row[:16] for row in doc["encoder"][:16]]),
            "encoder must have shape (32, 32), got (16, 16)",
            id="code-encoder-16x16",
        ),
    ],
)
def test_malformed_json_inputs_exit_with_an_error(tmp_path, capsys, kind, edit, names):
    base = {
        "noise": NoiseModel.default().to_json_dict,
        "system": lambda: NmrSystem.placeholder_five_spin().to_json_dict(),
        "code": lambda: code_to_json_dict(build_code()),
    }[kind]()
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(edit(base)))
    argv = {
        "noise": ["sweep", "--setting", "A", "--noise", str(path), "--out", str(tmp_path / "out")],
        "system": ["spectrum", "--system", str(path), "--state", "00000", "--out", str(tmp_path / "s.csv")],
        "code": ["verify", "--code", str(path)],
    }[kind]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert names in err


def test_verify_json_of_an_export_matches_the_built_code(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["export-code", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--json"]) == 0
    built = capsys.readouterr().out
    assert main(["verify", "--json", "--code", str(path)]) == 0
    assert capsys.readouterr().out == built


# sha256 of export-code's file.  The codewords, encoder and decoders are exact
# index maps whose bytes are pinned on every platform (tests/test_code552.py),
# so the file is too: this equals export_code/code.json in tests/golden/.
CODE_JSON_SHA256 = "33d8bfd0c56076deff0ab1b275f7b6446648a01cb12d96d4a922b69ed85f5720"


def test_export_code_writes_the_pinned_bytes_on_every_platform(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["export-code", "--out", str(path)]) == 0
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == CODE_JSON_SHA256
    assert data.decode() == json.dumps(code_to_json_dict(build_code()), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("from_file", [False, True])
def test_verify_json_is_spelled_as_json_dumps_spells_it(tmp_path, capsys, from_file):
    path = tmp_path / "code.json"
    assert main(["export-code", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--json", *(["--code", str(path)] if from_file else [])]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def tuple_path_csv(system, spec, observe, t_max, dt):
    """The spectrum file as the CLI wrote it from simulate_spectrum's pairs,
    one row at a time, with abs() on each Python complex."""
    row = "%.17g,%.17g,%.17g,%.17g\n"
    pairs = simulate_spectrum(_state_from_spec(spec, system.n_spins), system, observe, t_max, dt)
    return "frequency_hz,real,imag,magnitude\n" + "".join(row % (f, a.real, a.imag, abs(a)) for f, a in pairs)


@pytest.fixture(scope="module")
def five_spin_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spectrum") / "sys5.json"
    path.write_text(json.dumps(NmrSystem.placeholder_five_spin().to_json_dict()))
    return path


def assert_spectrum_matches_tuple_path(path, spec, observe, t_max, dt):
    out = path.parent / "spectrum.csv"
    # --state=... takes a product state that starts with "-" as a value, not a flag.
    argv = ["spectrum", "--system", str(path), f"--state={spec}", "--observe", str(observe),
            "--t-max", repr(t_max), "--dt", repr(dt), "--out", str(out)]
    assert main(argv) == 0
    system = NmrSystem.placeholder_five_spin()
    with open(out, newline="") as fh:
        got = fh.read()
    want = tuple_path_csv(system, spec, observe, t_max, dt)
    if got != want:  # name the first differing row: pytest's diff of two long texts is slow
        row, pair = next((i, p) for i, p in enumerate(zip(got.split("\n"), want.split("\n"))) if p[0] != p[1])
        pytest.fail(f"row {row} differs: {pair}")


# The placeholder system's largest shift is 200 Hz, so dt must stay below 2.5 ms.
@settings(max_examples=60, deadline=None)
@given(
    spec=st.one_of(
        st.text("01+-", min_size=5, max_size=5),
        st.builds("qecc:{}:{}".format, st.sampled_from("EXYZ"), st.integers(1, 5)),
    ),
    observe=st.integers(1, 5),
    dt=st.floats(1e-4, 2.4e-3),
    samples=st.integers(2, 3000),
)
def test_spectrum_file_equals_the_tuple_path_byte_for_byte(five_spin_file, spec, observe, dt, samples):
    assert_spectrum_matches_tuple_path(five_spin_file, spec, observe, samples * dt, dt)


@pytest.mark.parametrize("spec", ["qecc:Y:2", "+0-1+"])
def test_a_spectrum_longer_than_one_write_block_equals_the_tuple_path(five_spin_file, spec):
    t_max, dt = (2 * _SPECTRUM_BLOCK_ROWS + 3) * 1e-3, 1e-3
    assert_spectrum_matches_tuple_path(five_spin_file, spec, 2, t_max, dt)
    with open(five_spin_file.parent / "spectrum.csv") as fh:
        assert len(fh.readlines()) == 1 + 2 * _SPECTRUM_BLOCK_ROWS + 3


# Finite parts whose modulus is finite too: abs() of a complex raises
# OverflowError where np.hypot returns inf.
complex_parts = st.floats(-1e307, 1e307)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(complex_parts, complex_parts), min_size=1, max_size=40))
def test_hypot_of_the_parts_equals_abs_of_a_python_complex(parts):
    """The spectrum's magnitude column relies on this.  np.abs on complex128
    is known to differ from abs(complex) in the last bit on about a third of
    values; np.hypot and CPython's complex abs both call libm's hypot."""
    re, im = np.array(parts).T
    assert np.hypot(re, im).tolist() == [abs(complex(r, i)) for r, i in parts]


@pytest.mark.parametrize("spec", ["qecc:X", "qecc:X:3:1"])
def test_qecc_state_spec_needs_three_parts(spec):
    with pytest.raises(ValueError, match="^qecc state spec must look like qecc:X:3$"):
        _state_from_spec(spec, 5)


def test_config_float_option_given_an_int_is_written_as_a_float(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"setting": "A", "theta_max": 3, "out": str(out)}))
    assert main(["--config", str(cfg), "sweep"]) == 0
    text = (out / "setting_A_summary.json").read_text()
    assert '"theta_max": 3.0\n' in text
    assert type(json.loads(text)["theta_max"]) is float


def test_verify_fails_the_distance_check_of_a_distance_one_code(tmp_path, capsys):
    """Basis states |0>..|4> as codewords: X on qubit 3 maps |00000> onto |00100>."""
    code_path = tmp_path / "code.json"
    assert main(["export-code", "--out", str(code_path)]) == 0
    doc = json.loads(code_path.read_text())
    doc["codewords"] = [[[float(i == b), 0.0] for i in range(32)] for b in range(5)]
    code_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--code", str(code_path), "--json"]) == 1
    distance = json.loads(capsys.readouterr().out)["distance"]
    assert (distance["value"], distance["witness"], distance["passed"]) == (1, [[3, "X"]], False)
