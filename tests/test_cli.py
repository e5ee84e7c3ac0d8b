"""End-to-end tests for the command line interface."""
import csv
import json

import pytest

from cws552.cli import main
from cws552.code552 import build_code, code_to_json_dict
from cws552.nmr_noise import NmrSystem, NoiseModel


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
    ],
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, command, doc):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    if command != "verify":
        doc = dict(doc, out=str(out))
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
