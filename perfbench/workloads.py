"""The four benchmark workloads and the output checks that feed `failed`.

An op is one ``run_setting_*`` call or one ``cli.main`` command.  A workload
is a cycle of ops repeated back to back by one client (a closed loop).  The
seed draws every input; the library only ever sees the generated values.

Each op carries a check that runs outside the timed region.  A check returns
the largest absolute deviation it saw and raises ``CheckFailed`` when an
output is wrong.  Ops that can be corrupted cheaply also carry a corruption,
used by the checker self-test: a corrupted output must fail its check.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

NOISELESS_TOL = 1e-10
NOISELESS_FIT_TOL = 1e-8
ATTENUATION_FIT_TOL = 1e-6
REFERENCE_TOL = 1e-10
FIT_RECOMPUTE_TOL = 1e-9
REFERENCE_SAMPLE = 6  # points per sweep op (and rows per noisy setting-A op) checked densely
ATTENUATION_GAMMA = 0.15
SPECTRUM_T_MAX = 4.0
SPECTRUM_DT = 1e-3
SPECTRUM_SUM_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], float]
    points: int = 0  # pipeline runs: run_point calls plus setting-A rows
    corrupt: Callable[[object], object] | None = None
    outputs: tuple[Path, ...] = ()  # files the op writes, for cli.bytes_written


@dataclass
class Workload:
    tail_pct: float  # sized so this commit gets >= 10 samples beyond it in one run
    cycle: Callable[[], list[Op]]


# --------------------------------------------------------------------------
# Sweep checks


def _combos(setting: str) -> list[tuple[str, int]]:
    return [(t, 2) for t in ("X", "Y", "Z")] if setting == "B" else [("Y", k) for k in (1, 2, 3)]


def _refit(i0, i1, ii, grid):
    """The paper's fits recomputed with plain numpy: alpha0, alpha1, Ibar, slope, intercept."""
    c2, s2 = np.cos(grid / 2) ** 2, np.sin(grid / 2) ** 2
    theta_est = 2 * np.arctan2(np.sqrt(i1), np.sqrt(i0))
    slope, intercept = np.polyfit(grid, theta_est, 1)
    return np.array([i0 @ c2 / (c2 @ c2), i1 @ s2 / (s2 @ s2), ii.mean(), slope, intercept])


def check_sweep(result, setting, grid, code, noise: ref.Noise | None, rng) -> float:
    combos = _combos(setting)
    n_loc = code.n
    expected = [(loc, t, k, th) for loc in range(1, n_loc + 1) for t, k in combos for th in grid]
    got = [(r.location, r.error_type, r.input_k, r.theta) for r in result.records]
    _require(result.setting == setting, f"setting {result.setting!r} != {setting!r}")
    _require(got == expected, "record keys differ from the requested sweep")
    obs = np.array([[r.obs.a0, r.obs.a1, r.obs.i0, r.obs.i1, r.obs.i] for r in result.records])
    _require(bool(np.all(np.isfinite(obs))), "non-finite observable")
    worst = 0.0

    if noise is None:
        th = np.array([e[3] for e in expected])
        c2, s2 = np.cos(th / 2) ** 2, np.sin(th / 2) ** 2
        closed = np.stack([c2, s2, c2, s2, np.ones_like(th)], axis=1)
        err = float(np.max(np.abs(obs - closed)))
        _require(err <= NOISELESS_TOL, f"noiseless observables off the closed form by {err:.3e}")
        worst = max(worst, err)

    for idx in rng.choice(len(expected), size=REFERENCE_SAMPLE, replace=False):
        loc, t, k, th = expected[idx]
        rho = ref.final_density(code, k, loc, ref.rotation(th, ref.AXIS[t]), noise)
        err = float(np.max(np.abs(obs[idx] - ref.observables(rho, k, t))))
        _require(err <= REFERENCE_TOL, f"point {expected[idx]} off the dense reference by {err:.3e}")
        worst = max(worst, err)

    per_loc = obs.reshape(n_loc, len(combos), len(grid), 5).mean(axis=1)
    for loc in range(1, n_loc + 1):
        i0, i1, ii = per_loc[loc - 1, :, 2], per_loc[loc - 1, :, 3], per_loc[loc - 1, :, 4]
        fit = result.fits[loc]
        reported = np.array([fit.alpha0, fit.alpha1, fit.ibar, fit.slope, fit.intercept])
        err = float(np.max(np.abs(reported - _refit(i0, i1, ii, grid))))
        _require(err <= FIT_RECOMPUTE_TOL, f"location {loc} fits differ from a refit by {err:.3e}")
        worst = max(worst, err)
        if noise is None:
            err = float(np.max(np.abs(reported - [1, 1, 1, 1, 0])))
            _require(err <= NOISELESS_FIT_TOL, f"location {loc} noiseless fits off by {err:.3e}")
        elif noise.coherence_scale < 1.0:
            err = float(np.max(np.abs(reported[:3] - noise.coherence_scale)))
            _require(err <= ATTENUATION_FIT_TOL, f"location {loc} attenuation fits off gamma by {err:.3e}")
        worst = max(worst, err)
    return worst


def corrupt_sweep(result):
    """Shift the A0 observable of every record by 1e-3."""
    records = [dataclasses.replace(r, obs=dataclasses.replace(r.obs, a0=r.obs.a0 + 1e-3)) for r in result.records]
    return dataclasses.replace(result, records=records)


def check_setting_a(rows, code, noise: ref.Noise | None, rng) -> float:
    _require(len(rows) == 20, f"setting A gave {len(rows)} rows, expected 20")
    keys = [(r.location, r.pauli) for r in rows]
    _require(sorted(keys) == sorted((q, p) for q in range(1, 6) for p in "EZXY"), "setting A rows miss a combination")
    worst = 0.0
    for r in rows:
        want = "".join(str(b) for b in ref.SYNDROME[r.pauli])
        _require(r.expected_branch == want and r.branch == want, f"row {r.location}{r.pauli}: branch {r.branch} != {want}")
        if noise is None:
            err = max(abs(r.branch_population - 1.0), abs(r.register_fidelity - 1.0))
            _require(err <= NOISELESS_TOL, f"row {r.location}{r.pauli}: noiseless population/fidelity off by {err:.3e}")
            worst = max(worst, err)
    sample = rng.choice(len(rows), size=REFERENCE_SAMPLE, replace=False) if noise is not None else []
    for idx in sample:
        r = rows[idx]
        pop, fid = ref.population_and_fidelity(ref.final_density(code, 2, r.location, ref.PAULI[r.pauli], noise), 2)
        err = max(abs(r.branch_population - pop), abs(r.register_fidelity - fid))
        _require(err <= REFERENCE_TOL, f"row {r.location}{r.pauli}: off the dense reference by {err:.3e}")
        worst = max(worst, err)
    return worst


def corrupt_setting_a(rows):
    bad = dataclasses.replace(rows[0], branch="11" if rows[0].branch != "11" else "00")
    return [bad] + list(rows[1:])


# --------------------------------------------------------------------------
# Sweep workloads


def sweep_workload(tail_pct, lib, grid, legs, check_rng) -> Workload:
    """legs: (setting, library noise model or None, reference noise or None)."""
    experiment = lib.experiment
    code = lib.build_code()
    ops = []
    for setting, model, noise in legs:
        if setting == "A":
            run = lambda model=model: experiment.run_setting_a(code, model)
            check = lambda rows, noise=noise: check_setting_a(rows, code, noise, check_rng)
            ops.append(Op(f"A/{_noise_tag(noise)}", run, check, points=20, corrupt=corrupt_setting_a))
        else:
            run = lambda setting=setting, model=model: getattr(experiment, f"run_setting_{setting.lower()}")(code, grid, model)
            check = lambda res, setting=setting, noise=noise: check_sweep(res, setting, grid, code, noise, check_rng)
            points = code.n * 3 * len(grid)
            ops.append(Op(f"{setting}/{_noise_tag(noise)}", run, check, points=points, corrupt=corrupt_sweep))
    return Workload(tail_pct, lambda: ops)


def _noise_tag(noise: ref.Noise | None) -> str:
    if noise is None:
        return "noiseless"
    if noise.coherence_scale < 1.0:
        return "attenuation"
    return "dephasing+t1" if noise.t1 is not None else "dephasing"


def theta_grid(rng, n: int) -> np.ndarray:
    return np.sort(rng.uniform(0.0, np.pi, n))


# --------------------------------------------------------------------------
# CLI workload


def _capture(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def check_verify(output) -> float:
    rc, stdout = output
    _require(rc == 0, f"verify exited {rc}")
    report = json.loads(stdout)
    _require(report["passed"] is True, "verify report has passed != true")
    _require(report["distance"]["value"] == 2, f"distance {report['distance']['value']} != 2")
    return max(report[k]["deviation"] for k in ("orthonormality", "encoder", "decoders"))


def corrupt_verify(output):
    rc, stdout = output
    report = json.loads(stdout)
    report["passed"] = False
    return rc, json.dumps(report)


def check_export(output, path: Path) -> float:
    rc, _ = output
    _require(rc == 0, f"export-code exited {rc}")
    doc = json.loads(path.read_text())
    _require((doc["n"], doc["K"], doc["d"], len(doc["decoders"])) == (5, 5, 2, 5), "exported code has wrong shape")
    return 0.0


def check_spectrum(output, path: Path, code, label: str, location: int, spin: int) -> float:
    """Row count, ordering, and sum of all bins == the t=0 signal Tr[rho (X+iY)_spin]."""
    rc, _ = output
    _require(rc == 0, f"spectrum exited {rc}")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["frequency_hz", "real", "imag", "magnitude"], "spectrum header changed")
    data = np.array(rows[1:], dtype=float)
    n = int(round(SPECTRUM_T_MAX / SPECTRUM_DT))
    _require(data.shape == (n, 4), f"spectrum has {data.shape[0]} rows, expected {n}")
    _require(bool(np.all(np.isfinite(data)) and np.all(np.diff(data[:, 0]) > 0)), "spectrum not finite/ascending")
    rho = ref.final_density(code, 2, location, ref.PAULI[label], None)
    bit = 1 << (ref.N - spin)
    lower = [i for i in range(ref.DIM) if not i & bit]
    signal0 = 2.0 * sum(rho[i + bit, i] for i in lower)
    err = abs(complex(data[:, 1].sum(), data[:, 2].sum()) - signal0)
    _require(err <= SPECTRUM_SUM_TOL, f"spectrum bins do not sum to the t=0 signal (off by {err:.3e})")
    return float(err)


def check_sweep_a_files(output, out_dir: Path) -> float:
    rc, _ = output
    _require(rc == 0, f"sweep --setting A exited {rc}")
    with (out_dir / "setting_A.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out_dir / "setting_A_summary.json").read_text())
    _require(len(rows) == 20 and summary["rows"] == 20, "setting A CSV/summary row count != 20")
    _require(summary["all_match"] is True and all(r["matches_expected"] == "1" for r in rows), "setting A row mismatch")
    err = max(max(abs(float(r["branch_population"]) - 1), abs(float(r["register_fidelity"]) - 1)) for r in rows)
    _require(err <= NOISELESS_TOL, f"setting A population/fidelity off by {err:.3e}")
    return err


def cli_workload(tail_pct, lib, work_dir: Path, rng) -> Workload:
    cli = lib.cli
    code = lib.build_code()
    system = work_dir / "system.json"
    system.write_text(json.dumps(lib.nmr_noise.NmrSystem.placeholder_five_spin().to_json_dict()))
    code_file = work_dir / "code.json"
    spectrum_file = work_dir / "spectrum.csv"
    sweep_dir = work_dir / "sweep"
    sweep_files = (sweep_dir / "setting_A.csv", sweep_dir / "setting_A_summary.json")

    def cycle() -> list[Op]:
        label = str(rng.choice(["X", "Y", "Z"]))
        location = int(rng.integers(1, 6))
        spin = int(rng.integers(1, 6))
        spectrum_argv = [
            "spectrum", "--system", str(system), "--state", f"qecc:{label}:{location}",
            "--observe", str(spin), "--t-max", str(SPECTRUM_T_MAX), "--dt", str(SPECTRUM_DT),
            "--out", str(spectrum_file),
        ]
        return [
            Op("verify", lambda: _capture(cli, ["verify", "--json"]), check_verify, corrupt=corrupt_verify),
            Op("export-code", lambda: _capture(cli, ["export-code", "--out", str(code_file)]),
               lambda o: check_export(o, code_file), outputs=(code_file,)),
            Op("verify-code", lambda: _capture(cli, ["verify", "--json", "--code", str(code_file)]),
               check_verify, corrupt=corrupt_verify),
            Op("spectrum", lambda: _capture(cli, spectrum_argv),
               lambda o: check_spectrum(o, spectrum_file, code, label, location, spin), outputs=(spectrum_file,)),
            Op("sweep-A", lambda: _capture(cli, ["sweep", "--setting", "A", "--out", str(sweep_dir)]),
               lambda o: check_sweep_a_files(o, sweep_dir), points=20, outputs=sweep_files),
        ]

    return Workload(tail_pct, cycle)


# --------------------------------------------------------------------------


NAMES = ("sweep-noiseless", "sweep-dephasing", "sweep-t1", "cli-oneshot")


def make(name: str, lib, seed: int, work_dir: Path) -> Workload:
    """Build workload `name` from `seed`.  `lib` exposes the cws552 modules."""
    rng = np.random.default_rng(seed)  # inputs
    check_rng = np.random.default_rng([seed, 1])  # which points the dense reference checks
    nm = lib.nmr_noise.NoiseModel
    if name == "sweep-noiseless":
        grid = theta_grid(rng, 201)
        legs = [("B", None, None), ("C", None, None), ("A", None, None)]
        return sweep_workload(75, lib, grid, legs, check_rng)
    if name == "sweep-dephasing":
        grid = theta_grid(rng, 41)
        dephasing, attenuation = ref.Noise(), ref.Noise(t2=(1.0,) * 5, durations=(0.0,) * 3, coherence_scale=ATTENUATION_GAMMA)
        legs = [
            ("B", nm.default(), dephasing),
            ("C", nm.default(), dephasing),
            ("A", nm.default(), dephasing),
            ("B", nm.uniform_attenuation(ATTENUATION_GAMMA), attenuation),
        ]
        return sweep_workload(75, lib, grid, legs, check_rng)
    if name == "sweep-t1":
        grid = theta_grid(rng, 5)
        model = dataclasses.replace(nm.default(), t1=ref.T1_BENCH, amplitude_damping=True)
        noise = ref.Noise(t1=ref.T1_BENCH)
        legs = [("B", model, noise), ("C", model, noise)]
        return sweep_workload(75, lib, grid, legs, check_rng)
    if name == "cli-oneshot":
        return cli_workload(95, lib, work_dir, rng)
    raise ValueError(f"unknown workload {name!r}")

