"""What the benchmark's sweep checker needs from SweepResult.records.

perfbench/workloads.py checks every sweep through result.records and builds
its corrupted copy with dataclasses.replace(result, records=[...]).  The
sweep itself builds no per-point object: the records are made from obs when
first read.  These tests hold both sides of that contract.
"""
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cws552 import experiment
from cws552.code552 import build_code
from cws552.experiment import SWEEP_COMBOS, Observables, PointRecord, default_grid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SWEEPS = {"B": experiment.run_setting_b, "C": experiment.run_setting_c}


@pytest.fixture(scope="module")
def code():
    return build_code()


@pytest.mark.parametrize("setting", sorted(SWEEPS))
def test_benchmark_check_passes_and_catches_a_corrupted_sweep(code, setting):
    grid = workloads.theta_grid(np.random.default_rng(7), 5)
    result = SWEEPS[setting](code, grid)
    check_rng = np.random.default_rng([7, 1])
    assert workloads.check_sweep(result, setting, grid, code, None, check_rng) <= workloads.NOISELESS_TOL
    with pytest.raises(workloads.CheckFailed):
        workloads.check_sweep(workloads.corrupt_sweep(result), setting, grid, code, None, check_rng)


def _counting(cls, counts):
    def make(*args):
        counts[cls.__name__] += 1
        return cls(*args)

    return make


@pytest.mark.parametrize("setting", sorted(SWEEPS))
def test_records_are_built_from_obs_only_when_read(code, setting, monkeypatch):
    counts = Counter()
    monkeypatch.setattr(experiment, "PointRecord", _counting(PointRecord, counts))
    monkeypatch.setattr(experiment, "Observables", _counting(Observables, counts))
    grid = default_grid(7)
    result = SWEEPS[setting](code, grid)
    assert counts == {}

    records = list(result.records)
    n_points = 5 * 3 * len(grid)
    assert counts == {"PointRecord": n_points, "Observables": n_points}
    eager = [
        PointRecord(location, error_type, input_k, float(theta), Observables(*map(float, result.obs[location - 1, c, :, p])))
        for location in range(1, 6)
        for c, (error_type, input_k) in enumerate(SWEEP_COMBOS[setting])
        for p, theta in enumerate(grid)
    ]
    assert records == eager
    assert len(result.records) == n_points and result.records[-1] == eager[-1]
    assert counts == {"PointRecord": n_points, "Observables": n_points}  # built once


def test_sweep_arrays_are_read_only(code):
    grid = default_grid(5)
    result = experiment.run_setting_b(code, grid)
    grid[1] = 9.0
    assert result.grid[1] == np.pi / 4
    with pytest.raises(ValueError):
        result.obs[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        result.grid[0] = 1.0
