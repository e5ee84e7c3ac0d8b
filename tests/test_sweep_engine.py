"""The transfer-map sweep engine against the per-point oracle run_point."""
import dataclasses

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cws552.code552 import build_code
from cws552.error_model import ErrorSpec
from cws552.experiment import run_point, run_setting_b, run_setting_c
from cws552.nmr_noise import NoiseModel

CODE = build_code()
T1_TIMES = (5.0, 8.0, 7.0, 6.0, 9.0)
FIELDS = ("a0", "a1", "i0", "i1", "i")
FIT_FIELDS = ("alpha0", "alpha1", "ibar", "slope", "intercept")

noise_models = st.one_of(
    st.none(),
    st.just(NoiseModel.default()),
    st.floats(0.05, 1.0).map(NoiseModel.uniform_attenuation),
    st.floats(0.0, 0.9).map(lambda p: dataclasses.replace(NoiseModel.default(), depolarizing=p)),
    st.just(dataclasses.replace(NoiseModel.default(), t1=T1_TIMES, amplitude_damping=True)),
    # every knob at once: damping, depolarizing and coherence scaling
    st.tuples(st.floats(0.0, 0.9), st.floats(0.05, 1.0)).map(
        lambda pg: dataclasses.replace(
            NoiseModel.default(), t1=T1_TIMES, amplitude_damping=True, depolarizing=pg[0], coherence_scale=pg[1]
        )
    ),
)
grids = st.lists(st.floats(0.0, np.pi), min_size=2, max_size=30, unique=True).map(sorted)


def oracle_fits(records, grid):
    """Per location, the fits refitted from the engine's own records with plain numpy.

    The records themselves are held to run_point below.  The refit does not
    use run_point's values: near theta = 1e-8 their I1 (~2.5e-17, a
    density-matrix population) has lost the relative precision the angle
    estimate needs, while the engine keeps it.
    """
    grid = np.asarray(grid)
    fits = {}
    for location in sorted({r.location for r in records}):
        # (combo, point, column) -> mean over combos; records run over grid points fastest
        obs = np.array([[getattr(r.obs, f) for f in FIELDS] for r in records if r.location == location])
        i0, i1, ii = obs.reshape(-1, len(grid), len(FIELDS)).mean(axis=0)[:, 2:].T
        c2, s2 = np.cos(grid / 2) ** 2, np.sin(grid / 2) ** 2
        slope, intercept = np.polyfit(grid, 2 * np.arctan2(np.sqrt(i1), np.sqrt(i0)), 1)
        fits[location] = dict(
            alpha0=i0 @ c2 / (c2 @ c2), alpha1=i1 @ s2 / (s2 @ s2), ibar=ii.mean(), slope=slope, intercept=intercept
        )
    return fits


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids, setting=st.sampled_from(["B", "C"]), noise=noise_models)
@example(grid=[1e-08, 1.0], setting="B", noise=NoiseModel.uniform_attenuation(1.0))
def test_sweep_matches_run_point(grid, setting, noise):
    # fits need a spread of angles and a nonzero sin^2 curve
    assume(grid[-1] - grid[0] > 1e-3)
    run = run_setting_b if setting == "B" else run_setting_c
    result = run(CODE, grid=np.array(grid), noise=noise)

    for rec in result.records:
        oracle = run_point(CODE, rec.input_k, ErrorSpec.typed(rec.location, rec.error_type, rec.theta), noise)
        for field in FIELDS:
            assert abs(getattr(rec.obs, field) - getattr(oracle, field)) <= 1e-12, (rec, field)

    oracle = oracle_fits(result.records, grid)
    assert sorted(oracle) == sorted(result.fits) == list(range(1, CODE.n + 1))
    for location, expected in oracle.items():
        fit = result.fits[location]
        for field in FIT_FIELDS:
            assert abs(getattr(fit, field) - expected[field]) <= 1e-10, (location, field)


def test_small_angles_keep_relative_precision():
    """sin^2(theta/2) far below rounding of 1 must survive: the angle estimate divides by its root."""
    grid = np.array([1e-8, 1e-4, 1.0])
    for run in (run_setting_b, run_setting_c):
        result = run(CODE, grid=grid)
        for rec in result.records:
            expected = np.sin(rec.theta / 2.0) ** 2
            assert abs(rec.obs.i1 - expected) <= 1e-12 * expected, rec
        for fit in result.fits.values():
            assert abs(fit.slope - 1.0) < 1e-12 and abs(fit.intercept) < 1e-12
