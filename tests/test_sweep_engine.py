"""The transfer-map sweep engine against the per-point oracle run_point."""
import dataclasses

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cws552.code552 import build_code
from cws552.error_model import ErrorSpec
from cws552.experiment import (
    Observables,
    fit_constant,
    fit_line,
    fit_scale,
    estimate_theta,
    run_point,
    run_setting_b,
    run_setting_c,
)
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


def oracle_fits(per_combo, grid):
    """The per-location fits recomputed from run_point observables."""
    i0 = np.mean([[o.i0 for o in row] for row in per_combo], axis=0)
    i1 = np.mean([[o.i1 for o in row] for row in per_combo], axis=0)
    ii = np.mean([[o.i for o in row] for row in per_combo], axis=0)
    theta_est = [estimate_theta(Observables(0.0, 0.0, a, b, 0.0)) for a, b in zip(i0, i1)]
    line = fit_line(zip(grid, theta_est))
    return {
        "alpha0": fit_scale(zip(grid, i0), lambda th: np.cos(th / 2.0) ** 2)[0],
        "alpha1": fit_scale(zip(grid, i1), lambda th: np.sin(th / 2.0) ** 2)[0],
        "ibar": fit_constant(ii)[0],
        "slope": line.slope,
        "intercept": line.intercept,
    }


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids, setting=st.sampled_from(["B", "C"]), noise=noise_models)
def test_sweep_matches_run_point(grid, setting, noise):
    # fits need a spread of angles and a nonzero sin^2 curve
    assume(grid[-1] - grid[0] > 1e-3)
    run = run_setting_b if setting == "B" else run_setting_c
    result = run(CODE, grid=np.array(grid), noise=noise)

    by_location = {}
    for rec in result.records:
        oracle = run_point(CODE, rec.input_k, ErrorSpec.typed(rec.location, rec.error_type, rec.theta), noise)
        for field in FIELDS:
            assert abs(getattr(rec.obs, field) - getattr(oracle, field)) <= 1e-12, (rec, field)
        by_location.setdefault(rec.location, {}).setdefault((rec.error_type, rec.input_k), []).append(oracle)

    for location, combos in by_location.items():
        expected = oracle_fits(list(combos.values()), grid)
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
