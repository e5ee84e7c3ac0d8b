"""Tests for the sweep protocol, observables, fits, and tabular output."""
import csv
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from test_sweep_engine import noise_models

from cws552 import code552, experiment
from cws552.code552 import REGISTER_QUBITS, SYNDROME_MAP, build_code
from cws552.error_model import ErrorSpec
from cws552.experiment import (
    INPUT_KS,
    INPUT_PAIRS,
    INPUTS,
    SETTING_A_CSV_COLUMNS,
    SETTING_A_PAULIS,
    SWEEP_CSV_COLUMNS,
    default_grid,
    fit_constant,
    fit_line,
    fit_scale,
    fit_summary,
    final_state,
    run_point,
    run_setting_a,
    run_setting_b,
    run_setting_c,
    write_setting_a_csv,
    write_sweep_csv,
)
from cws552.nmr_noise import NoiseModel, run_noisy_qecc
from cws552.statevec import fidelity_with_pure, partial_trace


@pytest.fixture(scope="module")
def code():
    return build_code()


def closed_form_theta(obs):
    """Theta = 2 atan2(sqrt(I1), sqrt(I0)) for one point, in numpy as the sweeps compute it."""
    return float(2.0 * np.arctan2(np.sqrt(obs.i1), np.sqrt(obs.i0)))


def test_input_profiles_are_normalized_superpositions():
    assert tuple(INPUTS) == tuple(INPUT_PAIRS) == INPUT_KS == (1, 2, 3)
    for k, (lo, hi) in INPUT_PAIRS.items():
        amps = INPUTS[k].amplitudes
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
        assert abs(amps[lo] - 1 / math.sqrt(2)) < 1e-12
        assert abs(amps[hi] - 1 / math.sqrt(2)) < 1e-12


def test_run_point_no_error(code):
    obs = run_point(code, 2, ErrorSpec.typed(3, "Y", 0.0))
    assert abs(obs.a0 - 1.0) < 1e-12
    assert abs(obs.i0 - 1.0) < 1e-12
    assert abs(obs.i1) < 1e-12
    assert abs(obs.i - 1.0) < 1e-12


def test_run_point_full_flip(code):
    obs = run_point(code, 2, ErrorSpec.typed(3, "X", math.pi))
    assert abs(obs.i0) < 1e-12
    assert abs(obs.i1 - 1.0) < 1e-12
    assert abs(obs.i - 1.0) < 1e-12


def test_run_point_half_angle(code):
    obs = run_point(code, 1, ErrorSpec.typed(1, "Z", math.pi / 2))
    assert abs(obs.i0 - 0.5) < 1e-12
    assert abs(obs.i1 - 0.5) < 1e-12
    assert abs(obs.i - 1.0) < 1e-12


def test_noiseless_curves_for_every_combination(code):
    grid = default_grid(7)
    for location in range(1, 6):
        for error_type in ("X", "Y", "Z"):
            for input_k in (1, 2, 3):
                for theta in grid:
                    obs = run_point(code, input_k, ErrorSpec.typed(location, error_type, theta))
                    assert abs(obs.a0 - math.cos(theta / 2) ** 2) < 1e-10
                    assert abs(obs.a1 - math.sin(theta / 2) ** 2) < 1e-10
                    assert abs(obs.i - 1.0) < 1e-10


def test_global_phase_does_not_change_observables(code):
    for alpha in (0.0, 0.7, -1.3):
        obs = run_point(code, 2, ErrorSpec.typed(4, "X", 1.1, alpha=alpha))
        assert abs(obs.a0 - math.cos(0.55) ** 2) < 1e-12
        assert abs(obs.a1 - math.sin(0.55) ** 2) < 1e-12


def test_generic_axis_sums_error_branches(code):
    rng = np.random.default_rng(41)
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        spec = ErrorSpec(location=int(rng.integers(1, 6)), alpha=0.0, theta=theta, axis=tuple(axis))
        obs = run_point(code, 3, spec)
        assert abs(obs.a0 + obs.a1 - 1.0) < 1e-10
        assert abs(closed_form_theta(obs) - theta) < 1e-9


def test_sweeps_reject_non_finite_grid(code):
    for run in (run_setting_b, run_setting_c):
        with pytest.raises(ValueError, match="finite"):
            run(code, grid=np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            run(code, grid=[0.0, 1.0, np.inf])


@pytest.mark.parametrize("run", [run_setting_b, run_setting_c], ids=["B", "C"])
@pytest.mark.parametrize(
    "grid, message",
    [
        pytest.param(["0.5", "1.0", "2.0"], "grid must be real numbers, got '0.5'", id="string"),
        pytest.param([True, False, True], "grid must be real numbers, got True", id="bool"),
        pytest.param([0.5, 1j, 2.0], "grid must be real numbers, got 1j", id="complex"),
        pytest.param(np.array([0.0, 1.0, 2.0]) + 0j, "grid must be real numbers, got 0j", id="complex-array"),
    ],
)
def test_sweeps_take_only_real_numbers_as_the_grid(code, run, grid, message):
    with pytest.raises(ValueError) as info:
        run(code, grid=grid)
    assert str(info.value) == message


def test_a_float_grid_is_still_checked_for_shape_and_finiteness_and_copied(code):
    """A floating-point array skips the per-entry type walk but no other check."""
    with pytest.raises(ValueError, match=r"^grid must be a 1-dimensional array of real numbers, got shape \(2, 2\)$"):
        run_setting_b(code, grid=np.ones((2, 2)))
    with pytest.raises(ValueError, match="^grid must be finite$"):
        run_setting_c(code, grid=np.array([0.0, 1.0, np.inf], dtype=np.float32))
    grid = np.linspace(0.0, 1.0, 3, dtype=np.float32)
    result = run_setting_b(code, grid=grid)
    grid[0] = 5.0
    assert result.grid.dtype == np.float64 and result.grid.tolist() == np.float32([0.0, 0.5, 1.0]).tolist()
    assert not result.grid.flags.writeable


def test_sweep_rejects_noise_model_of_wrong_size(code):
    model = NoiseModel(t2=(1.0,) * 3, schedule=tuple((s, 0.1) for s in ("encode", "error", "decode")))
    with pytest.raises(ValueError, match="covers 3 qubits"):
        run_setting_b(code, grid=default_grid(3), noise=model)


def test_run_point_validation(code):
    with pytest.raises(ValueError, match="input_k"):
        run_point(code, 4, ErrorSpec.typed(1, "X", 0.1))
    with pytest.raises(ValueError, match="location"):
        run_point(code, 1, ErrorSpec.typed(7, "X", 0.1))


@pytest.mark.parametrize("noise", [None, NoiseModel.default()], ids=["noiseless", "noisy"])
def test_final_state_rejects_a_location_outside_the_code(code, noise):
    with pytest.raises(ValueError, match="location 6"):
        final_state(code, INPUTS[2], ErrorSpec.pauli(6, "X"), noise)


def test_setting_a_noiseless_all_match(code):
    rows = run_setting_a(code)
    assert len(rows) == 20
    for row in rows:
        assert row.matches
        assert abs(row.branch_population - 1.0) < 1e-10
        assert row.register_fidelity > 1 - 1e-10


def test_setting_a_under_default_noise_still_resolves_branches(code):
    rows = run_setting_a(code, noise=NoiseModel.default())
    assert len(rows) == 20
    for row in rows:
        assert row.matches
        assert row.branch_population > 0.5
        assert row.register_fidelity > 0.55


def setting_a_oracle(code, noise):
    """Setting A row by row: final_state, then populations, partial_trace,
    fidelity_with_pure and argmax on each run's own density matrix."""
    register = INPUTS[2]
    rows = []
    for location in range(1, code.n + 1):
        for label in SETTING_A_PAULIS:
            state = final_state(code, register, ErrorSpec.pauli(location, label), noise)
            pops = np.diag(state.matrix).real.reshape(2, 8, 2).sum(axis=1)
            j, l = np.unravel_index(int(np.argmax(pops)), pops.shape)
            fidelity = fidelity_with_pure(partial_trace(state, REGISTER_QUBITS), register)
            rows.append((location, label, SYNDROME_MAP[label], f"{j}{l}", float(pops[j, l]), fidelity))
    return rows


def setting_a_tuples(rows):
    return [
        (r.location, r.pauli, r.expected_branch, r.branch, r.branch_population, r.register_fidelity) for r in rows
    ]


GOLDEN_T1 = dataclasses.replace(
    NoiseModel.default(), t1=(5.0, 8.0, 7.0, 6.0, 9.0), amplitude_damping=True, depolarizing=0.1, coherence_scale=0.9
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(noise=noise_models)
@example(noise=None)
@example(noise=NoiseModel.default())
@example(noise=NoiseModel.uniform_attenuation(0.15))
@example(noise=GOLDEN_T1)
def test_setting_a_matches_the_per_row_oracle(noise):
    code = build_code()
    got, want = setting_a_tuples(run_setting_a(code, noise)), setting_a_oracle(code, noise)
    assert [row[:4] for row in got] == [row[:4] for row in want]
    np.testing.assert_allclose([row[4:] for row in got], [row[4:] for row in want], rtol=0, atol=1e-14)


def test_a_code_is_proved_when_it_is_built_and_by_no_simulation(monkeypatch):
    """build_code proves the encoder and the five decoders, six matrices in
    one check; a replaced copy or a loaded file is a new code and is proved
    afresh, and no simulation runs the check or keeps a verdict on the code."""
    calls = []
    inner = code552._prove_unitary
    monkeypatch.setattr(code552, "_prove_unitary", lambda mats, names: calls.append(mats.shape) or inner(mats, names))
    fresh = build_code()
    assert calls == [(6, 32, 32)]
    grid = np.linspace(0.0, np.pi, 5)
    run_setting_b(fresh, grid=grid, noise=NoiseModel.default())
    run_setting_c(fresh, grid=grid)
    run_setting_a(fresh, NoiseModel.default())
    run_setting_a(fresh)
    for noise in (None, NoiseModel.default()):
        run_point(fresh, 2, ErrorSpec.pauli(3, "X"), noise)
        final_state(fresh, INPUTS[2], ErrorSpec.typed(1, "Y", 0.7), noise)
    run_noisy_qecc(fresh, INPUTS[2], ErrorSpec.typed(1, "Y", 0.7), NoiseModel.default())
    assert len(calls) == 1
    assert set(vars(fresh)) == {"codewords", "encoder", "decoders"}
    dataclasses.replace(fresh)
    code552.code_from_json_dict(code552.code_to_json_dict(fresh))
    assert calls == [(6, 32, 32)] * 3


@pytest.mark.parametrize("noise", [None, NoiseModel.default()], ids=["noiseless", "noisy"])
def test_setting_a_does_not_run_final_state(code, noise, monkeypatch):
    def refuse(*args):
        raise AssertionError("setting A ran final_state")

    monkeypatch.setattr(experiment, "final_state", refuse)
    assert len(run_setting_a(code, noise)) == 20


def test_setting_b_noiseless_fits_are_unity(code):
    result = run_setting_b(code)
    assert result.setting == "B"
    assert len(result.records) == 5 * 3 * 13
    for location in range(1, 6):
        fit = result.fits[location]
        assert abs(fit.alpha0 - 1.0) < 1e-8
        assert abs(fit.alpha1 - 1.0) < 1e-8
        assert abs(fit.ibar - 1.0) < 1e-8
        assert abs(fit.slope - 1.0) < 1e-8
        assert abs(fit.intercept) < 1e-8


def test_setting_b_per_type_curves_coincide(code):
    result = run_setting_b(code)
    for location in range(1, 6):
        curves = {}
        for error_type in ("X", "Y", "Z"):
            recs = [
                r for r in result.records if r.location == location and r.error_type == error_type
            ]
            curves[error_type] = np.array([r.obs.i0 for r in sorted(recs, key=lambda r: r.theta)])
        np.testing.assert_allclose(curves["X"], curves["Y"], atol=1e-10)
        np.testing.assert_allclose(curves["X"], curves["Z"], atol=1e-10)


def test_setting_c_per_input_curves_coincide(code):
    result = run_setting_c(code)
    assert result.setting == "C"
    for location in range(1, 6):
        curves = {}
        for input_k in (1, 2, 3):
            recs = [r for r in result.records if r.location == location and r.input_k == input_k]
            curves[input_k] = np.array([r.obs.i1 for r in sorted(recs, key=lambda r: r.theta)])
        np.testing.assert_allclose(curves[1], curves[2], atol=1e-10)
        np.testing.assert_allclose(curves[1], curves[3], atol=1e-10)


def test_uniform_attenuation_recovered_by_fits(code):
    gamma = 0.15
    result = run_setting_b(code, noise=NoiseModel.uniform_attenuation(gamma))
    for location in range(1, 6):
        fit = result.fits[location]
        assert abs(fit.alpha0 - gamma) < 1e-6
        assert abs(fit.alpha1 - gamma) < 1e-6
        assert abs(fit.ibar - gamma) < 1e-6
        assert fit.ibar_stderr / fit.ibar < 1e-6  # I(theta) stays flat
        assert abs(fit.slope - 1.0) < 1e-6  # angle recovery unaffected


def test_setting_c_under_dephasing_keeps_exact_angle_recovery(code):
    result = run_setting_c(code, noise=NoiseModel.default())
    for location in range(1, 6):
        fit = result.fits[location]
        assert 0.9 < fit.slope < 1.1
        assert abs(fit.intercept) < 0.05
        assert 0.0 < fit.ibar < 1.0


def test_fit_scale_examples():
    xs = np.linspace(0.3, 2.8, 9)
    theory = np.sin(xs) ** 2
    scale, err = fit_scale(theory, theory)
    assert abs(scale - 1.0) < 1e-12 and err < 1e-12
    scale, err = fit_scale(0.5 * theory, theory)
    assert abs(scale - 0.5) < 1e-12 and err < 1e-12
    with pytest.raises(ValueError, match="identically zero"):
        fit_scale([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="two points"):
        fit_scale([1.0], [1.0])


def test_fit_constant_examples():
    mean, err = fit_constant([0.9, 1.1])
    assert abs(mean - 1.0) < 1e-12
    assert abs(err - 0.1) < 1e-12  # std(ddof=1)/sqrt(2) = (0.2/sqrt(2))/sqrt(2)
    mean, err = fit_constant([1.0, 1.0, 1.0])
    assert mean == 1.0 and err == 0.0
    mean, err = fit_constant([0.7])
    assert mean == 0.7 and err == 0.0
    with pytest.raises(ValueError):
        fit_constant([])


def test_fit_line_examples():
    xs = np.linspace(0, 3, 8)
    fit = fit_line(xs, xs)
    assert abs(fit.slope - 1.0) < 1e-12
    assert abs(fit.intercept) < 1e-12
    assert fit.slope_stderr < 1e-12 and fit.intercept_stderr < 1e-12
    fit = fit_line(xs, 0.9 * xs + 0.05)
    assert abs(fit.slope - 0.9) < 1e-12
    assert abs(fit.intercept - 0.05) < 1e-12
    fit = fit_line([0.0, 1.0], [0.1, 0.9])  # n=2: zero residual by construction
    assert fit.slope_stderr == 0.0
    with pytest.raises(ValueError, match="degenerate"):
        fit_line([1.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="two points"):
        fit_line([1.0], [1.0])


@pytest.mark.parametrize(
    "measured, theory, scale, stderr",
    [
        # s = 7/5; residuals (-0.4, 0.2); sigma^2 = 0.2/(2 - 1); stderr = sqrt(0.2/5)
        pytest.param([1.0, 3.0], [1.0, 2.0], 1.4, 0.2, id="two-points"),
        # s = 1; residuals (-1, 0, 1); sigma^2 = 2/(3 - 1); stderr = sqrt(1/3)
        pytest.param([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], 1.0, math.sqrt(1.0 / 3.0), id="three-points"),
    ],
)
def test_fit_scale_standard_error_by_hand(measured, theory, scale, stderr):
    """sqrt(sum r^2 / (n - 1) / sum t^2), worked out by hand."""
    got = fit_scale(measured, theory)
    assert got == pytest.approx((scale, stderr), rel=1e-12)


@pytest.mark.parametrize(
    "xs, ys, slope, intercept, slope_stderr, intercept_stderr",
    [
        # xbar 1, Sxx 2; residuals (-0.5, 1, -0.5); sigma^2 = 1.5/(3 - 2)
        pytest.param(
            [0.0, 1.0, 2.0], [0.0, 2.0, 1.0], 0.5, 0.5, math.sqrt(1.5 / 2), math.sqrt(1.5 * (1 / 3 + 1 / 2)),
            id="three-points",
        ),
        # xbar 1.5, Sxx 5; residuals (0.1, 0.2, -0.7, 0.4); sigma^2 = 0.7/(4 - 2)
        pytest.param(
            [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 4.0], 0.9, 0.9, math.sqrt(0.35 / 5),
            math.sqrt(0.35 * (1 / 4 + 1.5**2 / 5)),
            id="four-points",
        ),
    ],
)
def test_fit_line_standard_errors_by_hand(xs, ys, slope, intercept, slope_stderr, intercept_stderr):
    """sigma^2 = sum r^2 / (n - 2); slope sqrt(sigma^2 / Sxx), intercept
    sqrt(sigma^2 (1/n + xbar^2 / Sxx)), worked out by hand."""
    fit = fit_line(xs, ys)
    got = (fit.slope, fit.intercept, fit.slope_stderr, fit.intercept_stderr)
    assert got == pytest.approx((slope, intercept, slope_stderr, intercept_stderr), rel=1e-12)


# Every fit called with two arrays; fit_constant reads only the second.
FITS = {"fit_scale": fit_scale, "fit_line": fit_line, "fit_constant": lambda _, values: fit_constant(values)}


@pytest.mark.parametrize("fit", sorted(FITS))
def test_fits_reject_inputs_that_are_not_one_dimensional(fit):
    with pytest.raises(ValueError, match="1-dimensional"):
        FITS[fit](np.ones(4), np.ones((2, 2)))
    with pytest.raises(ValueError, match="1-dimensional"):
        FITS[fit](np.ones(1), np.float64(1.0))


@pytest.mark.parametrize("fit", ["fit_scale", "fit_line"])
def test_fits_reject_inputs_of_unequal_length(fit):
    """Arrays of 3 and 1 would otherwise broadcast to a wrong answer."""
    with pytest.raises(ValueError, match="differ in length"):
        FITS[fit]([0.0, 1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="differ in length"):
        FITS[fit]([0.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("fit", sorted(FITS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_reject_non_finite_inputs(fit, bad):
    """A NaN would reach the fits JSON as a bare NaN, which is not valid JSON."""
    with pytest.raises(ValueError, match="finite"):
        FITS[fit]([0.0, 1.0, 2.0], [0.5, bad, 0.7])
    if fit != "fit_constant":
        with pytest.raises(ValueError, match="finite"):
            FITS[fit]([0.0, bad, 2.0], [0.5, 0.6, 0.7])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        lambda: fit_line([0.0, 1e200], [0.0, 1.0]),  # sum of squares of x overflows; slope reads 0
        lambda: fit_line([0.0, 1.0, 2.0], [0.0, 1e300, -1e300]),  # residuals overflow
        lambda: fit_scale([1.0, 1e200], [1.0, 1e200]),
        lambda: fit_scale([1.0, 1.0], [1.0, 1e200]),  # theory's sum of squares overflows; scale reads 0
        lambda: fit_scale([1e300, -1e300], [1.0, 1.0]),
        lambda: fit_constant([1e308, 1e308]),
        lambda: fit_constant([1e308, -1e308, 1e308]),
    ],
    ids=["line-sxx", "line-resid", "scale-both", "scale-ss", "scale-resid", "constant-mean", "constant-std"],
)
def test_fits_raise_when_a_sum_or_result_overflows(call):
    """Finite inputs whose sums leave the floats raise, with no numpy warning,
    in place of returning NaN, inf or a zero read off an infinite sum."""
    with pytest.raises(ValueError, match="^fit overflows: a sum or a result is not finite$"):
        call()


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: fit_constant(["0.5", "1.5"]), "'0.5'"),
        (lambda: fit_scale([True, False, True], [1.0, 2.0, 3.0]), "True"),
        (lambda: fit_line([0.0, 1.0, 2.0], [0.5, 0.6, False]), "False"),
        (lambda: fit_constant([1j, 2.0]), "1j"),
        (lambda: fit_constant([[1.0], [1.0, 2.0]]), "[1.0]"),
    ],
    ids=["string", "bool", "bool-ys", "complex", "ragged"],
)
def test_fits_take_only_real_numbers(call, bad):
    """A string or bool is not coerced to a float, and a complex number or a
    ragged list fails with the input check's message rather than numpy's."""
    with pytest.raises(ValueError, match=re.escape(f"fit inputs must be real numbers, got {bad}")):
        call()


def test_default_grid():
    grid = default_grid()
    assert grid.shape == (13,)
    assert grid[0] == 0.0 and abs(grid[-1] - math.pi) < 1e-15
    with pytest.raises(ValueError):
        default_grid(1)
    with pytest.raises(ValueError):
        default_grid(5, theta_max=0.0)


def test_default_grid_rejects_a_count_over_the_cap_before_allocating():
    cap = experiment.GRID_SIZE_CAP
    assert len(default_grid(cap)) == cap
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            default_grid(cap + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"grid of {cap + 1} points exceeds the cap of {cap} points"
    assert peak < 8 * cap // 4  # the grid itself would take 8 bytes a point


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda code: default_grid(3, float("nan")), "theta_max must be finite", id="grid-theta_max-nan"),
        pytest.param(lambda code: default_grid(3, float("inf")), "theta_max must be finite", id="grid-theta_max-inf"),
        pytest.param(lambda code: default_grid(2.5), "integer number of points", id="grid-n_points-float"),
        pytest.param(lambda code: default_grid(True), "integer number of points", id="grid-n_points-bool"),
        pytest.param(lambda code: run_point(code, True, ErrorSpec.typed(1, "X", 0.1)), "input_k", id="run_point-bool"),
        pytest.param(lambda code: run_point(code, 2.0, ErrorSpec.typed(1, "X", 0.1)), "input_k", id="run_point-float"),
    ],
)
def test_grid_and_input_k_take_integers_and_finite_angles(code, call, match):
    with pytest.raises(ValueError, match=match):
        call(code)


def test_grid_and_input_k_take_numpy_integers(code):
    """The integer test is statevec's: a numpy integer is an integer."""
    error = ErrorSpec.typed(1, "X", 0.1)
    assert run_point(code, np.int64(2), error) == run_point(code, 2, error)
    np.testing.assert_array_equal(default_grid(np.int32(5)), default_grid(5))


@pytest.mark.parametrize("noise", [None, NoiseModel.default()], ids=["noiseless", "default"])
@pytest.mark.parametrize("run", [run_setting_b, run_setting_c], ids=["B", "C"])
@pytest.mark.parametrize(
    "grid, message",
    [
        pytest.param([], "need at least two points", id="empty"),
        pytest.param([1.0], "need at least two points", id="one-point"),
        pytest.param([0.5, 0.5], "x values are degenerate", id="repeated"),
        pytest.param([0.0, 1e-300], "x values are degenerate", id="spread-underflows"),
        pytest.param([0.0, 2 * math.pi], "theory curve is identically zero on the grid", id="sin2-zero"),
        # both the line and the sin^2 scale fail: the line fit is checked first
        pytest.param([0.0, 0.0], "x values are degenerate", id="line-before-scale"),
    ],
)
def test_sweep_fits_reject_degenerate_grids(code, run, noise, grid, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(code, grid, noise)


def test_sweep_without_signal_raises(code):
    with pytest.raises(ValueError, match="zero signal"):
        run_setting_b(code, default_grid(5), NoiseModel.uniform_attenuation(0.0))


def test_sweep_csv_writes_nan_theta_where_one_combo_has_no_signal(code, tmp_path):
    """Input k=1 keeps its coherence on qubit 2, which a 1 ms T2 wipes out;
    inputs 2 and 3 keep theirs, so the combo mean still has signal."""
    noise = NoiseModel(t2=(1.0, 1e-3, 1.0, 1.0, 1.0), schedule=(("encode", 0.3), ("error", 0.05), ("decode", 0.3)))
    path = tmp_path / "c.csv"
    write_sweep_csv(run_setting_c(code, default_grid(5), noise), str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    silent = [row for row in rows if math.isnan(float(row["Theta"]))]
    assert len(silent) == 25 and {row["input_k"] for row in silent} == {"1"}
    assert all(float(row["I0"]) + float(row["I1"]) <= 1e-30 for row in silent)
    assert all(float(row["I0"]) + float(row["I1"]) > 1e-30 for row in rows if row not in silent)


def test_sweep_csv_round_trip(code, tmp_path):
    result = run_setting_b(code, grid=default_grid(5), noise=NoiseModel.default())
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == SWEEP_CSV_COLUMNS
    assert len(rows) == 1 + 5 * 3 * 5
    # 17 significant digits survive the text round trip bit for bit
    by_key = {(int(r.location), r.error_type, r.theta): r.obs for r in result.records}
    for row in rows[1:]:
        obs = by_key[(int(row[1]), row[2], float(row[4]))]
        assert [float(v) for v in row[5:10]] == [obs.a0, obs.a1, obs.i0, obs.i1, obs.i]
        assert float(row[10]) == closed_form_theta(obs)  # the array Theta equals the scalar one bit for bit


def test_sweep_csv_is_deterministic(code, tmp_path):
    grid = default_grid(4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(run_setting_c(code, grid=grid, noise=NoiseModel.default()), str(p1))
    write_sweep_csv(run_setting_c(code, grid=grid, noise=NoiseModel.default()), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_setting_a_csv(code, tmp_path):
    rows = run_setting_a(code)
    path = tmp_path / "a.csv"
    write_setting_a_csv(rows, str(path))
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    assert tuple(table[0]) == SETTING_A_CSV_COLUMNS
    assert len(table) == 21
    assert all(line[8] == "1" for line in table[1:])


def test_fit_summary_structure(code):
    result = run_setting_c(code, grid=default_grid(4))
    doc = fit_summary(result)
    assert doc["setting"] == "C"
    assert doc["noise"] is None
    assert len(doc["grid"]) == 4
    assert sorted(doc["locations"]) == ["1", "2", "3", "4", "5"]
    entry = doc["locations"]["3"]
    assert sorted(entry) == sorted(
        ["alpha0", "alpha0_stderr", "alpha1", "alpha1_stderr", "ibar", "ibar_stderr", "a", "a_stderr", "b", "b_stderr"]
    )


def test_default_grid_takes_two_points():
    assert default_grid(2, theta_max=1.5).tolist() == [0.0, 1.5]
