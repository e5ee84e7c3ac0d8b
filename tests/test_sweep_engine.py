"""The transfer-map sweep engine against the per-point oracle run_point, and
its one-pass Heisenberg engine against the per-(location, input) engine.
The batched transfer map and fit kernels are held bit for bit to one call
per input and per row."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cws552 import experiment, nmr_noise
from cws552.code552 import BRANCH_LABELS, CodeSpec, _branch_target_index, build_code, encode
from cws552.error_model import ErrorSpec, typed_expansions
from cws552.experiment import (
    INPUT_KS,
    INPUT_PAIRS,
    INPUTS,
    SWEEP_COMBOS,
    fit_constant,
    fit_line,
    fit_scale,
    run_point,
    run_setting_a,
    run_setting_b,
    run_setting_c,
)
from cws552.nmr_noise import NoiseModel, apply_segment_noise, segment_noise_adjoint
from cws552.statevec import PAULI_BY_LABEL

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


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: tuple(c / math.hypot(*v) for c in v)
)


@settings(max_examples=40, deadline=None)
@given(
    t2=st.tuples(*[st.floats(0.2, 5.0)] * 5),
    durations=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    location=st.integers(1, 5),
    axis=unit_axes,
)
def test_pure_dephasing_at_theta_zero_matches_the_closed_form(t2, durations, location, axis):
    """Dephasing masks are diagonal, so at theta = 0 input k=2's coherence
    decays as products of exp(-t/T2_q) over the qubits where its codeword
    strings differ: phi_2 and phi_3 cross on {2, 3} or on {1, 4, 5} through
    encode and error, and the decode segment sees the register spin, qubit 4.

        I0 = exp(-t_dec/T2_4) (P_{2,3}(t_enc + t_err) + P_{1,4,5}(t_enc + t_err)) / 2

    with P_S(t) the product of exp(-t/T2_q) over q in S, worked out with
    math.exp alone.  No T1, and both final knobs at their no-op values.
    """
    t_enc, t_err, t_dec = durations
    noise = NoiseModel(t2=t2, schedule=(("encode", t_enc), ("error", t_err), ("decode", t_dec)))

    def decay(qubits, t):
        return math.prod(math.exp(-t / t2[q - 1]) for q in qubits)

    t = t_enc + t_err
    want = math.exp(-t_dec / t2[3]) * 0.5 * (decay((2, 3), t) + decay((1, 4, 5), t))
    assert abs(run_point(CODE, 2, ErrorSpec(location, 0.0, 0.0, axis), noise).i0 - want) <= 1e-14
    obs = run_setting_b(CODE, grid=np.array([0.0, 1.0]), noise=noise).obs
    assert np.all(np.abs(obs[:, :, 2, 0] - want) <= 1e-14)


# Per input k: the two qubit sets on which its codeword strings differ
# through encode and error, and its register spin, which the decode segment
# dephases.
CLOSED_FORM_DECAY = {1: ((1, 5), (2, 3, 4), 2), 2: ((2, 3), (1, 4, 5), 4), 3: ((4, 5), (1, 2, 3), 4)}


@settings(max_examples=40, deadline=None)
@given(
    t2=st.tuples(*[st.floats(0.2, 5.0)] * 5),
    durations=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    axis=unit_axes,
    scale=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    depolarizing=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
)
@example(t2=(0.85, 1.1, 0.95, 0.8, 1.0), durations=(0.3, 0.05, 0.3), axis=(0.0, 1.0, 0.0), scale=0.7, depolarizing=0.2)
def test_pure_dephasing_at_theta_zero_matches_the_closed_form_for_every_input_and_final_knob(
    t2, durations, axis, scale, depolarizing
):
    """The closed form above for inputs 1-3 at every location, with the final
    knobs on.  Input k's coherence at theta = 0 is

        I0 = c (1 - p) exp(-t_dec/T2_s) (P_A(t_enc + t_err) + P_B(t_enc + t_err)) / 2

    with (A, B, s) = ({1,5}, {2,3,4}, 2), ({2,3}, {1,4,5}, 4) and ({4,5},
    {1,2,3}, 4) for k = 1, 2, 3: coherence scaling by c and depolarizing by p
    each scale every off-diagonal element once.  run_point and setting C's
    theta = 0 column are held to it, worked out with math.exp alone.
    """
    t_enc, t_err, t_dec = durations
    noise = NoiseModel(
        t2=t2,
        schedule=(("encode", t_enc), ("error", t_err), ("decode", t_dec)),
        coherence_scale=scale,
        depolarizing=depolarizing,
    )

    def decay(qubits, t):
        return math.prod(math.exp(-t / t2[q - 1]) for q in qubits)

    t = t_enc + t_err
    obs = run_setting_c(CODE, grid=np.array([0.0, 1.0]), noise=noise).obs
    for combo, (_, input_k) in enumerate(SWEEP_COMBOS["C"]):
        one, other, spin = CLOSED_FORM_DECAY[input_k]
        want = scale * (1.0 - depolarizing) * math.exp(-t_dec / t2[spin - 1]) * 0.5 * (decay(one, t) + decay(other, t))
        for location in range(1, 6):
            got = run_point(CODE, input_k, ErrorSpec(location, 0.0, 0.0, axis), noise).i0
            assert abs(got - want) <= 1e-14, (input_k, location)
        assert np.all(np.abs(obs[:, combo, 2, 0] - want) <= 1e-14), input_k


# ---------------------------------------------------------------------------
# The one-pass engine against the per-(location, input) engine it replaced.

LOCATION_FIT_FIELDS = (
    "alpha0", "alpha0_stderr", "alpha1", "alpha1_stderr", "ibar", "ibar_stderr",
    "slope", "slope_stderr", "intercept", "intercept_stderr",
)
BENCH_T1 = dataclasses.replace(NoiseModel.default(), t1=T1_TIMES, amplitude_damping=True)
GOLDEN_T1 = dataclasses.replace(BENCH_T1, depolarizing=0.1, coherence_scale=0.9)
ENGINE_MODELS = {
    "none": None,
    "default": NoiseModel.default(),
    "attenuation": NoiseModel.uniform_attenuation(0.15),
    "bench-t1": BENCH_T1,
    "golden-t1": GOLDEN_T1,
    # The depolarizing adjoint leaves explicit zeros on each one-entry readout's diagonal.
    "depolarizing": dataclasses.replace(NoiseModel.default(), depolarizing=0.2),
    "all-knobs": dataclasses.replace(NoiseModel.default(), depolarizing=0.2, coherence_scale=0.7),
}


def per_leg_transfer_map(code, rho, input_k, location, noise, labels):
    """The transfer map of one (location, input) leg, built on its own: the
    readouts of that input alone go back through the decode noise, the
    decoder and the error noise, then are paired with rho."""
    dim = 2**code.n
    scale = 2.0 if noise is None else 2.0 * ((1.0 - noise.depolarizing) * noise.coherence_scale)
    r0, r1 = INPUT_PAIRS[input_k]
    weights = np.zeros((len(labels), dim, dim), dtype=complex)
    for row, label in enumerate(labels):
        weights[row, _branch_target_index(label, r1), _branch_target_index(label, r0)] = scale
    if noise is not None:
        weights = segment_noise_adjoint(weights, noise, "decode")
    dec = code.decoder(location)
    weights = dec.T @ weights @ dec.conj()
    if noise is not None:
        weights = segment_noise_adjoint(weights, noise, "error")
    return dict(zip(labels, one_input_transfer_map(weights, rho, location)))


def one_input_transfer_map(weights, rho, location):
    """The transfer map of one input's readouts `weights` (L, 32, 32) paired
    with its density rho, as two plain matrix products."""
    hi, lo = 2 ** (location - 1), 2 ** (CODE.n - location)
    w = weights.reshape(-1, hi, 2, lo, hi, 2, lo).transpose(0, 2, 5, 1, 3, 4, 6)
    r = rho.reshape(hi, 2, lo, hi, 2, lo).transpose(1, 4, 0, 2, 3, 5)
    m = w.reshape(4 * len(weights), -1) @ r.reshape(4, -1).T
    paulis = [PAULI_BY_LABEL[label] for label in BRANCH_LABELS]
    pauli_pairs = np.array([np.kron(a, b.conj()).ravel() for a in paulis for b in paulis])
    return m.reshape(len(weights), 16) @ pauli_pairs.T


def per_leg_sweep(code, setting, grid, noise):
    """obs and per-location fits as the sweep made them with one transfer map
    per (location, input) and the public fit_* functions."""
    combos = SWEEP_COMBOS[setting]
    readouts = {}
    for error_type, input_k in combos:
        readouts.setdefault(input_k, ["E"]).append(error_type)
    encoded = {}
    for k in readouts:
        psi = encode(code, INPUTS[k]).amplitudes
        rho = np.outer(psi, psi.conj())
        encoded[k] = rho if noise is None else apply_segment_noise(rho, noise, "encode")
    pairs = {}
    for error_type in sorted({t for t, _ in combos}):
        u = typed_expansions(error_type, grid)
        pairs[error_type] = (u[:, :, None] * u.conj()[:, None, :]).reshape(len(grid), 16)
    obs = np.empty((code.n, len(combos), 5, len(grid)))
    for location in range(1, code.n + 1):
        maps = {
            k: per_leg_transfer_map(code, rho, k, location, noise, readouts[k])
            for k, rho in encoded.items()
        }
        for c, (error_type, input_k) in enumerate(combos):
            z0 = pairs[error_type] @ maps[input_k]["E"]
            z1 = pairs[error_type] @ maps[input_k][error_type]
            obs[location - 1, c] = z0.real, z1.real, np.abs(z0), np.abs(z1), np.abs(z0 + z1)
    means = obs.mean(axis=1)
    i0, i1, ii = means[:, 2], means[:, 3], means[:, 4]
    angles = 2.0 * np.arctan2(np.sqrt(i1), np.sqrt(i0))
    cos2, sin2 = np.cos(grid / 2.0) ** 2, np.sin(grid / 2.0) ** 2
    fits = {}
    for location, (m0, m1, m, theta) in enumerate(zip(i0, i1, ii, angles), start=1):
        line = fit_line(grid, theta)
        fits[location] = (
            *fit_scale(m0, cos2), *fit_scale(m1, sin2), *fit_constant(m),
            line.slope, line.slope_stderr, line.intercept, line.intercept_stderr,
        )
    return obs, fits


def engine_and_oracle(setting, grid, noise):
    run = run_setting_b if setting == "B" else run_setting_c
    result = run(CODE, grid=grid, noise=noise)
    fits = {loc: tuple(getattr(fit, f) for f in LOCATION_FIT_FIELDS) for loc, fit in result.fits.items()}
    return (result.obs, fits), per_leg_sweep(CODE, setting, np.array(grid, dtype=float), noise)


@pytest.mark.parametrize("n_points", [5, 13, 1001])
@pytest.mark.parametrize("noise", list(ENGINE_MODELS.values()), ids=list(ENGINE_MODELS))
@pytest.mark.parametrize("setting", ["B", "C"])
def test_one_pass_engine_is_bit_identical_to_the_per_leg_engine(setting, noise, n_points):
    # float.hex tells -0.0 from 0.0, which == does not
    def hexed(obs, fits):
        return [x.hex() for x in obs.ravel().tolist()], {k: [x.hex() for x in v] for k, v in fits.items()}

    (obs, fits), (want_obs, want_fits) = engine_and_oracle(setting, np.linspace(0.0, np.pi, n_points), noise)
    assert obs.shape == want_obs.shape
    assert hexed(obs, fits) == hexed(want_obs, want_fits)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids, setting=st.sampled_from(["B", "C"]), noise=noise_models)
def test_one_pass_engine_matches_the_per_leg_engine(grid, setting, noise):
    assume(grid[-1] - grid[0] > 1e-3)
    (obs, fits), (want_obs, want_fits) = engine_and_oracle(setting, grid, noise)
    np.testing.assert_allclose(obs, want_obs, rtol=0, atol=1e-14)
    assert sorted(fits) == sorted(want_fits)
    for location, want in want_fits.items():
        np.testing.assert_allclose(fits[location], want, rtol=0, atol=1e-14, err_msg=f"location {location}")


@pytest.mark.parametrize("setting", ["B", "C"])
def test_one_heisenberg_pass_per_sweep(setting, monkeypatch):
    """Under T1 a sweep carries its readouts back once: two adjoint segment
    calls (decode, error), one forward call (encode) and five damping slice
    updates per call, whatever the setting reads."""
    calls = {"segment_noise_adjoint": 0, "apply_segment_noise": 0, "_damp_in_place": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(experiment, "segment_noise_adjoint")
    counted(experiment, "apply_segment_noise")
    counted(nmr_noise, "_damp_in_place")
    run = run_setting_b if setting == "B" else run_setting_c
    run(CODE, grid=np.linspace(0.0, np.pi, 5), noise=BENCH_T1)
    assert calls == {"segment_noise_adjoint": 2, "apply_segment_noise": 1, "_damp_in_place": 15}


@pytest.mark.parametrize("noise", list(ENGINE_MODELS.values()), ids=list(ENGINE_MODELS))
@pytest.mark.parametrize("setting", ["A", "B", "C"])
def test_only_multi_entry_readouts_take_the_dense_decoder_products(setting, noise, monkeypatch):
    """B and C read one entry per readout, and without T1 damping each stays
    one entry through the adjoints: the stack crosses every decoder as one
    outer product of decoder rows and calls no CodeSpec.decoder.  Setting
    A's populations and fidelity, and any stack that damping spreads, take
    one dense product per location."""
    calls = []
    inner = CodeSpec.decoder

    def counted(code, location):
        calls.append(location)
        return inner(code, location)

    monkeypatch.setattr(CodeSpec, "decoder", counted)
    if setting == "A":
        run_setting_a(CODE, noise)
    else:
        (run_setting_b if setting == "B" else run_setting_c)(CODE, grid=np.linspace(0.0, np.pi, 5), noise=noise)
    dense = setting == "A" or (noise is not None and noise.amplitude_damping)
    assert calls == (list(range(1, CODE.n + 1)) if dense else [])


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 31), st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)),
        min_size=1,
        max_size=6,
    ),
    input_k=st.sampled_from(INPUT_KS),
)
def test_one_entry_readouts_equal_the_dense_decoder_products(entries, input_k):
    """A stack of one entry w at (i, j) per readout, w complex, gives the
    transfer maps of one dense dec.T @ W @ dec.conj() per location bit for bit."""
    stack = np.zeros((len(entries), 2**CODE.n, 2**CODE.n), dtype=complex)
    for r, (i, j, w) in enumerate(entries):
        stack[r, i, j] = w
    psi = encode(CODE, INPUTS[input_k]).amplitudes
    rhos = np.outer(psi, psi.conj())[None]
    want = [experiment._transfer_map(dec.T @ stack @ dec.conj(), rhos, q) for q, dec in enumerate(CODE.decoders, 1)]
    assert experiment._transfer_maps(CODE, stack, [input_k], None).tobytes() == np.stack(want).tobytes()


def test_every_built_decoder_entry_is_real_or_imaginary():
    """What keeps the outer-product route bit for bit the dense products:
    each complex product it forms has one zero part, so no FMA can round it
    differently."""
    for dec in CODE.decoders:
        assert np.all((dec.real == 0) | (dec.imag == 0))


def rephased_code():
    """build_code's code with each decoder's rows multiplied by a fixed
    phase, so that its nonzero entries have both parts nonzero."""
    phases = np.exp(1j * (0.3 + 0.7 * np.arange(2**CODE.n)))
    return CodeSpec(CODE.codewords, CODE.encoder, tuple(phases[:, None] * dec for dec in CODE.decoders))


@pytest.mark.parametrize("model", ["none", "default", "all-knobs"])
@pytest.mark.parametrize("setting", ["B", "C"])
def test_a_rephased_code_sweeps_as_run_point_does(setting, model):
    """The one-entry route is bit for bit the dense products only for
    decoder entries that are purely real or purely imaginary, as
    build_code's are.  A decoder whose entries have both parts nonzero may
    round differently; its sweep is held to run_point to 1e-12, as
    test_sweep_matches_run_point holds build_code's."""
    code, noise = rephased_code(), ENGINE_MODELS[model]
    assert all(np.any((dec.real != 0) & (dec.imag != 0)) for dec in code.decoders)
    grid = np.linspace(0.0, np.pi, 5)
    obs = (run_setting_b if setting == "B" else run_setting_c)(code, grid=grid, noise=noise).obs
    for location in range(1, code.n + 1):
        for c, (error_type, input_k) in enumerate(SWEEP_COMBOS[setting]):
            for p, theta in enumerate(grid):
                want = run_point(code, input_k, ErrorSpec.typed(location, error_type, theta), noise)
                got = obs[location - 1, c, :, p]
                assert np.all(np.abs(got - [getattr(want, f) for f in FIELDS]) <= 1e-12), (location, c, p)


def transfer_map_calls(setting, noise, monkeypatch):
    """The (weights, rhos, location) of every _transfer_map call one run of
    the setting makes, in call order."""
    calls = []
    inner = experiment._transfer_map

    def recorded(weights, rhos, location):
        calls.append((weights.copy(), rhos.copy(), location))
        return inner(weights, rhos, location)

    monkeypatch.setattr(experiment, "_transfer_map", recorded)
    if setting == "A":
        run_setting_a(CODE, noise)
    else:
        (run_setting_b if setting == "B" else run_setting_c)(CODE, grid=np.linspace(0.0, np.pi, 5), noise=noise)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("noise", list(ENGINE_MODELS.values()), ids=list(ENGINE_MODELS))
@pytest.mark.parametrize("setting", ["A", "B", "C"])
def test_the_batched_transfer_map_equals_one_map_per_input(setting, noise, monkeypatch):
    """All of a location's inputs in one call give, bit for bit, the maps of
    one call per input: each input's products keep their own shapes."""
    calls = transfer_map_calls(setting, noise, monkeypatch)
    assert [location for _, _, location in calls] == list(range(1, CODE.n + 1))
    for weights, rhos, location in calls:
        per_input = len(weights) // len(rhos)
        want = np.concatenate([
            one_input_transfer_map(weights[i * per_input : (i + 1) * per_input], rho, location)
            for i, rho in enumerate(rhos)
        ])
        got = experiment._transfer_map(weights, rhos, location)
        assert got.shape == want.shape == (len(weights), 16)
        assert got.tobytes() == want.tobytes(), location


@pytest.mark.parametrize("setting", ["B", "C"])
def test_one_transfer_map_call_per_location(setting, monkeypatch):
    """A sweep pairs each location's readouts with all its inputs at once:
    five calls, whether it reads one input (B) or three (C)."""
    assert len(transfer_map_calls(setting, BENCH_T1, monkeypatch)) == CODE.n


@pytest.mark.parametrize("n", [2, 3, 41, 1001])
def test_the_fit_kernels_round_each_row_like_a_one_dimensional_fit(n):
    """The sweep fits all five locations in one kernel call.  Each row must
    equal the public fit on that row alone, and each row's dot product must
    be the BLAS ddot of a 1-D `row @ t`, which a gemv, np.sum or einsum over
    the stack would not round like."""
    rng = np.random.default_rng(n)
    ys = rng.normal(size=(5, n))
    xs = np.linspace(0.0, np.pi, n)
    t = np.sin(xs / 2.0) ** 2 + 0.1

    def hexed(values):
        return [float(v).hex() for v in values]

    scale = np.transpose(experiment._scale_fit(ys, t))
    line = np.transpose(experiment._line_fit(xs, ys))
    constant = np.transpose(experiment._constant_fit(ys))
    dots = experiment._dot(ys, t)
    for k, row in enumerate(ys):
        assert hexed(scale[k]) == hexed(fit_scale(row, t))
        fit = fit_line(xs, row)
        assert hexed(line[k]) == hexed((fit.slope, fit.intercept, fit.slope_stderr, fit.intercept_stderr))
        assert hexed(constant[k]) == hexed(fit_constant(row))
        assert float(dots[k]).hex() == float(row @ t).hex()
