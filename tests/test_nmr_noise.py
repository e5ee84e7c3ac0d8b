"""Tests for the spin Hamiltonian, dephasing channels, and spectrum simulation."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cws552 import nmr_noise
from cws552.code552 import build_code, decode, encode
from cws552.error_model import ErrorSpec, error_unitary
from cws552.nmr_noise import (
    SEGMENTS,
    NmrSystem,
    NoiseModel,
    _damp_in_place,
    _damping_factor,
    _dephasing_mask,
    _final_knobs,
    apply_amplitude_damping,
    apply_dephasing,
    apply_segment_noise,
    energies,
    run_noisy_qecc,
    segment_noise_adjoint,
    simulate_spectrum,
)
from cws552.statevec import GateOp, MixedState, PureState, apply_gate


times = st.floats(1e-3, 1e3)


@st.composite
def nmr_systems(draw):
    n = draw(st.integers(1, 5))
    spins = st.lists(times, min_size=n, max_size=n)
    couplings = draw(st.lists(st.floats(-200.0, 200.0), min_size=n * n, max_size=n * n))
    j = np.triu(np.reshape(couplings, (n, n)), 1)
    return NmrSystem(
        nu=np.array(draw(st.lists(st.floats(-500.0, 500.0), min_size=n, max_size=n))),
        J=j + j.T,
        T1=np.array(draw(spins)),
        T2=np.array(draw(spins)),
        T2star=np.array(draw(spins)),
    )


@st.composite
def noise_models(draw):
    n = draw(st.integers(1, 5))
    t1 = draw(st.none() | st.lists(times, min_size=n, max_size=n))
    durations = draw(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3))
    return NoiseModel(
        t2=tuple(draw(st.lists(times, min_size=n, max_size=n))),
        schedule=tuple(zip(draw(st.permutations(SEGMENTS)), durations)),
        coherence_scale=draw(st.floats(0.0, 1.0)),
        depolarizing=draw(st.floats(0.0, 1.0)),
        t1=None if t1 is None else tuple(t1),
        amplitude_damping=t1 is not None and draw(st.booleans()),
    )


def two_spin_system(nu1=30.0, nu2=-20.0, j=7.0):
    return NmrSystem(
        nu=np.array([nu1, nu2]),
        J=np.array([[0.0, j], [j, 0.0]]),
        T1=np.array([5.0, 5.0]),
        T2=np.array([1.0, 1.0]),
        T2star=np.array([2.0, 2.0]),
    )


def random_density(rng, n_qubits):
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return MixedState(n_qubits, mat / np.trace(mat))


def oracle_energies(system):
    """Plain per-index loop over the Hamiltonian definition."""
    n = system.n_spins
    out = np.zeros(2**n)
    for idx in range(2**n):
        signs = [1 - 2 * ((idx >> (n - 1 - q)) & 1) for q in range(n)]
        e = sum(np.pi * system.nu[q] * signs[q] for q in range(n))
        for a in range(n):
            for b in range(a + 1, n):
                e += (np.pi / 2) * system.J[a, b] * signs[a] * signs[b]
        out[idx] = e
    return out


class TestHamiltonian:
    def test_single_spin_energies(self):
        sys1 = NmrSystem(
            nu=np.array([50.0]),
            J=np.zeros((1, 1)),
            T1=np.array([1.0]),
            T2=np.array([1.0]),
            T2star=np.array([1.0]),
        )
        np.testing.assert_allclose(energies(sys1), [np.pi * 50.0, -np.pi * 50.0])

    def test_two_spin_energies(self):
        sys2 = two_spin_system()
        pi = np.pi
        expected = np.array(
            [
                pi * 30 + pi * (-20) + (pi / 2) * 7,   # |00>
                pi * 30 - pi * (-20) - (pi / 2) * 7,   # |01>
                -pi * 30 + pi * (-20) - (pi / 2) * 7,  # |10>
                -pi * 30 - pi * (-20) + (pi / 2) * 7,  # |11>
            ]
        )
        np.testing.assert_allclose(energies(sys2), expected, atol=1e-12)

    def test_energies_match_loop_oracle_on_random_system(self):
        rng = np.random.default_rng(31)
        n = 4
        j = rng.normal(size=(n, n))
        j = j + j.T
        np.fill_diagonal(j, 0.0)
        sys4 = NmrSystem(
            nu=rng.normal(size=n) * 100,
            J=j,
            T1=np.ones(n),
            T2=np.ones(n),
            T2star=np.ones(n),
        )
        np.testing.assert_allclose(energies(sys4), oracle_energies(sys4), atol=1e-9)

    def test_system_validation(self):
        good = two_spin_system()
        with pytest.raises(ValueError, match="symmetric"):
            NmrSystem(nu=good.nu, J=np.array([[0.0, 7.0], [6.0, 0.0]]), T1=good.T1, T2=good.T2, T2star=good.T2star)
        with pytest.raises(ValueError, match="diagonal"):
            NmrSystem(nu=good.nu, J=np.array([[1.0, 7.0], [7.0, 0.0]]), T1=good.T1, T2=good.T2, T2star=good.T2star)
        with pytest.raises(ValueError, match="T2 must have"):
            NmrSystem(nu=good.nu, J=good.J, T1=good.T1, T2=np.array([1.0]), T2star=good.T2star)
        with pytest.raises(ValueError, match="positive"):
            NmrSystem(nu=good.nu, J=good.J, T1=good.T1, T2=np.array([1.0, 0.0]), T2star=good.T2star)

    @pytest.mark.parametrize("key", ["nu", "J", "T1", "T2", "T2star"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_system_rejects_non_finite_entries(self, key, bad):
        doc = NmrSystem.placeholder_five_spin().to_json_dict()
        if key == "J":
            doc["J"][1][2] = doc["J"][2][1] = bad  # still symmetric
        else:
            doc[key][3] = bad
        with pytest.raises(ValueError, match=f"{key} entries must be finite"):
            NmrSystem.from_json_dict(doc)

    def test_placeholder_profile_is_well_formed(self):
        sys5 = NmrSystem.placeholder_five_spin()
        assert sys5.n_spins == 5
        np.testing.assert_array_equal(sys5.J, sys5.J.T)
        assert energies(sys5).shape == (32,)

    @settings(max_examples=40, deadline=None)
    @given(system=nmr_systems())
    @example(system=NmrSystem.placeholder_five_spin())
    def test_system_json_round_trip(self, system):
        loaded = NmrSystem.from_json_dict(json.loads(json.dumps(system.to_json_dict())))
        for name in ("nu", "J", "T1", "T2", "T2star"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(system, name))


class TestDephasing:
    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        out = apply_dephasing(rho, 1, 0.0)
        np.testing.assert_array_equal(out.matrix, rho.matrix)

    def test_full_strength_kills_the_qubit_coherence(self):
        plus = PureState(1, np.array([1.0, 1.0]) / np.sqrt(2)).density()
        out = apply_dephasing(plus, 1, 1.0)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_closed_form_attenuation(self):
        # coherence scales by exp(-t/T2) when lam = 1 - exp(-t/T2)
        t, t2 = 0.6, 0.9
        lam = 1.0 - np.exp(-t / t2)
        plus = PureState(1, np.array([1.0, 1.0]) / np.sqrt(2)).density()
        out = apply_dephasing(plus, 1, lam)
        assert abs(out.matrix[0, 1] - 0.5 * np.exp(-t / t2)) < 1e-15

    def test_matches_kraus_oracle_on_random_states(self):
        rng = np.random.default_rng(7)
        lam = 0.37
        z = np.diag([1.0, -1.0]).astype(complex)
        for qubit in (1, 2, 3):
            rho = random_density(rng, 3)
            op = np.array([[1.0 + 0j]])
            for q in (1, 2, 3):
                op = np.kron(op, z if q == qubit else np.eye(2))
            expected = (1 - lam / 2) * rho.matrix + (lam / 2) * op @ rho.matrix @ op.conj().T
            out = apply_dephasing(rho, qubit, lam)
            np.testing.assert_allclose(out.matrix, expected, atol=1e-14)

    def test_preserves_trace_and_populations(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        out = apply_dephasing(rho, 2, 0.8)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12
        np.testing.assert_allclose(out.populations(), rho.populations(), atol=1e-14)

    def test_commutes_with_z_rotation(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 2)
        phi = 0.9
        rz = np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)])
        gate = GateOp.single(1, rz)
        from cws552.statevec import apply_gate_mixed

        a = apply_dephasing(apply_gate_mixed(rho, gate), 1, 0.4)
        b = apply_gate_mixed(apply_dephasing(rho, 1, 0.4), gate)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-14)

    def test_rejects_bad_arguments(self):
        rho = PureState.basis("00").density()
        with pytest.raises(ValueError, match="lambda"):
            apply_dephasing(rho, 1, 1.5)
        with pytest.raises(ValueError, match="qubit"):
            apply_dephasing(rho, 3, 0.5)


class TestAuxiliaryChannels:
    def test_scale_coherences(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 2).matrix
        out = _final_knobs(rho, 0.0, 0.25)
        np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)
        off = rho - np.diag(np.diag(rho))
        np.testing.assert_allclose(out - np.diag(np.diag(out)), 0.25 * off, atol=1e-15)

    def test_depolarize_limits(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, 2).matrix
        np.testing.assert_array_equal(_final_knobs(rho, 0.0, 1.0), rho)
        np.testing.assert_allclose(_final_knobs(rho, 1.0, 1.0), np.eye(4) / 4, atol=1e-15)

    def test_amplitude_damping_moves_population_down(self):
        one = PureState.basis("1").density()
        out = apply_amplitude_damping(one, 1, 0.3)
        np.testing.assert_allclose(out.populations(), [0.3, 0.7], atol=1e-15)

    def test_amplitude_damping_shrinks_coherence_by_sqrt(self):
        plus = PureState(1, np.array([1.0, 1.0]) / np.sqrt(2)).density()
        out = apply_amplitude_damping(plus, 1, 0.36)
        assert abs(out.matrix[0, 1] - 0.5 * np.sqrt(1 - 0.36)) < 1e-15
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12


class TestNoiseModel:
    def test_default_schedule_split(self):
        model = NoiseModel.default()
        durations = dict(model.schedule)
        total = sum(durations.values())
        assert abs(total - 0.65) < 1e-12
        assert abs(durations["encode"] - durations["decode"]) < 1e-15
        assert abs(durations["encode"] / durations["error"] - 6.0) < 1e-12

    def test_lambda_formula(self):
        model = NoiseModel.default()
        t = model.duration("encode")
        assert abs(model.lam(3, "encode") - (1 - np.exp(-t / 0.95))) < 1e-15

    def test_gamma_t1_formula(self):
        model = NoiseModel(
            t2=(1.0,),
            schedule=(("encode", 0.2), ("error", 0.0), ("decode", 0.0)),
            t1=(4.0,),
        )
        assert abs(model.gamma_t1(1, "encode") - (1 - np.exp(-0.05))) < 1e-15

    @pytest.mark.parametrize("qubit", [-1, 0, 6])
    def test_per_qubit_strengths_check_the_qubit_range(self, qubit):
        model = dataclasses.replace(NoiseModel.default(), t1=(5.0, 8.0, 7.0, 6.0, 9.0))
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range"):
            model.lam(qubit, "encode")
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range"):
            model.gamma_t1(qubit, "encode")

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="exactly once"):
            NoiseModel(t2=(1.0,), schedule=(("encode", 0.1), ("decode", 0.1)))
        with pytest.raises(ValueError, match="exactly once"):
            NoiseModel(
                t2=(1.0,),
                schedule=(("encode", 0.1), ("encode", 0.1), ("decode", 0.1)),
            )
        with pytest.raises(ValueError, match="nonnegative"):
            NoiseModel(t2=(1.0,), schedule=(("encode", -0.1), ("error", 0.1), ("decode", 0.1)))
        with pytest.raises(ValueError, match="positive"):
            NoiseModel(t2=(0.0,), schedule=(("encode", 0.1), ("error", 0.1), ("decode", 0.1)))
        with pytest.raises(ValueError, match="coherence_scale"):
            NoiseModel.uniform_attenuation(1.5)
        with pytest.raises(ValueError, match="requires t1"):
            NoiseModel(
                t2=(1.0,),
                schedule=(("encode", 0.1), ("error", 0.1), ("decode", 0.1)),
                amplitude_damping=True,
            )

    def test_rejects_non_finite_times(self):
        sched = (("encode", 0.1), ("error", 0.1), ("decode", 0.1))
        with pytest.raises(ValueError, match="T2 entries must be finite"):
            NoiseModel(t2=(float("nan"),) * 5, schedule=sched)
        with pytest.raises(ValueError, match="T2 entries must be finite"):
            NoiseModel(t2=(1.0, float("inf")), schedule=sched)
        with pytest.raises(ValueError, match="T1 entries must be finite"):
            NoiseModel(t2=(1.0,), schedule=sched, t1=(float("nan"),))
        with pytest.raises(ValueError, match="durations must be finite"):
            NoiseModel(t2=(1.0,), schedule=(("encode", float("nan")), ("error", 0.1), ("decode", 0.1)))
        with pytest.raises(ValueError, match="durations must be finite"):
            NoiseModel(t2=(1.0,), schedule=(("encode", 0.1), ("error", float("inf")), ("decode", 0.1)))

    def test_json_rejects_unknown_keys(self):
        doc = NoiseModel.default().to_json_dict()
        doc["depolarising"] = 0.5
        with pytest.raises(ValueError, match="depolarising"):
            NoiseModel.from_json_dict(doc)

    @settings(max_examples=60, deadline=None)
    @given(model=noise_models())
    @example(
        model=NoiseModel(
            t2=(0.8, 0.9, 1.0, 1.1, 1.2),
            schedule=(("encode", 0.3), ("error", 0.05), ("decode", 0.3)),
            coherence_scale=0.9,
            depolarizing=0.01,
            t1=(4.0, 5.0, 6.0, 7.0, 8.0),
        )
    )
    def test_json_round_trip(self, model):
        loaded = NoiseModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
        assert loaded == model

    @pytest.mark.parametrize(
        "key, value", [("amplitude_damping", "false"), ("amplitude_damping", 0), ("coherence_scale", True), ("depolarizing", "0.1")]
    )
    def test_json_values_are_not_coerced(self, key, value):
        doc = dict(damped_default().to_json_dict(), **{key: value})
        with pytest.raises(ValueError, match=key):
            NoiseModel.from_json_dict(doc)

    @pytest.mark.parametrize("n_t1", [3, 7])
    @pytest.mark.parametrize("damping", [True, False])
    def test_t1_needs_one_entry_per_qubit(self, n_t1, damping):
        with pytest.raises(ValueError, match=f"t1 has {n_t1} entries, t2 has 5"):
            NoiseModel(
                t2=(1.0,) * 5,
                schedule=(("encode", 0.1), ("error", 0.1), ("decode", 0.1)),
                t1=(5.0,) * n_t1,
                amplitude_damping=damping,
            )


T1_TIMES = (5.0, 8.0, 7.0, 6.0, 9.0)


def damped_default():
    return dataclasses.replace(NoiseModel.default(), t1=T1_TIMES, amplitude_damping=True)


def kron_kraus_damping(rho, qubit, gamma):
    """The dense form: K0 rho K0^dag + K1 rho K1^dag with kron-embedded Kraus operators."""
    def embed(mat):
        op = np.array([[1.0 + 0j]])
        for q in range(1, rho.n_qubits + 1):
            op = np.kron(op, mat if q == qubit else np.eye(2, dtype=complex))
        return op

    k0 = embed(np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex))
    k1 = embed(np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex))
    return k0 @ rho.matrix @ k0.conj().T + k1 @ rho.matrix @ k1.conj().T


def slice_damp_in_place(rhos, qubit, gamma, adjoint=False):
    """The per-block kernel: four strided passes over quarter blocks of a 6-D
    view, one multiply or add per entry and block.  Kept as the oracle of the
    factor-matrix kernel."""
    n = rhos.shape[-1].bit_length() - 1
    t = rhos.view()
    t.shape = rhos.shape[:-2] + (2 ** (qubit - 1), 2, 2 ** (n - qubit)) * 2
    keep = np.sqrt(1.0 - gamma)
    t[..., :, 0, :, :, 1, :] *= keep
    t[..., :, 1, :, :, 0, :] *= keep
    if adjoint:
        t[..., :, 1, :, :, 1, :] *= 1.0 - gamma
        t[..., :, 1, :, :, 1, :] += gamma * t[..., :, 0, :, :, 0, :]
    else:
        t[..., :, 0, :, :, 0, :] += gamma * t[..., :, 1, :, :, 1, :]
        t[..., :, 1, :, :, 1, :] *= 1.0 - gamma


# Finite parts small enough that no sum of two overflows, subnormals included.
NONZERO_PARTS = st.floats(5e-324, 1e300) | st.floats(-1e300, -5e-324)
ANY_PARTS = NONZERO_PARTS | st.sampled_from([0.0, -0.0])


@st.composite
def damping_cases(draw, parts):
    """(stack, qubit, gamma, adjoint): a complex stack (..., 2^n, 2^n) for n in 1-5,
    drawn part by part, a qubit, gamma in (0, 1] and a direction."""
    n = draw(st.integers(1, 5))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    shape = lead + (2**n, 2 ** (n + 1))
    stack = draw(arrays(np.float64, shape, elements=parts)).view(complex)
    gamma = draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True))
    return stack, draw(st.integers(1, n)), gamma, draw(st.booleans())


def both_kernels(stack, qubit, gamma, adjoint):
    """(factor-matrix kernel, slice oracle) on copies of `stack`."""
    n = stack.shape[-1].bit_length() - 1
    got, want = stack.copy(), stack.copy()
    _damp_in_place(got, qubit, gamma, _damping_factor(n, qubit, gamma), adjoint)
    slice_damp_in_place(want, qubit, gamma, adjoint)
    return got, want


class TestDampingKernel:
    @settings(max_examples=200, deadline=None)
    @given(case=damping_cases(ANY_PARTS))
    def test_equals_the_slice_kernel(self, case):
        got, want = both_kernels(*case)
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(case=damping_cases(NONZERO_PARTS))
    def test_equals_the_slice_kernel_bit_for_bit_without_zero_parts(self, case):
        got, want = both_kernels(*case)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("adjoint", [True, False])
    def test_only_the_sign_of_a_zero_part_may_differ(self, adjoint):
        # The factor leaves qubit 1's (0,0) block at 1.  A -0.0 real part there
        # beside a negative imaginary part comes out of the 1+0j multiply as
        # +0.0; the slice kernel leaves it -0.0 (forward, gamma times the
        # (1,1) block adds a -0.0 real part).  The other stack items have no
        # zero part and must match bit for bit.
        rng = np.random.default_rng(71)
        stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        stack[0, :2, :2] = -0.0 - 1j
        stack[0, 2:, 2:] = complex(-0.0, 0.0)
        got, want = both_kernels(stack, 1, 0.25, adjoint)
        assert np.array_equal(got, want)
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert differ.any()
        assert np.all(got.view(float)[differ] == 0.0)
        assert got[1:].tobytes() == want[1:].tobytes()

    def test_a_model_builds_each_factor_once_and_read_only(self, monkeypatch):
        built = []
        inner = nmr_noise._damping_factor

        def counted(n, qubit, gamma):
            built.append((qubit, gamma))
            return inner(n, qubit, gamma)

        monkeypatch.setattr(nmr_noise, "_damping_factor", counted)
        model = damped_default()
        rho = random_density(np.random.default_rng(73), 5).matrix
        for _ in range(3):
            for segment in SEGMENTS:
                apply_segment_noise(rho, model, segment)
                segment_noise_adjoint(np.stack([rho, rho]), model, segment)
        assert len(built) == 15
        for segment in SEGMENTS:
            _, damping = model._segment_channels[segment]
            assert [(q, g) for q, g, _ in damping] == [(q, model.gamma_t1(q, segment)) for q in range(1, 6)]
            for qubit, gamma, factor in damping:
                assert factor.shape == (32, 32) and not factor.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    factor[0, 0] = 2.0
        assert len(built) == 15

    def test_a_zero_gamma_builds_no_factor(self):
        model = dataclasses.replace(damped_default(), schedule=(("encode", 0.0), ("error", 0.1), ("decode", 0.0)))
        assert model._segment_channels["encode"][1] == ()
        assert [q for q, _, _ in model._segment_channels["error"][1]] == [1, 2, 3, 4, 5]

    @settings(max_examples=50, deadline=None)
    @given(model=noise_models(), seed=st.integers(0, 2**32 - 1), segment=st.sampled_from(SEGMENTS), adjoint=st.booleans())
    def test_segment_kernel_equals_the_mask_and_slice_kernels(self, model, seed, segment, adjoint):
        # A gamma of 1 or a mask entry of 0 zeroes parts, so only == is required.
        n = len(model.t2)
        stack = np.random.default_rng(seed).normal(size=(2, 2**n, 2 ** (n + 1))).view(complex)
        want = np.multiply(stack, _dephasing_mask([model.lam(q, segment) for q in range(1, n + 1)]), dtype=complex)
        for qubit in range(1, n + 1) if model.amplitude_damping else ():
            if gamma := model.gamma_t1(qubit, segment):
                slice_damp_in_place(want, qubit, gamma, adjoint)
        if adjoint:
            got = segment_noise_adjoint(stack, model, segment)
        else:
            got = apply_segment_noise(stack, model, segment)
        assert np.array_equal(got, want)


class TestSegmentKernel:
    @pytest.mark.parametrize("model", [NoiseModel.default(), damped_default()], ids=["dephasing", "damping"])
    @pytest.mark.parametrize("segment", ["encode", "error", "decode"])
    def test_equals_sequential_public_channels(self, model, segment):
        rho = random_density(np.random.default_rng(41), 5)
        expected = rho
        for q in range(1, 6):
            expected = apply_dephasing(expected, q, model.lam(q, segment))
        if model.amplitude_damping:
            for q in range(1, 6):
                expected = apply_amplitude_damping(expected, q, model.gamma_t1(q, segment))
        out = apply_segment_noise(rho.matrix, model, segment)
        np.testing.assert_allclose(out, expected.matrix, rtol=0, atol=1e-14)

    def test_amplitude_damping_matches_kron_kraus(self):
        rng = np.random.default_rng(43)
        for n_qubits in (1, 3, 5):
            rho = random_density(rng, n_qubits)
            for qubit in range(1, n_qubits + 1):
                gamma = float(rng.uniform(0.0, 1.0))
                out = apply_amplitude_damping(rho, qubit, gamma)
                np.testing.assert_allclose(out.matrix, kron_kraus_damping(rho, qubit, gamma), rtol=0, atol=1e-15)

    def test_amplitude_damping_rejects_bad_arguments(self):
        rho = PureState.basis("00").density()
        with pytest.raises(ValueError, match="gamma"):
            apply_amplitude_damping(rho, 1, 1.5)
        with pytest.raises(ValueError, match="qubit"):
            apply_amplitude_damping(rho, 3, 0.5)

    def test_stack_equals_one_matrix_at_a_time(self):
        rng = np.random.default_rng(47)
        model = damped_default()
        stack = np.stack([random_density(rng, 5).matrix for _ in range(4)])
        out = apply_segment_noise(stack, model, "encode")
        for rho, got in zip(stack, out):
            np.testing.assert_array_equal(got, apply_segment_noise(rho, model, "encode"))

    def test_leaves_input_untouched(self):
        rho = random_density(np.random.default_rng(53), 5).matrix
        before = rho.copy()
        apply_segment_noise(rho, damped_default(), "decode")
        np.testing.assert_array_equal(rho, before)

    @pytest.mark.parametrize("model", [NoiseModel.default(), damped_default()], ids=["dephasing", "damping"])
    def test_adjoint_pairs_with_the_forward_kernel(self, model):
        rng = np.random.default_rng(59)
        rho = random_density(rng, 5).matrix
        weights = rng.normal(size=(3, 32, 32)) + 1j * rng.normal(size=(3, 32, 32))
        for segment in ("encode", "error", "decode"):
            forward = np.sum(weights * apply_segment_noise(rho, model, segment), axis=(1, 2))
            backward = np.sum(segment_noise_adjoint(weights, model, segment) * rho, axis=(1, 2))
            np.testing.assert_allclose(backward, forward, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("p, c", [(0.1, 0.9), (1.0, 1.0), (0.0, 0.15)])
    def test_final_knobs_adjoint_pairs_with_the_forward_knobs(self, p, c):
        rng = np.random.default_rng(67)
        rho = random_density(rng, 5).matrix
        weights = rng.normal(size=(3, 32, 32)) + 1j * rng.normal(size=(3, 32, 32))
        forward = np.sum(weights * _final_knobs(rho, p, c), axis=(1, 2))
        backward = np.sum(_final_knobs(weights, p, c, adjoint=True) * rho, axis=(1, 2))
        np.testing.assert_allclose(backward, forward, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("model", [NoiseModel.default(), damped_default()], ids=["dephasing", "damping"])
    def test_adjoint_in_place_equals_a_new_array(self, model):
        weights = np.random.default_rng(61).normal(size=(2, 3, 32, 32)) * (1 + 1j)
        weights[0, 0, 1, 2] = -0.0
        expected = segment_noise_adjoint(weights, model, "error")
        got = segment_noise_adjoint(weights, model, "error", out=weights)
        assert got is weights
        # float.hex tells -0.0 from 0.0
        assert [x.hex() for x in got.view(float).ravel().tolist()] == [
            x.hex() for x in expected.view(float).ravel().tolist()
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        segment=st.sampled_from(["encode", "error", "decode"]),
        scale=st.floats(0.1, 20.0),
        damping=st.booleans(),
    )
    def test_keeps_trace_hermiticity_and_positivity(self, seed, segment, scale, damping):
        base = NoiseModel.default()
        model = dataclasses.replace(
            base,
            schedule=tuple((seg, scale * dur) for seg, dur in base.schedule),
            t1=T1_TIMES,
            amplitude_damping=damping,
        )
        rng = np.random.default_rng(seed)
        # rank-deficient inputs put eigenvalues at zero, where positivity is tightest
        rank = int(rng.integers(1, 33))
        a = rng.normal(size=(32, rank)) + 1j * rng.normal(size=(32, rank))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = apply_segment_noise(rho, model, segment)
        assert abs(np.trace(out) - 1.0) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, rtol=0, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(out)) > -1e-12


class TestNoisyPipeline:
    def test_zero_durations_reproduce_pure_pipeline(self):
        code = build_code()
        model = NoiseModel(t2=(1.0,) * 5, schedule=tuple((s, 0.0) for s in ("encode", "error", "decode")))
        spec = ErrorSpec.typed(3, "Y", 0.8)
        register = PureState.basis("010")

        noisy = run_noisy_qecc(code, register, spec, model)

        psi = encode(code, register)
        psi = apply_gate(psi, GateOp.single(3, error_unitary(spec)))
        pure = decode(code, psi, 3).density()
        assert 0.5 * np.abs(np.linalg.eigvalsh(noisy.matrix - pure.matrix)).sum() < 1e-10  # trace distance

    def test_coherence_mass_decreases_with_duration(self):
        code = build_code()
        spec = ErrorSpec.typed(2, "X", 1.1)
        register = PureState(3, np.array([1, 0, 0, 0, 1, 0, 0, 0]) / np.sqrt(2))
        masses = []
        for factor in (0.5, 1.0, 2.0):
            model = NoiseModel(
                t2=(0.85, 1.10, 0.95, 0.80, 1.00),
                schedule=tuple((s, factor * d) for s, d in NoiseModel.default().schedule),
            )
            rho = run_noisy_qecc(code, register, spec, model)
            masses.append(np.sum(np.abs(rho.matrix - np.diag(np.diag(rho.matrix)))))
        assert masses[0] > masses[1] > masses[2]

    def test_trace_preserved_under_default_noise(self):
        code = build_code()
        rho = run_noisy_qecc(code, PureState.basis("001"), ErrorSpec.pauli(4, "Z"), NoiseModel.default())
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-10

    def test_qubit_count_mismatch_raises(self):
        code = build_code()
        model = NoiseModel(t2=(1.0,) * 3, schedule=tuple((s, 0.0) for s in ("encode", "error", "decode")))
        with pytest.raises(ValueError, match="covers 3 qubits"):
            run_noisy_qecc(code, PureState.basis("000"), ErrorSpec.pauli(1, "E"), model)


def peak_frequencies(spectrum, count):
    """Frequencies of the `count` strongest local maxima of the magnitude."""
    freqs = np.array([f for f, _ in spectrum])
    mags = np.array([abs(a) for _, a in spectrum])
    peaks = [
        i
        for i in range(1, len(mags) - 1)
        if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1] and mags[i] > 1e-6
    ]
    peaks.sort(key=lambda i: -mags[i])
    return freqs[peaks[:count]]


class TestSpectrum:
    def test_single_spin_peak_at_shift(self):
        sys1 = NmrSystem(
            nu=np.array([50.0]),
            J=np.zeros((1, 1)),
            T1=np.array([1.0]),
            T2=np.array([1.0]),
            T2star=np.array([2.0]),
        )
        plus = PureState(1, np.array([1.0, 1.0]) / np.sqrt(2)).density()
        spec = simulate_spectrum(plus, sys1, observe=1, t_max=4.0, dt=0.005)
        bin_width = 1.0 / 4.0
        (peak,) = peak_frequencies(spec, 1)
        assert abs(peak - 50.0) <= bin_width + 1e-9

    def test_spectrum_sums_to_initial_signal(self):
        sys1 = NmrSystem(
            nu=np.array([50.0]),
            J=np.zeros((1, 1)),
            T1=np.array([1.0]),
            T2=np.array([1.0]),
            T2star=np.array([0.2]),
        )
        plus = PureState(1, np.array([1.0, 1.0]) / np.sqrt(2)).density()
        spec = simulate_spectrum(plus, sys1, observe=1, t_max=4.0, dt=0.005)
        total = sum(a for _, a in spec)
        assert abs(total - 1.0) < 1e-9  # M(0) = 2 rho_01 = 1

    def test_partner_in_zero_gives_single_shifted_line(self):
        sys2 = two_spin_system()
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[2] = 1 / np.sqrt(2)  # (|00> + |10>)/sqrt(2): spin 1 in |+>, spin 2 in |0>
        rho = PureState(2, amps).density()
        spec = simulate_spectrum(rho, sys2, observe=1, t_max=4.0, dt=0.005)
        bin_width = 0.25
        (peak,) = peak_frequencies(spec, 1)
        assert abs(peak - (30.0 + 3.5)) <= bin_width + 1e-9
        # the other doublet component carries no weight
        mags = {f: abs(a) for f, a in spec}
        assert mags[min(mags, key=lambda f: abs(f - 26.5))] < 0.02

    def test_mixed_partner_gives_doublet_split_by_j(self):
        sys2 = two_spin_system()
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        rho = MixedState(2, np.kron(plus, np.eye(2) / 2))
        spec = simulate_spectrum(rho, sys2, observe=1, t_max=4.0, dt=0.005)
        peaks = sorted(peak_frequencies(spec, 2))
        assert len(peaks) == 2
        assert abs((peaks[1] - peaks[0]) - 7.0) <= 0.25 + 1e-9
        assert abs((peaks[0] + peaks[1]) / 2 - 30.0) <= 0.25 + 1e-9

    def test_aliasing_and_mismatch_errors(self):
        sys2 = two_spin_system()
        rho = PureState.basis("00").density()
        with pytest.raises(ValueError, match="aliases"):
            simulate_spectrum(rho, sys2, observe=1, t_max=1.0, dt=0.02)
        with pytest.raises(ValueError, match="spins"):
            simulate_spectrum(PureState.basis("000").density(), sys2, observe=1, t_max=1.0, dt=0.005)
        with pytest.raises(ValueError, match="observe"):
            simulate_spectrum(rho, sys2, observe=3, t_max=1.0, dt=0.005)

    @pytest.mark.parametrize("t_max, dt", [(float("inf"), 0.005), (float("nan"), 0.005), (1.0, float("inf")), (1.0, float("nan"))])
    def test_rejects_non_finite_times(self, t_max, dt):
        with pytest.raises(ValueError, match="t_max and dt must be finite"):
            simulate_spectrum(PureState.basis("00").density(), two_spin_system(), observe=1, t_max=t_max, dt=dt)

    def test_rejects_a_signal_over_the_size_cap(self):
        # Two spins give two transitions, so one sample over half the cap is
        # rejected before anything is allocated.
        dt = 2.0**-8
        with pytest.raises(ValueError, match=r"t_max / dt = 8\.38861e\+06 samples for 2 transitions exceeds the cap of 16777216"):
            simulate_spectrum(
                PureState.basis("00").density(), two_spin_system(), observe=1, t_max=(2**23 + 1) * dt, dt=dt
            )

    def test_frequencies_ascend(self):
        sys2 = two_spin_system()
        rho = PureState.basis("00").density()
        spec = simulate_spectrum(rho, sys2, observe=1, t_max=1.0, dt=0.005)
        freqs = [f for f, _ in spec]
        assert freqs == sorted(freqs)


SCHEDULE = (("encode", 0.1), ("error", 0.1), ("decode", 0.1))


def system_with(**entries):
    return NmrSystem.from_json_dict(dict(NmrSystem.placeholder_five_spin().to_json_dict(), **entries))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: NoiseModel(t2=("0.85",) * 5, schedule=SCHEDULE), id="t2-strings"),
        pytest.param(lambda: NoiseModel(t2=(True,) * 5, schedule=SCHEDULE), id="t2-bools"),
        pytest.param(lambda: NoiseModel(t2=5, schedule=SCHEDULE), id="t2-scalar"),
        pytest.param(lambda: NoiseModel(t2=None, schedule=SCHEDULE), id="t2-none"),
        pytest.param(lambda: NoiseModel(t2=(1.0,) * 5, schedule=SCHEDULE, t1=("5",) * 5), id="t1-strings"),
        pytest.param(lambda: NoiseModel(t2=(1.0,) * 5, schedule=3), id="schedule-scalar"),
        pytest.param(
            lambda: NoiseModel(t2=(1.0,) * 5, schedule=(("encode", "0.1"), ("error", 0.1), ("decode", 0.1))),
            id="duration-string",
        ),
        pytest.param(lambda: system_with(nu=["120"] * 5), id="nu-strings"),
        pytest.param(lambda: system_with(T2star=[True] * 5), id="T2star-bools"),
        pytest.param(lambda: system_with(J=[0.0] * 5), id="J-one-dimensional"),
    ],
)
def test_noise_and_system_numbers_must_be_real_arrays(build):
    """NoiseModel and NmrSystem numbers share one check: real, not bool or string."""
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: NoiseModel(t2=(1.0,), schedule=SCHEDULE, coherence_scale="0.5"), id="coherence_scale-string"),
        pytest.param(lambda: NoiseModel(t2=(1.0,), schedule=SCHEDULE, coherence_scale=True), id="coherence_scale-bool"),
        pytest.param(lambda: NoiseModel(t2=(1.0,), schedule=SCHEDULE, depolarizing=float("nan")), id="depolarizing-nan"),
        pytest.param(lambda: apply_dephasing(PureState.basis("0").density(), 1, "0.1"), id="lambda-string"),
        pytest.param(lambda: apply_amplitude_damping(PureState.basis("0").density(), 1, True), id="gamma-bool"),
        pytest.param(lambda: NoiseModel.uniform_attenuation("0.5"), id="scale-string"),
        pytest.param(lambda: NoiseModel(t2=(1.0,), schedule=SCHEDULE, depolarizing=True), id="p-bool"),
        pytest.param(lambda: NoiseModel(t2=(1.0,), schedule=SCHEDULE, depolarizing=-0.1), id="p-negative"),
    ],
)
def test_strengths_must_be_real_numbers_in_the_unit_interval(call):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        call()


def test_system_arrays_are_read_only_copies():
    j = NmrSystem.placeholder_five_spin().J.copy()
    t2star = np.array([0.12, 0.15, 0.13, 0.11, 0.14])
    system = dataclasses.replace(NmrSystem.placeholder_five_spin(), J=j, T2star=t2star)
    j[0, 1], t2star[0] = 99.0, -0.5
    assert system.J[0, 1] == 35.0 and system.T2star[0] == 0.12
    for name in ("nu", "J", "T1", "T2", "T2star"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(system, name)[0] = -0.5


def test_system_rejects_a_coupling_matrix_of_the_wrong_shape():
    good = two_spin_system()
    with pytest.raises(ValueError, match=r"^J must have shape \(2, 2\), got shape \(3, 3\)$"):
        NmrSystem(nu=good.nu, J=np.zeros((3, 3)), T1=good.T1, T2=good.T2, T2star=good.T2star)


def test_energies_refuse_more_than_ten_spins():
    n = 11
    system = NmrSystem(nu=np.zeros(n), J=np.zeros((n, n)), T1=np.ones(n), T2=np.ones(n), T2star=np.ones(n))
    with pytest.raises(ValueError, match="^refusing to build a Hamiltonian beyond 10 spins$"):
        energies(system)


def test_duration_of_an_unknown_segment_is_an_error():
    with pytest.raises(ValueError, match="^segment 'readout' not in schedule$"):
        NoiseModel.default().duration("readout")


@pytest.mark.parametrize("kernel", [apply_segment_noise, segment_noise_adjoint])
def test_the_segment_kernels_reject_an_unknown_segment_name(kernel):
    rho = PureState.basis("00000").density().matrix
    with pytest.raises(ValueError, match="^segment 'readout' not in schedule$"):
        kernel(rho, NoiseModel.default(), "readout")


def test_gamma_t1_needs_t1_times():
    with pytest.raises(ValueError, match="^no t1 times configured$"):
        NoiseModel.default().gamma_t1(1, "encode")


def test_spectrum_needs_at_least_two_samples():
    """t_max / dt = 1.4 rounds to one sample."""
    state = PureState.basis("00000").density()
    with pytest.raises(ValueError, match="^need at least two samples$"):
        simulate_spectrum(state, NmrSystem.placeholder_five_spin(), 1, 1.4e-3, 1e-3)


def test_a_spin_system_needs_at_least_one_spin():
    with pytest.raises(ValueError, match="^a spin system needs at least one spin: nu is empty$"):
        NmrSystem(nu=[], J=np.zeros((0, 0)), T1=[], T2=[], T2star=[])


def test_cached_segment_channels_are_read_only():
    model = damped_default()
    for segment in SEGMENTS:
        mask, damping = model._segment_channels[segment]
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = 0.5
        for _, _, factor in damping:
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.5


def test_energies_of_ten_spins_match_the_oracle():
    rng = np.random.default_rng(10)
    n = 10
    j = np.triu(rng.normal(size=(n, n)) * 20.0, 1)
    system = NmrSystem(nu=rng.normal(size=n) * 100.0, J=j + j.T, T1=np.ones(n), T2=np.ones(n), T2star=np.ones(n))
    np.testing.assert_allclose(energies(system), oracle_energies(system), rtol=0, atol=1e-9)


def test_spectrum_rejects_a_shift_at_the_nyquist_frequency():
    """8 Hz sampled every 1/16 s sits exactly at the Nyquist frequency."""
    with pytest.raises(ValueError, match=r"^dt 0\.0625 aliases shifts up to 8\.0 Hz"):
        simulate_spectrum(PureState.basis("00").density(), two_spin_system(nu1=8.0, nu2=-2.0), 1, 1.0, 0.0625)


def test_a_signal_exactly_at_the_size_cap_is_allowed(monkeypatch):
    monkeypatch.setattr(nmr_noise, "SPECTRUM_SIZE_CAP", 2 * 64)
    dt = 2.0**-8
    state, system = PureState.basis("00").density(), two_spin_system()
    assert len(simulate_spectrum(state, system, observe=1, t_max=64 * dt, dt=dt)) == 64
    with pytest.raises(ValueError, match="samples for 2 transitions exceeds the cap of 128 "):
        simulate_spectrum(state, system, observe=1, t_max=65 * dt, dt=dt)


@pytest.mark.parametrize("entry", [("encode", 0.1, 0.2), ("encode",), (1, 0.1)])
def test_schedule_entries_must_be_segment_duration_pairs(entry):
    with pytest.raises(ValueError, match=r"^schedule must be \(segment, duration\) pairs"):
        NoiseModel(t2=(1.0,), schedule=(entry, ("error", 0.1), ("decode", 0.1)))
