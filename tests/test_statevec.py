"""Tests for the dense simulator kernels."""
from itertools import product

import numpy as np
import pytest

from cws552.code552 import build_code
from cws552.error_model import ErrorSpec
from cws552.nmr_noise import NmrSystem, NoiseModel, apply_amplitude_damping, apply_dephasing, simulate_spectrum
from cws552.statevec import (
    GateOp,
    MixedState,
    PureState,
    X,
    Y,
    Z,
    _apply_matrix,
    apply_gate,
    apply_gate_mixed,
    fidelity_with_pure,
    partial_trace,
    pauli_apply,
)

PAULI_2x2 = {"E": np.eye(2, dtype=complex), "X": X, "Y": Y, "Z": Z}


def kron_pauli(n, labels):
    """Dense oracle: the kron chain of single-qubit Paulis, qubit 1 first."""
    op = np.array([[1.0 + 0j]])
    for q in range(1, n + 1):
        op = np.kron(op, PAULI_2x2[labels.get(q, "E")])
    return op


SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, amps / np.linalg.norm(amps))


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGates:
    def test_x_flips_one_qubit(self):
        state = apply_gate(PureState.basis("00000"), GateOp.single(3, X))
        np.testing.assert_allclose(state.amplitudes[int("00100", 2)], 1.0)

    def test_h_makes_equal_superposition(self):
        state = apply_gate(PureState.basis("00000"), GateOp.single(1, H))
        expected = np.zeros(32, dtype=complex)
        expected[0] = expected[16] = 1 / np.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_cnot_entangles(self):
        state = apply_gate(PureState.basis("00"), GateOp.single(1, H))
        state = apply_gate(state, GateOp((1, 2), CNOT))
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_cnot_control_zero_is_identity(self):
        state = apply_gate(PureState.basis("01"), GateOp((1, 2), CNOT))
        np.testing.assert_allclose(state.amplitudes, PureState.basis("01").amplitudes)

    def test_toffoli_needs_both_controls(self):
        on = apply_gate(PureState.basis("110"), GateOp((1, 2, 3), TOFFOLI))
        off = apply_gate(PureState.basis("100"), GateOp((1, 2, 3), TOFFOLI))
        np.testing.assert_allclose(on.amplitudes, PureState.basis("111").amplitudes)
        np.testing.assert_allclose(off.amplitudes, PureState.basis("100").amplitudes)

    def test_swap_subset(self):
        state = apply_gate(PureState.basis("10000"), GateOp([1, 2], SWAP))
        np.testing.assert_allclose(state.amplitudes, PureState.basis("01000").amplitudes)

    def test_identity_subset_is_noop(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 4)
        out = apply_gate(state, GateOp([2, 4], np.eye(4, dtype=complex)))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_subset_qubit_order_matters(self):
        # CNOT with control listed second acts as a reversed CNOT
        state = apply_gate(PureState.basis("01"), GateOp((2, 1), CNOT))
        np.testing.assert_allclose(state.amplitudes, PureState.basis("11").amplitudes)


class TestKernelConsistency:
    def test_single_gate_equals_subset_kernel(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, 5)
        u = random_unitary(rng, 2)
        via_gate = apply_gate(state, GateOp.single(3, u))
        via_subset = apply_gate(state, GateOp([3], u))
        assert np.array_equal(via_gate.amplitudes, via_subset.amplitudes)

    def test_norm_preserved_by_random_circuits(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = random_state(rng, 5)
            for _ in range(6):
                k = int(rng.integers(1, 3))
                qubits = list(rng.choice(5, size=k, replace=False) + 1)
                state = apply_gate(state, GateOp(qubits, random_unitary(rng, 2**k)))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_unitary_then_inverse_roundtrips(self):
        rng = np.random.default_rng(17)
        state = random_state(rng, 5)
        u = random_unitary(rng, 8)
        forward = apply_gate(state, GateOp([2, 3, 5], u))
        back = apply_gate(forward, GateOp([2, 3, 5], u.conj().T))
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    def test_pauli_apply_matches_kron_oracle(self):
        # every Pauli on five qubits, on a vector and on a column batch, bit for bit
        rng = np.random.default_rng(29)
        vec = random_state(rng, 5).amplitudes
        batch = rng.normal(size=(32, 6)) + 1j * rng.normal(size=(32, 6))
        for word in product("EXYZ", repeat=5):
            labels = dict(zip(range(1, 6), word))
            op = kron_pauli(5, labels)
            assert np.array_equal(pauli_apply(vec, labels), op @ vec), word
            assert np.array_equal(pauli_apply(batch, labels), op @ batch), word

    def test_apply_matrix_equals_moveaxis_application(self):
        """_apply_matrix does what np.moveaxis to the front and back does,
        bit for bit, signed zeros included."""

        def via_moveaxis(vec, mat, axes, n):
            cols = vec.shape[1] if vec.ndim == 2 else 1
            t = np.moveaxis(vec.reshape([2] * n + [cols]), axes, range(len(axes)))
            t = np.moveaxis((mat @ t.reshape(2 ** len(axes), -1)).reshape(t.shape), range(len(axes)), axes)
            return t.reshape(vec.shape)

        def hexed(a):
            return [x.hex() for x in a.view(float).ravel().tolist()]

        rng = np.random.default_rng(37)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, min(n, 3) + 1))
            axes = [int(a) for a in rng.permutation(n)[:k]]
            shape = (2**n, int(rng.integers(1, 5))) if trial % 2 else (2**n,)
            vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            vec[rng.random(shape) < 0.2] = -0.0
            mat = random_unitary(rng, 2**k)
            got = _apply_matrix(vec, mat, axes, n)
            assert got.shape == vec.shape
            assert hexed(got) == hexed(via_moveaxis(vec, mat, axes, n)), (n, axes, shape)

    def test_pauli_apply_on_few_qubits_and_sparse_labels(self):
        rng = np.random.default_rng(31)
        vec = random_state(rng, 2).amplitudes
        assert np.array_equal(pauli_apply(vec, {}), vec)
        assert np.array_equal(pauli_apply(vec, {1: "X"}), np.kron(X, np.eye(2)) @ vec)
        assert np.array_equal(pauli_apply(vec, {2: "Y", 1: "Z"}), np.kron(Z, Y) @ vec)


class TestMixedStates:
    def test_pure_density_roundtrip(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 3)
        rho = state.density()
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T)
        assert abs(fidelity_with_pure(rho, state) - 1.0) < 1e-12

    def test_mixed_evolution_matches_pure(self):
        rng = np.random.default_rng(29)
        state = random_state(rng, 3)
        gate = GateOp((1, 3), random_unitary(rng, 4))
        rho_out = apply_gate_mixed(state.density(), gate)
        pure_out = apply_gate(state, gate)
        np.testing.assert_allclose(rho_out.matrix, pure_out.density().matrix, atol=1e-12)

    def test_mixed_evolution_matches_dense_kron_conjugation(self):
        """On a random full-rank rho, not only a pure one: U rho U^dag with U
        the kron chain E (x) u (x) E of the gate on its qubits."""
        rng = np.random.default_rng(41)
        for n, qubits in ((4, (2, 3)), (5, (3, 4, 5))):
            g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T)
            u = random_unitary(rng, 2 ** len(qubits))
            full = np.kron(np.kron(np.eye(2 ** (qubits[0] - 1)), u), np.eye(2 ** (n - qubits[-1])))
            got = apply_gate_mixed(MixedState(n, rho), GateOp(qubits, u)).matrix
            np.testing.assert_allclose(got, full @ rho @ full.conj().T, rtol=0, atol=1e-14)

    def test_partial_trace_of_product(self):
        state = PureState.basis("01")
        reduced = partial_trace(state.density(), [1])
        np.testing.assert_allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-15)
        reduced = partial_trace(state.density(), [2])
        np.testing.assert_allclose(reduced.matrix, [[0, 0], [0, 1]], atol=1e-15)

    def test_partial_trace_of_bell_is_maximally_mixed(self):
        state = apply_gate(apply_gate(PureState.basis("00"), GateOp.single(1, H)), GateOp((1, 2), CNOT))
        reduced = partial_trace(state.density(), [1])
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)

    def test_partial_trace_keeps_listed_order(self):
        state = PureState.basis("011")
        fwd = partial_trace(state.density(), [2, 3])
        rev = partial_trace(state.density(), [3, 2])
        np.testing.assert_allclose(fwd.matrix, PureState.basis("11").density().matrix)
        np.testing.assert_allclose(rev.matrix, PureState.basis("11").density().matrix)
        fwd = partial_trace(state.density(), [1, 2])
        rev = partial_trace(state.density(), [2, 1])
        np.testing.assert_allclose(fwd.matrix, PureState.basis("01").density().matrix)
        np.testing.assert_allclose(rev.matrix, PureState.basis("10").density().matrix)

    def test_partial_trace_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(31)
        state = random_state(rng, 5)
        reduced = partial_trace(state.density(), [2, 3, 4])
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
        np.testing.assert_allclose(reduced.matrix, reduced.matrix.conj().T, atol=1e-14)


class TestValidation:
    def test_rejects_nonunitary_matrix(self):
        with pytest.raises(ValueError, match="unitary"):
            GateOp.single(1, np.array([[1, 0], [0, 2]], dtype=complex))
        with pytest.raises(ValueError, match="unitary"):
            GateOp((1, 2), np.ones((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="unitary"):
            GateOp((1,), np.zeros((2, 2)))

    def test_rejects_non_finite_matrix(self):
        with pytest.raises(ValueError, match="non-finite"):
            GateOp.single(1, np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            GateOp((1, 2), np.diag([1, 1, 1, np.inf]).astype(complex))
        with pytest.raises(ValueError, match="non-finite"):
            GateOp((1,), np.full((2, 2), np.nan))
        # States are checked when built too, so no gate turns one into NaNs.
        with pytest.raises(ValueError, match="non-finite"):
            PureState(1, [np.nan, 0])
        with pytest.raises(ValueError, match="non-finite"):
            PureState(2, [0, 0, np.inf, 0])
        with pytest.raises(ValueError, match="non-finite"):
            MixedState(1, np.diag([1.0, np.inf]))

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(PureState.basis("00"), GateOp.single(3, X))

    def test_pauli_apply_rejects_bad_qubits_labels_and_shapes(self):
        vec = PureState.basis("00000").amplitudes
        for qubit in (0, 6, -1):
            with pytest.raises(ValueError, match="out of range"):
                pauli_apply(vec, {qubit: "X"})
        with pytest.raises(ValueError, match="E, X, Y or Z"):
            pauli_apply(vec, {2: "H"})
        with pytest.raises(ValueError, match="2\\^n"):
            pauli_apply(np.ones(6), {1: "X"})
        with pytest.raises(ValueError, match="2\\^n"):
            pauli_apply(np.ones((32, 2, 2)), {1: "X"})

    def test_rejects_repeated_labels(self):
        with pytest.raises(ValueError, match="repeated"):
            GateOp((2, 2), np.eye(4, dtype=complex))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="matrix"):
            GateOp((1, 2), np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="matrix"):
            GateOp((1,), np.eye(4))
        with pytest.raises(ValueError):
            PureState(2, np.zeros(3))

    def test_partial_trace_needs_kept_qubits(self):
        with pytest.raises(ValueError):
            partial_trace(PureState.basis("00").density(), [])

    def test_basis_rejects_nonbits(self):
        with pytest.raises(ValueError):
            PureState.basis("01a")


RHO5 = PureState.basis("00000").density()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: partial_trace(RHO5, (2.5,)), id="partial_trace-float"),
        pytest.param(lambda: partial_trace(RHO5, (2, 2)), id="partial_trace-repeated"),
        pytest.param(lambda: pauli_apply(RHO5.matrix[0], {2.5: "X"}), id="pauli_apply-float"),
        pytest.param(lambda: GateOp.single(True, X), id="GateOp-bool"),
        pytest.param(lambda: GateOp(("1", 2), np.eye(4)), id="GateOp-str"),
        pytest.param(lambda: NoiseModel.default().lam(2.5, "encode"), id="lam-float"),
        pytest.param(lambda: apply_dephasing(RHO5, True, 0.1), id="apply_dephasing-bool"),
        pytest.param(lambda: apply_amplitude_damping(RHO5, 2.0, 0.1), id="apply_amplitude_damping-float"),
        pytest.param(
            lambda: simulate_spectrum(RHO5, NmrSystem.placeholder_five_spin(), observe=2.5, t_max=1.0, dt=1e-3),
            id="simulate_spectrum-float",
        ),
        pytest.param(lambda: build_code().decoder(True), id="decoder-bool"),
        pytest.param(lambda: ErrorSpec.pauli(True, "X"), id="ErrorSpec-bool"),
    ],
)
def test_qubit_labels_must_be_distinct_integers_in_range(call):
    """Every label goes through one check: an int, not a bool, in range, not repeated."""
    with pytest.raises(ValueError, match="out of range|repeated"):
        call()


# ---------------------------------------------------------------------------
# States and gates keep read-only copies of the arrays they are built from.


def test_state_and_gate_arrays_are_read_only():
    for arr in (PureState.basis("01").amplitudes, PureState.basis("01").density().matrix, GateOp.single(1, X).matrix):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_changing_the_source_array_leaves_states_and_gates_unchanged():
    amps = np.array([1.0, 0.0], dtype=complex)
    rho = np.diag([1.0, 0.0]).astype(complex)
    m = X.copy()
    state, mixed, gate = PureState(1, amps), MixedState(1, rho), GateOp.single(1, m)
    amps[0], rho[0, 0], m[0, 0] = 3.0, 3.0, 5.0
    assert state.amplitudes.tolist() == [1.0, 0.0]
    assert mixed.matrix.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert gate.matrix.tolist() == X.tolist()
    # The gate is still the unitary that was checked, so it keeps the norm.
    out = apply_gate(PureState.basis("0"), gate).amplitudes
    assert out.tolist() == [0.0, 1.0]
    assert np.linalg.norm(out) == 1.0


def test_a_state_needs_at_least_one_qubit():
    with pytest.raises(ValueError, match="^need at least one qubit$"):
        PureState(0, [1.0])


def test_a_density_matrix_must_match_its_qubit_count():
    with pytest.raises(ValueError, match=r"^density matrix must have shape \(2, 2\), got shape \(4, 4\)$"):
        MixedState(1, np.eye(4))


def test_fidelity_needs_equal_qubit_counts():
    with pytest.raises(ValueError, match="^states have different qubit counts$"):
        fidelity_with_pure(PureState.basis("00").density(), PureState.basis("0"))


def test_a_density_matrix_needs_at_least_one_qubit():
    with pytest.raises(ValueError, match="^need at least one qubit$"):
        MixedState(0, [[1.0]])


def test_partial_trace_names_an_empty_keep():
    with pytest.raises(ValueError, match="^must keep at least one qubit$"):
        partial_trace(PureState.basis("00").density(), [])


def test_gate_keeps_its_qubit_labels_as_a_tuple():
    assert GateOp([1, 2], SWAP).qubits == (1, 2)


@pytest.mark.parametrize("bits", ["012", ""])
def test_basis_needs_a_bit_string(bits):
    with pytest.raises(ValueError, match="^not a bit string: "):
        PureState.basis(bits)


def test_partial_trace_takes_a_generator_of_labels():
    state = PureState.basis("010").density()
    got = partial_trace(state, (q for q in (3, 2)))
    assert got.matrix.tolist() == partial_trace(state, (3, 2)).matrix.tolist()
    assert got.n_qubits == 2


def test_label_errors_name_the_allowed_range():
    with pytest.raises(ValueError, match=r"^location 0 out of range: labels are positive integers$"):
        ErrorSpec(0, 0.0, 0.0, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match=r"^qubit 3 out of range: labels are integers in 1\.\.2$"):
        apply_gate(PureState.basis("00"), GateOp.single(3, X))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: PureState(2.0, [1, 0, 0, 0]), id="pure-float"),
        pytest.param(lambda: PureState(True, [1, 0]), id="pure-bool"),
        pytest.param(lambda: MixedState(1.0, np.eye(2) / 2), id="mixed-float"),
        pytest.param(lambda: MixedState(False, [[1.0]]), id="mixed-bool"),
    ],
)
def test_a_qubit_count_is_an_integer_not_a_bool(build):
    with pytest.raises(ValueError, match="^qubit count must be an integer, got "):
        build()


def test_a_numpy_integer_is_a_qubit_count():
    assert PureState(np.int64(1), [1, 0]).n_qubits == 1
    assert MixedState(np.int32(1), np.eye(2) / 2).n_qubits == 1


def test_pauli_apply_takes_a_one_qubit_vector():
    vec = np.array([0.6, 0.8j])
    for label, op in PAULI_2x2.items():
        assert np.array_equal(pauli_apply(vec, {1: label}), op @ vec), label


def test_pauli_apply_rejects_a_one_entry_vector_as_zero_qubits():
    with pytest.raises(ValueError, match=r"^expected 2\^n amplitudes per column, got shape \(1,\)$"):
        pauli_apply(np.ones(1), {})


def test_a_gate_whose_unitarity_deviation_is_nan_is_rejected():
    """Entries of 1e200 are finite, but M^dag M overflows and its deviation
    from the identity is NaN, which must fail the check, not pass it."""
    matrix = 1e200 * np.array([[1 + 1j, 1 - 1j], [0, 0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(deviation nan\)$"):
            GateOp.single(1, matrix)
