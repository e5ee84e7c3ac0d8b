"""Tests for the code construction, encode/decode, and the brute-force verifiers."""
import hashlib
import json
import math
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cws552 import code552
from cws552.code552 import (
    BRANCH_LABELS,
    CODEWORD_PAIRS,
    CodeSpec,
    DISTANCE_ATOL,
    KL_LABELS,
    LOGICAL_STRINGS,
    REGISTER_QUBITS,
    SYNDROME_MAP,
    build_code,
    code_from_json_dict,
    code_to_json_dict,
    codeword_orthonormality_deviation,
    decode,
    encode,
    verify_distance,
    verify_erasure_correctability,
    _branch_sources,
    _branch_target_index,
    _decoder_deviation,
    _decoder_matrix,
)
from cws552.error_model import ErrorSpec, error_unitary, pauli_expand
from cws552.statevec import GateOp, PureState, apply_gate, fidelity_with_pure, partial_trace

PAULI_2x2 = {
    "E": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Codeword construction written out by hand, independent of build_code.
HAND_PAIRS = [
    ("00001", "11110"),
    ("00010", "11101"),
    ("01000", "10111"),
    ("00100", "11011"),
    ("10000", "01111"),
]


def hand_codeword(b):
    v = np.zeros(32, dtype=complex)
    lo, hi = HAND_PAIRS[b]
    v[int(lo, 2)] = v[int(hi, 2)] = 1 / np.sqrt(2)
    return v


def hand_pauli(assignment):
    """Independent kron-chain Pauli embedding for the oracle routes."""
    op = np.array([[1.0 + 0j]])
    for q in range(1, 6):
        op = np.kron(op, PAULI_2x2[assignment.get(q, "E")])
    return op


def random_logical(rng):
    amps = np.zeros(8, dtype=complex)
    amps[:5] = rng.normal(size=5) + 1j * rng.normal(size=5)
    amps /= np.linalg.norm(amps)
    return PureState(3, amps)


def _unit_norm(values):
    return np.linalg.norm(values) > 0.1


@st.composite
def registers(draw):
    """Logical register states: five complex amplitudes on the logical basis."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10).filter(_unit_norm))
    amps = np.zeros(8, dtype=complex)
    amps[:5] = np.array(parts[:5]) + 1j * np.array(parts[5:])
    return PureState(3, amps / np.linalg.norm(amps))


@st.composite
def rotation_errors(draw):
    axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(_unit_norm)))
    return ErrorSpec(
        location=draw(st.integers(1, 5)),
        alpha=draw(st.floats(0.0, 2 * np.pi)),
        theta=draw(st.floats(-np.pi, np.pi)),
        axis=tuple(axis / np.linalg.norm(axis)),
    )


@pytest.fixture(scope="module")
def code():
    return build_code()


def test_codewords_match_hand_construction(code):
    for b in range(5):
        np.testing.assert_array_equal(code.codewords[:, b], hand_codeword(b))


def test_codewords_orthonormal_by_direct_inner_products(code):
    # oracle route: raw vdot on the hand-built vectors
    for b in range(5):
        for c in range(5):
            want = 1.0 if b == c else 0.0
            assert abs(np.vdot(hand_codeword(b), hand_codeword(c)) - want) < 1e-12
    assert codeword_orthonormality_deviation(code) < 1e-12


def test_encoder_maps_each_basis_input_to_its_codeword(code):
    for b, bits in enumerate(LOGICAL_STRINGS):
        out = encode(code, PureState.basis(bits))
        np.testing.assert_allclose(out.amplitudes, hand_codeword(b), atol=1e-12)


def test_encoder_is_linear_on_superpositions(code):
    reg = PureState(3, np.array([0, 1, 1, 0, 0, 0, 0, 0]) / np.sqrt(2))
    out = encode(code, reg)
    expected = (hand_codeword(1) + hand_codeword(2)) / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_encoder_matrix_on_all_zeros(code):
    np.testing.assert_allclose(code.encoder[:, 0], hand_codeword(0), atol=1e-12)


H_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def circuit_encoder():
    """Reference encoder as a circuit: a basis permutation taking |0,b,0> to
    the qubit-1 = 0 member of pair b (the other inputs to the free strings,
    both in index order), then a Hadamard on qubit 1 (a kron product) and
    CNOTs from qubit 1 to qubits 2..5 (row permutations)."""
    mapping = {
        int("0" + bits + "0", 2): int(lo if lo[0] == "0" else hi, 2)
        for bits, (lo, hi) in zip(LOGICAL_STRINGS, HAND_PAIRS)
    }
    free_sources = [i for i in range(32) if i not in mapping]
    free_targets = [i for i in range(32) if i not in mapping.values()]
    mapping.update(zip(free_sources, free_targets))
    u = np.zeros((32, 32), dtype=complex)
    for src, dst in mapping.items():
        u[dst, src] = 1.0
    u = np.kron(H_GATE, np.eye(16)) @ u
    for target in (2, 3, 4, 5):
        # The CNOT flips the target's bit in every index whose qubit 1 is set.
        u = u[[i ^ (1 << (5 - target) if i & 16 else 0) for i in range(32)]]
    return u


def test_encoder_matches_the_hadamard_cnot_circuit(code):
    np.testing.assert_array_equal(code.encoder, circuit_encoder())


# sha256 of the encoder's little-endian complex128 bytes.  Every entry is 0 or
# +-1/sqrt(2), both correctly rounded, so the bytes are the same on every IEEE
# platform.
ENCODER_BYTES_SHA256 = "2a8d7bca8447047d3a617b6f95ff5ec65fc4aad790363037ded9b81fa4a485fd"


def test_encoder_bytes_are_pinned(code):
    data = np.asarray(code.encoder, dtype="<c16").tobytes()
    assert hashlib.sha256(data).hexdigest() == ENCODER_BYTES_SHA256


def test_encoder_and_decoders_are_unitary(code):
    np.testing.assert_allclose(code.encoder.conj().T @ code.encoder, np.eye(32), atol=1e-12)
    for q in range(1, 6):
        d = code.decoder(q)
        np.testing.assert_allclose(d.conj().T @ d, np.eye(32), atol=1e-12)


def test_encode_rejects_support_outside_logical_basis(code):
    bad = np.zeros(8, dtype=complex)
    bad[5] = 1.0
    with pytest.raises(ValueError, match="outside the logical basis"):
        encode(code, PureState(3, bad))
    with pytest.raises(ValueError, match="register"):
        encode(code, PureState.basis("00"))


@pytest.mark.parametrize(
    "index, value",
    [(5, np.nan), (6, np.nan), (7, np.nan), (0, np.nan), (2, np.inf)],
    ids=["nan-on-101", "nan-on-110", "nan-on-111", "nan-on-000", "inf-on-010"],
)
def test_encode_rejects_non_finite_amplitudes(code, index, value):
    # A NaN on 101, 110 or 111 compares false against the support tolerance,
    # so the finite check, not the support check, has to catch it.
    amps = np.zeros(8, dtype=complex)
    amps[index] = value
    with pytest.raises(ValueError, match="non-finite"):
        encode(code, PureState(3, amps))


def test_decode_without_error_returns_clean_syndrome(code):
    for b, bits in enumerate(LOGICAL_STRINGS):
        for location in range(1, 6):
            out = decode(code, encode(code, PureState.basis(bits)), location)
            expected = PureState.basis("0" + bits + "0")
            np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-12)


def test_decode_bit_flip_sets_syndrome_01(code):
    psi = encode(code, PureState.basis("000"))
    psi = apply_gate(psi, GateOp.single(2, PAULI_2x2["X"]))
    out = decode(code, psi, 2)
    np.testing.assert_allclose(out.amplitudes, PureState.basis("00001").amplitudes, atol=1e-12)


def test_decode_rotation_splits_into_two_branches(code):
    theta = 0.7
    psi = encode(code, PureState.basis("100"))
    psi = apply_gate(psi, GateOp.single(4, error_unitary(ErrorSpec.typed(4, "Y", theta))))
    out = decode(code, psi, 4)
    expected = np.zeros(32, dtype=complex)
    expected[int("01000", 2)] = np.cos(theta / 2)
    expected[int("11001", 2)] = -1j * np.sin(theta / 2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_error_images_are_orthonormal_at_every_location(code):
    # what makes the index-map decoder unitary
    for q in range(1, 6):
        images = []
        for label in ("E", "X", "Z", "Y"):
            op = hand_pauli({q: label})
            images.extend(op @ hand_codeword(b) for b in range(5))
        gram = np.array([[np.vdot(u, v) for v in images] for u in images])
        assert np.max(np.abs(gram - np.eye(20))) < 1e-12


def loop_decoder(location):
    """Reference decoder: vector-by-vector two-pass Gram-Schmidt on dense Paulis."""
    sources, targets = [], []
    for label in ("E", "X", "Z", "Y"):
        j, l = (int(c) for c in SYNDROME_MAP[label])
        for b in range(5):
            sources.append(hand_pauli({location: label}) @ hand_codeword(b))
            targets.append((j << 4) | (b << 1) | l)
    basis, completion = list(sources), []
    for idx in range(32):
        v = np.zeros(32, dtype=complex)
        v[idx] = 1.0
        for _ in range(2):
            for u in basis:
                v = v - np.vdot(u, v) * u
        if np.linalg.norm(v) > 1e-6:
            v = v / np.linalg.norm(v)
            basis.append(v)
            completion.append(v)
    rows = dict(zip(targets, sources))
    rows.update(zip(sorted(set(range(32)) - set(targets)), completion))
    return np.array([rows[t].conj() for t in range(32)])


def test_decoders_match_loop_gram_schmidt_reference(code):
    # the completion rows are arbitrary but exported, so they are pinned too
    for q in range(1, 6):
        np.testing.assert_array_equal(code.decoder(q), loop_decoder(q))


# sha256 of the five decoders' little-endian complex128 bytes, location order.
# No entry involves rounding, so the bytes, signed zeros included, are the
# same on every IEEE platform.
DECODER_BYTES_SHA256 = "f79d3c9ef5629cfa65e454f099ecf6d2260fd5e3ff095d39ec8ffe372bf75a25"


def test_decoder_bytes_are_pinned(code):
    data = b"".join(np.asarray(d, dtype="<c16").tobytes() for d in code.decoders)
    assert hashlib.sha256(data).hexdigest() == DECODER_BYTES_SHA256


@settings(max_examples=60, deadline=None)
@given(reg=registers(), spec=rotation_errors())
def test_roundtrip_recovers_random_logical_states(code, reg, spec):
    # every exact Pauli at every location, then the drawn rotation error
    errors = [(q, PAULI_2x2[label]) for q in range(1, 6) for label in ("E", "X", "Y", "Z")]
    encoded = encode(code, reg)
    for location, unitary in errors + [(spec.location, error_unitary(spec))]:
        corrupted = apply_gate(encoded, GateOp.single(location, unitary))
        out = decode(code, corrupted, location)
        reduced = partial_trace(out.density(), REGISTER_QUBITS)
        assert fidelity_with_pure(reduced, reg) >= 1 - 1e-9


@settings(max_examples=60, deadline=None)
@given(reg=registers(), spec=rotation_errors())
def test_syndrome_amplitudes_match_branch_coefficients(code, reg, spec):
    psi = encode(code, reg)
    psi = apply_gate(psi, GateOp.single(spec.location, error_unitary(spec)))
    out = decode(code, psi, spec.location)
    # project the register factor out: syndrome amplitude per branch (j, l)
    block = out.amplitudes.reshape(2, 8, 2)
    syn = np.einsum("r,jrl->jl", reg.amplitudes.conj(), block).reshape(4)
    expected = pauli_expand(spec)
    # align the single allowed global phase
    inner = np.vdot(expected, syn)
    phase = inner / abs(inner)
    assert np.max(np.abs(syn - phase * expected)) < 1e-10


def test_decoded_state_factorizes(code):
    rng = np.random.default_rng(227)
    for _ in range(10):
        reg = random_logical(rng)
        axis = rng.normal(size=3)
        spec = ErrorSpec(3, 0.4, 1.3, tuple(axis / np.linalg.norm(axis)))
        psi = encode(code, reg)
        psi = apply_gate(psi, GateOp.single(3, error_unitary(spec)))
        out = decode(code, psi, 3)
        # A pure state is a product across a cut exactly when either side is
        # pure.  1 - purity is about 2 s^2 for a second Schmidt coefficient s,
        # so this flags any s above about 7e-8.
        syndrome = partial_trace(out.density(), [1, 5]).matrix
        assert abs(np.trace(syndrome @ syndrome) - 1.0) < 1e-14


def test_erasure_correctability_passes_with_identity_c_matrix(code):
    report = verify_erasure_correctability(code)
    assert report.passed
    assert len(report.locations) == 5
    for loc in report.locations:
        np.testing.assert_allclose(loc.c_matrix, np.eye(4), atol=1e-12)
        assert loc.max_violation < 1e-12


def test_erasure_correctability_detects_corrupted_codewords(code):
    # duplicate codeword kills orthogonality between different codewords
    bad = replace(code, codewords=np.repeat(code.codewords[:, :1], 5, axis=1))
    report = verify_erasure_correctability(bad)
    assert not report.passed


def test_erasure_check_fails_a_code_whose_forms_overflow(code):
    """Codewords of size 1e200 make every form inf and its deviation NaN,
    which must fail the check, not drop out of the maximum."""
    with np.errstate(invalid="ignore", over="ignore"):
        report = verify_erasure_correctability(replace(code, codewords=code.codewords * 1e200))
    assert not report.passed
    assert all(not loc.passed and math.isnan(loc.max_violation) for loc in report.locations)


def exact_pair_form(p, q, location):
    """<phi_b| P^dag Q |phi_c> for P, Q on `location`, straight from the codeword pairs.

    Each entry is half a sum of at most four terms <x|P^dag Q|y>, x and y
    strings of pairs b and c; a term is an entry of the 2x2 product, in
    {0, +-1, +-i}, when x and y agree off `location`, else 0.  All exact.
    """
    m = PAULI_2x2[p].conj().T @ PAULI_2x2[q]
    at = location - 1
    form = np.zeros((len(CODEWORD_PAIRS), len(CODEWORD_PAIRS)), dtype=complex)
    for b, pair_b in enumerate(CODEWORD_PAIRS):
        for c, pair_c in enumerate(CODEWORD_PAIRS):
            terms = [
                m[int(x[at]), int(y[at])]
                for x in pair_b
                for y in pair_c
                if x[:at] + x[at + 1 :] == y[:at] + y[at + 1 :]
            ]
            form[b, c] = sum(terms) / 2
    return form


def test_erasure_c_matrices_match_exact_codeword_pair_oracle(code):
    report = verify_erasure_correctability(code)
    assert report.labels == KL_LABELS
    for loc in report.locations:
        assert loc.max_violation <= 1e-15
        for i, p in enumerate(KL_LABELS):
            for j, q in enumerate(KL_LABELS):
                exact = exact_pair_form(p, q, loc.location)
                eye = np.eye(len(exact))
                # Knill-Laflamme for an erasure, exactly: C_PQ = delta_PQ, no cross terms
                np.testing.assert_array_equal(exact, eye * (p == q))
                assert np.max(np.abs(exact - loc.c_matrix[i, j] * eye)) <= 1e-15, (loc.location, p, q)


def cws_form(assignment):
    """<phi_a| P |phi_b> for the Pauli P = {qubit: label}, in exact integers.

    Write P = i^{#Y} X^x Z^z and let c_b be either string of pair b.  The
    entry is i^{#Y} (-1)^{popcount(z & c_b)} when popcount(z) is even and
    c_a ^ x ^ c_b is 00000 or 11111, and 0 otherwise.
    """
    x = z = n_y = 0
    for q, label in assignment.items():
        bit = 1 << (5 - q)
        x |= bit if label in "XY" else 0
        z |= bit if label in "ZY" else 0
        n_y += label == "Y"
    strings = [int(lo, 2) for lo, _ in HAND_PAIRS]
    form = np.zeros((5, 5), dtype=complex)
    if bin(z).count("1") % 2 == 0:
        for a, c_a in enumerate(strings):
            for b, c_b in enumerate(strings):
                if c_a ^ x ^ c_b in (0b00000, 0b11111):
                    form[a, b] = (1, 1j, -1, -1j)[n_y % 4] * (-1) ** bin(z & c_b).count("1")
    return form


def test_cws_form_matches_dense_paulis():
    # the integer oracle against the kron-chain route, on all 4^5 Paulis
    for labels in product("EXYZ", repeat=5):
        assignment = dict(zip(range(1, 6), labels))
        op = hand_pauli(assignment)
        dense = np.array([[np.vdot(hand_codeword(a), op @ hand_codeword(b)) for b in range(5)] for a in range(5)])
        assert np.max(np.abs(dense - cws_form(assignment))) <= 1e-15, labels


def test_weight_one_paulis_are_exact_scalars_on_the_code_space():
    for q in range(1, 6):
        for label in "XYZ":
            form = cws_form({q: label})
            np.testing.assert_array_equal(form, form[0, 0] * np.eye(5))


def test_distance_scan_matches_the_cws_oracle(code):
    def violation(form):
        return np.max(np.abs(form - np.mean(np.diag(form)) * np.eye(5)))

    first = next(
        (tuple(zip(support, labels)), violation(cws_form(dict(zip(support, labels)))))
        for weight in range(1, 6)
        for support in combinations(range(1, 6), weight)
        for labels in product("XYZ", repeat=weight)
        if violation(cws_form(dict(zip(support, labels)))) > 0
    )
    assert first == (((1, "X"), (2, "X")), 1.0)
    result = verify_distance(code)
    assert (result.distance, result.witness) == (2, first[0])
    assert abs(result.witness_violation - first[1]) <= 1e-15


def test_distance_is_two_with_weight_two_witness(code):
    result = verify_distance(code)
    assert result.distance == 2
    assert result.witness is not None and len(result.witness) == 2
    # independent confirmation that the witness violates detectability
    op = hand_pauli(dict(result.witness))
    m = np.array(
        [[np.vdot(hand_codeword(b), op @ hand_codeword(c)) for c in range(5)] for b in range(5)]
    )
    scalar = np.mean(np.diag(m))
    assert np.max(np.abs(m - scalar * np.eye(5))) > 1e-6


def dense_distance_scan(codewords):
    """The distance scan Pauli by Pauli, each image a dense kron-chain
    product: (distance, witness, violation) as verify_distance reports them."""
    for weight in range(1, 6):
        for support in combinations(range(1, 6), weight):
            for labels in product("XYZ", repeat=weight):
                word = tuple(zip(support, labels))
                form = np.einsum("ib,ic->bc", codewords.conj(), hand_pauli(dict(word)) @ codewords)
                violation = float(np.max(np.abs(form - np.mean(np.diag(form)) * np.eye(len(form)))))
                if not violation <= DISTANCE_ATOL:
                    return weight, word, violation
    return 6, None, 0.0


def test_distance_of_unprotected_basis_states(code):
    # five raw computational basis states: a single flip reaches a neighbor
    basis_states = np.eye(32, 5, dtype=complex)
    trivial = replace(code, codewords=basis_states)
    assert verify_distance(trivial).distance == 1
    assert dense_distance_scan(basis_states)[0] == 1


def test_a_nan_violation_ends_the_distance_scan(code):
    """Codewords 1e160|00000> and |11110>: Z1's form overflows, and its NaN
    violation is a violation, not a pass that lets the scan run on."""
    codewords = np.zeros((32, 2), dtype=complex)
    codewords[0b00000, 0], codewords[0b11110, 1] = 1e160, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        result = verify_distance(replace(code, codewords=codewords))
    assert (result.distance, result.witness) == (1, ((1, "Z"),))
    assert np.isnan(result.witness_violation)


def test_the_distance_scan_reaches_weight_four(code):
    """Codewords a and Z1Z2Z3Z4 a, a with entries 0 and +-1 (|a|^2 = 20):
    every Pauli of weight 1-3 leaves a form within 8 of a scalar, and
    Z1Z2Z3Z4 leaves one 20 away.  Scaled so that DISTANCE_ATOL lies between
    the two, the first violation has weight 4.  No finite pair has forms
    that are exact scalars at weights 1-3 and not at weight 4 or 5, so only
    the tolerance can show that the scan reaches those weights."""
    a = np.array([{"+": 1.0, "-": -1.0, "0": 0.0}[c] for c in "--00+--+000+0+00--00++-+++0+0---"])
    b = (hand_pauli({1: "Z", 2: "Z", 3: "Z", 4: "Z"}) @ a).real
    codewords = np.sqrt(DISTANCE_ATOL / 12) * np.stack([a, b], axis=1)
    result = verify_distance(replace(code, codewords=codewords))
    assert (result.distance, result.witness) == (4, ((1, "Z"), (2, "Z"), (3, "Z"), (4, "Z")))
    assert dense_distance_scan(codewords)[0] == 4


def test_the_distance_scan_takes_each_weight_as_one_batch(code, monkeypatch):
    """C(5, w) 3^w Paulis of weight w go through the kernel in one call: the
    built code stops after weight 2, and a one-codeword code, whose forms
    are all 1 x 1 scalars, runs through all five weights."""
    calls = []
    inner = code552._pauli_action
    monkeypatch.setattr(code552, "_pauli_action", lambda n, words: calls.append(len(words)) or inner(n, words))
    verify_distance(code)
    assert calls == [15, 90]
    calls.clear()
    assert verify_distance(replace(code, codewords=code.codewords[:, :1])).distance == 6
    assert calls == [15, 90, 270, 405, 243]


def test_distance_agrees_with_independent_oracle_on_pair_basis(code):
    pairs = [("00000", "11111"), ("00011", "11100")]
    vectors = []
    for lo, hi in pairs:
        v = np.zeros(32, dtype=complex)
        v[int(lo, 2)] = v[int(hi, 2)] = 1 / np.sqrt(2)
        vectors.append(v)
    pair_code = replace(code, codewords=np.stack(vectors, axis=1))
    assert verify_distance(pair_code).distance == dense_distance_scan(pair_code.codewords)[0]


def test_syndrome_map_is_a_bijection():
    assert sorted(SYNDROME_MAP) == ["E", "X", "Y", "Z"]
    assert sorted(SYNDROME_MAP.values()) == ["00", "01", "10", "11"]
    assert SYNDROME_MAP["E"] == "00"


def test_json_export_round_trip(code):
    doc = code_to_json_dict(code)
    loaded = code_from_json_dict(doc)
    np.testing.assert_array_equal(loaded.codewords, code.codewords)
    np.testing.assert_array_equal(loaded.encoder, code.encoder)
    for q in range(1, 6):
        np.testing.assert_array_equal(loaded.decoder(q), code.decoder(q))


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _join(parts):
    out = np.empty(parts.shape[:-1], dtype=complex)
    out.real, out.imag = parts[..., 0], parts[..., 1]
    return out


def complex_arrays(shape):
    """Complex arrays of any finite parts, signed zeros and subnormals included."""
    return arrays(np.float64, shape + (2,), elements=finite_floats, fill=finite_floats).map(_join)


# A unit phase: exact, with a zero part of either sign, or (cos a, sin a).
unit_parts = st.one_of(
    st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([0.0, -0.0])).flatmap(lambda p: st.sampled_from([p, p[::-1]])),
    st.floats(-np.pi, np.pi).map(lambda a: (math.cos(a), math.sin(a))),
)


@st.composite
def unitaries(draw):
    """32 x 32 signed permutations times drawn phases, whose zero entries
    have parts of either sign."""
    parts = np.where(draw(arrays(np.bool_, (32, 32, 2))), -0.0, 0.0)
    parts[draw(st.permutations(range(32))), range(32)] = draw(st.lists(unit_parts, min_size=32, max_size=32))
    return _join(parts)


@settings(max_examples=25, deadline=None)
@given(
    codewords=complex_arrays((32, 5)),
    encoder=unitaries(),
    decoders=st.lists(unitaries(), min_size=5, max_size=5),
)
def test_json_text_round_trip_of_random_codes(code, codewords, encoder, decoders):
    """Any code survives export to JSON text and back bit for bit: any
    finite codewords, and an encoder and decoders that are unitary, as a
    code's must be to be built."""
    spec = replace(code, codewords=codewords, encoder=encoder, decoders=tuple(decoders))
    loaded = code_from_json_dict(json.loads(json.dumps(code_to_json_dict(spec))))
    pairs = [(loaded.codewords, spec.codewords), (loaded.encoder, spec.encoder)]
    pairs += list(zip(loaded.decoders, spec.decoders, strict=True))
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_json_tampering_is_caught_by_verification(code):
    doc = code_to_json_dict(code)
    doc["codewords"][0][1] = [0.9, 0.0]  # break normalization/orthogonality
    loaded = code_from_json_dict(doc)
    assert codeword_orthonormality_deviation(loaded) > 1e-12


def _nan_decoder(code):
    decoder = code.decoder(3).copy()
    decoder[0, 0] = np.nan
    return decoder


BAD_ARRAYS = pytest.mark.parametrize(
    ("fields", "message"),
    [
        (lambda c: {"decoders": c.decoders[:4]}, "code needs 5 decoders, one per location, got 4"),
        (lambda c: {"decoders": c.decoders + c.decoders[:1]}, "code needs 5 decoders, one per location, got 6"),
        (lambda c: {"encoder": c.encoder[:16, :16]}, r"encoder must be a 32 x 32 matrix, got shape \(16, 16\)"),
        (lambda c: {"encoder": c.encoder[:, 0]}, r"encoder must be a 32 x 32 matrix, got shape \(32,\)"),
        (lambda c: {"decoders": (*c.decoders[:2], c.decoders[2][:, :16], *c.decoders[3:])},
         r"decoder 3 must be a 32 x 32 matrix, got shape \(32, 16\)"),
        (lambda c: {"decoders": (*c.decoders[:2], _nan_decoder(c), *c.decoders[3:])}, "decoder 3 has non-finite entries"),
        (lambda c: {"encoder": np.full((32, 32), np.inf)}, "encoder has non-finite entries"),
        (lambda c: {"codewords": c.codewords[:16]}, r"codewords must be a 32 x K matrix, got shape \(16, 5\)"),
        (lambda c: {"codewords": c.codewords[:, 0]}, r"codewords must be a 32 x K matrix, got shape \(32,\)"),
        # Without a codeword, every verifier would reduce over an empty array.
        (lambda c: {"codewords": np.zeros((32, 0))}, r"codewords must have at least one column, got shape \(32, 0\)"),
    ],
    ids=["four-decoders", "six-decoders", "encoder-16x16", "encoder-vector", "decoder-32x16", "decoder-nan",
         "encoder-inf", "codewords-16-rows", "codewords-vector", "codewords-none"],
)


@BAD_ARRAYS
def test_a_code_with_bad_arrays_fails_when_it_is_built(code, fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(code, **fields(code))


@BAD_ARRAYS
def test_bad_arrays_fail_before_the_unitarity_proof(code, fields, message):
    """With every matrix of the code doubled, and so not unitary, each bad
    shape or entry still fails with its own message."""
    doubled = {"encoder": 2.0 * code.encoder, "decoders": tuple(2.0 * d for d in code.decoders)}
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(code, **{**doubled, **fields(code)})


PARTS = ["encoder", *(f"decoder {q}" for q in range(1, 6))]


def parts_of(code):
    """The encoder and decoders 1-5 by their names in PARTS."""
    return dict(zip(PARTS, (code.encoder, *code.decoders)))


def json_route(code, encoder, decoders):
    """code_from_json_dict on the code's file with these matrices, read back from JSON text."""
    doc = code_to_json_dict(code)
    doc["encoder"] = code552._complex_to_pairs(encoder).tolist()
    doc["decoders"] = {str(q): code552._complex_to_pairs(d).tolist() for q, d in enumerate(decoders, 1)}
    return code_from_json_dict(json.loads(json.dumps(doc)))


BUILD_ROUTES = {
    "constructor": lambda code, encoder, decoders: CodeSpec(code.codewords, encoder, decoders),
    "replace": lambda code, encoder, decoders: replace(code, encoder=encoder, decoders=decoders),
    "json": json_route,
}


def build_with(route, code, changes):
    """`code` built afresh by `route`, with the matrices that `changes` names (PARTS) replaced."""
    encoder, *decoders = {**parts_of(code), **changes}.values()
    return BUILD_ROUTES[route](code, encoder, tuple(decoders))


@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("route", list(BUILD_ROUTES))
def test_a_code_that_is_not_unitary_fails_when_it_is_built(code, route, part):
    """A doubled encoder or decoder is finite and of the right shape, and
    M^dag M = 4 I: only the unitarity proof can reject it."""
    with pytest.raises(ValueError, match=rf"^{part}: matrix is not unitary \(deviation 3\.000e\+00\)$"):
        build_with(route, code, {part: 2.0 * parts_of(code)[part]})


@pytest.mark.parametrize("route", list(BUILD_ROUTES))
def test_a_decoder_scaled_by_1_01_fails_when_it_is_built(code, route):
    with pytest.raises(ValueError, match=r"^decoder 3: matrix is not unitary \(deviation 2\.010e-02\)$"):
        build_with(route, code, {"decoder 3": 1.01 * code.decoder(3)})


@pytest.mark.parametrize("route", list(BUILD_ROUTES))
def test_a_code_whose_unitarity_deviation_is_nan_fails_when_it_is_built(code, route):
    """Decoder 1 set to 1e200 kron([[1+1j, 1-1j], [0, 0]], E16) is finite,
    but D^dag D overflows, so its deviation from unitary is NaN."""
    decoder = 1e200 * np.kron([[1 + 1j, 1 - 1j], [0, 0]], np.eye(16))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^decoder 1: matrix is not unitary \(deviation nan\)$"):
            build_with(route, code, {"decoder 1": decoder})


@pytest.mark.parametrize(
    ("doubled", "named"),
    [(PARTS, "encoder"), (PARTS[1:], "decoder 1"), (["decoder 4", "decoder 2"], "decoder 2"), (["decoder 5"], "decoder 5")],
    ids=["all-six", "all-decoders", "decoders-4-and-2", "decoder-5"],
)
def test_the_unitarity_proof_names_the_first_matrix_that_fails(code, doubled, named):
    """The encoder is proved first, then decoders 1 to 5."""
    with pytest.raises(ValueError, match=rf"^{named}: matrix is not unitary"):
        build_with("replace", code, {part: 2.0 * parts_of(code)[part] for part in doubled})


def test_a_code_keeps_read_only_copies_of_its_arrays(code):
    encoder = code.encoder.copy()
    copy = replace(code, encoder=encoder)
    encoder[0, 0] = 7.0
    assert copy.encoder[0, 0] == code.encoder[0, 0]
    for array in (code.codewords, code.encoder, *code.decoders):
        assert array.dtype == complex and array.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        code.encoder[:] *= 2.0


@pytest.mark.parametrize("pair", [lambda p: p[:1], lambda p: p + [0.5], lambda p: 0.5])
def test_json_rejects_entries_that_are_not_re_im_pairs(code, pair):
    """One element or three is a malformed entry, not a part of one to read."""
    doc = code_to_json_dict(code)
    doc["encoder"] = [[pair(p) for p in row] for row in doc["encoder"]]
    with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
        code_from_json_dict(doc)


def test_decoder_location_out_of_range(code):
    with pytest.raises(ValueError, match="location"):
        code.decoder(6)
    with pytest.raises(ValueError, match="location"):
        code.decoder(0)


def test_a_code_is_equal_only_to_itself_and_keys_a_dict(code):
    other = build_code()
    assert code == code and not code != code
    assert code != other and not code == other
    assert {code: "first", other: "second"}[code] == "first"
    copy = replace(code)
    assert copy != code and copy not in {code: "first"}


# Per-location loop oracles for build_code and the verifiers, which take
# every Pauli image from the batched index-and-phase kernel: one dense
# kron-chain product per image, one einsum per (P, Q) pair, one product per
# decoder.  No oracle here shares the kernel.
def loop_branch_images(codewords, location):
    images = [hand_pauli({location: label}) @ codewords for label in BRANCH_LABELS]
    targets = [_branch_target_index(label, b) for label in BRANCH_LABELS for b in range(codewords.shape[1])]
    return np.concatenate(images, axis=1), targets


def loop_index_decoder(codewords, location):
    sources, targets = loop_branch_images(codewords, location)
    free_targets = sorted(set(range(32)) - set(targets))
    decoder = np.zeros((32, 32), dtype=complex)
    decoder[targets] += sources.conj().T
    decoder[free_targets, np.flatnonzero(~sources.any(axis=1))] = 1.0
    return decoder


def loop_decoder_deviation(spec):
    worst = 0.0
    for location in range(1, 6):
        images, targets = loop_branch_images(spec.codewords, location)
        decoded = spec.decoder(location) @ images
        decoded[targets, range(len(targets))] -= 1.0
        worst = max(worst, float(np.max(np.abs(decoded))))
    return worst


def loop_erasure(codewords):
    """(C matrix, worst violation) per location, one K x K form at a time."""
    checks = []
    for q in range(1, 6):
        images = [hand_pauli({q: label}) @ codewords for label in KL_LABELS]
        c_matrix = np.zeros((4, 4), dtype=complex)
        worst = 0.0
        for i, p_images in enumerate(images):
            for j, q_images in enumerate(images):
                form = np.einsum("ib,ic->bc", p_images.conj(), q_images)
                c_matrix[i, j] = scalar = np.mean(np.diag(form))
                worst = max(worst, float(np.max(np.abs(form - scalar * np.eye(len(form))))))
        checks.append((c_matrix, worst))
    return checks


# Signed zeros, subnormals and exponents from 2^-1080 to 2^320: products and
# their sums of 32 stay finite, so no form overflows.
spread_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 320)),
)


@st.composite
def codeword_batches(draw):
    """Complex 32 x K codeword matrices, K from 1 to 6."""
    k = draw(st.integers(1, 6))
    return _join(draw(arrays(np.float64, (32, k, 2), elements=spread_floats)))


@settings(max_examples=40, deadline=None)
@given(codewords=codeword_batches())
@example(codewords=build_code().codewords)
# One codeword: every form is a 1 x 1 scalar, so both scans run through all 1023 Paulis.
@example(codewords=build_code().codewords[:, 2:3])
def test_distance_scan_equals_the_dense_per_pauli_scan(code, codewords):
    result = verify_distance(replace(code, codewords=codewords))
    distance, witness, violation = dense_distance_scan(codewords)
    assert (result.distance, result.witness) == (distance, witness)
    assert type(result.witness_violation) is float and result.witness_violation.hex() == violation.hex()


@settings(max_examples=40, deadline=None)
@given(codewords=codeword_batches())
@example(codewords=build_code().codewords)
def test_erasure_check_equals_the_per_pair_loop_bit_for_bit(code, codewords):
    report = verify_erasure_correctability(replace(code, codewords=codewords))
    for loc, (c_matrix, worst) in zip(report.locations, loop_erasure(codewords), strict=True):
        assert loc.c_matrix.tobytes() == c_matrix.tobytes()
        assert type(loc.max_violation) is float and loc.max_violation.hex() == worst.hex()
        assert loc.passed is (worst <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    codewords=codeword_batches(),
    location=st.integers(1, 5),
    columns=st.lists(st.integers(0, 31), min_size=2, max_size=2, unique=True),
    angle=st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-60, 4)),
    phase=st.floats(-np.pi, np.pi),
)
def test_decoder_deviation_equals_the_per_location_loop_bit_for_bit(code, codewords, location, columns, angle, phase):
    """A decoder disturbed by a rotation that mixes two of its columns stays
    unitary, and its deviation ranges from tiny to large with the angle."""
    (i, j), c, s = columns, math.cos(angle), math.sin(angle) * np.exp(1j * phase)
    rotation = np.eye(32, dtype=complex)
    rotation[[i, i, j, j], [i, j, i, j]] = c, -s.conjugate(), s, c
    decoders = list(code.decoders)
    decoders[location - 1] = decoders[location - 1] @ rotation
    for spec in (replace(code, codewords=codewords), replace(code, decoders=tuple(decoders))):
        assert _decoder_deviation(spec) == loop_decoder_deviation(spec)
    assert _decoder_deviation(code) == loop_decoder_deviation(code)


@settings(max_examples=40, deadline=None)
@given(
    columns=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
    angles=st.lists(st.floats(-np.pi, np.pi), min_size=5, max_size=5),
)
def test_decoders_equal_the_per_location_loop_bit_for_bit(code, columns, angles):
    """On the code and on codes from a subset of its codewords, reordered and
    rephased, whose branch images stay orthonormal."""
    codewords = code.codewords[:, columns] * np.exp(1j * np.array(angles[: len(columns)]))
    sources, targets = _branch_sources(codewords)
    for q in range(1, 6):
        assert _decoder_matrix(sources[q - 1], targets).tobytes() == loop_index_decoder(codewords, q).tobytes()
        assert code.decoder(q).tobytes() == loop_index_decoder(code.codewords, q).tobytes()


def test_decode_needs_a_five_qubit_state():
    with pytest.raises(ValueError, match="^expected a 5-qubit state$"):
        decode(build_code(), PureState.basis("000"), 1)


def test_verify_distance_without_a_violation_has_no_witness():
    """On one codeword every Pauli is a scalar, so the scan runs through all
    weights and reports distance n + 1."""
    code = build_code()
    result = verify_distance(replace(code, codewords=code.codewords[:, :1]))
    assert (result.distance, result.witness, result.witness_violation) == (6, None, 0.0)
