"""The ((5,5,2)) codeword-stabilized code.

Five physical qubits carry a five-dimensional logical space spanned by the
codewords

    phi_0 = (|00001> + |11110>)/sqrt(2)
    phi_1 = (|00010> + |11101>)/sqrt(2)
    phi_2 = (|01000> + |10111>)/sqrt(2)
    phi_3 = (|00100> + |11011>)/sqrt(2)
    phi_4 = (|10000> + |01111>)/sqrt(2)

indexed by the register basis strings 000, 001, 010, 011, 100 on qubits
(2,3,4).  The code has distance 2 and corrects an arbitrary error on any one
qubit whose position is known.  Decoding routes the error type into a
two-qubit syndrome on qubits (1,5): identity -> |00>, bit flip -> |01>,
phase flip -> |10>, bit+phase flip -> |11>, while the register returns to
qubits (2,3,4) untouched.

The encoder is synthesized as a basis permutation (carrying each register
input |0,b,0> to the low member of the matching codeword pair) followed by a
Hadamard on qubit 1 and a fan-out of CNOTs from qubit 1 to qubits 2..5.  Each
per-location decoder is the unitary that maps the 20 orthonormal states
{P_q phi_b} onto syndrome-tagged register basis states, completed on the
remaining 12 dimensions by Gram-Schmidt against the computational basis in
index order, so the whole construction is deterministic.
"""
from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import dataclass
from itertools import combinations, product
from typing import ClassVar

import numpy as np

from .statevec import PureState, _axes_for, cnot, gate_matrix, h, pauli_apply

N_QUBITS = 5
DIMENSION = 5
DISTANCE = 2
REGISTER_QUBITS = (2, 3, 4)
SYNDROME_QUBITS = (1, 5)

LOGICAL_STRINGS = ("000", "001", "010", "011", "100")

# Each codeword is an equal-weight pair of a string and its bitwise complement.
CODEWORD_PAIRS = (
    ("00001", "11110"),
    ("00010", "11101"),
    ("01000", "10111"),
    ("00100", "11011"),
    ("10000", "01111"),
)

# Error type -> syndrome bits (qubit 1, qubit 5) read off after decoding.
SYNDROME_MAP = {"E": "00", "X": "01", "Z": "10", "Y": "11"}

# The layout of the code this simulator runs, as a code file states it; a
# file that states any other value is rejected.
CODE_LAYOUT = {
    "n": N_QUBITS,
    "K": DIMENSION,
    "d": DISTANCE,
    "register_qubits": list(REGISTER_QUBITS),
    "syndrome_qubits": list(SYNDROME_QUBITS),
    "logical_basis": list(LOGICAL_STRINGS),
    "syndrome_map": SYNDROME_MAP,
}

# Order used for decoder images and branch coefficients.
BRANCH_LABELS = ("E", "X", "Z", "Y")

# Order used for reporting the erasure-check C matrices.
KL_LABELS = ("E", "X", "Y", "Z")

GRAM_ATOL = 1e-12
SUPPORT_ATOL = 1e-12


@dataclass(frozen=True)
class CodeSpec:
    """Concrete realization of the code: the codewords as the columns of one
    2^n x K matrix, the encoder, and the decoder for each location.  The
    layout is fixed by the module constants; n and register_qubits repeat
    two of them on the class for callers that hold only a code."""

    n: ClassVar[int] = N_QUBITS
    register_qubits: ClassVar[tuple[int, ...]] = REGISTER_QUBITS

    codewords: np.ndarray
    encoder: np.ndarray
    decoders: tuple[np.ndarray, ...]

    def decoder(self, location: int) -> np.ndarray:
        (axis,) = _axes_for((location,), self.n, "location")
        return self.decoders[axis]


def _input_index(b: int) -> int:
    """Basis index of |0, register b, 0> on the five physical qubits."""
    return int(LOGICAL_STRINGS[b], 2) << 1


def _representative(pair: tuple[str, str]) -> str:
    """The member of a codeword pair whose first bit is 0.

    The Hadamard/CNOT fan-out stage branches on qubit 1, so the permutation
    stage must land on the qubit-1 = 0 member of each pair.
    """
    return pair[0] if pair[0][0] == "0" else pair[1]


def _basis_permutation() -> np.ndarray:
    """Permutation sending each |0,b,0> to the representative of pair b.

    The remaining 27 basis states are matched up in increasing index order,
    which fixes one deterministic completion out of the many valid ones.
    """
    mapping = {}
    for b, pair in enumerate(CODEWORD_PAIRS):
        mapping[_input_index(b)] = int(_representative(pair), 2)
    free_sources = [i for i in range(32) if i not in mapping]
    free_targets = [i for i in range(32) if i not in set(mapping.values())]
    mapping.update(zip(free_sources, free_targets))
    perm = np.zeros((32, 32), dtype=complex)
    for src, dst in mapping.items():
        perm[dst, src] = 1.0
    return perm


def _encoder_matrix() -> np.ndarray:
    u = _basis_permutation()
    u = gate_matrix(h(1), N_QUBITS) @ u
    for target in (2, 3, 4, 5):
        u = gate_matrix(cnot(1, target), N_QUBITS) @ u
    return u


def _branch_target_index(label: str, b: int) -> int:
    """Basis index of |syndrome(label)> on (1,5) with register b on (2,3,4)."""
    j, l = (int(c) for c in SYNDROME_MAP[label])
    return (j << 4) | (b << 1) | l


def _encoder_deviation(code: CodeSpec) -> float:
    """max |encoder column of register input b - phi_b| over the K inputs."""
    inputs = [_input_index(b) for b in range(code.codewords.shape[1])]
    return float(np.max(np.abs(code.encoder[:, inputs] - code.codewords)))


def _decoder_deviation(code: CodeSpec) -> float:
    """max |decoded branch image - its target basis state| over all locations."""
    worst = 0.0
    for location in range(1, code.n + 1):
        images, targets = _branch_images(code.codewords, location)
        decoded = code.decoder(location) @ images
        decoded[targets, range(len(targets))] -= 1.0
        worst = max(worst, float(np.max(np.abs(decoded))))
    return worst


def _codespace_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K x K matrix of inner products <a_b|b_c> between the columns of a and b."""
    return np.einsum("ib,ic->bc", a.conj(), b)


def _branch_images(codewords: np.ndarray, location: int) -> tuple[np.ndarray, list[int]]:
    """Columns P phi_b for P on `location` in BRANCH_LABELS order, codeword
    index fastest, and the basis index each one decodes to."""
    images = [pauli_apply(codewords, {location: label}) for label in BRANCH_LABELS]
    targets = [_branch_target_index(label, b) for label in BRANCH_LABELS for b in range(codewords.shape[1])]
    return np.concatenate(images, axis=1), targets


def _decoder_matrix(codewords: np.ndarray, location: int) -> np.ndarray:
    sources, target_indices = _branch_images(codewords, location)
    n_sources = sources.shape[1]
    gram_err = np.max(np.abs(_codespace_form(sources, sources) - np.eye(n_sources)))
    if gram_err > GRAM_ATOL:
        raise RuntimeError(
            f"error images at location {location} are not orthonormal "
            f"(deviation {gram_err:.3e}); decoder construction is ill-defined"
        )

    # Complete the image vectors (rows of `basis`) to a full basis by
    # projecting out the span so far from each unit vector in index order.
    # Two passes keep the completion orthonormal to machine precision.
    dim = sources.shape[0]
    basis = np.zeros((dim, dim), dtype=complex)
    basis[:n_sources] = sources.T
    count = n_sources
    for idx in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[idx] = 1.0
        for _ in range(2):
            v -= (basis[:count].conj() @ v) @ basis[:count]
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            basis[count] = v / norm
            count += 1
    if count != dim:
        raise RuntimeError("basis completion failed to span the full space")

    free_targets = sorted(set(range(dim)) - set(target_indices))
    decoder = np.zeros((dim, dim), dtype=complex)
    decoder[target_indices + free_targets] += basis.conj()

    unitary_err = np.max(np.abs(decoder.conj().T @ decoder - np.eye(dim)))
    if unitary_err > GRAM_ATOL:
        raise RuntimeError(
            f"decoder for location {location} is not unitary (deviation {unitary_err:.3e})"
        )
    return decoder


def build_code() -> CodeSpec:
    """Construct codewords, encoder, and the five per-location decoders."""
    matrix = np.zeros((2**N_QUBITS, DIMENSION), dtype=complex)
    for b, pair in enumerate(CODEWORD_PAIRS):
        matrix[[int(bits, 2) for bits in pair], b] = 1.0 / np.sqrt(2.0)
    code = CodeSpec(
        codewords=matrix,
        encoder=_encoder_matrix(),
        decoders=tuple(_decoder_matrix(matrix, q) for q in range(1, N_QUBITS + 1)),
    )
    # The synthesized encoder must reproduce the codewords exactly.
    if _encoder_deviation(code) > 1e-12:
        raise RuntimeError("encoder does not map the register inputs onto their codewords")
    return code


def encode(code: CodeSpec, register: PureState) -> PureState:
    """Map a register state with support on the logical basis to the codespace."""
    if register.n_qubits != len(REGISTER_QUBITS):
        raise ValueError(f"register state must have {len(REGISTER_QUBITS)} qubits")
    outside = np.max(np.abs(register.amplitudes[DIMENSION:]))
    if outside > SUPPORT_ATOL:
        raise ValueError(
            "register state has support outside the logical basis "
            f"(amplitude {outside:.3e} on strings 101/110/111)"
        )
    full = np.zeros(2**N_QUBITS, dtype=complex)
    full[0:16:2] = register.amplitudes  # |0>_1 (register)_{2,3,4} |0>_5
    return PureState(N_QUBITS, code.encoder @ full)


def decode(code: CodeSpec, corrupted: PureState, location: int) -> PureState:
    """Apply the decoder for an error at the given location.

    On states of the form (error at `location`) x (codeword superposition)
    the output factorizes as |syndrome>_{1,5} (x) |register>_{2,3,4}.
    """
    if corrupted.n_qubits != N_QUBITS:
        raise ValueError(f"expected a {N_QUBITS}-qubit state")
    return PureState(N_QUBITS, code.decoder(location) @ corrupted.amplitudes)


@dataclass(frozen=True)
class LocationCheck:
    """Erasure-correctability check at one location."""

    location: int
    passed: bool
    c_matrix: np.ndarray  # 4x4, indexed by KL_LABELS
    max_violation: float


@dataclass(frozen=True)
class ErasureReport:
    labels: tuple[str, ...]
    locations: tuple[LocationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(loc.passed for loc in self.locations)


def verify_erasure_correctability(code: CodeSpec, tol: float = 1e-12) -> ErasureReport:
    """Check <phi_b| P^dag Q |phi_c> = C_PQ delta_bc at every location.

    The codeword inner products must vanish between different codewords and
    be independent of the codeword index on the diagonal; the surviving
    constants form the 4x4 C matrix reported per location.
    """
    codewords = code.codewords
    checks = []
    for q in range(1, code.n + 1):
        images = [pauli_apply(codewords, {q: label}) for label in KL_LABELS]
        c_matrix = np.zeros((4, 4), dtype=complex)
        worst = 0.0
        for i, p_images in enumerate(images):
            for j, q_images in enumerate(images):
                c_matrix[i, j], violation = _scalar_on_codespace(_codespace_form(p_images, q_images))
                worst = max(worst, violation)
        checks.append(LocationCheck(q, worst <= tol, c_matrix, worst))
    return ErasureReport(KL_LABELS, tuple(checks))


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of the exhaustive Pauli scan.

    `witness` names a minimum-weight Pauli violating the detectability
    condition, as (qubit, label) pairs; None if the scan exhausted all
    weights without a violation.
    """

    distance: int
    witness: tuple[tuple[int, str], ...] | None
    witness_violation: float


def _scalar_on_codespace(form: np.ndarray) -> tuple[complex, float]:
    """(c, deviation of the K x K form from c * identity), c its mean diagonal."""
    scalar = np.mean(np.diag(form))
    return scalar, float(np.max(np.abs(form - scalar * np.eye(len(form)))))


def verify_distance(code: CodeSpec, tol: float = 1e-10) -> DistanceResult:
    """Exhaustively scan Pauli weights for the first detectability violation.

    Returns the largest d such that every Pauli of weight < d looks like a
    scalar on the codespace, plus a violating Pauli of weight d as witness.
    """
    codewords = code.codewords
    for weight in range(1, code.n + 1):
        for support in combinations(range(1, code.n + 1), weight):
            for labels in product("XYZ", repeat=weight):
                image = pauli_apply(codewords, dict(zip(support, labels)))
                _, violation = _scalar_on_codespace(_codespace_form(codewords, image))
                if violation > tol:
                    return DistanceResult(
                        distance=weight,
                        witness=tuple(zip(support, labels)),
                        witness_violation=violation,
                    )
    return DistanceResult(distance=code.n + 1, witness=None, witness_violation=0.0)


def _complex_to_pairs(arr: np.ndarray) -> list:
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


_REAL = (int, float, np.integer, np.floating)


def _reals(name: str, values, sign: str = "", ndim: int = 1) -> np.ndarray:
    """`values` as an `ndim`-dimensional float array: the one check on the
    numbers of noise models, spin systems and code files.  Entries are real
    numbers (not bools or strings), finite, and "positive" or "nonnegative"
    as `sign` asks.  A ragged array fails the dimension check."""
    arr = np.asarray(values, dtype=object)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-dimensional array of real numbers, got shape {arr.shape}")
    # Checking the distinct entry types is quicker than checking every entry.
    if not all(issubclass(t, _REAL) and t is not bool for t in {type(v) for v in arr.flat}):
        bad = next(v for v in arr.flat if isinstance(v, bool) or not isinstance(v, _REAL))
        raise ValueError(f"{name} must be real numbers, got {bad!r}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if sign == "positive" and np.any(arr <= 0) or sign == "nonnegative" and np.any(arr < 0):
        raise ValueError(f"{name} must be {sign}")
    return arr


def _check_keys(doc, what: str, required=(), optional=()) -> None:
    """The one key check on JSON objects: `doc` must be an object holding
    every key in `required` and no key outside `required` and `optional`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    allowed = {*required, *optional}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; expected {sorted(allowed)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{what} is missing keys {missing}")


def _complex_array(name: str, doc, shape: tuple[int, ...]) -> np.ndarray:
    """The `shape` complex array stored in `doc` as [re, im] pairs."""
    arr = _reals(f"{name} entries ([re, im] pairs)", doc, ndim=len(shape) + 1)
    if arr.shape[-1] != 2:
        raise ValueError(f"{name} entries must be [re, im] pairs, got an array of shape {arr.shape}")
    if arr.shape[:-1] != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape[:-1]}")
    # Set the parts rather than computing re + 1j * im, which loses the sign of a zero.
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out


def code_to_json_dict(code: CodeSpec) -> dict:
    """JSON-ready dict: the layout, then complex entries as [re, im] and
    matrices row-major, one codeword per row."""
    return {
        **deepcopy(CODE_LAYOUT),
        "codewords": _complex_to_pairs(code.codewords.T),
        "encoder": _complex_to_pairs(code.encoder),
        "decoders": {str(q + 1): _complex_to_pairs(d) for q, d in enumerate(code.decoders)},
    }


def code_from_json_dict(doc: dict) -> CodeSpec:
    """Load a CodeSpec as stored; run the verifiers to trust it.

    The layout keys must equal CODE_LAYOUT as JSON, so 5.0 or true is not 5.
    """
    _check_keys(doc, "code", (*CODE_LAYOUT, "codewords", "encoder", "decoders"))
    for key, value in CODE_LAYOUT.items():
        want, got = json.dumps(value, sort_keys=True), json.dumps(doc[key], sort_keys=True)
        if got != want:
            raise ValueError(f"{key} must be {want} for the ((5,5,2)) code, got {got}")
    locations = [str(q) for q in range(1, N_QUBITS + 1)]
    _check_keys(doc["decoders"], "decoders", locations)
    dim = 2**N_QUBITS
    return CodeSpec(
        codewords=_complex_array("codewords", doc["codewords"], (DIMENSION, dim)).T.copy(),
        encoder=_complex_array("encoder", doc["encoder"], (dim, dim)),
        decoders=tuple(_complex_array(f"decoder {q}", doc["decoders"][q], (dim, dim)) for q in locations),
    )


def codeword_orthonormality_deviation(code: CodeSpec) -> float:
    """max_bc |<phi_b|phi_c> - delta_bc| over all codeword pairs."""
    form = _codespace_form(code.codewords, code.codewords)
    return float(np.max(np.abs(form - np.eye(form.shape[0]))))
