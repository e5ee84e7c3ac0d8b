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

The encoder is an exact index map.  Register input |0,b,0> goes to r, the
member of pair b whose qubit 1 is 0 (the smaller string); the other 27
inputs go, in index order, to the 27 free strings in sorted order.  Input
column with target r is (|r'> + s|r' XOR 11111>)/sqrt(2), where r' is r with
qubit 1 cleared and s = -1 exactly when qubit 1 of r is set.  That is the
circuit "permute |src> to |r>, Hadamard on qubit 1, CNOT from qubit 1 to
each of qubits 2..5" written out column by column: the Hadamard splits r
into r' and r' with qubit 1 set, signed by qubit 1 of r, and the CNOTs flip
qubits 2..5 on the second branch.  Register input b lands on r' = r, so its
column is (|r> + |r XOR 11111>)/sqrt(2) = phi_b.

The code is codeword stabilized: phi_b = X^{c_b}|GHZ_5>, so each decoder is
a signed index map.  A branch image P_q phi_b lies on the two strings of
pair b with P_q's flip applied, and its conjugate is the decoder row at its
syndrome-tagged register target.  The 12 strings that no image touches go,
in index order, to the 12 free targets in sorted order.  The result is
unitary because the 20 images are orthonormal and span exactly the 20
strings they touch, so the rows are orthonormal and cover every string.
test_error_images_are_orthonormal_at_every_location in tests/test_code552.py
holds this premise and sha256 pins there hold the bytes; CodeSpec proves
every code unitary when it is built, and `cws552 verify` checks the rest.

Every Pauli image here comes from statevec._pauli_action, the one Pauli
kernel; the distance scan takes each weight's Paulis to it as one batch.
"""
from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import ClassVar

import numpy as np

from .statevec import _REAL, PureState, _axes_for, _check_numbers, _frozen, _pauli_action, _prove_unitary

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

SUPPORT_ATOL = 1e-12
# Largest deviation from a scalar on the codespace that the erasure check
# and the distance scan still count as one.
ERASURE_ATOL = 1e-12
DISTANCE_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """Concrete realization of the code: the codewords as the columns of one
    2^n x K matrix, the 2^n x 2^n encoder, and the decoder for each location,
    all finite, the encoder and decoders unitary.  The layout is fixed by
    the module constants; n and register_qubits repeat two of them on the
    class for callers that hold only a code.  A code equals only itself and
    hashes by identity, so it can key a dict."""

    n: ClassVar[int] = N_QUBITS
    register_qubits: ClassVar[tuple[int, ...]] = REGISTER_QUBITS

    codewords: np.ndarray
    encoder: np.ndarray
    decoders: tuple[np.ndarray, ...]

    def __post_init__(self):
        """The one check on a code, as GateOp's is on a gate: read-only complex
        copies of its arrays, once their shapes and entries pass and the
        encoder and decoders 1..n, in that order, are unitary."""
        dim = 2**self.n
        if len(self.decoders) != self.n:
            raise ValueError(f"code needs {self.n} decoders, one per location, got {len(self.decoders)}")
        object.__setattr__(self, "codewords", _frozen_matrix("codewords", self.codewords, dim))
        object.__setattr__(self, "encoder", _frozen_matrix("encoder", self.encoder, dim, dim))
        decoders = tuple(_frozen_matrix(f"decoder {q}", d, dim, dim) for q, d in enumerate(self.decoders, 1))
        object.__setattr__(self, "decoders", decoders)
        prefixes = ["encoder: ", *(f"decoder {q}: " for q in range(1, self.n + 1))]
        _prove_unitary(np.stack((self.encoder, *decoders)), prefixes)

    def decoder(self, location: int) -> np.ndarray:
        (axis,) = _axes_for((location,), self.n, "location")
        return self.decoders[axis]


def _frozen_matrix(name: str, value, rows: int, cols: int | None = None) -> np.ndarray:
    """`value` as a finite, read-only complex copy: a `rows` x `cols` matrix,
    or any width of at least one column when `cols` is None."""
    shape = np.shape(value)
    if len(shape) != 2 or shape[0] != rows or cols not in (None, shape[1]):
        raise ValueError(f"{name} must be a {rows} x {cols or 'K'} matrix, got shape {shape}")
    if not shape[1]:
        raise ValueError(f"{name} must have at least one column, got shape {shape}")
    return _frozen(name, value, shape)


def _encoder_matrix() -> np.ndarray:
    """The encoder as an exact index map; the module docstring gives the rule."""
    dim, top = 2**N_QUBITS, 1 << (N_QUBITS - 1)
    mapping = {_branch_target_index("E", b): min(int(s, 2) for s in pair) for b, pair in enumerate(CODEWORD_PAIRS)}
    free_sources = [i for i in range(dim) if i not in mapping]
    free_targets = sorted(set(range(dim)) - set(mapping.values()))
    mapping.update(zip(free_sources, free_targets))
    sources, targets = np.array(list(mapping)), np.array(list(mapping.values()))
    low = targets & ~top  # the target with qubit 1 cleared
    amp = 1.0 / np.sqrt(2.0)
    encoder = np.zeros((dim, dim), dtype=complex)
    encoder[low, sources] = amp
    encoder[low ^ (dim - 1), sources] = np.where(targets & top, -amp, amp)
    return encoder


def _branch_target_index(label: str, b):
    """Basis index of |syndrome(label)> on (1,5) with register b on (2,3,4), so
    "E" gives the encoder's input |0,b,0>; an integer array b gives one per entry."""
    j, l = (int(c) for c in SYNDROME_MAP[label])
    return (j << 4) | (b << 1) | l


def _encoder_deviation(code: CodeSpec) -> float:
    """max |encoder column of register input b - phi_b| over the K inputs."""
    inputs = _branch_target_index("E", np.arange(code.codewords.shape[1]))
    return float(np.max(np.abs(code.encoder[:, inputs] - code.codewords)))


def _decoder_deviation(code: CodeSpec) -> float:
    """max |decoded branch image - its target basis state| over all locations."""
    sources, targets = _branch_sources(code.codewords)
    decoded = np.stack(code.decoders) @ sources
    decoded[:, targets, range(len(targets))] -= 1.0
    return float(np.max(np.abs(decoded)))


def _pauli_images(codewords: np.ndarray, words: tuple) -> np.ndarray:
    """P phi_b for each codeword b and Pauli word P in `words`, as one exact
    (K, len(words), 2^n) array with the basis index contiguous."""
    sources, phases = _pauli_action(N_QUBITS, words)
    images = np.take(codewords.T, sources, axis=1)
    images *= phases
    return images


@lru_cache(maxsize=None)
def _words_of_weight(n: int, weight: int) -> tuple:
    """Every Pauli word of `weight` on n qubits in scan order, supports in
    `combinations` order and then labels in `product` order; built once."""
    supports = combinations(range(1, n + 1), weight)
    return tuple(tuple(zip(support, labels)) for support in supports for labels in product("XYZ", repeat=weight))


def _single_qubit_words(labels: str) -> tuple:
    """The words P_q for every location q and P in `labels`, q slowest."""
    return tuple(((q, label),) for q in range(1, N_QUBITS + 1) for label in labels)


def _branch_sources(codewords: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The columns P_q phi_b at every location q, as an (n, 2^n, 4K) array
    with P in BRANCH_LABELS order and codeword index fastest, and the basis
    index each column decodes to."""
    dim, k = codewords.shape
    images = _pauli_images(codewords, _single_qubit_words(BRANCH_LABELS)).reshape(k, N_QUBITS, -1, dim)
    targets = [_branch_target_index(label, b) for label in BRANCH_LABELS for b in range(k)]
    return images.transpose(1, 3, 2, 0).reshape(N_QUBITS, dim, -1), targets


def _decoder_matrix(sources: np.ndarray, target_indices: list[int]) -> np.ndarray:
    """One location's decoder from its orthonormal branch images `sources` (2^n x 4K)."""
    # Adding onto zeros rather than assigning keeps every zero entry +0.0,
    # which the exported code pins.
    dim = sources.shape[0]
    free_targets = sorted(set(range(dim)) - set(target_indices))
    decoder = np.zeros((dim, dim), dtype=complex)
    decoder[target_indices] += sources.conj().T
    decoder[free_targets, np.flatnonzero(~sources.any(axis=1))] = 1.0
    return decoder


def build_code() -> CodeSpec:
    """Construct codewords, encoder, and the five per-location decoders."""
    matrix = np.zeros((2**N_QUBITS, DIMENSION), dtype=complex)
    for b, pair in enumerate(CODEWORD_PAIRS):
        matrix[[int(bits, 2) for bits in pair], b] = 1.0 / np.sqrt(2.0)
    sources, targets = _branch_sources(matrix)
    return CodeSpec(
        codewords=matrix,
        encoder=_encoder_matrix(),
        decoders=tuple(_decoder_matrix(s, targets) for s in sources),
    )


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


def verify_erasure_correctability(code: CodeSpec) -> ErasureReport:
    """Check <phi_b| P^dag Q |phi_c> = C_PQ delta_bc at every location.

    The codeword inner products must vanish between different codewords and
    be independent of the codeword index on the diagonal; the surviving
    constants form the 4x4 C matrix reported per location.
    """
    k = code.codewords.shape[1]
    table = _pauli_images(code.codewords, _single_qubit_words(KL_LABELS)).reshape(k, code.n, len(KL_LABELS), -1)
    # forms[q, p, r] is the K x K form <phi_b| P^dag Q |phi_c> at location q + 1.
    scalars, deviations = _scalar_on_codespace(np.einsum("bqpi,cqri->qprbc", table.conj(), table, order="C"))
    checks = []
    for q, (c_matrix, deviation) in enumerate(zip(scalars, deviations), 1):
        worst = float(np.max(deviation))
        checks.append(LocationCheck(q, worst <= ERASURE_ATOL, c_matrix, worst))
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


def _scalar_on_codespace(forms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, deviation of the form from c * identity) for each K x K form on the
    last two axes, c its mean diagonal.  A C-ordered stack, as einsum's
    order="C" gives, reduces each form as it would alone, bit for bit."""
    scalars = np.mean(np.diagonal(forms, axis1=-2, axis2=-1), axis=-1)
    eye = np.eye(forms.shape[-1])
    return scalars, np.max(np.abs(forms - scalars[..., None, None] * eye), axis=(-2, -1))


def verify_distance(code: CodeSpec) -> DistanceResult:
    """Exhaustively scan Pauli weights for the first detectability violation.

    Returns the largest d such that every Pauli of weight < d looks like a
    scalar on the codespace, plus a violating Pauli of weight d as witness.
    """
    codewords = code.codewords
    rows = np.ascontiguousarray(codewords.T).conj()  # <phi_b| as rows, basis index contiguous like the images'
    for weight in range(1, code.n + 1):
        words = _words_of_weight(code.n, weight)
        forms = np.einsum("bi,cpi->pbc", rows, _pauli_images(codewords, words), order="C")
        violations = _scalar_on_codespace(forms)[1]
        failed = np.flatnonzero(~(violations <= DISTANCE_ATOL))  # a NaN counts as a violation
        if failed.size:
            first = failed[0]
            return DistanceResult(distance=weight, witness=words[first], witness_violation=float(violations[first]))
    return DistanceResult(distance=code.n + 1, witness=None, witness_violation=0.0)


def _complex_to_pairs(arr: np.ndarray) -> np.ndarray:
    """`arr` as a float array whose last axis holds [re, im] pairs."""
    return np.stack([arr.real, arr.imag], axis=-1)


def _reals(name: str, values, sign: str = "", ndim: int = 1) -> np.ndarray:
    """`values` as an `ndim`-dimensional float array: the one check on the
    numbers of errors, noise models, spin systems and code files.  Entries
    are real numbers (not bools or strings), finite, and "positive" or
    "nonnegative" as `sign` asks.  A ragged array fails the dimension check."""
    # A float array holds no bools or strings: it skips the per-entry type
    # walk, which takes tens of microseconds on a sweep grid of 1001 angles.
    floats = isinstance(values, np.ndarray) and values.dtype.kind == "f"
    arr = values if floats else np.asarray(values, dtype=object)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-dimensional array of real numbers, got shape {arr.shape}")
    if not floats:
        _check_numbers(name, arr, _REAL, "real")
    arr = arr.astype(float)
    # Counting is quicker than .all() on the short arrays most callers pass.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
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


def _code_document(code: CodeSpec) -> dict:
    """The code file: the layout, then complex entries as [re, im] pairs in
    float arrays, matrices row-major, one codeword per row."""
    return {
        **deepcopy(CODE_LAYOUT),
        "codewords": _complex_to_pairs(code.codewords.T),
        "encoder": _complex_to_pairs(code.encoder),
        "decoders": {str(q + 1): _complex_to_pairs(d) for q, d in enumerate(code.decoders)},
    }


def code_to_json_dict(code: CodeSpec) -> dict:
    """JSON-ready dict: the code file with its arrays as nested lists."""
    doc = _code_document(code)
    doc.update(codewords=doc["codewords"].tolist(), encoder=doc["encoder"].tolist(),
               decoders={q: d.tolist() for q, d in doc["decoders"].items()})
    return doc


def code_from_json_dict(doc: dict) -> CodeSpec:
    """Load a CodeSpec as stored, so proved unitary; run the verifiers to trust the rest.

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
        codewords=_complex_array("codewords", doc["codewords"], (DIMENSION, dim)).T,
        encoder=_complex_array("encoder", doc["encoder"], (dim, dim)),
        decoders=tuple(_complex_array(f"decoder {q}", doc["decoders"][q], (dim, dim)) for q in locations),
    )


def codeword_orthonormality_deviation(code: CodeSpec) -> float:
    """max_bc |<phi_b|phi_c> - delta_bc| over all codeword pairs."""
    form = np.einsum("ib,ic->bc", code.codewords.conj(), code.codewords)
    return float(np.max(np.abs(form - np.eye(form.shape[0]))))
