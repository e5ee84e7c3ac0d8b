"""Dense pure-state and density-matrix simulator for small qubit registers.

Convention used throughout the package: qubit labels are 1-based and qubit 1
is the most significant bit of a basis-state index, so on five qubits the
basis state |01001> has index 0b01001 = 9.  All operations return new state
objects and never mutate their inputs; states and gates hold read-only copies
of the arrays they were built from.

A Pauli {qubit: "E"|"X"|"Y"|"Z"} is a signed index permutation (Y = iXZ):
(P v)[i] = (-i)^(number of Y) (-1)^popcount(i & z) v[i XOR x], with x the bits
of its X/Y qubits and z those of its Z/Y qubits; `_pauli_action`, which
every proof of the code uses, computes it for a batch of Pauli words.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

UNITARY_ATOL = 1e-12

E2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_BY_LABEL = {"E": E2, "X": X, "Y": Y, "Z": Z}

# The number types that checked inputs accept: reals for `code552._reals`,
# and complex numbers too for `_frozen`.
_REAL = (int, float, np.integer, np.floating)
_NUMBER = (*_REAL, complex, np.complexfloating)


@dataclass(frozen=True)
class PureState:
    """State vector on `n_qubits` qubits, amplitudes indexed MSB-first."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen("amplitudes", self.amplitudes, (_dimension(self.n_qubits),)))

    @classmethod
    def basis(cls, bits: str) -> "PureState":
        """Computational basis state from a bit string, first char = qubit 1."""
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"not a bit string: {bits!r}")
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(len(bits), amps)

    def density(self) -> "MixedState":
        return MixedState(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class MixedState:
    """Density matrix on `n_qubits` qubits, same index convention as PureState."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = _dimension(self.n_qubits)
        object.__setattr__(self, "matrix", _frozen("density matrix", self.matrix, (dim, dim)))


@dataclass(frozen=True)
class GateOp:
    """A unitary on an ordered tuple of qubits, first listed qubit = MSB.

    The constructor is the one check: the labels go through `_axes_for`, and
    the matrix must be a finite 2^k x 2^k unitary for k labels, kept as a
    read-only copy.  `single` is the one-qubit shorthand.
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        labels = tuple(self.qubits)
        _axes_for(labels)
        matrix = _frozen("matrix", self.matrix, (2 ** len(labels),) * 2)
        _prove_unitary(matrix[None])
        object.__setattr__(self, "qubits", labels)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def single(cls, qubit: int, matrix: np.ndarray) -> "GateOp":
        return cls((qubit,), matrix)


def _frozen(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """`value` as a finite, read-only complex copy of `shape`: the one check
    on the arrays of states, gates and codes.  Entries are numbers, not bools
    or strings.  Being a copy, it cannot change after the check, and later
    writes to `value` do not reach it."""
    # An array of numbers holds no bools or strings: it skips the type walk.
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iufc"):
        value = np.asarray(value, dtype=object)
        _check_numbers(name, value, _NUMBER, "complex")
    arr = np.array(value, dtype=complex, order="C")
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    arr.flags.writeable = False
    return arr


def _check_numbers(name: str, entries: np.ndarray, types: tuple, kind: str) -> None:
    """The one type rule on numbers from outside: every entry of the object
    array `entries` is one of `types` and not a bool, which is an int."""
    # Checking the distinct entry types is quicker than checking every entry.
    if not all(issubclass(t, types) and t is not bool for t in {type(v) for v in entries.flat}):
        bad = next(v for v in entries.flat if isinstance(v, bool) or not isinstance(v, types))
        raise ValueError(f"{name} must be {kind} numbers, got {bad!r}")


def _prove_unitary(mats: np.ndarray, prefixes: Sequence[str] = ("",)) -> None:
    """The one unitarity rule, behind GateOp and CodeSpec: each matrix M of the
    stack `mats` has max |M^dag M - I| <= UNITARY_ATOL, else ValueError names
    the first that fails by its entry in `prefixes`."""
    errs = np.max(np.abs(np.swapaxes(mats, -1, -2).conj() @ mats - np.eye(mats.shape[-1])), axis=(-2, -1))
    for prefix, err in zip(prefixes, errs):
        if not err <= UNITARY_ATOL:  # so a NaN deviation, say from an overflow, fails
            raise ValueError(f"{prefix}matrix is not unitary (deviation {err:.3e})")


def _apply_matrix(vec: np.ndarray, mat: np.ndarray, axes: Sequence[int], n: int) -> np.ndarray:
    """Apply `mat` to the listed tensor axes (first listed axis = MSB of mat).

    `vec` may be a flat vector (2^n,) or a column batch (2^n, B): the one
    kernel behind the gates on pure states and on density matrices.
    """
    cols = vec.shape[1] if vec.ndim == 2 else 1
    t = np.moveaxis(vec.reshape([2] * n + [cols]), axes, range(len(axes)))
    t = (mat @ t.reshape(2 ** len(axes), -1)).reshape(t.shape)
    return np.moveaxis(t, range(len(axes)), axes).reshape(vec.shape)


def _is_int(value) -> bool:
    """The one integer test on qubit labels and counts, inputs and grid sizes: an int, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _dimension(n) -> int:
    """2^n, once a state's qubit count `n` is an integer of at least 1."""
    if not _is_int(n):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("need at least one qubit")
    return 2**n


def _axes_for(qubits: Sequence[int], n: int | None = None, what: str = "qubit") -> list[int]:
    """0-based tensor axes of 1-based labels; the one check on qubit labels.

    Each label is an integer, not a bool, in 1..n (any positive integer when
    n is None), and no label repeats.  `what` names the labels in errors.
    """
    axes = []
    for q in qubits:
        if not _is_int(q) or q < 1 or (n is not None and q > n):
            bound = "positive integers" if n is None else f"integers in 1..{n}"
            raise ValueError(f"{what} {q!r} out of range: labels are {bound}")
        axes.append(int(q) - 1)
    if len(set(axes)) != len(axes):
        raise ValueError(f"repeated {what} label in {tuple(qubits)}")
    return axes


def apply_gate(state: PureState, gate: GateOp) -> PureState:
    """Apply a GateOp to a pure state, returning a new state."""
    axes = _axes_for(gate.qubits, state.n_qubits)
    return PureState(state.n_qubits, _apply_matrix(state.amplitudes, gate.matrix, axes, state.n_qubits))


def apply_gate_mixed(state: MixedState, gate: GateOp) -> MixedState:
    """U rho U^dag as (U (U rho)^dag)^dag, each product by _apply_matrix."""
    n, axes = state.n_qubits, _axes_for(gate.qubits, state.n_qubits)
    left = _apply_matrix(state.matrix, gate.matrix, axes, n)
    return MixedState(n, _apply_matrix(left.conj().T, gate.matrix, axes, n).conj().T)


def apply_matrix_mixed(state: MixedState, matrix: np.ndarray) -> MixedState:
    """Conjugate a density matrix by a full-register unitary, such as a built code's decoder, unchecked."""
    return MixedState(state.n_qubits, matrix @ state.matrix @ matrix.conj().T)


def partial_trace(state: MixedState, keep: Sequence[int]) -> MixedState:
    """Reduced density matrix on the kept qubits, in the order listed."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one qubit")
    n = state.n_qubits
    keep_axes = _axes_for(keep, n)
    t = state.matrix.reshape([2] * (2 * n))
    # A dropped qubit's bra axis takes its ket label, so einsum traces it out.
    ket = list(range(n))
    bra = [n + i if i in keep_axes else i for i in range(n)]
    out = [ket[a] for a in keep_axes] + [bra[a] for a in keep_axes]
    reduced = np.einsum(t, ket + bra, out)
    k = len(keep)
    return MixedState(k, reduced.reshape(2**k, 2**k))


def fidelity_with_pure(state: MixedState, target: PureState) -> float:
    """<target| rho |target> for a pure reference."""
    if state.n_qubits != target.n_qubits:
        raise ValueError("states have different qubit counts")
    v = target.amplitudes
    return float(np.real(np.vdot(v, state.matrix @ v)))


def _spin_signs(n_qubits: int) -> np.ndarray:
    """(-1)^bit for every qubit and basis index; shape (n_qubits, 2^n), qubit 1 first."""
    idx = np.arange(2**n_qubits)
    bits = (idx[None, :] >> (n_qubits - 1 - np.arange(n_qubits))[:, None]) & 1
    return 1.0 - 2.0 * bits


@lru_cache(maxsize=64)
def _pauli_action(n: int, words: tuple[tuple[tuple[int, str], ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """The one Pauli kernel: each word's action on n qubits as read-only
    (sources, phases), one row per word, so that its image of v is
    phases[w] * v[sources[w]].  A word is a tuple of (qubit, "E"|"X"|"Y"|"Z")
    pairs; its callers build the words, so they are not checked here."""
    labels = np.array([[dict(word).get(q, "E") for q in range(1, n + 1)] for word in words]).reshape(-1, n)
    flips = ((labels == "X") | (labels == "Y")) @ (1 << np.arange(n - 1, -1, -1))
    signs = np.prod(np.where(((labels == "Y") | (labels == "Z"))[..., None], _spin_signs(n), 1.0), axis=1)
    sources = np.arange(2**n) ^ flips[:, None]
    phases = np.array([1, -1j, -1, 1j])[np.count_nonzero(labels == "Y", axis=1) % 4, None] * signs
    sources.flags.writeable = phases.flags.writeable = False
    return sources, phases
