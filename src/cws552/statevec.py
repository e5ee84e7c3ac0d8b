"""Dense pure-state and density-matrix simulator for small qubit registers.

Convention used throughout the package: qubit labels are 1-based and qubit 1
is the most significant bit of a basis-state index, so on five qubits the
basis state |01001> has index 0b01001 = 9.  All operations return new state
objects and never mutate their inputs; states and gates hold read-only copies
of the arrays they were built from.

A Pauli {qubit: "E"|"X"|"Y"|"Z"} is a signed index permutation (Y = iXZ):
(P v)[i] = (-i)^(number of Y) (-1)^popcount(i & z) v[i XOR x], with x the bits
of its X/Y qubits and z those of its Z/Y qubits; `pauli_apply` computes it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

UNITARY_ATOL = 1e-12

E2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_BY_LABEL = {"E": E2, "X": X, "Y": Y, "Z": Z}


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

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


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
        object.__setattr__(self, "qubits", labels)
        object.__setattr__(self, "matrix", _as_unitary(self.matrix, 2 ** len(labels)))

    @classmethod
    def single(cls, qubit: int, matrix: np.ndarray) -> "GateOp":
        return cls((qubit,), matrix)


def _frozen(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """`value` as a finite, read-only complex copy of `shape`: the one check
    on the arrays of states, gates and codes.  Being a copy, it cannot change
    after the check, and later writes to `value` do not reach it."""
    arr = np.array(value, dtype=complex, order="C")
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    arr.flags.writeable = False
    return arr


def _as_unitary(matrix: np.ndarray, dim: int) -> np.ndarray:
    """`matrix` as a read-only copy (_frozen) once it is a dim x dim unitary."""
    mat = _frozen("matrix", matrix, (dim, dim))
    err = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
    if not err <= UNITARY_ATOL:  # so a NaN deviation, say from an overflow, fails
        raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
    return mat


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
    """The one integer test on qubit labels and counts: an int, not a bool."""
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
    """Conjugate a density matrix by a full-register unitary its caller proved."""
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


def pauli_apply(amplitudes: np.ndarray, labels: dict[int, str]) -> np.ndarray:
    """P v for the Pauli {qubit: "E"|"X"|"Y"|"Z"}: an index XOR times a phase.

    `amplitudes` is a state vector (2^n,) or a column batch (2^n, B); the
    result has its shape and equals the dense product exactly.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    n = len(amps).bit_length() - 1 if amps.ndim in (1, 2) else -1
    if n < 1 or len(amps) != 2**n:
        raise ValueError(f"expected 2^n amplitudes per column, got shape {amps.shape}")
    paulis = dict(zip(_axes_for(tuple(labels), n), labels.values()))
    if set(paulis.values()) - set(PAULI_BY_LABEL):
        raise ValueError(f"Pauli labels must be E, X, Y or Z, got {labels}")
    flip = sum(1 << (n - 1 - a) for a, p in paulis.items() if p in "XY")
    signs = np.prod(_spin_signs(n)[[a for a, p in paulis.items() if p in "ZY"]], axis=0)
    phase = (1, -1j, -1, 1j)[list(paulis.values()).count("Y") % 4] * signs
    return (phase if amps.ndim == 1 else phase[:, None]) * amps[np.arange(2**n) ^ flip]
