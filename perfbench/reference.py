"""Dense reference for the encode -> error -> decode pipeline, independent of
``cws552.nmr_noise``, ``cws552.experiment`` and ``cws552.statevec``.

Every channel is a list of full 32x32 Kraus operators assembled with
``np.kron``; the circuit unitaries come straight from ``code.encoder`` and
``code.decoder(q)``.  The noise parameters are the benchmark's own copy of
the library's default profile, so a change to ``NoiseModel.default()`` shows up
as a check failure rather than being followed silently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N = 5
DIM = 2**N
I2 = np.eye(2, dtype=complex)
PAULI = {
    "E": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
AXIS = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}

# Syndrome bits (qubit 1, qubit 5) per error branch.
SYNDROME = {"E": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
# Input k -> register basis indices (on qubits 2,3,4) of its coherent pair.
INPUT_PAIRS = {1: (0, 4), 2: (2, 3), 3: (0, 1)}

# Default profile: T2 per qubit, 0.65 s split 6:1:6 over encode/error/decode.
T2_DEFAULT = (0.85, 1.10, 0.95, 0.80, 1.00)
DURATIONS_DEFAULT = (0.65 * 6 / 13, 0.65 * 1 / 13, 0.65 * 6 / 13)
T1_BENCH = (5.0, 8.0, 7.0, 6.0, 9.0)


@dataclass(frozen=True)
class Noise:
    t2: tuple[float, ...] = T2_DEFAULT
    durations: tuple[float, float, float] = DURATIONS_DEFAULT
    t1: tuple[float, ...] | None = None
    coherence_scale: float = 1.0


def embed(op2: np.ndarray, qubit: int) -> np.ndarray:
    """2x2 operator on `qubit` (1 = most significant bit) as a 32x32 matrix."""
    out = np.array([[1.0 + 0j]])
    for q in range(1, N + 1):
        out = np.kron(out, op2 if q == qubit else I2)
    return out


def rotation(theta: float, axis) -> np.ndarray:
    n_sigma = axis[0] * PAULI["X"] + axis[1] * PAULI["Y"] + axis[2] * PAULI["Z"]
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * n_sigma


def _channel(rho: np.ndarray, kraus) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def _segment(rho: np.ndarray, noise: Noise, duration: float) -> np.ndarray:
    for q in range(1, N + 1):
        lam = 1.0 - np.exp(-duration / noise.t2[q - 1])
        rho = _channel(rho, [np.sqrt(1 - lam / 2) * np.eye(DIM), np.sqrt(lam / 2) * embed(PAULI["Z"], q)])
    if noise.t1 is not None:
        for q in range(1, N + 1):
            g = 1.0 - np.exp(-duration / noise.t1[q - 1])
            k0 = embed(np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex), q)
            k1 = embed(np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex), q)
            rho = _channel(rho, [k0, k1])
    return rho


def register_state(k: int) -> np.ndarray:
    amps = np.zeros(8, dtype=complex)
    for r in INPUT_PAIRS[k]:
        amps[r] = 1 / np.sqrt(2)
    return amps


def final_density(code, k: int, location: int, u2: np.ndarray, noise: Noise | None) -> np.ndarray:
    """32x32 output density matrix for input k and a 2x2 error at `location`."""
    psi = np.zeros(DIM, dtype=complex)
    psi[0:16:2] = register_state(k)  # |0>_1 (register)_{2,3,4} |0>_5
    psi = code.encoder @ psi
    rho = np.outer(psi, psi.conj())
    if noise is not None:
        rho = _segment(rho, noise, noise.durations[0])
    for step, unitary in enumerate((embed(u2, location), code.decoder(location)), start=1):
        rho = unitary @ rho @ unitary.conj().T
        if noise is not None:
            rho = _segment(rho, noise, noise.durations[step])
    if noise is not None and noise.coherence_scale < 1.0:
        g = noise.coherence_scale
        rho = g * rho + (1 - g) * np.diag(np.diag(rho))
    return rho


def _index(j: int, r: int, l: int) -> int:
    return (j << 4) | (r << 1) | l


def observables(rho: np.ndarray, k: int, error_type: str) -> np.ndarray:
    """(A0, A1, I0, I1, I) for a coordinate-axis error of the given type."""
    r0, r1 = INPUT_PAIRS[k]
    z = []
    for label in ("E", error_type):
        j, l = SYNDROME[label]
        z.append(2.0 * rho[_index(j, r1, l), _index(j, r0, l)])
    z0, z1 = z
    return np.array([z0.real, z1.real, abs(z0), abs(z1), abs(z0 + z1)])


def population_and_fidelity(rho: np.ndarray, k: int) -> tuple[float, float]:
    """Population of the most populated syndrome branch, and register fidelity."""
    pops = np.real(np.diag(rho)).reshape(2, 8, 2).sum(axis=1)
    reduced = np.einsum("aibajb->ij", rho.reshape(2, 8, 2, 2, 8, 2))
    v = register_state(k)
    return float(pops.max()), float(np.real(v.conj() @ reduced @ v))
