"""Liquid-state NMR style system model, dephasing noise, and spectra.

The spin Hamiltonian is diagonal in the computational basis (hbar = 1):

    H = sum_i pi nu_i Z_i + sum_{i<j} (pi/2) J_ij Z_i Z_j

with chemical shifts nu_i and scalar couplings J_ij in Hz.  Dephasing over a
circuit segment of duration t is the channel

    rho -> (1 - lam/2) rho + (lam/2) Z_q rho Z_q,   lam = 1 - exp(-t/T2_q)

which scales every coherence of qubit q by exp(-t/T2_q) and fixes all
populations.  One kernel applies a segment's noise to a density matrix or a
stack of them: one real elementwise mask per (model, segment) holds every
qubit's dephasing and, with optional T1 amplitude damping on, every
qubit's damping rescale, and damping adds one strided transfer per qubit
from its (1,1) to its (0,0) ket/bra block.
The optional depolarizing and coherence-scaling knobs act once on the final
state.  The segment kernel and the knobs each have an adjoint that carries
readout weights backward (the Heisenberg picture); the sweep engine behind
settings A, B and C runs on these adjoints.

Spectra come from the free-induction signal of one observed spin,
M(t) = Tr[rho(t) (X_j + i Y_j)] * exp(-t/T2star_j), discretely Fourier
transformed.  A doublet split by J appears around nu_j, and a coupling
partner held in |0> contributes the peak at nu_j + J/2.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from .code552 import _REAL, N_QUBITS, CodeSpec, _check_keys, _reals, encode
from .error_model import ErrorSpec, error_unitary
from .statevec import GateOp, MixedState, PureState, _axes_for, _spin_signs, apply_gate_mixed, apply_matrix_mixed

SEGMENTS = ("encode", "error", "decode")

# Most (transition, sample) entries a spectrum's signal may hold: 256 MiB of complex128.
SPECTRUM_SIZE_CAP = 2**24


def _unit_interval(name: str, value) -> float:
    """`value` as a float in [0, 1]: the one check on channel strengths."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


# NmrSystem's arrays in field order, each with its `_reals` sign rule and
# dimension: the one list of its fields that the check and the JSON codec
# read.  nu comes first, and its length is the number of spins.
_SYSTEM_ARRAYS = {"nu": ("", 1), "J": ("", 2), "T1": ("positive", 1), "T2": ("positive", 1), "T2star": ("positive", 1)}


@dataclass(frozen=True)
class NmrSystem:
    """Spin system parameters: shifts (Hz), couplings (Hz), relaxation times (s),
    each kept as a checked, read-only float copy."""

    nu: np.ndarray
    J: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    T2star: np.ndarray

    def __post_init__(self):
        for name, (sign, ndim) in _SYSTEM_ARRAYS.items():
            arr = _reals(f"{name} entries", getattr(self, name), sign, ndim)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            if arr.shape != self.nu.shape * ndim:
                raise ValueError(f"{name} must have shape {self.nu.shape * ndim}, got shape {arr.shape}")
        if not self.nu.size:
            raise ValueError("a spin system needs at least one spin: nu is empty")
        if np.max(np.abs(self.J - self.J.T)) > 0:
            raise ValueError("J must be symmetric")
        if np.max(np.abs(np.diag(self.J))) > 0:
            raise ValueError("J must have zero diagonal")

    @property
    def n_spins(self) -> int:
        return int(self.nu.size)

    @classmethod
    def placeholder_five_spin(cls) -> "NmrSystem":
        """Made-up but plausible five-spin profile for demos and tests.

        The shifts and couplings are placeholders, not measured molecule
        parameters; only their rough magnitudes are representative.
        """
        nu = np.array([120.0, -80.0, 40.0, -160.0, 200.0])
        j = np.zeros((5, 5))
        pairs = {(1, 2): 35.0, (2, 3): 55.0, (3, 4): 38.0, (4, 5): 42.0, (1, 3): 9.0, (2, 4): 6.0}
        for (a, b), val in pairs.items():
            j[a - 1, b - 1] = j[b - 1, a - 1] = val
        return cls(
            nu=nu,
            J=j,
            T1=np.array([5.0, 8.0, 7.0, 6.0, 9.0]),
            T2=np.array([0.85, 1.10, 0.95, 0.80, 1.00]),
            T2star=np.array([0.12, 0.15, 0.13, 0.11, 0.14]),
        )

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _SYSTEM_ARRAYS}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NmrSystem":
        _check_keys(doc, "system", tuple(_SYSTEM_ARRAYS))
        return cls(**doc)


def energies(system: NmrSystem) -> np.ndarray:
    """Diagonal of the Hamiltonian in angular frequency units (rad/s)."""
    if system.n_spins > 10:
        raise ValueError("refusing to build a Hamiltonian beyond 10 spins")
    signs = _spin_signs(system.n_spins)
    diag = np.pi * system.nu @ signs
    for a in range(system.n_spins):
        for b in range(a + 1, system.n_spins):
            if system.J[a, b] != 0.0:
                diag = diag + (np.pi / 2.0) * system.J[a, b] * signs[a] * signs[b]
    return diag


@dataclass(frozen=True)
class NoiseModel:
    """Dephasing noise for the encode/error/decode pipeline.

    t2 holds per-qubit dephasing times (s); schedule maps each circuit
    segment to a duration (s).  The optional knobs act once on the final
    state: coherence_scale multiplies every off-diagonal element by a
    constant, depolarizing mixes in the maximally mixed state.  Amplitude
    damping with the t1 times can be switched on per segment as well; it is
    off by default.
    """

    t2: tuple[float, ...]
    schedule: tuple[tuple[str, float], ...]
    coherence_scale: float = 1.0
    depolarizing: float = 0.0
    t1: tuple[float, ...] | None = None
    amplitude_damping: bool = False

    def __post_init__(self):
        t2 = tuple(_reals("T2 entries", self.t2, "positive").tolist())
        object.__setattr__(self, "t2", t2)
        pairs = self.schedule
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 and isinstance(p[0], str) for p in pairs
        ):
            raise ValueError(f"schedule must be (segment, duration) pairs, got {pairs!r}")
        names = [seg for seg, _ in pairs]
        if sorted(names) != sorted(SEGMENTS):
            raise ValueError(f"schedule must name each of {SEGMENTS} exactly once, got {names}")
        durations = _reals("segment durations", [dur for _, dur in pairs], "nonnegative")
        object.__setattr__(self, "schedule", tuple(zip(names, durations.tolist())))
        for knob in ("coherence_scale", "depolarizing"):
            object.__setattr__(self, knob, _unit_interval(knob, getattr(self, knob)))
        if self.t1 is not None:
            t1 = tuple(_reals("T1 entries", self.t1, "positive").tolist())
            if len(t1) != len(t2):
                raise ValueError(f"t1 has {len(t1)} entries, t2 has {len(t2)}; need one per qubit")
            object.__setattr__(self, "t1", t1)
        if not isinstance(self.amplitude_damping, bool):
            raise ValueError(f"amplitude_damping must be true or false, got {self.amplitude_damping!r}")
        if self.amplitude_damping and self.t1 is None:
            raise ValueError("amplitude damping requires t1 times")

    @classmethod
    def default(cls) -> "NoiseModel":
        """Default profile: 0.65 s total, split by nominal segment gate counts.

        The encode and decode segments each carry six elementary steps against
        one for the error pulse, so the split is 6:1:6.
        """
        total = 0.65
        weights = {"encode": 6.0, "error": 1.0, "decode": 6.0}
        wsum = sum(weights.values())
        return cls(
            t2=(0.85, 1.10, 0.95, 0.80, 1.00),
            schedule=tuple((seg, total * weights[seg] / wsum) for seg in SEGMENTS),
        )

    @classmethod
    def uniform_attenuation(cls, gamma: float) -> "NoiseModel":
        """Pure coherence attenuation by `gamma` on the code's qubits, no
        time-based dephasing."""
        return cls(
            t2=(1.0,) * N_QUBITS,
            schedule=tuple((seg, 0.0) for seg in SEGMENTS),
            coherence_scale=gamma,
        )

    @cached_property
    def _segment_channels(self) -> dict[str, tuple[np.ndarray, tuple[tuple[int, float], ...]]]:
        """Per segment of duration t: `_mask_and_transfers` of each qubit's
        lambda = 1 - exp(-t/T2) and, with damping on, gamma = 1 - exp(-t/T1),
        else gamma = 0.  Each model builds them once, on first use."""
        durations = dict(self.schedule)
        channels = {}
        for seg in SEGMENTS:
            # t/T may overflow to inf; exp(-inf) = 0 is exact.
            with np.errstate(over="ignore"):
                lams = 1.0 - np.exp(-durations[seg] / np.array(self.t2))
                gammas = 1.0 - np.exp(-durations[seg] / np.array(self.t1)) if self.amplitude_damping else np.zeros_like(lams)
            channels[seg] = _mask_and_transfers(lams.tolist(), gammas.tolist())
        return channels

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NoiseModel":
        required = [f.name for f in fields(cls) if f.default is MISSING]
        _check_keys(doc, "noise model", required, [f.name for f in fields(cls)])
        return cls(**doc)


def _mask_and_transfers(lams, gammas) -> tuple[np.ndarray, tuple[tuple[int, float], ...]]:
    """A segment's channel from per-qubit dephasing and damping strengths: a
    read-only real mask and the (qubit, gamma) transfer of each nonzero gamma.

    Mask element (a, b) is the product over qubits q of f_q[a_q, b_q], with
    f_q = [[1, k_q], [k_q, 1 - gamma_q]] and k_q = (1 - lam_q) sqrt(1 - gamma_q),
    multiplied from qubit 1 on, the most significant, as a chain of np.kron
    would; gamma_q = 0 gives k_q = 1 - lam_q exactly.
    """
    n = len(lams)
    mask = np.ones((1, 1))
    for q, (lam, gamma) in enumerate(zip(lams, gammas), start=1):
        keep = (1.0 - lam) * np.sqrt(1.0 - gamma)
        bits = np.arange(2**n) >> (n - q) & 1
        mask = mask * np.array([[1.0, keep], [keep, 1.0 - gamma]])[bits[:, None], bits]
    mask.flags.writeable = False
    return mask, tuple((q, gamma) for q, gamma in enumerate(gammas, start=1) if gamma)


def _damp_in_place(rhos: np.ndarray, qubit: int, gamma: float, adjoint: bool = False) -> None:
    """Add gamma times one qubit's (1,1) ket/bra block to its (0,0) block (the
    adjoint: (0,0) to (1,1)) on a C-contiguous stack (..., 2^n, 2^n).  Then the
    mask's rescale of the qubit makes it K0 rho K0^dag + K1 rho K1^dag, with
    K0 = diag(1, sqrt(1-gamma)) and K1 = sqrt(gamma)|0><1|."""
    t = rhos.view()
    t.shape = rhos.shape[:-2] + (2 ** (qubit - 1), 2, 2 ** (rhos.shape[-1].bit_length() - 1 - qubit)) * 2
    src, dst = (0, 1) if adjoint else (1, 0)
    t[..., :, dst, :, :, dst, :] += gamma * t[..., :, src, :, :, src, :]


def _channel(rhos: np.ndarray, mask: np.ndarray, transfers) -> np.ndarray:
    """A segment's channel on a matrix or a stack (..., 2^n, 2^n), into a new
    array: each (qubit, gamma) transfer, qubit 1 first, then the mask.  The
    mask's rescales commute with every transfer but their own qubit's, since
    the others scale a transfer's source and target blocks alike."""
    rhos = rhos.astype(complex, order="C")
    for qubit, gamma in transfers:
        _damp_in_place(rhos, qubit, gamma)
    return np.multiply(rhos, mask, out=rhos)


def apply_segment_noise(rhos: np.ndarray, model: NoiseModel, segment: str) -> np.ndarray:
    """One segment's noise on a density matrix or a stack (..., 2^n, 2^n).

    With damping on, each qubit's transfer runs first; then one mask folds
    every qubit's dephasing and damping rescale.
    """
    return _channel(rhos, *_segment_channel(rhos, model, segment))


def segment_noise_adjoint(
    weights: np.ndarray, model: NoiseModel, segment: str, out: np.ndarray | None = None
) -> np.ndarray:
    """Heisenberg picture of apply_segment_noise on readout weights W.

    The result A satisfies sum(A * rho) == sum(W * apply_segment_noise(rho))
    for every rho; like the forward kernel it takes stacks (..., 2^n, 2^n).
    A is written to `out` when given, which may be `weights` itself: a large
    stack is then carried back without a second buffer of its size.  The
    mask runs first, then each transfer's adjoint.
    """
    mask, transfers = _segment_channel(weights, model, segment)
    out = np.multiply(weights, mask, out=out, dtype=complex)
    for qubit, gamma in transfers:
        _damp_in_place(out, qubit, gamma, adjoint=True)
    return out


def _segment_channel(rhos: np.ndarray, model: NoiseModel, segment: str):
    """The model's (mask, transfers) for a known `segment` on the qubits of `rhos`."""
    if segment not in SEGMENTS:
        raise ValueError(f"segment {segment!r} not in schedule")
    n = rhos.shape[-1].bit_length() - 1
    if len(model.t2) != n:
        raise ValueError(f"noise model covers {len(model.t2)} qubits, state has {n}")
    return model._segment_channels[segment]


def apply_dephasing(state: MixedState, qubit: int, lam: float) -> MixedState:
    """Channel rho -> (1 - lam/2) rho + (lam/2) Z_q rho Z_q."""
    strengths = np.zeros((2, state.n_qubits))  # lambdas, gammas
    strengths[0, _axes_for((qubit,), state.n_qubits)] = _unit_interval("lambda", lam)
    return MixedState(state.n_qubits, _channel(state.matrix, *_mask_and_transfers(*strengths)))


def apply_amplitude_damping(state: MixedState, qubit: int, gamma: float) -> MixedState:
    """T1 decay toward |0> with branch probability gamma."""
    strengths = np.zeros((2, state.n_qubits))  # lambdas, gammas
    strengths[1, _axes_for((qubit,), state.n_qubits)] = _unit_interval("gamma", gamma)
    return MixedState(state.n_qubits, _channel(state.matrix, *_mask_and_transfers(*strengths)))


def _final_knobs(rhos: np.ndarray, depolarizing: float, coherence_scale: float, adjoint: bool = False) -> np.ndarray:
    """Depolarizing, then coherence scaling, on a density matrix or a stack
    (..., 2^n, 2^n); a knob at its no-op value (0 or 1) is skipped and the
    strengths are taken as already checked.

    The adjoint acts on readout weights W, so that sum(W * knobs(rho)) =
    sum(adjoint(W) * rho) for rho of trace one: where the state mixes in
    I/dim, W gains tr(W)/dim on its diagonal, and coherence scaling is its
    own adjoint.  The knobs commute on such rho, so the order is kept.
    """
    dim = rhos.shape[-1]
    if depolarizing > 0.0:
        eye = np.eye(dim, dtype=complex)
        if adjoint:
            eye = eye * np.trace(rhos, axis1=-2, axis2=-1)[..., None, None]
        rhos = (1.0 - depolarizing) * rhos + depolarizing * eye / dim
    if coherence_scale < 1.0:
        idx = np.arange(dim)
        diag = np.zeros_like(rhos)
        diag[..., idx, idx] = rhos[..., idx, idx]
        rhos = coherence_scale * rhos + (1.0 - coherence_scale) * diag
    return rhos


def run_noisy_qecc(code: CodeSpec, register: PureState, error: ErrorSpec, model: NoiseModel) -> MixedState:
    """Encode, apply the error, decode, with dephasing after every segment.

    `register` is the 3-qubit logical input.  The optional depolarizing and
    coherence_scale knobs act once at the end.  Returns the final 5-qubit
    density matrix.
    """
    psi = encode(code, register).amplitudes
    rho = apply_segment_noise(np.outer(psi, psi.conj()), model, "encode")

    rho = apply_gate_mixed(MixedState(code.n, rho), GateOp.single(error.location, error_unitary(error))).matrix
    rho = apply_segment_noise(rho, model, "error")

    rho = apply_matrix_mixed(MixedState(code.n, rho), code.decoder(error.location)).matrix
    rho = apply_segment_noise(rho, model, "decode")

    return MixedState(code.n, _final_knobs(rho, model.depolarizing, model.coherence_scale))


def simulate_spectrum(
    state: MixedState,
    system: NmrSystem,
    observe: int,
    t_max: float,
    dt: float,
) -> list[tuple[float, complex]]:
    """FFT spectrum of the observed spin's free-induction signal.

    Returns (frequency Hz, complex amplitude) pairs in ascending frequency
    order.  Amplitudes are normalized by the number of samples, so an
    undamped unit coherence would give a unit peak.
    """
    freqs, amps = _spectrum_arrays(state, system, observe, t_max, dt)
    return list(zip(freqs.tolist(), amps.tolist()))


def _spectrum_arrays(
    state: MixedState, system: NmrSystem, observe: int, t_max: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """simulate_spectrum's pairs as two arrays: the frequencies in ascending
    order and their complex amplitudes."""
    n = system.n_spins
    if state.n_qubits != n:
        raise ValueError(f"state has {state.n_qubits} qubits, system has {n} spins")
    (axis,) = _axes_for((observe,), n, "observe")
    # As Python floats, whose division overflows to inf without a warning.
    t_max, dt = _reals("t_max and dt", [t_max, dt], "positive").tolist()
    if np.max(np.abs(system.nu)) >= 0.5 / dt:
        raise ValueError(
            f"dt {dt} aliases shifts up to {np.max(np.abs(system.nu))} Hz; need dt < 1/(2 max|nu|)"
        )

    e = energies(system)
    bit = 1 << (n - 1 - axis)
    lower = np.array([i for i in range(2**n) if not i & bit])
    upper = lower + bit
    freqs_pair = -(e[upper] - e[lower]) / (2.0 * np.pi)
    # Every transition counts, weighted or not, so the verdict does not
    # depend on the state; `not <` also rejects a NaN frequency.
    peak = np.max(np.abs(freqs_pair))
    if not peak < 0.5 / dt:
        raise ValueError(
            f"dt {dt} aliases spin {observe}'s transitions up to {peak} Hz; "
            "need dt < 1/(2 max|transition|)"
        )
    # Tr[rho (X+iY)_j] = 2 sum over pairs rho[a, b], a = |...1...>, b = |...0...>
    weights = 2.0 * state.matrix[upper, lower]

    if t_max / dt == float("inf"):
        raise ValueError(f"t_max / dt overflows: t_max {t_max!r}, dt {dt!r}")
    n_samples = int(round(t_max / dt))
    if len(lower) * n_samples > SPECTRUM_SIZE_CAP:
        raise ValueError(
            f"t_max / dt = {t_max / dt:.6g} samples for {len(lower)} transitions exceeds the cap of "
            f"{SPECTRUM_SIZE_CAP} transition-samples: t_max {t_max!r}, dt {dt!r}"
        )
    if n_samples < 2:
        raise ValueError("need at least two samples")
    times = np.arange(n_samples) * dt
    # Only transitions with a nonzero weight are summed.  A zero weight adds
    # a signed zero to each sample, and over two or more samples numpy's
    # axis-0 sum folds the rows in order from +0, so dropping those rows
    # leaves every bit of the sum.
    keep = np.flatnonzero(weights)
    signal = (weights[keep, None] * np.exp(2j * np.pi * freqs_pair[keep, None] * times[None, :])).sum(axis=0)
    signal = signal * np.exp(-times / system.T2star[axis])

    spectrum = np.fft.fft(signal) / n_samples
    freqs = np.fft.fftfreq(n_samples, dt)
    order = np.argsort(freqs)
    return freqs[order], spectrum[order]
