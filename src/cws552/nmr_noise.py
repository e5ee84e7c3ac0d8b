"""Liquid-state NMR style system model, dephasing noise, and spectra.

The spin Hamiltonian is diagonal in the computational basis (hbar = 1):

    H = sum_i pi nu_i Z_i + sum_{i<j} (pi/2) J_ij Z_i Z_j

with chemical shifts nu_i and scalar couplings J_ij in Hz.  Dephasing over a
circuit segment of duration t is the channel

    rho -> (1 - lam/2) rho + (lam/2) Z_q rho Z_q,   lam = 1 - exp(-t/T2_q)

which scales every coherence of qubit q by exp(-t/T2_q) and fixes all
populations.  One kernel applies a segment's noise to a density matrix or a
stack of them: the dephasing of all qubits is one elementwise mask per
(model, segment), and optional T1 amplitude damping is, per qubit, one
contiguous multiply by a factor matrix cached beside the mask plus one
strided transfer between the qubit's (0,0) and (1,1) blocks.
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

    def duration(self, segment: str) -> float:
        for seg, dur in self.schedule:
            if seg == segment:
                return dur
        raise ValueError(f"segment {segment!r} not in schedule")

    def lam(self, qubit: int, segment: str) -> float:
        """Dephasing strength lambda = 1 - exp(-t/T2) for one qubit, one segment."""
        (axis,) = _axes_for((qubit,), len(self.t2))
        return 1.0 - float(np.exp(-self.duration(segment) / self.t2[axis]))

    def gamma_t1(self, qubit: int, segment: str) -> float:
        """Amplitude-damping strength gamma = 1 - exp(-t/T1) for one qubit, one segment."""
        if self.t1 is None:
            raise ValueError("no t1 times configured")
        (axis,) = _axes_for((qubit,), len(self.t1))
        return 1.0 - float(np.exp(-self.duration(segment) / self.t1[axis]))

    @cached_property
    def _segment_channels(self) -> dict[str, tuple[np.ndarray, tuple[tuple[int, float, np.ndarray], ...]]]:
        """Per segment: the folded dephasing mask and, with amplitude damping
        on, (qubit, gamma, _damping_factor) for each qubit whose T1 gamma is
        not zero.  Built on first use, so each model builds them once."""
        qubits = range(1, len(self.t2) + 1)
        channels = {}
        for seg in SEGMENTS:
            mask = _dephasing_mask([self.lam(q, seg) for q in qubits])
            mask.flags.writeable = False
            gammas = [self.gamma_t1(q, seg) for q in qubits] if self.amplitude_damping else []
            damping = tuple((q, g, _damping_factor(len(self.t2), q, g)) for q, g in enumerate(gammas, start=1) if g)
            channels[seg] = (mask, damping)
        return channels

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NoiseModel":
        required = [f.name for f in fields(cls) if f.default is MISSING]
        _check_keys(doc, "noise model", required, [f.name for f in fields(cls)])
        return cls(**doc)


def _dephasing_mask(lams) -> np.ndarray:
    """Elementwise weight of all per-qubit dephasing channels at once.

    Element (a, b) keeps the product of (1 - lam_q) over the qubits q on
    which a and b differ; qubit 1 is the most significant factor.
    """
    mask = np.ones((1, 1))
    for lam in lams:
        mask = np.kron(mask, np.array([[1.0, 1.0 - lam], [1.0 - lam, 1.0]]))
    return mask


def _damping_factor(n: int, qubit: int, gamma: float) -> np.ndarray:
    """One qubit's read-only complex 2^n x 2^n damping factor: sqrt(1-gamma) on
    its (0,1) and (1,0) ket/bra blocks, 1-gamma on its (1,1) block, 1 elsewhere."""
    factor = np.ones((2 ** (qubit - 1), 2, 2 ** (n - qubit)) * 2, dtype=complex)
    factor[:, 0, :, :, 1, :] = factor[:, 1, :, :, 0, :] = np.sqrt(1.0 - gamma)
    factor[:, 1, :, :, 1, :] = 1.0 - gamma
    factor.shape = (2**n, 2**n)
    factor.flags.writeable = False
    return factor


def _damp_in_place(rhos: np.ndarray, qubit: int, gamma: float, factor: np.ndarray, adjoint: bool = False) -> None:
    """Amplitude damping of one qubit on a C-contiguous stack (..., 2^n, 2^n).

    With K0 = diag(1, sqrt(1-gamma)) and K1 = sqrt(gamma)|0><1| on the qubit,
    K0 rho K0^dag + K1 rho K1^dag adds gamma times the qubit's (1,1) ket/bra
    block to its (0,0) block, then rescales by `factor` (_damping_factor) in
    one contiguous multiply.  The adjoint, on readout weights W with sum(W *
    damp(rho)) = sum(adjoint(W) * rho), rescales first, then adds gamma times
    the (0,0) block to the (1,1) block.  Each entry rounds as in a per-block
    update, except that a -0.0 part of an entry scaled by 1 may become +0.0.
    """
    t = rhos.view()
    t.shape = rhos.shape[:-2] + (2 ** (qubit - 1), 2, 2 ** (rhos.shape[-1].bit_length() - 1 - qubit)) * 2
    if adjoint:
        np.multiply(rhos, factor, out=rhos)
        t[..., :, 1, :, :, 1, :] += gamma * t[..., :, 0, :, :, 0, :]
    else:
        t[..., :, 0, :, :, 0, :] += gamma * t[..., :, 1, :, :, 1, :]
        np.multiply(rhos, factor, out=rhos)


def _channel(rhos: np.ndarray, mask, damping, adjoint: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Dephasing by `mask`, then amplitude damping by each (qubit, gamma, factor).

    `rhos` is a matrix or a stack of them, shape (..., 2^n, 2^n); the result
    goes to `out` (a C-contiguous complex array of that shape, `rhos` itself
    allowed) or else to a new array, leaving `rhos` untouched.  All these
    single-qubit channels commute, so the adjoint runs them in the same order.
    """
    out = np.multiply(rhos, mask, out=out, dtype=complex)
    for qubit, gamma, factor in damping:
        _damp_in_place(out, qubit, gamma, factor, adjoint)
    return out


def apply_segment_noise(rhos: np.ndarray, model: NoiseModel, segment: str) -> np.ndarray:
    """One segment's noise on a density matrix or a stack (..., 2^n, 2^n).

    Dephasing of every qubit is one folded mask, followed by amplitude
    damping of every qubit when the model switches it on.
    """
    return _channel(rhos, *_segment_channel(rhos, model, segment))


def segment_noise_adjoint(
    weights: np.ndarray, model: NoiseModel, segment: str, out: np.ndarray | None = None
) -> np.ndarray:
    """Heisenberg picture of apply_segment_noise on readout weights W.

    The result A satisfies sum(A * rho) == sum(W * apply_segment_noise(rho))
    for every rho; like the forward kernel it takes stacks (..., 2^n, 2^n).
    A is written to `out` when given, which may be `weights` itself: a large
    stack is then carried back without a second buffer of its size.
    """
    return _channel(weights, *_segment_channel(weights, model, segment), adjoint=True, out=out)


def _segment_channel(rhos: np.ndarray, model: NoiseModel, segment: str):
    """The model's (mask, gammas) for a known `segment` on the qubits of `rhos`."""
    if segment not in SEGMENTS:
        raise ValueError(f"segment {segment!r} not in schedule")
    n = rhos.shape[-1].bit_length() - 1
    if len(model.t2) != n:
        raise ValueError(f"noise model covers {len(model.t2)} qubits, state has {n}")
    return model._segment_channels[segment]


def apply_dephasing(state: MixedState, qubit: int, lam: float) -> MixedState:
    """Channel rho -> (1 - lam/2) rho + (lam/2) Z_q rho Z_q."""
    lams = [0.0] * state.n_qubits
    (axis,) = _axes_for((qubit,), state.n_qubits)
    lams[axis] = _unit_interval("lambda", lam)
    return MixedState(state.n_qubits, _channel(state.matrix, _dephasing_mask(lams), ()))


def apply_amplitude_damping(state: MixedState, qubit: int, gamma: float) -> MixedState:
    """T1 decay toward |0> with branch probability gamma."""
    (axis,) = _axes_for((qubit,), state.n_qubits)
    gamma = _unit_interval("gamma", gamma)
    damping = [(axis + 1, gamma, _damping_factor(state.n_qubits, axis + 1, gamma))] if gamma else []
    return MixedState(state.n_qubits, _channel(state.matrix, 1.0, damping))


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
    density matrix.  It proves the code first (CodeSpec.check_unitary).
    """
    code.check_unitary()
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
    # Tr[rho (X+iY)_j] = 2 sum over pairs rho[a, b], a = |...1...>, b = |...0...>
    weights = 2.0 * state.matrix[upper, lower]
    freqs_pair = -(e[upper] - e[lower]) / (2.0 * np.pi)

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
    signal = (weights[:, None] * np.exp(2j * np.pi * freqs_pair[:, None] * times[None, :])).sum(axis=0)
    signal = signal * np.exp(-times / system.T2star[axis])

    spectrum = np.fft.fft(signal) / n_samples
    freqs = np.fft.fftfreq(n_samples, dt)
    order = np.argsort(freqs)
    return freqs[order], spectrum[order]
