"""Liquid-state NMR style system model, dephasing noise, and spectra.

The spin Hamiltonian is diagonal in the computational basis (hbar = 1):

    H = sum_i pi nu_i Z_i + sum_{i<j} (pi/2) J_ij Z_i Z_j

with chemical shifts nu_i and scalar couplings J_ij in Hz.  Dephasing over a
circuit segment of duration t is the channel

    rho -> (1 - lam/2) rho + (lam/2) Z_q rho Z_q,   lam = 1 - exp(-t/T2_q)

which scales every coherence of qubit q by exp(-t/T2_q) and fixes all
populations.  One kernel applies a segment's noise to a density matrix or a
stack of them: the dephasing of all qubits is one elementwise mask per
(model, segment), optional T1 amplitude damping a slice update per qubit.
Its adjoint carries readout weights backward (the Heisenberg picture), which
the sweep engine uses.

Spectra come from the free-induction signal of one observed spin,
M(t) = Tr[rho(t) (X_j + i Y_j)] * exp(-t/T2star_j), discretely Fourier
transformed.  A doublet split by J appears around nu_j, and a coupling
partner held in |0> contributes the peak at nu_j + J/2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .code552 import _REAL, CodeSpec, _check_keys, _reals, encode
from .error_model import ErrorSpec, error_unitary
from .statevec import GateOp, MixedState, PureState, _axes_for, _spin_signs, apply_gate_mixed, apply_matrix_mixed

SEGMENTS = ("encode", "error", "decode")


def _unit_interval(name: str, value) -> float:
    """`value` as a float in [0, 1]: the one check on channel strengths."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class NmrSystem:
    """Spin system parameters: shifts (Hz), couplings (Hz), relaxation times (s)."""

    nu: np.ndarray
    J: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    T2star: np.ndarray

    def __post_init__(self):
        rules = {"nu": ("", 1), "J": ("", 2), "T1": ("positive", 1), "T2": ("positive", 1), "T2star": ("positive", 1)}
        for name, (sign, ndim) in rules.items():
            object.__setattr__(self, name, _reals(f"{name} entries", getattr(self, name), sign, ndim))
        n = self.nu.size
        j = self.J
        if j.shape != (n, n):
            raise ValueError(f"J must be {n}x{n}, got shape {j.shape}")
        if np.max(np.abs(j - j.T)) > 0:
            raise ValueError("J must be symmetric")
        if np.max(np.abs(np.diag(j))) > 0:
            raise ValueError("J must have zero diagonal")
        for name in ("T1", "T2", "T2star"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have {n} entries")

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
        return {
            "nu": self.nu.tolist(),
            "J": self.J.tolist(),
            "T1": self.T1.tolist(),
            "T2": self.T2.tolist(),
            "T2star": self.T2star.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NmrSystem":
        _check_keys(doc, "system", ("nu", "J", "T1", "T2", "T2star"))
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


def hamiltonian(system: NmrSystem) -> np.ndarray:
    """Dense diagonal Hamiltonian matrix (rad/s)."""
    return np.diag(energies(system)).astype(complex)


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
    def uniform_attenuation(cls, gamma: float, n_qubits: int = 5) -> "NoiseModel":
        """Pure coherence attenuation by `gamma`, no time-based dephasing."""
        return cls(
            t2=(1.0,) * n_qubits,
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

    def offdiagonal_factor(self) -> float:
        """What the final depolarizing and coherence_scale knobs multiply every
        off-diagonal element by."""
        return (1.0 - self.depolarizing) * self.coherence_scale

    @cached_property
    def _segment_channels(self) -> dict[str, tuple[np.ndarray, tuple[float, ...]]]:
        """Per segment: the folded dephasing mask and the per-qubit T1 gammas
        (empty when amplitude damping is off).  Built on first use."""
        qubits = range(1, len(self.t2) + 1)
        channels = {}
        for seg in SEGMENTS:
            mask = _dephasing_mask([self.lam(q, seg) for q in qubits])
            mask.flags.writeable = False
            gammas = tuple(self.gamma_t1(q, seg) for q in qubits) if self.amplitude_damping else ()
            channels[seg] = (mask, gammas)
        return channels

    def to_json_dict(self) -> dict:
        doc = {
            "t2": list(self.t2),
            "schedule": [[seg, dur] for seg, dur in self.schedule],
            "coherence_scale": self.coherence_scale,
            "depolarizing": self.depolarizing,
            "amplitude_damping": self.amplitude_damping,
        }
        if self.t1 is not None:
            doc["t1"] = list(self.t1)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NoiseModel":
        optional = ("coherence_scale", "depolarizing", "t1", "amplitude_damping")
        _check_keys(doc, "noise model", ("t2", "schedule"), optional)
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


def _damp_in_place(rhos: np.ndarray, qubit: int, gamma: float, adjoint: bool = False) -> None:
    """Amplitude damping of one qubit on a C-contiguous stack (..., 2^n, 2^n).

    With K0 = diag(1, sqrt(1-gamma)) and K1 = sqrt(gamma)|0><1| on the qubit,
    K0 rho K0^dag + K1 rho K1^dag moves the qubit's (1,1) ket/bra block into
    its (0,0) block and rescales the other blocks.  The adjoint acts on
    readout weights W, defined by sum(W * damp(rho)) = sum(adjoint(W) * rho).
    """
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


def _channel(rhos: np.ndarray, mask, gammas, adjoint: bool = False) -> np.ndarray:
    """Dephasing by `mask`, then amplitude damping with per-qubit `gammas`.

    `rhos` is a matrix or a stack of them, shape (..., 2^n, 2^n); the result
    is a new array and `rhos` is left untouched.  All these single-qubit
    channels commute, so the adjoint runs them in the same order.
    """
    out = np.multiply(rhos, mask, dtype=complex)
    for qubit, gamma in enumerate(gammas, start=1):
        if gamma:
            _damp_in_place(out, qubit, gamma, adjoint)
    return out


def apply_segment_noise(rhos: np.ndarray, model: NoiseModel, segment: str) -> np.ndarray:
    """One segment's noise on a density matrix or a stack (..., 2^n, 2^n).

    Dephasing of every qubit is one folded mask, followed by amplitude
    damping of every qubit when the model switches it on.
    """
    return _channel(rhos, *_segment_channel(rhos, model, segment))


def segment_noise_adjoint(weights: np.ndarray, model: NoiseModel, segment: str) -> np.ndarray:
    """Heisenberg picture of apply_segment_noise on readout weights W.

    The result A satisfies sum(A * rho) == sum(W * apply_segment_noise(rho))
    for every rho; like the forward kernel it takes stacks (..., 2^n, 2^n).
    """
    return _channel(weights, *_segment_channel(weights, model, segment), adjoint=True)


def _segment_channel(rhos: np.ndarray, model: NoiseModel, segment: str):
    """The model's (mask, gammas) for `segment`, once the model is known to
    cover the qubits of `rhos`."""
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
    gammas = [0.0] * state.n_qubits
    (axis,) = _axes_for((qubit,), state.n_qubits)
    gammas[axis] = _unit_interval("gamma", gamma)
    return MixedState(state.n_qubits, _channel(state.matrix, 1.0, gammas))


def scale_coherences(state: MixedState, gamma: float) -> MixedState:
    """Multiply every off-diagonal element by gamma; populations unchanged."""
    gamma = _unit_interval("gamma", gamma)
    mat = gamma * state.matrix + (1.0 - gamma) * np.diag(np.diag(state.matrix))
    return MixedState(state.n_qubits, mat)


def depolarize(state: MixedState, p: float) -> MixedState:
    p = _unit_interval("p", p)
    dim = 2**state.n_qubits
    mat = (1.0 - p) * state.matrix + p * np.eye(dim, dtype=complex) / dim
    return MixedState(state.n_qubits, mat)


def run_noisy_qecc(code: CodeSpec, register: PureState, error: ErrorSpec, model: NoiseModel) -> MixedState:
    """Encode, apply the error, decode, with dephasing after every segment.

    `register` is the 3-qubit logical input.  The optional depolarizing and
    coherence_scale knobs act once at the end.  Returns the final 5-qubit
    density matrix.
    """
    n = code.n
    state = encode(code, register).density()
    state = MixedState(n, apply_segment_noise(state.matrix, model, "encode"))

    state = apply_gate_mixed(state, GateOp.single(error.location, error_unitary(error)))
    state = MixedState(n, apply_segment_noise(state.matrix, model, "error"))

    state = apply_matrix_mixed(state, code.decoder(error.location))
    state = MixedState(n, apply_segment_noise(state.matrix, model, "decode"))

    if model.depolarizing > 0.0:
        state = depolarize(state, model.depolarizing)
    if model.coherence_scale < 1.0:
        state = scale_coherences(state, model.coherence_scale)
    return state


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
    n = system.n_spins
    if state.n_qubits != n:
        raise ValueError(f"state has {state.n_qubits} qubits, system has {n} spins")
    (axis,) = _axes_for((observe,), n, "observe")
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
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

    n_samples = int(round(t_max / dt))
    if n_samples < 2:
        raise ValueError("need at least two samples")
    times = np.arange(n_samples) * dt
    signal = (weights[:, None] * np.exp(2j * np.pi * freqs_pair[:, None] * times[None, :])).sum(axis=0)
    signal = signal * np.exp(-times / system.T2star[axis])

    spectrum = np.fft.fft(signal) / n_samples
    freqs = np.fft.fftfreq(n_samples, dt)
    order = np.argsort(freqs)
    return [(float(freqs[i]), complex(spectrum[i])) for i in order]
