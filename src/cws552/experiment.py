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
from dataclasses import dataclass, fields

import numpy as np

from .code552 import BRANCH_LABELS, SYNDROME_MAP, CodeSpec, _branch_target_index, _reals, decode, encode
from .error_model import AXIS_BY_TYPE, ErrorSpec, error_unitary, pauli_expand, typed_expansions
from .nmr_noise import NoiseModel, _final_knobs, apply_segment_noise, run_noisy_qecc, segment_noise_adjoint
from .statevec import PAULI_BY_LABEL, GateOp, MixedState, PureState, _axes_for, apply_gate

ERROR_TYPES = tuple(AXIS_BY_TYPE)
SETTING_A_PAULIS = ("E", "Z", "X", "Y")
INPUT_KS = (1, 2, 3)
# The (error_type, input_k) combos each sweep setting averages over.
SWEEP_COMBOS = {
    "B": tuple((error_type, 2) for error_type in ERROR_TYPES),
    "C": tuple(("Y", input_k) for input_k in INPUT_KS),
}

_TYPE_AXIS_ATOL = 1e-9

# Most points `default_grid` builds.  `cws552 sweep --setting B` holds about
# 6 kB a point, so the cap bounds it near 60 MB; the grids in use have at
# most 1001 points.
GRID_SIZE_CAP = 10**4


@dataclass(frozen=True)
class InputProfile:
    """One protocol input: register state plus the basis pair carrying its coherence."""

    k: int
    register: PureState
    pair: tuple[int, int]  # register basis indices with coherent spin 0 / 1


# Each input is the equal superposition of its pair.
INPUTS = {
    k: InputProfile(k, PureState(3, np.isin(np.arange(8), pair) / np.sqrt(2.0)), pair)
    for k, pair in {1: (0, 4), 2: (2, 3), 3: (0, 1)}.items()
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
    for kind, component in zip(AXIS_BY_TYPE, spec.axis):
        if abs(abs(component) - 1.0) <= _TYPE_AXIS_ATOL:
            return kind
    return None


def final_state(
    code: CodeSpec, register: PureState, error: ErrorSpec, noise: NoiseModel | None = None
) -> MixedState:
    """Encode `register`, apply `error` at its location, decode: the 5-qubit output.

    Without noise the pipeline runs on the state vector; with noise it is
    run_noisy_qecc.  The code is checked first (CodeSpec.check_unitary).
    """
    _axes_for((error.location,), code.n, "location")
    code.check_unitary()
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
    if isinstance(input_k, bool) or not isinstance(input_k, (int, np.integer)) or input_k not in INPUTS:
        raise ValueError(f"input_k must be one of {sorted(INPUTS)}, got {input_k!r}")
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


def run_setting_a(code: CodeSpec, noise: NoiseModel | None = None) -> list[SettingARow]:
    """Apply each exact Pauli at each location to input k=2 and read syndromes.

    Setting A runs on the sweep engine (_transfer_maps) with five readouts:
    the four branch populations and the register fidelity.  Each location's
    transfer map, paired with the Pauli expansions of E, Z, X and Y, gives
    its four rows; final_state is the per-row oracle.
    """
    # Readouts W, each read as sum(W * state): the populations of the
    # syndrome branches in BRANCH_LABELS order (bits 00, 01, 10, 11), then the
    # fidelity <v|register|v> with the input v.  branches[r] lists the basis
    # indices of branch r, one per register string.
    v = INPUTS[2].register.amplitudes
    branches = np.array([_branch_target_index(label, np.arange(len(v))) for label in BRANCH_LABELS])
    readouts = np.zeros((5, 2**code.n, 2**code.n), dtype=complex)
    readouts[np.arange(4)[:, None], branches, branches] = 1.0
    readouts[4, branches[:, :, None], branches[:, None, :]] = np.outer(v.conj(), v)
    maps = _transfer_maps(code, readouts, [2], noise)
    pairs = _pair_rows(np.array([pauli_expand(ErrorSpec.pauli(1, label)).coefficients() for label in SETTING_A_PAULIS]))
    rows = []
    for location in range(1, code.n + 1):
        values = (pairs @ maps[location - 1].T).real
        pops, fidelities = values[:, :4], values[:, 4]
        for label, b, pop, fid in zip(
            SETTING_A_PAULIS, pops.argmax(axis=1).tolist(), pops.max(axis=1).tolist(), fidelities.tolist()
        ):
            rows.append(SettingARow(location, label, SYNDROME_MAP[label], SYNDROME_MAP[BRANCH_LABELS[b]], pop, fid))
    return rows


def default_grid(n_points: int = 13, theta_max: float = float(np.pi)) -> np.ndarray:
    """Uniform error-angle grid of `n_points` (an integer from two to
    GRID_SIZE_CAP) on [0, theta_max], theta_max finite and positive."""
    if isinstance(n_points, bool) or not isinstance(n_points, (int, np.integer)) or n_points < 2:
        raise ValueError(f"grid needs an integer number of points, at least two, got {n_points!r}")
    if n_points > GRID_SIZE_CAP:
        raise ValueError(f"grid of {n_points} points exceeds the cap of {GRID_SIZE_CAP} points")
    (theta_max,) = _reals("theta_max", [theta_max], "positive")
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
    """The inputs of a fit as float arrays: one-dimensional, real numbers
    (not bools or strings), finite and equally long."""
    if any(np.asarray(a, dtype=object).ndim != 1 for a in arrays):
        raise ValueError("fit inputs must be one-dimensional")
    out = [_reals("fit inputs", a) for a in arrays]
    if len({a.size for a in out}) > 1:
        raise ValueError(f"fit inputs differ in length: {[a.size for a in out]}")
    return out


# The fit kernels fit each row of checked float arrays over the last axis:
# fit_* pass one checked row, the sweep its (location, point) means, checked
# once.  Each reduction runs along a contiguous row, which rounds as alone.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, one BLAS ddot per row as a 1-D a @ b
    runs; a gemv (a @ b), np.sum(a * b, -1) or einsum would round differently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scale_fit(ys: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = ys.shape[-1]
    if n < 2:
        raise ValueError("need at least two points")
    ss = _dot(t, t)
    if np.any(ss < 1e-30):
        raise ValueError("theory curve is identically zero on the grid")
    scale = _dot(ys, t) / ss
    resid = ys - scale[..., None] * t
    return scale, np.sqrt(_dot(resid, resid) / (n - 1) / ss)


def _constant_fit(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = vals.shape[-1]
    if n < 1:
        raise ValueError("need at least one value")
    mean = np.mean(vals, axis=-1)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, np.std(vals, axis=-1, ddof=1) / np.sqrt(n)


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Slope, intercept and their standard errors, in LineFit's order."""
    n = xs.shape[-1]
    if n < 2:
        raise ValueError("need at least two points")
    x_mean, y_mean = xs.mean(axis=-1), ys.mean(axis=-1)
    dx = xs - x_mean[..., None]
    sxx = np.sum(dx**2, axis=-1)
    if np.any(sxx < 1e-30):
        raise ValueError("x values are degenerate")
    slope = np.sum(dx * (ys - y_mean[..., None]), axis=-1) / sxx
    intercept = y_mean - slope * x_mean
    resid = ys - (slope[..., None] * xs + intercept[..., None])
    sigma2 = _dot(resid, resid) / (n - 2) if n > 2 else np.zeros_like(slope)
    return slope, intercept, np.sqrt(sigma2 / sxx), np.sqrt(sigma2 * (1.0 / n + x_mean**2 / sxx))


def fit_scale(measured: Sequence[float], theory: Sequence[float]) -> tuple[float, float]:
    """Least-squares scale of measured values onto a theory curve at the same points.

    Minimizes sum (m_i - s * t_i)^2; the standard error comes from the
    residual variance with one fitted parameter.
    """
    return tuple(map(float, _scale_fit(*_fit_arrays(measured, theory))))


def fit_constant(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error."""
    return tuple(map(float, _constant_fit(*_fit_arrays(values))))


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> "LineFit":
    """Ordinary least squares y = a x + b with standard errors."""
    return LineFit(*map(float, _line_fit(*_fit_arrays(xs, ys))))


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


def _transfer_maps(code: CodeSpec, readouts: np.ndarray, input_ks: Sequence[int], noise: NoiseModel | None) -> np.ndarray:
    """The engine of settings A, B and C: the transfer map of every readout
    at every location, shape (n, R, 16), location 1 first.

    Each readout W in the stack `readouts` (R, 32, 32) reads one number off
    the final state as sum(W * state), each input's readouts consecutive.
    Once the code is checked, the stack goes back through the final knobs
    and the decode noise, each location's decoder and the error noise, each
    step by its adjoint; the encoded inputs get the encode noise.  One
    _transfer_map call per location pairs the two.
    """
    code.check_unitary()
    if noise is not None:
        readouts = _final_knobs(readouts, noise.depolarizing, noise.coherence_scale, adjoint=True)
        readouts = segment_noise_adjoint(readouts, noise, "decode")
    weights = np.empty((code.n,) + readouts.shape, dtype=complex)
    for location in range(1, code.n + 1):
        dec = code.decoder(location)
        weights[location - 1] = dec.T @ readouts @ dec.conj()
    del readouts  # held to the end, it cost 188 page faults per 41-point C sweep
    if noise is not None:
        # In place: a second buffer of the stack's size (0.5 MB for setting C)
        # and its release each sweep cost the allocator hundreds of page faults.
        weights = segment_noise_adjoint(weights, noise, "error", out=weights)
    psis = [encode(code, INPUTS[k].register).amplitudes for k in input_ks]
    rhos = np.stack([np.outer(psi, psi.conj()) for psi in psis])
    if noise is not None:
        rhos = apply_segment_noise(rhos, noise, "encode")
    return np.stack([_transfer_map(weights[q], rhos, q + 1) for q in range(code.n)])


def _transfer_map(weights: np.ndarray, rhos: np.ndarray, location: int) -> np.ndarray:
    """Per readout: 16 weights that turn an error's Pauli pairs into that coherence.

    Write the error on `location` as U = sum_a u_a sigma_a over the Paulis
    in BRANCH_LABELS order.  It sends rho to sum_ab u_a conj(u_b) sigma_a rho
    sigma_b, and every later step is linear, so each branch coherence of the
    final state is outer(u, conj u).ravel() @ T[row], where T[row][a, b] is
    that coherence of the image of sigma_a rho sigma_b.  Unlike the entries
    of kron(U, conj U), the products u_a conj(u_b) keep full relative
    precision at small angles.

    `rhos` holds the encoded densities of I inputs, shape (I, 32, 32), and
    `weights` their readouts at `location` from _transfer_maps, each
    input's L readouts consecutive: shape (I L, 32, 32).  The result T has
    shape (I L, 16), one row per readout.
    """
    inputs, n = len(rhos), rhos.shape[-1].bit_length() - 1
    if len(weights) % inputs:
        raise ValueError(f"{len(weights)} readouts do not split evenly over {inputs} inputs")
    # m[i, l, p, q, k, l']: readout l of input i paired with rho i, where the
    # error qubit's ket/bra index is (p, q) on the weights side and (k, l')
    # on rho's.  Each item of both stacked products is one input's product.
    hi, lo = 2 ** (location - 1), 2 ** (n - location)
    w = weights.reshape(inputs, -1, hi, 2, lo, hi, 2, lo).transpose(0, 1, 3, 6, 2, 4, 5, 7)
    r = rhos.reshape(inputs, hi, 2, lo, hi, 2, lo).transpose(0, 2, 5, 1, 3, 4, 6)
    m = w.reshape(inputs, -1, hi * lo * hi * lo) @ r.reshape(inputs, 4, -1).swapaxes(1, 2)
    return (m.reshape(inputs, -1, 16) @ _pauli_pairs().T).reshape(-1, 16)


def _pair_rows(u: np.ndarray) -> np.ndarray:
    """Row n holds u_a conj(u_b), (a, b) raveled, for the Pauli expansion u[n] of one error."""
    return (u[:, :, None] * u.conj()[:, None, :]).reshape(len(u), 16)


@functools.cache
def _pauli_pairs() -> np.ndarray:
    """Row (a, b) is kron(sigma_a, conj sigma_b) raveled, sigma over BRANCH_LABELS.

    With U = sum_a u_a sigma_a, kron(U, conj U) = sum_ab u_a conj(u_b) times row (a, b).
    """
    paulis = [PAULI_BY_LABEL[label] for label in BRANCH_LABELS]
    return np.array([np.kron(a, b.conj()).ravel() for a in paulis for b in paulis])


def _coherence_readouts(code: CodeSpec, readouts: Sequence[tuple[int, str]]) -> np.ndarray:
    """Stack (len(readouts), 32, 32): readout (k, label) reads input k's
    coherence in that branch, normalized by the input coherence (which is 1/2)."""
    stack = np.zeros((len(readouts), 2**code.n, 2**code.n), dtype=complex)
    for r, (input_k, label) in enumerate(readouts):
        r0, r1 = INPUTS[input_k].pair
        stack[r, _branch_target_index(label, r1), _branch_target_index(label, r0)] = 2.0
    return stack


def _sweep(code: CodeSpec, setting: str, grid: np.ndarray | None, noise: NoiseModel | None) -> SweepResult:
    """Shared sweep over the setting's SWEEP_COMBOS, averaged per location.

    One engine call (_transfer_maps) gives each location the maps of every
    (input, branch label) the setting reads, one stacked product per combo
    its observables at every location and point, and each fit kernel runs
    once on the (location, point) means.  Each product is a stack of items
    shaped as one leg's or location's, which round as alone.  run_point is
    the per-point oracle.
    """
    # The sweep's own read-only copy of the grid, so later edits to the
    # caller's array reach neither SweepResult.grid nor its records.
    grid = default_grid() if grid is None else _reals("grid", grid)
    grid.flags.writeable = False
    combos = SWEEP_COMBOS[setting]
    # Branches each input is read in: the E branch plus its error types.
    branches = {}
    for error_type, input_k in combos:
        branches.setdefault(input_k, ["E"]).append(error_type)
    readouts = [(k, label) for k, labels in branches.items() for label in labels]
    row = {readout: r for r, readout in enumerate(readouts)}
    # Passed as a temporary, so that (CPython 3.11+) the engine frees it.
    maps = _transfer_maps(code, _coherence_readouts(code, readouts), list(branches), noise)
    pairs = {t: _pair_rows(typed_expansions(t, grid)) for t in sorted({t for t, _ in combos})}
    obs = np.empty((code.n, len(combos), 5, len(grid)))
    for c, (error_type, input_k) in enumerate(combos):
        # (n, 16) @ (16, 1) per location and branch: one gemv each.
        z = pairs[error_type] @ maps[:, [row[input_k, "E"], row[input_k, error_type]], :, None]
        z0, z1 = z[:, 0, :, 0], z[:, 1, :, 0]
        obs[:, c] = np.stack([z0.real, z1.real, np.abs(z0), np.abs(z1), np.abs(z0 + z1)], axis=1)
    # The records view reads obs when it is first read, so obs must not change.
    obs.flags.writeable = False
    means = obs.mean(axis=1)
    i0, i1, ii = means[:, 2], means[:, 3], means[:, 4]
    if np.any(i0 + i1 <= _NO_SIGNAL):
        raise ValueError("zero signal: cannot estimate an angle")
    cos2, sin2 = np.cos(grid / 2.0) ** 2, np.sin(grid / 2.0) ** 2
    slope, intercept, slope_stderr, intercept_stderr = _line_fit(grid, _angles(i0, i1))
    columns = (
        *_scale_fit(i0, cos2), *_scale_fit(i1, sin2), *_constant_fit(ii),
        slope, slope_stderr, intercept, intercept_stderr,
    )
    fits = {location: LocationFit(*values) for location, values in enumerate(np.stack(columns, 1).tolist(), start=1)}
    return SweepResult(setting, grid, obs, _PointRecords(setting, grid, obs), fits, noise)


def run_setting_b(
    code: CodeSpec,
    grid: np.ndarray | None = None,
    noise: NoiseModel | None = None,
) -> SweepResult:
    """Sweep x/y/z-axis rotations on input k=2, averaging over the axis."""
    return _sweep(code, "B", grid, noise)


def run_setting_c(
    code: CodeSpec,
    grid: np.ndarray | None = None,
    noise: NoiseModel | None = None,
) -> SweepResult:
    """Sweep y-axis rotations over all three inputs, averaging over the input."""
    return _sweep(code, "C", grid, noise)


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
        fh.writelines(_SETTING_A_ROW % (*(getattr(row, f.name) for f in fields(row)), row.matches) for row in rows)


# fit_summary's key per LocationFit field: the angle fit is Theta = a theta + b.
_FIT_KEYS = {f.name: f.name.replace("slope", "a").replace("intercept", "b") for f in fields(LocationFit)}


def fit_summary(result: SweepResult) -> dict:
    """JSON-ready summary of the fitted scalars per location."""
    return {
        "setting": result.setting,
        "grid": [float(th) for th in result.grid],
        "noise": result.noise.to_json_dict() if result.noise is not None else None,
        "locations": {
            str(loc): {key: getattr(fit, name) for name, key in _FIT_KEYS.items()}
            for loc, fit in sorted(result.fits.items())
        },
    }
