"""Single-qubit error operations and their expansion over {E, X, Z, Y}.

An error is a phased rotation exp(i*alpha) * exp(-i*theta/2 * axis.sigma)
applied to one known qubit.  Expanding it over the Pauli basis gives the four
branch coefficients that a decoder turns into syndrome amplitudes:

    c00 =  exp(i alpha) cos(theta/2)          (identity branch,  |00>)
    c01 = -i exp(i alpha) sin(theta/2) n_x    (bit flip,         |01>)
    c10 = -i exp(i alpha) sin(theta/2) n_z    (phase flip,       |10>)
    c11 = -i exp(i alpha) sin(theta/2) n_y    (bit+phase flip,   |11>)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .code552 import _reals
from .statevec import E2, X, Y, Z, _axes_for

AXIS_BY_TYPE = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}

AXIS_NORM_ATOL = 1e-12


@dataclass(frozen=True)
class ErrorSpec:
    """A known-location error: location, global phase, angle, rotation axis."""

    location: int
    alpha: float
    theta: float
    axis: tuple[float, float, float]

    def __post_init__(self):
        _axes_for((self.location,), what="location")
        alpha, theta, *ax = _reals("alpha, theta and axis", [self.alpha, self.theta, *self.axis]).tolist()
        if len(ax) != 3:
            raise ValueError(f"axis must have three components, got {len(ax)}")
        norm = math.hypot(*ax)
        if abs(norm - 1.0) > AXIS_NORM_ATOL:
            raise ValueError(f"axis must be a unit vector, got norm {norm!r}")
        object.__setattr__(self, "axis", tuple(ax))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "location", int(self.location))

    @classmethod
    def typed(cls, location: int, kind: str, theta: float, alpha: float = 0.0) -> "ErrorSpec":
        """Rotation about the x, y, or z axis ("X-type" etc.)."""
        if kind not in AXIS_BY_TYPE:
            raise ValueError(f"kind must be one of {sorted(AXIS_BY_TYPE)}, got {kind!r}")
        return cls(location, alpha, theta, AXIS_BY_TYPE[kind])

    @classmethod
    def pauli(cls, location: int, label: str) -> "ErrorSpec":
        """Exact Pauli error. alpha=pi/2, theta=pi makes the unitary equal X/Y/Z."""
        if label == "E":
            return cls(location, 0.0, 0.0, (0.0, 0.0, 1.0))
        if label in AXIS_BY_TYPE:
            return cls(location, np.pi / 2, np.pi, AXIS_BY_TYPE[label])
        raise ValueError(f"label must be one of E, X, Y, Z, got {label!r}")


@dataclass(frozen=True)
class PauliExpansion:
    """Branch coefficients of an error over (E, X, Z, Y), in syndrome order."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def coefficients(self) -> np.ndarray:
        return np.array([self.c00, self.c01, self.c10, self.c11], dtype=complex)


def error_unitary(spec: ErrorSpec) -> np.ndarray:
    """2x2 unitary exp(i alpha) * exp(-i theta/2 axis.sigma)."""
    nx, ny, nz = spec.axis
    n_dot_sigma = nx * X + ny * Y + nz * Z
    half = spec.theta / 2.0
    return np.exp(1j * spec.alpha) * (np.cos(half) * E2 - 1j * np.sin(half) * n_dot_sigma)


def _branch_coefficients(alpha: float, theta, axis) -> np.ndarray:
    """(c00, c01, c10, c11) on the last axis; an array of angles gives one row each."""
    nx, ny, nz = axis
    phase = np.exp(1j * alpha)
    half = np.asarray(theta, dtype=float) / 2.0
    s = np.sin(half)
    return np.stack(
        [phase * np.cos(half), -1j * phase * s * nx, -1j * phase * s * nz, -1j * phase * s * ny], axis=-1
    )


def pauli_expand(spec: ErrorSpec) -> PauliExpansion:
    """Closed-form branch coefficients; always satisfies sum |c|^2 = 1."""
    return PauliExpansion(*_branch_coefficients(spec.alpha, spec.theta, spec.axis))


def typed_expansions(kind: str, thetas) -> np.ndarray:
    """pauli_expand(ErrorSpec.typed(_, kind, theta)).coefficients() for every
    angle at once; shape (len(thetas), 4)."""
    if kind not in AXIS_BY_TYPE:
        raise ValueError(f"kind must be one of {sorted(AXIS_BY_TYPE)}, got {kind!r}")
    return _branch_coefficients(0.0, thetas, AXIS_BY_TYPE[kind])
