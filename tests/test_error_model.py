"""Tests for the rotation error model and its Pauli-branch expansion."""
import numpy as np
import pytest
from scipy.linalg import expm

from cws552.code552 import build_code
from cws552.error_model import (
    AXIS_NORM_ATOL,
    ErrorSpec,
    error_unitary,
    pauli_expand,
    typed_expansions,
)
from cws552.experiment import run_point
from cws552.nmr_noise import NoiseModel
from cws552.statevec import E2, X, Y, Z


def oracle_unitary(spec):
    """Independent route: matrix exponential of the generator."""
    nx, ny, nz = spec.axis
    return np.exp(1j * spec.alpha) * expm(-1j * spec.theta / 2 * (nx * X + ny * Y + nz * Z))


def random_spec(rng, location=1):
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    return ErrorSpec(
        location=location,
        alpha=float(rng.uniform(0, 2 * np.pi)),
        theta=float(rng.uniform(-np.pi, np.pi)),
        axis=tuple(axis),
    )


def test_zero_angle_is_identity():
    spec = ErrorSpec(1, 0.0, 0.0, (0.0, 0.0, 1.0))
    np.testing.assert_allclose(error_unitary(spec), E2)


def test_pi_rotation_about_x():
    spec = ErrorSpec(1, 0.0, np.pi, (1.0, 0.0, 0.0))
    np.testing.assert_allclose(error_unitary(spec), -1j * X, atol=1e-12)


def test_phased_pi_rotation_is_exact_pauli():
    """alpha = pi/2 with theta = pi lands exactly on the Pauli matrix."""
    for label, mat in (("X", X), ("Y", Y), ("Z", Z)):
        spec = ErrorSpec.pauli(1, label)
        np.testing.assert_allclose(error_unitary(spec), mat, atol=1e-12)
        np.testing.assert_allclose(oracle_unitary(spec), mat, atol=1e-12)
    np.testing.assert_allclose(error_unitary(ErrorSpec.pauli(1, "E")), E2)


def test_unitary_matches_expm_oracle():
    rng = np.random.default_rng(101)
    for _ in range(50):
        spec = random_spec(rng)
        np.testing.assert_allclose(error_unitary(spec), oracle_unitary(spec), atol=1e-12)


def test_expansion_reconstructs_unitary():
    rng = np.random.default_rng(103)
    for _ in range(100):
        spec = random_spec(rng)
        c = pauli_expand(spec)
        rebuilt = c[0] * E2 + c[1] * X + c[2] * Z + c[3] * Y
        np.testing.assert_allclose(rebuilt, error_unitary(spec), atol=1e-12)


def test_expansion_is_normalized():
    rng = np.random.default_rng(107)
    for _ in range(100):
        coeffs = pauli_expand(random_spec(rng))
        assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12


def test_z_quarter_turn_coefficients():
    spec = ErrorSpec.typed(1, "Z", np.pi / 2)
    c = pauli_expand(spec)
    np.testing.assert_allclose(c[0], np.cos(np.pi / 4), atol=1e-15)
    np.testing.assert_allclose(c[2], -1j * np.sin(np.pi / 4), atol=1e-15)
    assert abs(c[1]) < 1e-15 and abs(c[3]) < 1e-15


def test_identity_coefficients():
    c = pauli_expand(ErrorSpec(2, 0.0, 0.0, (0.0, 1.0, 0.0)))
    np.testing.assert_allclose(c, [1, 0, 0, 0], atol=1e-15)


def test_predicted_syndrome_layout():
    """The coefficients are the syndrome amplitudes on |00>, |01>, |10>, |11>:
    a Y rotation lands in the last slot."""
    theta = 1.1
    coeffs = pauli_expand(ErrorSpec.typed(3, "Y", theta))
    expected = np.array([np.cos(theta / 2), 0.0, 0.0, -1j * np.sin(theta / 2)])
    np.testing.assert_allclose(coeffs, expected, atol=1e-15)
    assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-12


def test_rejects_non_unit_axis():
    with pytest.raises(ValueError, match="unit"):
        ErrorSpec(1, 0.0, 1.0, (1.0, 1.0, 0.0))


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.6, 0.0, 0.8), (1.0, -2.0, 2.0)])
@pytest.mark.parametrize("offset", [0.9 * AXIS_NORM_ATOL, -0.9 * AXIS_NORM_ATOL])
def test_an_axis_inside_the_norm_tolerance_runs_everywhere(axis, offset):
    """The axis is stored normalized, so its gate passes GateOp's unitarity
    check (1e-12 on |U^dag U - I|, about twice the norm error) and its branch
    coefficients keep sum |c|^2 = 1."""
    unit = np.array(axis) / np.linalg.norm(axis)
    spec = ErrorSpec(3, 0.4, np.pi, tuple(unit * (1.0 + offset)))
    run_point(build_code(), 2, spec)
    run_point(build_code(), 2, spec, NoiseModel.default())
    assert abs(np.sum(np.abs(pauli_expand(spec)) ** 2) - 1.0) < 1e-15
    assert abs(np.linalg.norm(spec.axis) - 1.0) < 1e-15


def test_rejects_bad_location():
    with pytest.raises(ValueError, match="location"):
        ErrorSpec(0, 0.0, 1.0, (1.0, 0.0, 0.0))


def test_rejects_non_finite_angles():
    with pytest.raises(ValueError, match="finite"):
        ErrorSpec.typed(3, "X", float("nan"))
    with pytest.raises(ValueError, match="finite"):
        ErrorSpec(2, float("inf"), 0.5, (0.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "alpha, theta, axis",
    [
        pytest.param(0.0, 0.5, (np.nan, 0.0, 1.0), id="nan-axis"),
        pytest.param(0.0, 0.5, (0.0, np.inf, 0.0), id="inf-axis"),
        pytest.param(True, 0.5, (0.0, 0.0, 1.0), id="bool-alpha"),
        pytest.param(0.0, "0.5", (0.0, 0.0, 1.0), id="str-theta"),
        pytest.param(0.0, 0.5, ("1", 0, 0), id="str-axis"),
        pytest.param(0.0, 0.5, (True, False, False), id="bool-axis"),
    ],
)
def test_rejects_numbers_that_are_not_finite_reals(alpha, theta, axis):
    with pytest.raises(ValueError, match="real numbers|finite"):
        ErrorSpec(1, alpha, theta, axis)


def test_rejects_an_axis_without_three_components():
    with pytest.raises(ValueError, match="three components"):
        ErrorSpec(1, 0.0, 0.5, (1.0, 0.0))


def test_typed_expansions_match_pauli_expand():
    thetas = np.linspace(-1.0, 4.0, 7)
    for kind in ("X", "Y", "Z"):
        stack = typed_expansions(kind, thetas)
        assert stack.shape == (7, 4)
        for theta, coeffs in zip(thetas, stack):
            np.testing.assert_array_equal(coeffs, pauli_expand(ErrorSpec.typed(1, kind, float(theta))))
    with pytest.raises(ValueError):
        typed_expansions("Q", thetas)


def test_typed_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ErrorSpec.typed(1, "Q", 0.5)


def test_pauli_rejects_unknown_label():
    with pytest.raises(ValueError, match="^label must be one of E, X, Y, Z, got 'H'$"):
        ErrorSpec.pauli(1, "H")


def test_fields_are_stored_as_plain_python_numbers():
    spec = ErrorSpec(np.int64(2), 1, 1, [0, 0, 1])
    assert type(spec.location) is int and spec.location == 2
    assert type(spec.alpha) is float and type(spec.theta) is float
    assert type(spec.axis) is tuple and spec.axis == (0.0, 0.0, 1.0)
    assert all(type(component) is float for component in spec.axis)
