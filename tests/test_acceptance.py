"""Acceptance suite: one test per acceptance criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every tolerance here is the contractual one; the unit test modules
probe the same machinery more finely.
"""
import time

import numpy as np
import pytest

from cws552.code552 import (
    build_code,
    codeword_orthonormality_deviation,
    decode,
    encode,
    verify_distance,
    verify_erasure_correctability,
)
from cws552.error_model import ErrorSpec, error_unitary, pauli_expand
from cws552.experiment import (
    default_grid,
    run_point,
    run_setting_a,
    run_setting_b,
    run_setting_c,
)
from cws552.nmr_noise import NmrSystem, NoiseModel, simulate_spectrum
from cws552.statevec import (
    GateOp,
    MixedState,
    PureState,
    apply_gate,
    fidelity_with_pure,
    partial_trace,
)


def _check(criterion: int, name: str, fn) -> None:
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"\n[acceptance] criterion {criterion} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    print(f"\n[acceptance] criterion {criterion} ({name}): PASS ({dt:.2f}s)")


@pytest.fixture(scope="module")
def code():
    return build_code()


def random_logical(rng):
    amps = np.zeros(8, dtype=complex)
    amps[:5] = rng.normal(size=5) + 1j * rng.normal(size=5)
    amps /= np.linalg.norm(amps)
    return PureState(3, amps)


def test_criterion_1_code_validity_and_distance():
    def body():
        t0 = time.perf_counter()
        code = build_code()
        assert codeword_orthonormality_deviation(code) < 1e-12

        report = verify_erasure_correctability(code)
        assert report.passed
        assert len(report.locations) == 5
        for loc in report.locations:
            assert loc.max_violation < 1e-12
            np.testing.assert_allclose(loc.c_matrix, np.eye(4), atol=1e-12)

        dist = verify_distance(code)
        assert dist.distance == 2
        assert dist.witness is not None and len(dist.witness) == 2
        assert dist.witness_violation > 1e-6
        assert time.perf_counter() - t0 < 1.0

    _check(1, "code validity and distance", body)


def test_criterion_2_error_correction_round_trip(code):
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240416)

        # arbitrary encoded states survive every single-qubit Pauli at a known spot
        paulis = {
            "E": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.diag([1.0, -1.0]).astype(complex),
        }
        for _ in range(200):
            reg = random_logical(rng)
            encoded = encode(code, reg)
            for location in range(1, 6):
                for mat in paulis.values():
                    out = decode(code, apply_gate(encoded, GateOp.single(location, mat)), location)
                    reduced = partial_trace(out.density(), code.register_qubits)
                    assert fidelity_with_pure(reduced, reg) >= 1 - 1e-9

        # decoded syndrome amplitudes reproduce the error's expansion coefficients
        for _ in range(100):
            reg = random_logical(rng)
            axis = rng.normal(size=3)
            spec = ErrorSpec(
                location=int(rng.integers(1, 6)),
                alpha=float(rng.uniform(0, 2 * np.pi)),
                theta=float(rng.uniform(-np.pi, np.pi)),
                axis=tuple(axis / np.linalg.norm(axis)),
            )
            psi = apply_gate(encode(code, reg), GateOp.single(spec.location, error_unitary(spec)))
            out = decode(code, psi, spec.location)
            block = out.amplitudes.reshape(2, 8, 2)
            syn = np.einsum("r,jrl->jl", reg.amplitudes.conj(), block).reshape(4)
            expected = pauli_expand(spec)
            inner = np.vdot(expected, syn)
            phase = inner / abs(inner)
            assert np.max(np.abs(syn - phase * expected)) <= 1e-10

        assert time.perf_counter() - t0 < 10.0

    _check(2, "error correction round trip", body)


def test_criterion_3_noiseless_amplitude_curves(code):
    def body():
        grid = default_grid()
        for location in range(1, 6):
            for error_type in ("X", "Y", "Z"):
                for input_k in (1, 2, 3):
                    for theta in grid:
                        obs = run_point(code, input_k, ErrorSpec.typed(location, error_type, float(theta)))
                        assert abs(obs.a0 - np.cos(theta / 2) ** 2) < 1e-10
                        assert abs(obs.a1 - np.sin(theta / 2) ** 2) < 1e-10
                        assert abs(obs.i - 1.0) < 1e-10

    _check(3, "noiseless amplitude curves", body)


def test_criterion_4_fits_under_attenuation_and_dephasing(code):
    def body():
        # noiseless: every fitted scalar is exactly one
        for result in (run_setting_b(code), run_setting_c(code)):
            for location in range(1, 6):
                fit = result.fits[location]
                assert abs(fit.alpha0 - 1.0) < 1e-8
                assert abs(fit.alpha1 - 1.0) < 1e-8
                assert abs(fit.ibar - 1.0) < 1e-8

        # uniform coherence attenuation is recovered exactly and I stays flat
        gamma = 0.15
        attenuated = run_setting_b(code, noise=NoiseModel.uniform_attenuation(gamma))
        for location in range(1, 6):
            fit = attenuated.fits[location]
            assert abs(fit.alpha0 - gamma) < 1e-6
            assert abs(fit.alpha1 - gamma) < 1e-6
            assert abs(fit.ibar - gamma) < 1e-6
            assert fit.ibar_stderr / fit.ibar < 1e-6

        # time-based dephasing: I flat in theta but spread across locations
        dephased = run_setting_b(code, noise=NoiseModel.default())
        ibars = []
        for location in range(1, 6):
            fit = dephased.fits[location]
            assert 0.0 < fit.ibar < 1.0
            assert fit.ibar_stderr / fit.ibar < 1e-3
            ibars.append(fit.ibar)
        assert max(ibars) - min(ibars) > 1e-3

    _check(4, "amplitude fits under attenuation and dephasing", body)


def test_criterion_5_error_angle_recovery(code):
    def body():
        for result in (run_setting_b(code), run_setting_c(code)):
            for location in range(1, 6):
                fit = result.fits[location]
                assert abs(fit.slope - 1.0) < 1e-8
                assert abs(fit.intercept) < 1e-8

        noisy = run_setting_c(code, noise=NoiseModel.default())
        for location in range(1, 6):
            assert 0.9 <= noisy.fits[location].slope <= 1.1

    _check(5, "error angle recovery", body)


def test_criterion_6_exact_pauli_branch_table(code):
    def body():
        rows = run_setting_a(code)
        assert len(rows) == 20
        for row in rows:
            assert row.matches
            assert row.branch_population > 1 - 1e-10
            assert row.register_fidelity > 1 - 1e-10

    _check(6, "exact Pauli branch table", body)


def test_criterion_7_spectrum_doublet():
    def body():
        system = NmrSystem(
            nu=np.array([30.0, -20.0]),
            J=np.array([[0.0, 7.0], [7.0, 0.0]]),
            T1=np.array([5.0, 5.0]),
            T2=np.array([1.0, 1.0]),
            T2star=np.array([2.0, 2.0]),
        )
        t_max, dt = 4.0, 0.005
        bin_width = 1.0 / t_max

        def peaks(spectrum, count):
            freqs = np.array([f for f, _ in spectrum])
            mags = np.array([abs(a) for _, a in spectrum])
            idx = [
                i
                for i in range(1, len(mags) - 1)
                if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1] and mags[i] > 1e-6
            ]
            idx.sort(key=lambda i: -mags[i])
            return sorted(freqs[idx[:count]])

        # coupling partner maximally mixed: doublet split by exactly J
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        rho = MixedState(2, np.kron(plus, np.eye(2) / 2))
        doublet = peaks(simulate_spectrum(rho, system, 1, t_max, dt), 2)
        assert len(doublet) == 2
        assert abs((doublet[1] - doublet[0]) - 7.0) <= bin_width + 1e-9

        # partner held in |0>: one line at nu + J/2
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[2] = 1 / np.sqrt(2)
        single = simulate_spectrum(PureState(2, amps).density(), system, 1, t_max, dt)
        (line,) = peaks(single, 1)
        assert abs(line - 33.5) <= bin_width + 1e-9

    _check(7, "spectrum doublet", body)


def test_criterion_8_sweep_runtime(code):
    def body():
        t0 = time.perf_counter()
        run_setting_b(code)
        noiseless = time.perf_counter() - t0
        assert noiseless < 1.0

        t0 = time.perf_counter()
        run_setting_b(code, noise=NoiseModel.default())
        noisy = time.perf_counter() - t0
        assert noisy < 30.0

    _check(8, "sweep runtime", body)
