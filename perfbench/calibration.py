"""Machine-speed probes, so that timings from different runs share one scale.

The virtual machines this benchmark targets change speed by up to ~1.8x over
tens of seconds to minutes (other tenants share the host).  Thread CPU time
tracks wall time through those swings, so the process is computing slower,
not waiting.  Each timing is therefore scaled by a probe that shares its
bottleneck and is measured in the same run:

- op timings by `probe()`, a short fixed kernel run after every op.  It mixes
  what cws552 spends its time on, interpreter overhead and small dense
  complex products, and touches nothing in cws552.  Op times are reported in
  seconds on a machine where the probe takes REFERENCE_S.
- set-up time by numpy's import, timed inside the same fresh processes that
  time ``import cws552`` + ``build_code()``.  Import speed swings with the
  host independently of compute speed, and `probe()` does not follow it.
  Set-up is reported in seconds on a machine where that import takes
  NUMPY_IMPORT_REFERENCE_S.
"""
from __future__ import annotations

import time

import numpy as np

# Typical medians on the machine the bounds were set on (2-vCPU VM, Intel
# Xeon at 2.1 GHz).  Only scales: they cancel when two runs are compared.
REFERENCE_S = 0.0033
NUMPY_IMPORT_REFERENCE_S = 0.09

_N = 32
_A = np.random.default_rng(0).standard_normal((_N, _N)) * (0.5 / _N) + 0j
_W = np.exp(1j * np.linspace(0.0, 1.0, _N * _N)).reshape(_N, _N)


def probe() -> float:
    """Seconds taken by one run of the fixed kernel."""
    t0 = time.perf_counter()
    m = np.eye(_N, dtype=complex)
    acc = 0.0
    for i in range(150):
        m = (_A @ m) * _W + np.eye(_N)
        acc += abs(complex(m[i % _N, 0])) + i % 7
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel diverged")
    return elapsed
