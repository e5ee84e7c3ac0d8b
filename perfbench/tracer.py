"""Outside-in tracer: wraps public cws552 functions without editing the package.

Modules bind names directly (``from .code552 import encode``) and
``nmr_noise.run_noisy_qecc`` imports three names lazily from their home
modules, so each function is replaced at *every* cws552 namespace whose
attribute is the original object.  ``Tracer.restore`` puts the originals back.

Spans are kept in flat typed arrays (name id, start ns, end ns, parent span,
op id) and written out once, after the run.  A span's self time is its
duration minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

# (home module, attribute, span name).  Names follow "<layer>.<function>".
TARGETS = (
    ("experiment", "run_point", "experiment.run_point"),
    ("experiment", "run_setting_a", "experiment.run_setting_a"),
    ("experiment", "run_setting_b", "experiment.run_setting_b"),
    ("experiment", "run_setting_c", "experiment.run_setting_c"),
    ("experiment", "fit_scale", "experiment.fits"),
    ("experiment", "fit_constant", "experiment.fits"),
    ("experiment", "fit_line", "experiment.fits"),
    ("experiment", "write_sweep_csv", "experiment.write_csv"),
    ("experiment", "write_setting_a_csv", "experiment.write_csv"),
    ("error_model", "error_unitary", "error_model.error_unitary"),
    ("statevec", "apply_gate", "statevec.apply_gate"),
    ("statevec", "apply_gate_mixed", "statevec.apply_gate_mixed"),
    ("statevec", "apply_matrix_mixed", "statevec.apply_matrix_mixed"),
    ("statevec", "partial_trace", "statevec.partial_trace"),
    ("code552", "build_code", "code552.build_code"),
    ("code552", "encode", "code552.encode"),
    ("code552", "decode", "code552.decode"),
    ("code552", "verify_erasure_correctability", "code552.verify_erasure_correctability"),
    ("code552", "verify_distance", "code552.verify_distance"),
    ("nmr_noise", "run_noisy_qecc", "nmr_noise.run_noisy_qecc"),
    ("nmr_noise", "apply_dephasing", "nmr_noise.apply_dephasing"),
    ("nmr_noise", "apply_amplitude_damping", "nmr_noise.apply_amplitude_damping"),
    ("nmr_noise", "simulate_spectrum", "nmr_noise.simulate_spectrum"),
    ("cli", "main", "cli.main"),
)

# Bindings the wrapping must reach; checked after install so that a renamed
# import fails loudly instead of silently losing a layer.
REQUIRED_BINDINGS = (
    "experiment.encode",
    "experiment.decode",
    "experiment.apply_gate",
    "experiment.error_unitary",
    "experiment.run_noisy_qecc",
    "nmr_noise.apply_matrix_mixed",
    "code552.encode",
    "error_model.error_unitary",
    "statevec.apply_gate_mixed",
    "cli.build_code",
    "cli.verify_distance",
    "cli.verify_erasure_correctability",
)

# Counters recorded next to the spans; all start at zero so every workload
# reports the same keys.
COUNTERS = (
    "nmr_noise.apply_dephasing.noop",
    "nmr_noise.simulate_spectrum.samples",
    "nmr_noise.apply_amplitude_damping.flops_computed",
    "statevec.flops_computed",
    "statevec.bytes_computed",
    "cli.bytes_written",
)


# One complex d x d matrix product: d^3 complex multiply-adds = 8 d^3 real
# flops; it reads two d x d complex128 operands and writes one.
def _product_cost(d: int) -> tuple[int, int]:
    return 8 * d**3, 3 * 16 * d * d


class Tracer:
    """Installs span-recording wrappers; one instance per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.current_op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.bound_at: set[str] = set()

    # -- counters recorded at the same call boundaries as the spans ----------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def _observe(self, span_name: str, args: tuple, kwargs: dict) -> None:
        if span_name == "nmr_noise.apply_dephasing":
            lam = kwargs.get("lam", args[2] if len(args) > 2 else None)
            if lam == 0.0:
                self.count("nmr_noise.apply_dephasing.noop")
        elif span_name == "nmr_noise.simulate_spectrum":
            t_max = kwargs.get("t_max", args[3] if len(args) > 3 else 0.0)
            dt = kwargs.get("dt", args[4] if len(args) > 4 else 1.0)
            self.count("nmr_noise.simulate_spectrum.samples", int(round(t_max / dt)))
        elif span_name in ("statevec.apply_gate_mixed", "statevec.apply_matrix_mixed"):
            # apply_gate_mixed: U rho, (U rho) U^dag.  apply_matrix_mixed adds
            # the U^dag U unitarity check: three products.
            d = 2 ** args[0].n_qubits
            flops, nbytes = _product_cost(d)
            products = 2 if span_name == "statevec.apply_gate_mixed" else 3
            self.count("statevec.flops_computed", products * flops)
            self.count("statevec.bytes_computed", products * nbytes)
        elif span_name == "nmr_noise.apply_amplitude_damping":
            # K0 rho K0^dag + K1 rho K1^dag with kron-built d x d Kraus operators.
            d = 2 ** args[0].n_qubits
            flops, _ = _product_cost(d)
            self.count("nmr_noise.apply_amplitude_damping.flops_computed", 4 * flops)

    # -- wrapping -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name: str):
        nid = self._intern(span_name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._observe(span_name, args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(clock())
            self.end.append(0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "cws552" or name.startswith("cws552."))
        }
        for home, attr, span_name in TARGETS:
            orig = getattr(modules[f"cws552.{home}"], attr)
            wrapper = self._wrap(orig, span_name)
            for mod_name, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)
                        self.bound_at.add(f"{mod_name.removeprefix('cws552.')}.{name}")
        # ErrorSpec.typed is a classmethod shared through the class object.
        error_spec = modules["cws552.error_model"].ErrorSpec
        typed = error_spec.__dict__["typed"]
        self._patch(error_spec, "typed", classmethod(self._wrap(typed.__func__, "error_model.ErrorSpec.typed")))
        missing = [b for b in REQUIRED_BINDINGS if b not in self.bound_at]
        if missing:
            self.restore()
            raise RuntimeError(f"tracer could not reach bindings {missing}")

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------------

    def self_and_total(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        calls = np.bincount(ids, minlength=len(self.names))
        total = np.bincount(ids, weights=dur, minlength=len(self.names))
        selft = np.bincount(ids, weights=self_ns, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "total_s": total[i] * 1e-9, "self_s": selft[i] * 1e-9}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Spans as gzip'd TSV: name, start_ns, end_ns, parent index, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")
