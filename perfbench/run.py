#!/usr/bin/env python3
"""Benchmark for cws552: one closed-loop client driving the public API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-noiseless --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json; `--trace 1`
alternates traced and untraced cycles and prints the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The program under test is imported from ./src; nothing
is installed.  See perfbench/README.md for what each number means.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_REPS = 11
# Times import cws552 + build_code() from a fresh start, and, inside that,
# numpy's own import, which is the probe for the set-up scale.
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import cws552\n"
    "cws552.build_code()\n"
    "print(repr(time.perf_counter() - t0), repr(t1 - t0))\n"
)
TAIL_LADDER = (99, 95, 90, 80, 75, 70, 60, 50)
MIN_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MAX_LOGGED_FAILURES = 5


def _env_with_src() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def measure_setup(reps: int) -> tuple[list[float], list[float]]:
    """import cws552 + first build_code(), each in a fresh interpreter.

    Returns the set-up times and, from the same processes, the time numpy's
    import took.  One extra process runs first and is discarded: it pays for
    writing the bytecode cache, which users pay once per install, not per start.
    """
    times, numpy_times = [], []
    for i in range(reps + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=_env_with_src(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            total, numpy_import = map(float, out.stdout.split())
            times.append(total)
            numpy_times.append(numpy_import)
    return times, numpy_times


def tail(times: list[float], declared_pct: float) -> tuple[float, float]:
    """(percentile, value): the declared percentile, or the highest lower rung
    of TAIL_LADDER that still has MIN_BEYOND samples beyond it (nearest rank)."""
    s = sorted(times)
    n = len(s)
    for pct in [declared_pct] + [p for p in TAIL_LADDER if p < declared_pct]:
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return float(pct), s[rank - 1]
    return 50.0, statistics.median(s)


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_err = 0.0
        self.times = {False: [], True: []}  # op seconds, keyed by "was traced"
        self.cycles: list[tuple[int, int, float]] = []  # (ops, points, summed op seconds), untraced only
        self.probes: list[float] = []  # calibration probe seconds, one after each timed untraced op

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_LOGGED_FAILURES:
            self.failures.append(f"{label}: {message}")
            print(f"op {label} failed: {message}", file=sys.stderr)


def evaluate(op, output) -> tuple[bool, float, str]:
    """Run an op's check; any exception counts as a failed output."""
    try:
        return True, float(op.check(output)), ""
    except Exception as exc:  # the check boundary: every failure is counted
        return False, 0.0, f"{type(exc).__name__}: {exc}"


def run_cycle(ops, stats: Stats, tracer=None, keep_outputs=False, timed=True):
    outputs = []
    cycle_s, points = 0.0, 0
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            stats.attempted += 1
            if tracer is not None:
                tracer.current_op = stats.attempted
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an op that raises is a failed op, not a crash
                stats.fail(op.label, traceback.format_exc(limit=3).strip().splitlines()[-1])
                continue
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.count("cli.bytes_written", sum(p.stat().st_size for p in op.outputs))
            ok, err, message = evaluate(op, out)
            if not ok:
                stats.fail(op.label, message)
                continue
            stats.max_err = max(stats.max_err, err)
            if timed:
                stats.times[tracer is not None].append(elapsed)
                if tracer is None:
                    stats.probes.append(calibration.probe())
            cycle_s += elapsed
            points += op.points
            if keep_outputs:
                outputs.append((op, out))
    finally:
        if tracer is not None:
            tracer.restore()
    if timed and tracer is None and cycle_s > 0:
        stats.cycles.append((len(ops), points, cycle_s))
    return outputs


def self_test(outputs) -> tuple[int, int]:
    """Corrupt each corruptible output; return (corruptions, detected)."""
    total = detected = 0
    for op, out in outputs:
        if op.corrupt is None:
            continue
        total += 1
        ok, _, _ = evaluate(op, op.corrupt(out))
        detected += not ok
    return total, detected


def openblas_info() -> dict:
    info = {"env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["build"] = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    info["threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def layer_metrics(tracer, traced_ops: int, stats: Stats) -> dict:
    """Per-layer numbers, normalised per traced op."""
    metrics = {}
    for name, agg in tracer.self_and_total().items():
        metrics[f"{name}.calls"] = agg["calls"] / traced_ops
        metrics[f"{name}.self_s"] = agg["self_s"] / traced_ops
        metrics[f"{name}.total_s"] = agg["total_s"] / traced_ops
    for key, value in tracer.counters.items():
        metrics[key] = value / traced_ops
    dephasing_calls = metrics["nmr_noise.apply_dephasing.calls"]
    noop = metrics["nmr_noise.apply_dephasing.noop"]
    metrics["nmr_noise.apply_dephasing.noop_frac"] = noop / dephasing_calls if dephasing_calls else 0.0
    metrics["check.max_abs_err"] = stats.max_err
    metrics["trace.overhead_frac"] = statistics.median(stats.times[True]) / statistics.median(stats.times[False]) - 1.0
    return metrics


def select(spec_metrics: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run_one(args, spec: dict) -> int:
    setup_times, numpy_times = measure_setup(SETUP_REPS) if not args.trace else ([], [])

    sys.path.insert(0, str(SRC))
    import cws552
    import cws552.cli  # noqa: F401  (binds cws552.cli for the workloads and the tracer)

    if Path(cws552.__file__).resolve().parent != SRC / "cws552":
        raise RuntimeError(f"imported cws552 from {cws552.__file__}, not from {SRC}")

    work_dir = RUN_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, cws552, args.seed, work_dir)
        stats = Stats()
        warm = run_cycle(workload.cycle(), stats, keep_outputs=True, timed=False)
        corruptions, detected = self_test(warm)

        tracer = tracing.Tracer() if args.trace else None
        traced_ops = 0
        cycle_no = 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or (tracer is not None and cycle_no < 2):
            traced = tracer is not None and cycle_no % 2 == 1
            ops = workload.cycle()
            run_cycle(ops, stats, tracer if traced else None)
            traced_ops += len(ops) if traced else 0
            cycle_no += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    times = stats.times[False]
    if not times or (args.trace and not stats.times[True]):
        print(f"error: no timed op succeeded; first failures: {stats.failures}", file=sys.stderr)
        return 1
    tail_pct, tail_s = tail(times, workload.tail_pct)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_info(),
        "commit": git_commit(),
        "samples": len(times),
        "traced_samples": len(stats.times[True]),
        "cycles": len(stats.cycles),
        "tail_percentile": tail_pct,
        "setup_samples": len(setup_times),
        "failed_frac": stats.failed / stats.attempted,
        "failures": stats.failures,
        "check_max_abs_err": stats.max_err,
        "selftest": {"corruptions": corruptions, "detected": detected},
    }

    if args.trace:
        values = layer_metrics(tracer, traced_ops, stats)
        spans = RUN_DIR / f"spans-{args.workload}.tsv.gz"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
        metrics = select(spec["per_layer"], values)
    else:
        # Op timings on the reference-speed scale (see calibration.py); the
        # raw wall-clock values go into the record next to them.
        probe_s = statistics.median(stats.probes)
        scale = calibration.REFERENCE_S / probe_s
        wall = {
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_s,
            "ops_per_s": statistics.median(n / s for n, _, s in stats.cycles),
            "points_per_s": statistics.median(p / s for _, p, s in stats.cycles),
        }
        wall["setup_s"] = statistics.median(setup_times)
        numpy_import_s = statistics.median(numpy_times)
        setup_scale = calibration.NUMPY_IMPORT_REFERENCE_S / numpy_import_s
        record["wall_clock"] = wall
        record["calibration"] = {
            "probe_s": probe_s, "probes": len(stats.probes), "scale": scale,
            "numpy_import_s": numpy_import_s, "setup_scale": setup_scale,
        }
        values = {
            "setup_s": wall["setup_s"] * setup_scale,
            "op_s.p50": wall["op_s.p50"] * scale,
            "op_s.tail": wall["op_s.tail"] * scale,
            "ops_per_s": wall["ops_per_s"] / scale,
            "points_per_s": wall["points_per_s"] / scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = select(spec["end_to_end"], values)

    print("record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    correct = stats.failed == 0 and corruptions > 0 and detected == corruptions
    print(json.dumps({"correct": correct, "attempted": stats.attempted, "failed": stats.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.4g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:52s} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cws552" / "__init__.py").is_file():
        print(f"error: no cws552 sources under {SRC}; run from a cws552 checkout", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
