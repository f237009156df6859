#!/usr/bin/env python3
"""Benchmark of the poltrans CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload suite_surfaces --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory): ``suite_surfaces``,
``cli_fit`` and ``cli_transport``. Each calls ``poltrans.cli.main``
in-process from one closed loop, checks every output, and prints every
metric by name with its unit and sample count. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

A traced run first runs the untraced loop, then runs the loop's first few
calls again with the tracer's wrappers installed; the difference of the two
times of those calls is ``trace.overhead_s``.
"""
import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One thread of work at a time: on a host of few shared cores, BLAS worker
# threads and the suite's thread pool would time the scheduler, not the
# program. Set before NumPy loads; a caller's own setting wins and is recorded.
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "POLTRANS_THREADS": "1"}
for _key, _value in SERIAL_ENV.items():
    os.environ.setdefault(_key, _value)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated and its median reported, so one slow pass does not decide setup_s.
SETUP_REPEATS = 3
WORK_DIR = ".perfbench-work"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("suite_surfaces", "cli_fit", "cli_transport"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="minimum length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads():
    """Thread count of the loaded OpenBLAS, read from the library itself."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_config(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np
    import scipy

    from poltrans import cli

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "poltrans_threads_env": os.environ.get("POLTRANS_THREADS"),
        "poltrans_workers": cli._worker_count(),
        "git_commit": _git_commit(),
    }


def emit(name: str, value, unit: str, samples: int, note: str) -> None:
    shown = value if isinstance(value, str) else f"{value:.6g}"
    print(f"metric {name} = {shown} {unit} (n={samples}; {note})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "poltrans" / "cli.py").is_file():
        print(f"error: no poltrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from speed import SpeedProbe

    # Set-up and calls are timed alike: process CPU time at nominal host
    # speed. The probe samples from here to the end of the untraced loop.
    probe = SpeedProbe().start()
    import workloads
    from percentiles import median
    from tracing import Tracer, installed, layer_metrics

    imported_wall = time.perf_counter() - STARTED
    # Process CPU time counts from the start of the interpreter.
    imported = probe.scaled_cpu_s(time.process_time(), 0.0, time.perf_counter())
    config = machine_config(args.workload, args.seed, args.seconds, args.trace)
    print("config " + json.dumps(config, sort_keys=True))

    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / WORK_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        setups, setup_walls = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "setup", ignore_errors=True)
            began, cpu = time.perf_counter(), time.process_time()
            workload.setup(work / "setup")
            setups.append(probe.scaled_cpu_s(time.process_time() - cpu, began, time.perf_counter()))
            setup_walls.append(time.perf_counter() - began)

        ops = workloads.run_loop(workload, args.seconds, work)
        probe.stop()
        traced = []
        if args.trace:
            # A fixed number of calls, the loop's first ones, so traced counts
            # compare across commits whatever the loop's length.
            tracer = Tracer()
            with installed(tracer):
                traced = workloads.run_loop(workload, args.seconds, work, tracer=tracer, count=workload.trace_ops)
        problems = [p for op in ops + traced for p in op.problems] + workload.consistency(ops + traced)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass

    for problem in problems[:20]:
        print(f"check failed: {problem}")
    attempted = len(ops) + len(traced)
    failed = sum(1 for op in ops + traced if op.problems)
    walls = [op.call.wall_s for op in ops]
    windows = [(op.call.started, op.call.started + op.call.wall_s) for op in ops]
    cpus = [op.call.cpu_s - probe.overhead_s(*window) for op, window in zip(ops, windows)]
    scaled = [probe.scaled_cpu_s(op.call.cpu_s, *window) for op, window in zip(ops, windows)]
    setup_s = imported + median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = sum(op.items for op in ops)

    print(f"workload {workload.name}: {len(ops)} timed calls ({workload.seed_note})")
    print("call_s " + json.dumps([round(w, 4) for w in walls]))
    print("call_cpu_s " + json.dumps([round(c, 4) for c in cpus]))
    print("call_scaled_s " + json.dumps([round(c, 4) for c in scaled]))
    # Process CPU time leaves out the time the host gives our CPUs to other
    # guests, and one thread of work makes it the call's own time; scaling
    # it to a fixed host speed (speed.py) leaves out the host's swings.
    end_to_end = {
        "setup_s": (setup_s, "s", SETUP_REPEATS, f"imports {imported:.3f} s + median set-up, scaled CPU time"),
        "scaled_call_ms.p50": (1e3 * median(scaled), "ms", len(ops), "median CPU time of a CLI call at nominal host speed"),
        "scaled_items_per_s": (items / sum(scaled), "1/s", len(ops), f"{workload.item} over summed scaled CPU time"),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, "process peak resident set"),
    }
    for name, (value, unit, n, note) in end_to_end.items():
        emit(name, value, unit, n, note)
    emit("setup_wall_s", imported_wall + median(setup_walls), "s", SETUP_REPEATS, "imports + median set-up, wall time")
    emit("host_speed", probe.relative_speed(), "ratio", len(probe.loop_s), "nominal over median reference-loop time")
    emit("call_cpu_ms.p50", 1e3 * median(cpus), "ms", len(ops), "median CPU time of a CLI call")
    emit("items_per_cpu_s", items / sum(cpus), "1/s", len(ops), f"{workload.item} over summed call CPU time")
    emit("call_ms.p50", 1e3 * median(walls), "ms", len(ops), "median wall time of a CLI call")
    emit("items_per_s", items / sum(walls), "1/s", len(ops), f"{workload.item} over summed call wall time")
    emit("stolen_s", sum(op.call.stolen_s for op in ops), "s", len(ops), "host time taken from our CPUs during the calls")
    emit("fail_frac", failed / attempted, "ratio", attempted, "failed over attempted calls")
    for row in workload.summary(ops):
        emit(*row)

    if args.trace:
        per_layer = layer_metrics(tracer)
        per_layer["cli.pool.cpu_per_wall"] = sum(cpus) / sum(walls)
        per_layer["cli.cells.attempted"] = sum(op.facts.get("cells_attempted", 0) for op in traced)
        per_layer["cli.cells.failed"] = sum(op.facts.get("cells_failed", 0) for op in traced)
        per_layer["trace.overhead_s"] = sum(op.call.wall_s for op in traced) - sum(walls[: len(traced)])
        for name, value in per_layer.items():
            emit(name, value, _layer_unit(name), len(traced), "traced run")
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in end_to_end.items()}

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("cpu_per_wall") or name.endswith("per_map"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
