"""The benchmark's workloads: inputs made from the seed, the CLI call that is
one operation, and the checks on each call's outputs.

Every operation is one in-process call of ``poltrans.cli.main`` with stdout
and stderr captured, so terminal writes are not timed. One caller issues one
operation at a time (a closed loop).
"""
from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from poltrans import cli
from poltrans.metrics import METRIC_NAMES
from poltrans.scenarios import SURFACE_PROFILES, make_surface_scenario, save_scenario
from poltrans.transport import TOL_MATCH_SCALE
from poltrans.types import PolicyLabels, is_rotation

from percentiles import median, percentile
from tracing import MAIN_SPAN


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_CPUS = {f"cpu{i}" for i in os.sched_getaffinity(0)}


def stolen_seconds() -> float:
    """Mean time the hypervisor has taken from the CPUs this process may run
    on (the steal column of /proc/stat); 0 where the kernel reports none."""
    try:
        with open("/proc/stat") as fh:
            rows = [line.split() for line in fh if line.startswith("cpu")]
    except OSError:
        return 0.0
    steal = [int(row[8]) for row in rows if row[0] in _CPUS and len(row) > 8]
    return _TICK_S * sum(steal) / len(steal) if steal else 0.0


@dataclass
class Call:
    """One call of ``poltrans.cli.main``: exit code, times, captured output."""

    rc: int | None
    started: float  # perf_counter at the call
    wall_s: float
    cpu_s: float
    stolen_s: float
    stdout: str
    stderr: str


@dataclass
class Op:
    call: Call
    items: int
    problems: list[str]
    facts: dict = field(default_factory=dict)


def call_main(argv: list[str], tracer=None) -> Call:
    """Run the CLI in-process; an exception escaping ``main`` is a failure."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with redirect_stdout(out), redirect_stderr(err):
        stolen = stolen_seconds()
        started, cpu = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span(MAIN_SPAN):
                    rc = cli.main(argv)
        except Exception as exc:  # counted as a failed operation, run continues
            print(f"{type(exc).__name__}: {exc}", file=err)
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu
        stolen = stolen_seconds() - stolen
    return Call(rc, started, wall, cpu, stolen, out.getvalue(), err.getvalue())


def run_checked(workload, index: int, argv: list[str], out: Path, tracer=None) -> Op:
    call = call_main(argv, tracer)
    problems, facts = [], {}
    if call.rc != 0:
        problems.append(f"exit code {call.rc}: {call.stderr.strip()[-300:]}")
    else:
        try:
            problems, facts = workload.check(index, out)
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return Op(call, workload.items(index), problems, facts)


def run_loop(workload, seconds: float, work: Path, tracer=None, count=None):
    """Closed loop of checked CLI calls: ``count`` of them, or else whole
    blocks until at least ``seconds`` have passed and ``min_ops`` are done.

    Garbage is collected before each call, untimed, so a call does not pay
    for the previous one's garbage, as a fresh CLI process would not."""
    ops = []
    start = time.perf_counter()
    while True:
        done = len(ops)
        if count is not None:
            if done >= count:
                break
        elif done >= workload.min_ops and done % workload.block == 0 and time.perf_counter() - start >= seconds:
            break
        out = work / "op"
        gc.collect()
        ops.append(run_checked(workload, done, workload.argv(done, out), out, tracer))
        shutil.rmtree(out, ignore_errors=True)
    return ops


def call_or_raise(argv: list[str]) -> None:
    """An untimed set-up call; the run cannot go on without it."""
    call = call_main(argv)
    if call.rc != 0:
        raise RuntimeError(f"set-up call {argv[0]} exited {call.rc}: {call.stderr.strip()[-300:]}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """One operation is CLI call ``index``; ``block`` calls form one pass
    over the inputs, a run makes at least ``min_ops`` calls, and a traced
    run traces the first ``trace_ops`` of them."""

    name = ""
    item = "calls"
    block = 1
    min_ops = 1
    trace_ops = 1

    def __init__(self, seed: int):
        self.seed = seed

    def items(self, index: int) -> int:
        return 1

    def consistency(self, ops: list[Op]) -> list[str]:
        return []


class SuiteSurfaces(Workload):
    """``bench --suite surfaces`` at its reproduction defaults: 5 profiles x
    3 seeds x 4 methods = 60 cells, at the worker count ``POLTRANS_THREADS``
    sets (1 unless the caller sets it; see run.py).

    The CLI fixes this suite's scenario seeds, so ``--seed`` does not change
    this workload's input.
    """

    name = "suite_surfaces"
    item = "cells"
    cells = len(SURFACE_PROFILES) * 3 * len(cli.METHODS)
    seed_note = "input fixed by the CLI; --seed has no effect"

    def setup(self, work: Path) -> None:
        # The warm-up runs every method and output stage on one seed per
        # profile (20 cells), the smallest call that reaches all of them.
        call_or_raise(["bench", "--suite", "surfaces", "--seeds", "1", "--out-dir", str(work / "warm")])

    def argv(self, index: int, out: Path) -> list[str]:
        return ["bench", "--suite", "surfaces", "--out-dir", str(out)]

    def items(self, index: int) -> int:
        return self.cells

    def check(self, index: int, out: Path) -> tuple[list[str], dict]:
        problems = []
        failures = []
        if (out / "failures.json").exists():
            failures = json.loads((out / "failures.json").read_text())["failures"]
            problems.append(f"{len(failures)} failed cells: {failures[:3]}")
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.cells:
            problems.append(f"metrics.csv has {len(rows)} rows, expected {self.cells}")
        bad = [(r["scenario"], r["method"], n) for r in rows for n in METRIC_NAMES if not math.isfinite(float(r[n]))]
        if bad:
            problems.append(f"non-finite metric values: {bad[:3]}")
        gpt = [float(r["frechet"]) for r in rows if r["method"] == "gpt"]
        report = json.loads((out / "report.json").read_text())
        facts = {
            "metrics_sha256": _sha256(out / "metrics.csv"),
            "cells_attempted": len(rows) + len(failures),
            "cells_failed": len(failures),
            "gpt_frechet": gpt,
            "gpt_det_pos_pct": [entry["det_positive_pct"] for entry in report.values()],
        }
        return problems, facts

    def consistency(self, ops: list[Op]) -> list[str]:
        digests = {op.facts["metrics_sha256"] for op in ops if "metrics_sha256" in op.facts}
        return [f"metrics.csv differs between runs: {sorted(digests)}"] if len(digests) > 1 else []

    def summary(self, ops: list[Op]) -> list[tuple]:
        good = [op for op in ops if not op.problems]
        if not good:
            return []
        frechet, det = good[-1].facts["gpt_frechet"], good[-1].facts["gpt_det_pos_pct"]
        walls = [op.call.wall_s for op in ops]
        return [
            ("wall_s", median(walls), "s", len(walls), "median suite run"),
            ("gpt_frechet_mean", float(np.mean(frechet)), "1", len(frechet), "mean over gpt rows"),
            ("gpt_det_pos_pct_min", float(np.min(det)), "%", len(det), "lowest over scenarios"),
            ("metrics_sha256", good[-1].facts["metrics_sha256"], "sha256", len(good), "identical across runs"),
        ]


class CliFit(Workload):
    """Repeated ``poltrans fit`` over a seeded corpus of 100 distinct surface
    scenarios, called in one fixed shuffled order.

    The corpus is four blocks of 25. Each block holds, per profile, three
    scenarios at 12 keypoints, one at 50 and one at 200, so the median fit
    lands in the 12-keypoint class and p90 in the 200-keypoint class. A run
    makes at least the 100 fits of the corpus, so it averages the
    optimizer's iteration count over 20 distinct large fits, and then whole
    blocks until its time is up.
    """

    name = "cli_fit"
    item = "fits"
    classes = ((12, 3), (50, 1), (200, 1))
    trace_ops = len(SURFACE_PROFILES) * sum(copies for _, copies in classes)
    block = trace_ops
    min_ops = 4 * block
    seed_note = "corpus drawn from --seed"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.files: list[tuple[Path, int, float]] = []

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        work.mkdir(parents=True)
        self.files = []
        for _ in range(self.min_ops // self.block):
            corpus = [
                (profile, n_keypoints, int(rng.integers(2**31)))
                for profile in SURFACE_PROFILES
                for n_keypoints, copies in self.classes
                for _ in range(copies)
            ]
            for index in rng.permutation(len(corpus)):
                profile, n_keypoints, seed = corpus[index]
                scenario = make_surface_scenario(profile, n_keypoints=n_keypoints, seed=seed)
                path = work / f"{len(self.files):03d}-{profile}-{n_keypoints}.json"
                save_scenario(scenario, path)
                self.files.append((path, n_keypoints, scenario.keypoints.target.diameter()))
        first_small = next(i for i, (_, n, _) in enumerate(self.files) if n == 12)
        call_or_raise(self.argv(first_small, work / "warm"))

    def argv(self, index: int, out: Path) -> list[str]:
        path = self.files[index % len(self.files)][0]
        return ["fit", "--scenario", str(path), "--out-dir", str(out)]

    def check(self, index: int, out: Path) -> tuple[list[str], dict]:
        _, n_keypoints, diameter = self.files[index % len(self.files)]
        report = json.loads((out / "fit_report.json").read_text())
        problems = []
        tol = TOL_MATCH_SCALE * diameter
        if not report["keypoint_error_max"] <= tol:
            problems.append(f"keypoint error {report['keypoint_error_max']:.3e} > {tol:.3e}")
        if report["warnings"]:
            problems.append(f"map warnings: {report['warnings']}")
        if report["n_keypoints"] != n_keypoints:
            problems.append(f"fitted {report['n_keypoints']} keypoints, expected {n_keypoints}")
        if not (out / "map.json").is_file():
            problems.append("map.json missing")
        return problems, {"n_keypoints": n_keypoints}

    def summary(self, ops: list[Op]) -> list[tuple]:
        walls = [op.call.wall_s for op in ops]
        ms = [1e3 * w for w in walls]
        return [
            ("fits_per_s", len(walls) / sum(walls), "1/s", len(walls), "fits over summed call time"),
            ("fit_ms.p50", median(ms), "ms", len(ms), "median fit call"),
            ("fit_ms.p90", percentile(ms, 90), "ms", len(ms), "nearest-rank p90"),
        ]


class CliTransport(Workload):
    """Repeated ``poltrans transport`` of 10 000-label files, alternating
    between a 12-keypoint and a 200-keypoint map fitted in setup."""

    name = "cli_transport"
    item = "labels"
    block = min_ops = trace_ops = 2
    labels = 10_000
    warm_labels = 500
    seed_note = "maps and labels drawn from --seed"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pairs: list[tuple[Path, Path]] = []

    def _labels(self, rng, m: int) -> PolicyLabels:
        def rotations(angles):
            c, s = np.cos(angles), np.sin(angles)
            return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)

        def spd(low, high):
            rot = rotations(rng.uniform(-np.pi, np.pi, m))
            eig = rng.uniform(low, high, (m, 2))
            return np.einsum("mab,mb,mcb->mac", rot, eig, rot)

        return PolicyLabels(
            positions=np.column_stack([rng.uniform(0.0, 1.0, m), rng.uniform(-0.05, 0.35, m)]),
            velocities=rng.normal(scale=0.5, size=(m, 2)),
            orientations=rotations(rng.uniform(-np.pi, np.pi, m)),
            stiffness=spd(50.0, 500.0),
            damping=spd(5.0, 50.0),
        )

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        work.mkdir(parents=True)
        self.pairs = []
        for n_keypoints in (12, 200):
            profile = SURFACE_PROFILES[int(rng.integers(len(SURFACE_PROFILES)))]
            scenario = make_surface_scenario(profile, n_keypoints=n_keypoints, seed=int(rng.integers(2**31)))
            scenario_path = work / f"scenario-{n_keypoints}.json"
            save_scenario(scenario, scenario_path)
            map_dir = work / f"map-{n_keypoints}"
            call_or_raise(["fit", "--scenario", str(scenario_path), "--out-dir", str(map_dir)])
            labels_path = work / f"labels-{n_keypoints}.json"
            labels_path.write_text(json.dumps(self._labels(rng, self.labels).to_dict()))
            self.pairs.append((map_dir / "map.json", labels_path))
        # The warm-up call runs every stage of a transport call on fewer labels.
        warm_path = work / "labels-warm.json"
        warm_path.write_text(json.dumps(self._labels(rng, self.warm_labels).to_dict()))
        argv = ["transport", "--map", str(self.pairs[0][0]), "--labels", str(warm_path)]
        call_or_raise(argv + ["--out-dir", str(work / "warm")])

    def argv(self, index: int, out: Path) -> list[str]:
        map_path, labels_path = self.pairs[index % 2]
        return ["transport", "--map", str(map_path), "--labels", str(labels_path), "--out-dir", str(out)]

    def items(self, index: int) -> int:
        return self.labels

    def check(self, index: int, out: Path) -> tuple[list[str], dict]:
        problems = []
        report = json.loads((out / "transport_report.json").read_text())
        drift = report.get("stiffness_spectrum_max_drift")
        if drift is None or not drift <= 1e-9:
            problems.append(f"stiffness spectrum drift {drift} > 1e-9")
        with open(out / "transported.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            table = np.array([[float(v) for v in row] for row in reader])
        if table.shape[0] != self.labels:
            problems.append(f"transported.csv has {table.shape[0]} rows, expected {self.labels}")
        proj = table[:, [header.index(f"proj_{a}{b}") for a in range(2) for b in range(2)]]
        bad = sum(not is_rotation(r.reshape(2, 2)) for r in proj)
        if bad:
            problems.append(f"{bad} projected rotations outside SO(2)")
        return problems, {}

    def summary(self, ops: list[Op]) -> list[tuple]:
        walls = [op.call.wall_s for op in ops]
        return [("labels_per_s", self.labels * len(walls) / sum(walls), "1/s", len(walls), "labels over summed call time")]


WORKLOADS = {w.name: w for w in (SuiteSurfaces, CliFit, CliTransport)}
