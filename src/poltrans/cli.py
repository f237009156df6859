"""Command-line front end: fit, transport, bench, metrics, rank, scenario-gen.

Exit codes: 0 success, 1 runtime failure (missing/invalid files, numeric
failure), 2 usage error (an unknown subcommand, suite or method, a missing
required flag, a value out of range), raised before any file is written.
A subcommand is one ``COMMAND_TABLE`` entry: its help line, the flags it
adds to its parser, and the function it runs. A call builds only its own
command's parser (``build_parser(command)``), with the same usage line and
messages as the full one. The flags decide every setting: their types
check their values, and ``SUITE_TABLE`` holds the defaults that depend on
--suite.

A suite is one ``SUITE_TABLE`` entry. It builds the bench's scene tasks,
one ``SceneTask`` per scene input set (a surface scene, or one
keypoints-per-frame set of a frame scene): the scenario, keypoint pairs and
demonstration, built once before the pool (the ``scenes`` stage), and the
methods to run on them, in order. A method is one ``METHOD_TABLE`` entry;
the SVG's sigma band and report.json come from its run. ``_run_bench`` runs
one task per pool job, on a thread pool of one worker, or of as many as the
POLTRANS_THREADS environment variable sets. A task pre-aligns the
demonstration and keypoints and assigns the via-points once, when a run
first needs them. The bench waits once for all the tasks and reads their
results in task order, so artifacts do not depend on which task finished
first. The metrics of every cell (one scene x method run) are computed
afterwards in one batch, each metric once per group of same-shape cells,
with the cells as lanes. The bench writes deterministically ordered
artifacts: metrics.csv (no timings, so reruns are bitwise identical across
worker counts), ranking.json, one SVG overlay per scene, report.json (gpt's
timings, keypoint error and det J > 0 percentage per scene), failures.json
(each failed cell's stage, method or metrics, its exception type and
message, in task order) and timings.json (the wall and process-CPU seconds
of each of the ``BENCH_STAGES`` and, under ``methods``, the thread-CPU
seconds of each method's cells, summed; a task's shared preparation counts
to the first method that reads it). A scene whose reported map (gpt's) has
a non-positive Jacobian determinant somewhere on the demonstration gets a
warning on stderr naming the method.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .affine import fit_affine
from .baselines import apply_lwt, assign_via_points, fit_lwt, laplacian_edit, reshaped_kmp
from .metrics import (
    METRIC_NAMES,
    U_TEST_MIN_SAMPLES,
    RankingResult,
    compute_metrics,
    compute_metrics_batch,
    rank_methods,
    read_metrics_csv,
    write_metrics_csv,
)
from .scenarios import (
    SURFACE_PROFILES,
    FrameScenario,
    SurfaceScenario,
    frame_pairing,
    load_scenario,
    make_surface_scenario,
    random_frame_scenario,
    save_scenario,
)
from .transport import (
    DiffeoReport,
    check_local_diffeomorphism,
    fit_transport,
    load_transport_map,
    save_transport_map,
    transport_labels,
    transport_points,
)
from .types import (
    PairedKeypoints,
    PointSet,
    PolicyLabels,
    Trajectory,
    json_text,
    load_json,
    save_json,
    validate_labels,
)
from .svgplot import SvgScene

# Frame corpus seeds: training scenes count up from one base, test scenes
# from the other, so the files scenario-gen writes are the frames bench's
# own inputs.
FRAME_TRAIN_SEED = 100
FRAME_TEST_SEED = 200
# Stages of a bench run timed in timings.json: building the suite's scenes
# and cells, the method pool, the metric batch, the SVG overlays, the
# ranking, and the table and JSON writes.
BENCH_STAGES = ("scenes", "cells", "metrics", "svgs", "ranking", "writes")


class UsageError(Exception):
    pass


def _worker_count() -> int:
    """The bench pool's worker count: POLTRANS_THREADS, at least 1, or 1
    when it is unset. The methods hold the GIL for most of their time, so a
    second worker only adds switching."""
    env = os.environ.get("POLTRANS_THREADS", "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError as exc:
        raise UsageError(f"POLTRANS_THREADS must be an integer, got {env!r}") from exc


def _at_least(minimum: int):
    """argparse type of a count flag: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _alpha(text: str) -> float:
    """argparse type of --alpha, the significance level."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {value:g}")
    return value


def _method_list(text: str) -> list[str]:
    """argparse type of --methods: comma-separated ids from METHODS."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise argparse.ArgumentTypeError("needs at least one method id")
    for method in methods:
        if method not in METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {method!r}; valid ids: {', '.join(METHODS)}")
        if methods.count(method) > 1:
            raise argparse.ArgumentTypeError(f"method {method!r} is listed twice")
    return methods


def _seed_count(args) -> int:
    """--seeds, or the suite's default number of (test) seeds."""
    return SUITE_TABLE[args.suite].seeds if args.seeds is None else args.seeds


def cmd_fit(args) -> int:
    out_dir = args.out_dir
    kp = load_scenario(args.scenario).keypoints
    start = time.perf_counter()
    tmap = fit_transport(kp)
    fit_seconds = time.perf_counter() - start

    errors = tmap.keypoint_errors
    report = {
        "fit_seconds": fit_seconds,
        "keypoint_error_max": float(errors.max()),
        "keypoint_error_mean": float(errors.mean()),
        "n_keypoints": kp.n,
        "warnings": list(tmap.warnings),
    }

    save_transport_map(tmap, out_dir / "map.json")
    save_json(report, out_dir / "fit_report.json")
    print(
        f"fit: {kp.n} keypoints in {fit_seconds:.3f}s, "
        f"max mismatch {report['keypoint_error_max']:.3e} -> {out_dir / 'map.json'}"
    )
    return 0


def cmd_transport(args) -> int:
    out_dir = args.out_dir
    tmap = load_transport_map(args.map)
    labels = PolicyLabels.from_dict(load_json(args.labels))
    # Invalid labels are transported all the same and the report names
    # them, except non-finite positions, which no map can move.
    violations = validate_labels(labels)
    unplaced = [f"{v.field}[{v.index}]: {v.kind}" for v in violations if v.field == "positions"]
    if unplaced:
        raise ValueError("cannot transport labels: " + "; ".join(unplaced))

    start = time.perf_counter()
    moved = transport_labels(tmap, labels)
    transport_seconds = time.perf_counter() - start
    diffeo = DiffeoReport.from_jacobians(tmap, moved.jacobians)

    report = {
        "transport_seconds": transport_seconds,
        "det_positive_fraction": diffeo.fraction_positive,
        "keypoint_determinants": diffeo.keypoint_determinants.tolist(),
        "keypoints_sign_uniform": diffeo.keypoints_sign_uniform,
        "warnings": [str(v) for v in violations] + list(moved.warnings) + list(tmap.warnings),
    }
    if labels.stiffness is not None:
        # Over the labels of finite stiffness: warnings names the others.
        finite = np.isfinite(labels.stiffness).all(axis=(1, 2))
        if finite.any():
            # eigvalsh returns each spectrum in ascending order
            before = np.linalg.eigvalsh(labels.stiffness[finite])
            drift = np.abs(before - np.linalg.eigvalsh(moved.stiffness[finite]))
            report["stiffness_spectrum_max_drift"] = float(drift.max())

    out_dir.mkdir(parents=True, exist_ok=True)
    moved.to_csv(out_dir / "transported.csv")
    save_json(report, out_dir / "transport_report.json")
    if diffeo.fraction_positive < 1.0:
        print(
            f"warning: det(J) > 0 on only {100 * diffeo.fraction_positive:.1f}% "
            "of label positions",
            file=sys.stderr,
        )
    print(
        f"transport: {labels.m} labels in {transport_seconds:.3f}s, "
        f"det>0 fraction {diffeo.fraction_positive:.3f} -> {out_dir / 'transported.csv'}"
    )
    return 0


def _gamma_pretransform(kp: PairedKeypoints, demo: Trajectory):
    """Rigid alignment applied before the reshaping baselines: move the
    demonstration and the source keypoints into the target's pose."""
    affine = fit_affine(kp)
    demo2 = Trajectory(positions=affine.apply(demo.positions), times=demo.times)
    kp2 = PairedKeypoints(source=PointSet(affine.apply(kp.source.points)), target=kp.target)
    return demo2, kp2


@dataclass(frozen=True, eq=False)
class SceneTask:
    """One scene input set and the methods the bench runs on it, in order:
    the scene's scenario (its reference scores each result and it is drawn
    in the SVG), the keypoint pairs the methods condition on, the
    demonstration they transport and its topology. The methods share these
    inputs, which they may because the arrays inside are frozen
    (``types._freeze``), and the work on them that more than one method
    needs: ``aligned``, the demonstration and keypoints moved by the rigid
    pre-alignment, and ``assignment``, the via-point assignment on them.
    Each is computed when a run first reads it, through this module's
    globals, so it costs the first method that reads it, and a task whose
    methods read neither computes neither. A failure is not kept: each
    reader raises it again, as it did before the sharing."""

    scenario: SurfaceScenario | FrameScenario
    keypoints: PairedKeypoints
    demonstration: Trajectory
    topology: str
    methods: tuple[str, ...]

    @cached_property
    def aligned(self) -> tuple[Trajectory, PairedKeypoints]:
        return _gamma_pretransform(self.keypoints, self.demonstration)

    @cached_property
    def assignment(self):
        demo, kp = self.aligned
        return assign_via_points(demo, kp)


@dataclass(frozen=True)
class Method:
    """A bench method: its SVG stroke colour, the keypoints per frame it
    pairs on the frames suite, and ``run(scene)`` of a ``SceneTask``, which
    returns the transported demonstration, the posterior standard deviation
    along it or None, and its scene's report.json entry or None. Runs call
    the package through this module's globals."""

    color: str
    frame_kpf: int
    run: Callable


def _run_gpt(scene: SceneTask):
    kp, demo = scene.keypoints, scene.demonstration
    start = time.perf_counter()
    tmap = fit_transport(kp)
    fitted = time.perf_counter()
    positions, variance = transport_points(tmap, demo.positions)
    transported = time.perf_counter()
    report = {
        "fit_seconds": fitted - start,
        "transport_seconds": transported - fitted,
        "keypoint_error_max": float(tmap.keypoint_errors.max()),
        "keypoint_error_mean": float(tmap.keypoint_errors.mean()),
        "det_positive_pct": 100.0 * check_local_diffeomorphism(tmap, demo.positions).fraction_positive,
    }
    return Trajectory(positions=positions, times=demo.times), np.sqrt(variance), report


def _run_le(scene: SceneTask):
    demo, _ = scene.aligned
    return laplacian_edit(demo, scene.assignment, topology=scene.topology), None, None


def _run_reshaped_kmp(scene: SceneTask):
    demo, _ = scene.aligned
    return reshaped_kmp(demo, scene.assignment), None, None


def _run_lwt(scene: SceneTask):
    demo, kp = scene.aligned
    return Trajectory(positions=apply_lwt(fit_lwt(kp), demo.positions), times=demo.times), None, None


# Frame benchmarks give assignment-based reshapers fewer keypoints per frame
# (pairing more is ambiguous for them); map-based methods use all five.
METHOD_TABLE = {
    "gpt": Method("#1f77b4", 5, _run_gpt),
    "le": Method("#2ca02c", 2, _run_le),
    "reshaped_kmp": Method("#9467bd", 2, _run_reshaped_kmp),
    "lwt": Method("#8c564b", 5, _run_lwt),
}
METHODS = tuple(METHOD_TABLE)


def _scene_svg(path: Path, demo, reference, produced: dict, keypoints, bands: dict) -> None:
    scene = SvgScene()
    for method, traj in sorted(produced.items()):
        if method in bands:
            scene.band(traj.positions, 2.0 * bands[method], fill="#ffa500", opacity=0.35)
    scene.polyline(demo.positions, color="#999999", width=1.2, dash="6,4")
    scene.polyline(reference.positions, color="#000000", width=1.8)
    for method, traj in sorted(produced.items()):
        scene.polyline(traj.positions, color=METHOD_TABLE[method].color, width=1.6)
    scene.markers(keypoints.source.points, color="#bbbbbb", radius=3.0)
    scene.markers(keypoints.target.points, color="#d62728", radius=3.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    scene.write(path)


def _ranking(rows, alpha: float) -> RankingResult:
    """Rank the methods present in the metric rows; a lone method ranks
    first with zero points, since there is nothing to test it against.
    Several methods need ``U_TEST_MIN_SAMPLES`` rows each."""
    methods = sorted({row["method"] for row in rows})
    if len(methods) == 1:
        (method,) = methods
        per_metric = {name: {method: 0} for name in METRIC_NAMES}
        return RankingResult(points={method: 0}, per_metric_points=per_metric, ranking=((method, 1),))
    for method in methods:
        count = sum(1 for row in rows if row["method"] == method)
        if count < U_TEST_MIN_SAMPLES:
            raise ValueError(
                f"cannot rank: method {method!r} has {count} rows, "
                f"each U test needs at least {U_TEST_MIN_SAMPLES}"
            )
    samples = {
        method: {
            name: np.array([r[name] for r in rows if r["method"] == method])
            for name in METRIC_NAMES
        }
        for method in methods
    }
    return rank_methods(samples, alpha=alpha)


def _surface_files(seeds: int, args) -> list[tuple[str, SurfaceScenario]]:
    """The surfaces corpus: every profile at seeds 0 .. seeds - 1."""
    return [
        (f"{profile}-{seed}.json", make_surface_scenario(profile, n_keypoints=args.n_keypoints, seed=seed))
        for profile in SURFACE_PROFILES
        for seed in range(seeds)
    ]


def _surface_tasks(methods, seeds: int, args) -> list[SceneTask]:
    return [
        SceneTask(scenario, scenario.keypoints, scenario.demonstration, "ring", tuple(methods))
        for _, scenario in _surface_files(seeds, args)
    ]


def _frame_seeds(seeds: int, train_seeds: int) -> tuple[range, range]:
    """(train, test) seeds of a frames corpus."""
    return range(FRAME_TRAIN_SEED, FRAME_TRAIN_SEED + train_seeds), range(FRAME_TEST_SEED, FRAME_TEST_SEED + seeds)


def _frame_tasks(methods, seeds: int, args) -> list[SceneTask]:
    """One task per test seed and keypoints-per-frame count, ordered by the
    first method that pairs on each count."""
    train_ids, test_ids = _frame_seeds(seeds, args.train_seeds)
    # Each test seed draws its training seed; drawn seeds repeat, so each scenario is built once.
    drawn = {seed: train_ids[int(np.random.default_rng(seed).integers(len(train_ids)))] for seed in test_ids}
    by_kpf: dict = {}
    for method in methods:
        by_kpf.setdefault(METHOD_TABLE[method].frame_kpf, []).append(method)
    seeds_used = {*test_ids, *drawn.values()}
    built = {(s, k): random_frame_scenario(s, keypoints_per_frame=k) for s in seeds_used for k in by_kpf}
    tasks = []
    for test_seed, train_seed in drawn.items():
        for kpf, kpf_methods in by_kpf.items():
            train, test = built[train_seed, kpf], built[test_seed, kpf]
            # The training demonstration, recorded at its own frames, moves to the test frames.
            tasks.append(SceneTask(test, frame_pairing(train, test), train.reference, "chain", tuple(kpf_methods)))
    return tasks


def _frame_files(seeds: int, args) -> list[tuple[str, FrameScenario]]:
    return [
        (f"{role}-{seed}.json", random_frame_scenario(seed, keypoints_per_frame=args.kpf))
        for role, ids in zip(("train", "test"), _frame_seeds(seeds, args.train_seeds))
        for seed in ids
    ]


@dataclass(frozen=True)
class Suite:
    """A bench suite: its default (test) seeds and methods, ``tasks(methods,
    seeds, args)``, the ``SceneTask`` list bench runs, and ``scenarios(seeds,
    args)``, the (file name, scenario) pairs scenario-gen writes. Both read
    only the suite's own flags from ``args`` and call the package through
    this module's globals."""

    seeds: int
    methods: tuple[str, ...]
    tasks: Callable
    scenarios: Callable


SUITE_TABLE = {
    "surfaces": Suite(3, METHODS, _surface_tasks, _surface_files),
    "frames": Suite(20, ("gpt", "le"), _frame_tasks, _frame_files),
}


def _run_cell(method: str, scene: SceneTask):
    """(produced, band, report, error, cpu_s) of ``method`` on ``scene``:
    what its run returned or the error it raised, and the CPU seconds of its
    thread; a method failure becomes a missing sample and the bench continues."""
    cpu = time.thread_time()
    try:
        produced, band, report = METHOD_TABLE[method].run(scene)
    except Exception as exc:
        return None, None, None, exc, time.thread_time() - cpu
    return produced, band, report, None, time.thread_time() - cpu


def _run_scene(scene: SceneTask) -> list:
    """The outcomes of the scene's methods, run in order."""
    return [_run_cell(method, scene) for method in scene.methods]


@contextmanager
def _stage(timings: dict, name: str):
    """Add the wall and process-CPU seconds of the block to ``timings[name]``,
    which starts at zero."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        entry = timings.setdefault(name, {"wall_s": 0.0, "cpu_s": 0.0})
        entry["wall_s"] += time.perf_counter() - wall
        entry["cpu_s"] += time.process_time() - cpu


def _run_bench(suite: str, tasks: list[SceneTask], alpha: float, out_dir: Path, timings: dict | None = None) -> int:
    """Run ``tasks`` and write the bench artifacts to ``out_dir``. ``timings``
    holds the stages timed before the call (``scenes``, when ``cmd_bench``
    built the tasks); every stage not timed reads zero."""
    timings = {name: {"wall_s": 0.0, "cpu_s": 0.0} for name in BENCH_STAGES} | (timings or {})
    with _stage(timings, "cells"), ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        # The pool's exit waits once for all the tasks; as_completed would wake this thread per task.
        futures = [pool.submit(_run_scene, task) for task in tasks]
    cells = [
        (task, method, outcome)
        for task, future in zip(tasks, futures)
        for method, outcome in zip(task.methods, future.result())
    ]
    methods = timings["methods"] = {}
    for _, method, (*_, cpu_s) in cells:
        methods.setdefault(method, {"cpu_s": 0.0})["cpu_s"] += cpu_s
    # Scored after the pool in one batch, so each metric runs once over
    # every cell of a shape, as lanes, instead of once per cell.
    with _stage(timings, "metrics"):
        scored = iter(compute_metrics_batch([
            (produced, task.scenario.reference)
            for task, _, (produced, _, _, error, _) in cells
            if error is None
        ]))

    rows = []
    failures = []
    reports: dict = {}
    reporters: dict = {}  # scene -> the method whose run returned its report
    scenes: dict = {}
    for task, method, (produced, band, report, error, _) in cells:
        scene = task.scenario.name
        stage = "method"
        if error is None:
            scores = next(scored)
            if isinstance(scores, Exception):
                error, stage = scores, "metrics"
        if error is not None:
            failures.append(
                {"scenario": scene, "method": method, "stage": stage,
                 "error": str(error), "type": type(error).__name__}
            )
            continue
        row = {"scenario": scene, "method": method, "repetition": task.scenario.seed}
        row.update(scores.to_dict())
        rows.append(row)
        # The task of a scene's first successful cell supplies the
        # demonstration, keypoints and reference that its SVG draws.
        bundle = scenes.setdefault(scene, {"task": task, "produced": {}, "bands": {}})
        bundle["produced"][method] = produced
        if band is not None:
            bundle["bands"][method] = band
        if report is not None:
            reports[scene] = report
            reporters[scene] = method

    for name, entry in sorted(reports.items()):
        if entry["det_positive_pct"] < 100.0:
            print(
                f"warning: {name}: {reporters[name]} det(J) > 0 on only {entry['det_positive_pct']:.1f}% "
                "of the demonstration",
                file=sys.stderr,
            )

    out_dir.mkdir(parents=True, exist_ok=True)
    with _stage(timings, "writes"):
        write_metrics_csv(rows, out_dir / "metrics.csv")
        if reports:
            save_json(reports, out_dir / "report.json")
        if failures:
            save_json({"failures": failures}, out_dir / "failures.json")
    with _stage(timings, "svgs"):
        for name, bundle in sorted(scenes.items()):
            task = bundle["task"]
            _scene_svg(
                out_dir / "svg" / f"{name}.svg",
                task.demonstration,
                task.scenario.reference,
                bundle["produced"],
                task.keypoints,
                bundle["bands"],
            )
    # Ranking last: its error (too few rows for a U test) loses no other artifact.
    try:
        if rows:
            with _stage(timings, "ranking"):
                ranking = _ranking(rows, alpha)
            with _stage(timings, "writes"):
                save_json(ranking, out_dir / "ranking.json")
    finally:
        save_json(timings, out_dir / "timings.json")
    print(f"bench {suite}: {len(rows)} runs over {len(scenes)} scenes, {len(failures)} failed -> {out_dir}")
    return 0


def cmd_bench(args) -> int:
    suite = SUITE_TABLE[args.suite]
    methods = suite.methods if args.methods is None else args.methods
    timings: dict = {}
    with _stage(timings, "scenes"):
        tasks = suite.tasks(methods, _seed_count(args), args)
    # Each scene gives one row per method, and ranking two or more methods
    # needs U_TEST_MIN_SAMPLES rows each.
    scenes = len({task.scenario.name for task in tasks})
    if len(methods) > 1 and scenes < U_TEST_MIN_SAMPLES:
        raise UsageError(
            f"argument --seeds: must be at least {U_TEST_MIN_SAMPLES} scenes "
            f"to rank two or more methods, got {scenes}"
        )
    return _run_bench(args.suite, tasks, args.alpha, args.out_dir, timings)


def cmd_metrics(args) -> int:
    produced = Trajectory.from_dict(load_json(args.produced))
    reference = Trajectory.from_dict(load_json(args.reference))
    report = compute_metrics(produced, reference)
    if args.out:
        save_json(report, args.out)
    print(json_text(report.to_dict()))
    return 0


def cmd_rank(args) -> int:
    rows = read_metrics_csv(args.metrics)
    if not rows:
        raise ValueError("metrics file holds no rows")
    ranking = _ranking(rows, args.alpha)
    out = Path(args.out) if args.out else Path(args.metrics).parent / "ranking.json"
    save_json(ranking, out)
    print(json_text(ranking.to_dict()))
    return 0


def cmd_scenario_gen(args) -> int:
    files = SUITE_TABLE[args.suite].scenarios(_seed_count(args), args)
    target = args.out_dir / "scenarios" / args.suite
    for name, scenario in files:
        save_scenario(scenario, target / name)
    print(f"wrote {len(files)} scenarios under {target}")
    return 0


def _fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out-dir", type=Path, default=".", help="output directory")


def _transport_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--map", required=True, help="transport map JSON")
    parser.add_argument("--labels", required=True, help="policy labels JSON")
    parser.add_argument("--out-dir", type=Path, default=".", help="output directory")


def _corpus_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that choose a suite's corpus, shared by bench and scenario-gen."""
    parser.add_argument("--suite", required=True, choices=tuple(SUITE_TABLE))
    parser.add_argument("--seeds", type=_at_least(1), help="number of (test) seeds; default by suite")
    parser.add_argument("--train-seeds", type=_at_least(1), default=9, help="training seeds (frames)")
    parser.add_argument("--n-keypoints", type=_at_least(2), default=12, help="keypoints per surface")


def _bench_flags(parser: argparse.ArgumentParser) -> None:
    _corpus_flags(parser)
    ids = ", ".join(METHODS)
    parser.add_argument("--methods", type=_method_list, help=f"comma-separated method ids ({ids}); default by suite")
    parser.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    parser.add_argument("--out-dir", type=Path, default="bench-out", help="output directory")


def _metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--produced", required=True, help="trajectory JSON")
    parser.add_argument("--reference", required=True, help="trajectory JSON")
    parser.add_argument("--out", help="optional output JSON path")


def _rank_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", required=True, help="metrics CSV from bench")
    parser.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    parser.add_argument("--out", help="ranking JSON path")


def _scenario_gen_flags(parser: argparse.ArgumentParser) -> None:
    _corpus_flags(parser)
    parser.add_argument("--kpf", type=_at_least(1), default=5, help="keypoints per frame")
    parser.add_argument("--out-dir", type=Path, default=".", help="output directory")


@dataclass(frozen=True)
class Command:
    """A subcommand: its help line, ``flags(parser)``, which adds its
    arguments to its subparser, and ``run(args)``, which carries it out and
    returns the exit code."""

    help: str
    flags: Callable
    run: Callable


COMMAND_TABLE = {
    "fit": Command("fit a transport map to a scenario's keypoints", _fit_flags, cmd_fit),
    "transport": Command("transport labels through a fitted map", _transport_flags, cmd_transport),
    "bench": Command("run a benchmark suite", _bench_flags, cmd_bench),
    "metrics": Command("compare two trajectory files", _metrics_flags, cmd_metrics),
    "rank": Command("rank methods from a metrics CSV", _rank_flags, cmd_rank),
    "scenario-gen": Command("write scenario JSON corpora", _scenario_gen_flags, cmd_scenario_gen),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with ``command`` of that one
    alone. Both print the same usage line: the one-command parser names
    every command in it, as the full parser does from its choices."""
    parser = argparse.ArgumentParser(
        prog="poltrans",
        description="Keypoint-conditioned policy transportation toolkit",
    )
    # The one-command parser lists every command in its usage line through
    # a metavar. The full parser takes none: a metavar would also replace
    # "argument command" in its errors.
    metavar = None if command is None else "{" + ",".join(COMMAND_TABLE) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMAND_TABLE if command is None else (command,):
        entry = COMMAND_TABLE[name]
        entry.flags(sub.add_parser(name, help=entry.help))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call builds only its own command's parser; any other first word (no
    # command, -h, an unknown one) gets the full parser and its messages.
    parser = build_parser(argv[0] if argv and argv[0] in COMMAND_TABLE else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return COMMAND_TABLE[args.command].run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        # str() of a KeyError is the repr of its message; print the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
