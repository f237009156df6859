"""Command-line front end: fit, transport, bench, metrics, rank, scenario-gen.

Exit codes: 0 success, 1 runtime failure (missing/invalid files, numeric
failure), 2 usage error (unknown subcommand, method, or suite).

Both bench suites reduce to a list of cells, one per scene x method x
repetition, which ``_run_bench`` runs on a thread pool capped by the
POLTRANS_THREADS environment variable. Each scene's inputs (scenario,
keypoint pairs, demonstration) are built once, before the pool, and every
cell of the scene carries them. It writes deterministically ordered
artifacts: metrics.csv (timing deliberately excluded so reruns are
bitwise identical across worker counts), ranking.json, one SVG overlay per
scene, report.json with gpt's timings, keypoint error and det J > 0
percentage per scene, and failures.json listing each failed cell with the
stage that failed (method or metrics), its exception type and message. The
methods run on the pool; the metrics of every cell are computed afterwards
in one batch. A scene whose gpt map has a non-positive Jacobian determinant
somewhere on the demonstration gets a warning on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

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
from .types import PairedKeypoints, PointSet, PolicyLabels, Trajectory, load_json, validate_labels
from .svgplot import SvgScene

METHODS = ("gpt", "le", "reshaped_kmp", "lwt")
SUITES = ("surfaces", "frames")
# Frame benchmarks give assignment-based reshapers fewer keypoints per frame
# (pairing more is ambiguous for them); map-based methods use all five.
FRAME_KPF = {"gpt": 5, "lwt": 5, "le": 2, "reshaped_kmp": 2}
# Frame corpus seeds: training scenes count up from one base, test scenes
# from the other, so the files scenario-gen writes are the frames bench's
# own inputs.
FRAME_TRAIN_SEED = 100
FRAME_TEST_SEED = 200
# Per-scene entries of report.json, taken from gpt's run bookkeeping.
GPT_REPORT_FIELDS = (
    "fit_seconds",
    "transport_seconds",
    "keypoint_error_max",
    "keypoint_error_mean",
    "det_positive_pct",
)
_METHOD_COLORS = {
    "gpt": "#1f77b4",
    "le": "#2ca02c",
    "reshaped_kmp": "#9467bd",
    "lwt": "#8c564b",
}


class UsageError(Exception):
    pass


def _worker_count() -> int:
    env = os.environ.get("POLTRANS_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"POLTRANS_THREADS must be an integer, got {env!r}") from exc
    return max(1, min(4, os.cpu_count() or 1))


def _load_config(args) -> dict:
    """Merge an optional --config JSON file under the CLI flags: a flag set
    on the command line wins; config supplies defaults otherwise."""
    if not getattr(args, "config", None):
        return {}
    path = Path(args.config)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    for key in ("scenario", "map", "labels"):
        ref = cfg.get(key)
        if ref is not None and not Path(ref).exists():
            raise UsageError(f"config references missing file: {ref}")
    return cfg


def _setting(args, cfg: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if cfg.get(name) is not None:
        return cfg[name]
    return default


def _at_least(args, cfg: dict, name: str, default: int, minimum: int) -> int:
    value = int(_setting(args, cfg, name, default))
    if value < minimum:
        flag = "--" + name.replace("_", "-")
        raise UsageError(f"{flag} must be at least {minimum}, got {value}")
    return value


def _check_method(method: str) -> str:
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}; valid ids: {', '.join(METHODS)}")
    return method


def _check_suite(suite: str) -> str:
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")
    return suite


def _write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    method = _check_method(_setting(args, cfg, "method", "gpt"))
    if method != "gpt":
        raise UsageError(
            f"method {method!r} does not produce a transport map; "
            "use 'gpt' here (baselines run under 'bench')"
        )
    scenario_path = _setting(args, cfg, "scenario")
    if scenario_path is None:
        raise UsageError("a scenario file is required (--scenario or config)")
    out_dir = Path(_setting(args, cfg, "out_dir", "."))

    kp = load_scenario(scenario_path).keypoints
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

    out_dir.mkdir(parents=True, exist_ok=True)
    save_transport_map(tmap, out_dir / "map.json")
    _write_json(report, out_dir / "fit_report.json")
    print(
        f"fit: {kp.n} keypoints in {fit_seconds:.3f}s, "
        f"max mismatch {report['keypoint_error_max']:.3e} -> {out_dir / 'map.json'}"
    )
    return 0


def cmd_transport(args) -> int:
    cfg = _load_config(args)
    map_path = _setting(args, cfg, "map")
    labels_path = _setting(args, cfg, "labels")
    if map_path is None or labels_path is None:
        raise UsageError("both a map file and a labels file are required")
    out_dir = Path(_setting(args, cfg, "out_dir", "."))

    tmap = load_transport_map(map_path)
    labels = PolicyLabels.from_dict(load_json(labels_path))
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
        # eigvalsh returns each spectrum in ascending order
        drift = np.abs(np.linalg.eigvalsh(labels.stiffness) - np.linalg.eigvalsh(moved.stiffness))
        report["stiffness_spectrum_max_drift"] = float(drift.max())

    out_dir.mkdir(parents=True, exist_ok=True)
    moved.to_csv(out_dir / "transported.csv")
    _write_json(report, out_dir / "transport_report.json")
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
    kp2 = PairedKeypoints(
        source=PointSet(affine.apply(kp.source.points)),
        target=kp.target,
    )
    return demo2, kp2


def _run_method(method: str, kp: PairedKeypoints, demo: Trajectory, topology: str):
    """Produce the transported demonstration plus bench bookkeeping.

    Returns (trajectory, extras); for gpt, extras carries the timings, the
    posterior standard deviation along the path (``band_sigma``), keypoint
    accuracy and det(J) statistics, and it is empty for the baselines.
    """
    extras: dict = {}
    if method == "gpt":
        start = time.perf_counter()
        tmap = fit_transport(kp)
        extras["fit_seconds"] = time.perf_counter() - start
        start = time.perf_counter()
        positions, variance = transport_points(tmap, demo.positions)
        extras["transport_seconds"] = time.perf_counter() - start
        extras["band_sigma"] = np.sqrt(np.maximum(variance, 0.0))
        extras["keypoint_error_max"] = float(tmap.keypoint_errors.max())
        extras["keypoint_error_mean"] = float(tmap.keypoint_errors.mean())
        diffeo = check_local_diffeomorphism(tmap, demo.positions)
        extras["det_positive_pct"] = 100.0 * diffeo.fraction_positive
        return Trajectory(positions=positions, times=demo.times), extras

    demo2, kp2 = _gamma_pretransform(kp, demo)
    if method == "lwt":
        positions = apply_lwt(fit_lwt(kp2), demo2.positions)
        return Trajectory(positions=positions, times=demo2.times), extras

    assignment = assign_via_points(demo2, kp2)
    if method == "le":
        return laplacian_edit(demo2, assignment, topology=topology), extras
    return reshaped_kmp(demo2, assignment), extras


def _scene_svg(path: Path, demo, reference, produced: dict, keypoints, bands: dict) -> None:
    scene = SvgScene()
    for method, traj in sorted(produced.items()):
        if method in bands:
            scene.band(traj.positions, 2.0 * bands[method], fill="#ffa500", opacity=0.35)
    scene.polyline(demo.positions, color="#999999", width=1.2, dash="6,4")
    scene.polyline(reference.positions, color="#000000", width=1.8)
    for method, traj in sorted(produced.items()):
        scene.polyline(traj.positions, color=_METHOD_COLORS.get(method, "#e377c2"), width=1.6)
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


@dataclass(frozen=True)
class BenchCell:
    """One scene x method run: the scene's scenario (its reference scores
    the result and it is drawn in the SVG), the keypoint pairs the method
    conditions on, and the demonstration it transports. The cells of one
    scene share these inputs; the methods may, because the arrays inside
    are frozen (``types._freeze``)."""

    method: str
    topology: str
    scenario: SurfaceScenario | FrameScenario
    keypoints: PairedKeypoints
    demonstration: Trajectory


def _surface_scenarios(seeds: int, n_keypoints: int) -> list[SurfaceScenario]:
    """The surfaces corpus: every profile at seeds 0 .. seeds - 1."""
    return [
        make_surface_scenario(profile, n_keypoints=n_keypoints, seed=seed)
        for profile in SURFACE_PROFILES
        for seed in range(seeds)
    ]


def _surface_cells(methods, seeds: int, n_keypoints: int) -> list[BenchCell]:
    return [
        BenchCell(method, "ring", scenario, scenario.keypoints, scenario.demonstration)
        for scenario in _surface_scenarios(seeds, n_keypoints)
        for method in methods
    ]


def _frame_seeds(seeds: int, train_seeds: int) -> tuple[range, range]:
    """(train, test) seeds of a frames corpus."""
    return (
        range(FRAME_TRAIN_SEED, FRAME_TRAIN_SEED + train_seeds),
        range(FRAME_TEST_SEED, FRAME_TEST_SEED + seeds),
    )


def _frame_cells(methods, seeds: int, train_seeds: int) -> list[BenchCell]:
    train_ids, test_ids = _frame_seeds(seeds, train_seeds)
    cells = []
    for test_seed in test_ids:
        rng = np.random.default_rng(test_seed)
        train_seed = train_ids[int(rng.integers(len(train_ids)))]
        inputs = {}
        for kpf in {FRAME_KPF[method] for method in methods}:
            train = random_frame_scenario(train_seed, keypoints_per_frame=kpf)
            test = random_frame_scenario(test_seed, keypoints_per_frame=kpf)
            # The training demonstration, recorded at its own frames, moves to the test frames.
            inputs[kpf] = (test, frame_pairing(train, test), train.reference)
        cells += [BenchCell(method, "chain", *inputs[FRAME_KPF[method]]) for method in methods]
    return cells


def _run_cell(cell: BenchCell):
    """(produced, extras, error) for one cell; a method failure becomes a
    missing sample and the bench continues."""
    try:
        produced, extras = _run_method(cell.method, cell.keypoints, cell.demonstration, cell.topology)
    except Exception as exc:
        return None, None, exc
    return produced, extras, None


def _run_bench(suite: str, cells: list[BenchCell], alpha: float, out_dir: Path) -> int:
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        outcomes = list(pool.map(_run_cell, cells))
    # Scored after the pool in one batch, so Frechet and DTW run as one
    # wavefront over every cell instead of one per cell.
    scored = iter(compute_metrics_batch([
        (produced, cell.scenario.reference)
        for cell, (produced, _, error) in zip(cells, outcomes)
        if error is None
    ]))

    rows = []
    failures = []
    gpt_reports: dict = {}
    scenes: dict = {}
    for cell, (produced, extras, error) in zip(cells, outcomes):
        scene = cell.scenario.name
        stage = "method"
        if error is None:
            report = next(scored)
            if isinstance(report, Exception):
                error, stage = report, "metrics"
        if error is not None:
            failures.append(
                {"scenario": scene, "method": cell.method, "stage": stage,
                 "error": str(error), "type": type(error).__name__}
            )
            continue
        row = {"scenario": scene, "method": cell.method, "repetition": cell.scenario.seed}
        row.update(report.to_dict())
        rows.append(row)
        # The first successful cell of a scene in task order supplies its scenario.
        bundle = scenes.setdefault(scene, {"scenario": cell.scenario, "produced": {}, "bands": {}})
        bundle["produced"][cell.method] = produced
        if cell.method == "gpt":
            bundle["bands"]["gpt"] = extras["band_sigma"]
            gpt_reports[scene] = {key: extras[key] for key in GPT_REPORT_FIELDS}

    for name, entry in sorted(gpt_reports.items()):
        if entry["det_positive_pct"] < 100.0:
            print(
                f"warning: {name}: gpt det(J) > 0 on only {entry['det_positive_pct']:.1f}% "
                "of the demonstration",
                file=sys.stderr,
            )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(rows, out_dir / "metrics.csv")
    if gpt_reports:
        _write_json(gpt_reports, out_dir / "report.json")
    if failures:
        _write_json({"failures": failures}, out_dir / "failures.json")
    for name, bundle in sorted(scenes.items()):
        scenario = bundle["scenario"]
        _scene_svg(
            out_dir / "svg" / f"{name}.svg",
            scenario.demonstration,
            scenario.reference,
            bundle["produced"],
            scenario.keypoints,
            bundle["bands"],
        )
    # Ranking last: its error (too few rows for a U test) loses no other artifact.
    if rows:
        _write_json(_ranking(rows, alpha).to_dict(), out_dir / "ranking.json")
    print(f"bench {suite}: {len(rows)} runs over {len(scenes)} scenes, {len(failures)} failed -> {out_dir}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    suite = _check_suite(_setting(args, cfg, "suite"))
    raw_methods = _setting(args, cfg, "methods")
    if raw_methods is None:
        methods = list(METHODS) if suite == "surfaces" else ["gpt", "le"]
    else:
        if isinstance(raw_methods, str):
            raw_methods = [m.strip() for m in raw_methods.split(",") if m.strip()]
        methods = [_check_method(m) for m in raw_methods]
    out_dir = Path(_setting(args, cfg, "out_dir", "bench-out"))
    alpha = float(_setting(args, cfg, "alpha", 0.05))

    if suite == "surfaces":
        seeds = _at_least(args, cfg, "seeds", 3, 1)
        n_keypoints = _at_least(args, cfg, "n_keypoints", 12, 2)
        cells = _surface_cells(methods, seeds, n_keypoints)
    else:
        # Each frame scene gives one row per method, and ranking two or
        # more methods needs U_TEST_MIN_SAMPLES rows each.
        min_seeds = U_TEST_MIN_SAMPLES if len(set(methods)) > 1 else 1
        seeds = _at_least(args, cfg, "seeds", 20, min_seeds)
        train_seeds = _at_least(args, cfg, "train_seeds", 9, 1)
        cells = _frame_cells(methods, seeds, train_seeds)
    return _run_bench(suite, cells, alpha, out_dir)


def cmd_metrics(args) -> int:
    produced = Trajectory.from_dict(load_json(args.produced))
    reference = Trajectory.from_dict(load_json(args.reference))
    report = compute_metrics(produced, reference)
    payload = report.to_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _write_json(payload, Path(args.out))
    print(text)
    return 0


def cmd_rank(args) -> int:
    rows = read_metrics_csv(args.metrics)
    if not rows:
        raise ValueError("metrics file holds no rows")
    ranking = _ranking(rows, args.alpha)
    out = Path(args.out) if args.out else Path(args.metrics).parent / "ranking.json"
    _write_json(ranking.to_dict(), out)
    print(json.dumps(ranking.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_scenario_gen(args) -> int:
    cfg = _load_config(args)
    suite = _check_suite(_setting(args, cfg, "suite"))
    out_dir = Path(_setting(args, cfg, "out_dir", "."))

    if suite == "surfaces":
        scenarios = _surface_scenarios(
            _at_least(args, cfg, "seeds", 3, 1), _at_least(args, cfg, "n_keypoints", 12, 2)
        )
        target = out_dir / "scenarios" / "surfaces"
        target.mkdir(parents=True, exist_ok=True)
        for scenario in scenarios:
            save_scenario(scenario, target / f"{scenario.profile}-{scenario.seed}.json")
        print(f"wrote {len(scenarios)} surface scenarios under {target}")
        return 0

    seeds = _at_least(args, cfg, "seeds", 20, 1)
    train_seeds = _at_least(args, cfg, "train_seeds", 9, 1)
    kpf = _at_least(args, cfg, "kpf", 5, 1)
    target = out_dir / "scenarios" / "frames"
    target.mkdir(parents=True, exist_ok=True)
    for role, ids in zip(("train", "test"), _frame_seeds(seeds, train_seeds)):
        for seed in ids:
            save_scenario(random_frame_scenario(seed, keypoints_per_frame=kpf), target / f"{role}-{seed}.json")
    print(f"wrote {train_seeds + seeds} frame scenarios under {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poltrans",
        description="Keypoint-conditioned policy transportation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a transport map to a scenario's keypoints")
    fit.add_argument("--scenario", help="scenario JSON file")
    fit.add_argument("--method", help="method id (map fitting supports gpt)")
    fit.add_argument("--config", help="JSON config supplying defaults")
    fit.add_argument("--out-dir", dest="out_dir", help="output directory")
    fit.set_defaults(func=cmd_fit)

    transport = sub.add_parser("transport", help="transport labels through a fitted map")
    transport.add_argument("--map", help="transport map JSON")
    transport.add_argument("--labels", help="policy labels JSON")
    transport.add_argument("--config", help="JSON config supplying defaults")
    transport.add_argument("--out-dir", dest="out_dir", help="output directory")
    transport.set_defaults(func=cmd_transport)

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("--suite", help="surfaces or frames")
    bench.add_argument("--methods", help="comma-separated method ids")
    bench.add_argument("--seeds", type=int, help="number of (test) seeds")
    bench.add_argument("--train-seeds", dest="train_seeds", type=int, help="training seeds (frames)")
    bench.add_argument("--n-keypoints", dest="n_keypoints", type=int, help="keypoints per surface")
    bench.add_argument("--alpha", type=float, help="significance level")
    bench.add_argument("--config", help="JSON config supplying defaults")
    bench.add_argument("--out-dir", dest="out_dir", help="output directory")
    bench.set_defaults(func=cmd_bench)

    metrics = sub.add_parser("metrics", help="compare two trajectory files")
    metrics.add_argument("--produced", required=True, help="trajectory JSON")
    metrics.add_argument("--reference", required=True, help="trajectory JSON")
    metrics.add_argument("--out", help="optional output JSON path")
    metrics.set_defaults(func=cmd_metrics)

    rank = sub.add_parser("rank", help="rank methods from a metrics CSV")
    rank.add_argument("--metrics", required=True, help="metrics CSV from bench")
    rank.add_argument("--alpha", type=float, default=0.05)
    rank.add_argument("--out", help="ranking JSON path")
    rank.set_defaults(func=cmd_rank)

    gen = sub.add_parser("scenario-gen", help="write scenario JSON corpora")
    gen.add_argument("--suite", help="surfaces or frames")
    gen.add_argument("--seeds", type=int, help="seeds per profile / test seeds")
    gen.add_argument("--train-seeds", dest="train_seeds", type=int)
    gen.add_argument("--n-keypoints", dest="n_keypoints", type=int)
    gen.add_argument("--kpf", type=int, help="keypoints per frame")
    gen.add_argument("--config", help="JSON config supplying defaults")
    gen.add_argument("--out-dir", dest="out_dir", help="output directory")
    gen.set_defaults(func=cmd_scenario_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
