"""Trajectory similarity metrics and nonparametric method ranking.

Five scalar metrics compare a produced trajectory with a reference:
discrete Frechet distance, area between the curves, dynamic time warping
cost, final position error, and final docking-angle error. Methods are
ranked by pairwise one-sided Mann-Whitney U tests: on each metric, a method
earns one point for every competitor over which its samples are
statistically lower, and methods are ordered by total points.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import norm, rankdata

from .types import Trajectory

# Docking angle averages the directions of this many final segments.
ANGLE_TAIL_SEGMENTS = 5
# Largest pooled sample size for which the U distribution is enumerated.
EXACT_U_LIMIT = 20
# Smallest sample either side of a U test may hold.
U_TEST_MIN_SAMPLES = 3


@dataclass(frozen=True)
class MetricReport:
    """Scalar similarity metrics between one trajectory and its reference."""

    frechet: float
    area_between: float
    dtw: float
    final_position_error: float
    final_angle_error: float

    def __post_init__(self):
        values = (
            self.frechet,
            self.area_between,
            self.dtw,
            self.final_position_error,
            self.final_angle_error,
        )
        if any(not np.isfinite(v) or v < 0 for v in values):
            raise ValueError("metrics must be finite and nonnegative")
        if self.final_angle_error > np.pi + 1e-12:
            raise ValueError("angle error must lie in [0, pi]")

    def to_dict(self) -> dict:
        return {
            "frechet": self.frechet,
            "area_between": self.area_between,
            "dtw": self.dtw,
            "final_position_error": self.final_position_error,
            "final_angle_error": self.final_angle_error,
        }


METRIC_NAMES = (
    "frechet",
    "area_between",
    "dtw",
    "final_position_error",
    "final_angle_error",
)


def _positions(traj) -> np.ndarray:
    if isinstance(traj, Trajectory):
        return traj.positions
    pts = np.atleast_2d(np.asarray(traj, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("trajectory positions must be finite")
    return pts


def _coupling_sweep(dist: np.ndarray, step) -> float:
    """Last cell of the coupling-lattice DP
    C[i, j] = step(d[i, j], min(C[i-1, j], C[i, j-1], C[i-1, j-1])),
    with cells off the lattice at +inf and C[0, 0] = d[0, 0].

    The cells of one anti-diagonal i + j = k depend only on diagonals k-1
    and k-2, so the sweep runs one diagonal per NumPy call. ``dist`` is
    skewed into an (m+n-1, m+1) array whose row k holds diagonal k at
    column i + 1; column 0 and the cells past the lattice stay +inf, so
    every diagonal reads the same shifted slices of its predecessors. Each
    row is overwritten in place by its DP values. Every cell applies min
    and ``step`` to the same operands as the cell-by-cell loop, so the
    result is bit-identical to it.
    """
    m, n = dist.shape
    rows = np.arange(m)[:, None]
    skew = np.full((m + n - 1, m + 1), np.inf)
    skew[rows + np.arange(n), rows + 1] = dist
    before = np.full(m + 1, np.inf)  # diagonal k-2; none precedes diagonal 1
    for k in range(1, m + n - 1):
        last, cells = skew[k - 1], skew[k, 1:]
        reach = np.minimum(last[:-1], last[1:])
        np.minimum(reach, before[:-1], out=reach)
        step(cells, reach, out=cells)
        before = last
    return float(skew[-1, m])


def frechet_distance(a, b) -> float:
    """Discrete Frechet distance between two polylines.

    Dynamic program over the coupling lattice:
    C[i, j] = max(d(a_i, b_j), min(C[i-1, j], C[i, j-1], C[i-1, j-1])),
    computed exactly (no band) one anti-diagonal at a time.
    """
    pa, pb = _positions(a), _positions(b)
    return _coupling_sweep(cdist(pa, pb), np.maximum)


def dtw_distance(a, b) -> float:
    """Dynamic time warping cost with steps {(1,0), (0,1), (1,1)}:
    the minimum cumulative Euclidean distance over monotone alignments,
    C[i, j] = d(a_i, b_j) + min(C[i-1, j], C[i, j-1], C[i-1, j-1]),
    computed exactly (no band) one anti-diagonal at a time."""
    pa, pb = _positions(a), _positions(b)
    return _coupling_sweep(cdist(pa, pb), np.add)


def _arclength_resample(points: np.ndarray, count: int) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = cum[-1]
    if total <= 0:
        return np.repeat(points[:1], count, axis=0)
    stations = np.linspace(0.0, total, count)
    out = np.empty((count, points.shape[1]))
    for axis in range(points.shape[1]):
        out[:, axis] = np.interp(stations, cum, points[:, axis])
    return out


def _signed_triangle_areas(p0, p1, p2) -> np.ndarray:
    d1 = p1 - p0
    d2 = p2 - p0
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def area_between_curves(a, b) -> float:
    """Total area of the quadrilateral strip spanned by two curves.

    Both curves are resampled by arc length to a common count; each
    consecutive pair of matched points forms a quadrilateral
    (a_i, a_{i+1}, b_{i+1}, b_i) whose shoelace area is accumulated as the
    absolute sum of its two signed triangles (so the result is invariant
    to swapping the curves). Degenerate (single-point) curves give 0.
    """
    pa, pb = _positions(a), _positions(b)
    if pa.shape[0] < 2 or pb.shape[0] < 2:
        raise ValueError("area metric needs at least two points per curve")
    if pa.shape[1] != 2 or pb.shape[1] != 2:
        raise ValueError("area metric requires planar curves")
    count = max(pa.shape[0], pb.shape[0])
    ra = _arclength_resample(pa, count)
    rb = _arclength_resample(pb, count)
    a0, a1, b0, b1 = ra[:-1], ra[1:], rb[:-1], rb[1:]
    terms = np.abs(_signed_triangle_areas(a0, a1, b1) + _signed_triangle_areas(a0, b1, b0))
    # Accumulated left to right: np.sum adds pairwise and changes the last bits.
    return float(np.cumsum(terms)[-1])


def final_position_error(a, b) -> float:
    """Euclidean distance between the trajectories' final points."""
    pa, pb = _positions(a), _positions(b)
    return float(np.linalg.norm(pa[-1] - pb[-1]))


def _tail_direction(points: np.ndarray) -> np.ndarray:
    segs = np.diff(points, axis=0)[-ANGLE_TAIL_SEGMENTS:]
    norms = np.linalg.norm(segs, axis=1)
    keep = norms > 0
    if not np.any(keep):
        raise ValueError("stationary tail: no direction defined")
    mean_dir = np.mean(segs[keep] / norms[keep, None], axis=0)
    length = np.linalg.norm(mean_dir)
    if length == 0:
        raise ValueError("stationary tail: no direction defined")
    return mean_dir / length


def final_angle_error(a, b) -> float:
    """Angle in [0, pi] between the mean final-approach directions.

    The approach direction averages the unit directions of the last
    ``ANGLE_TAIL_SEGMENTS`` segments (or all segments when fewer).
    """
    pa, pb = _positions(a), _positions(b)
    if pa.shape[0] < 2 or pb.shape[0] < 2:
        raise ValueError("angle metric needs at least two points per curve")
    da, db = _tail_direction(pa), _tail_direction(pb)
    cos = float(np.clip(np.dot(da, db), -1.0, 1.0))
    return float(np.arccos(cos))


def compute_metrics(produced, reference) -> MetricReport:
    """All five metrics of ``produced`` against ``reference``."""
    return MetricReport(
        frechet=frechet_distance(produced, reference),
        area_between=area_between_curves(produced, reference),
        dtw=dtw_distance(produced, reference),
        final_position_error=final_position_error(produced, reference),
        final_angle_error=final_angle_error(produced, reference),
    )


def mann_whitney_u(x, y, alpha: float = 0.05) -> tuple[float, float, bool]:
    """One-sided Mann-Whitney U test for "x stochastically lower than y".

    Returns (U statistic of x, one-sided p-value, significance flag at
    ``alpha``). Ranks are fractional under ties. For pooled sizes up to
    ``EXACT_U_LIMIT`` the null distribution is enumerated exactly
    (permutation over which pooled values belong to x); larger samples use
    the normal approximation with tie-corrected variance and continuity
    correction.
    """
    xs = np.asarray(x, dtype=float).ravel()
    ys = np.asarray(y, dtype=float).ravel()
    n1, n2 = xs.size, ys.size
    if n1 < U_TEST_MIN_SAMPLES or n2 < U_TEST_MIN_SAMPLES:
        raise ValueError(f"each sample needs at least {U_TEST_MIN_SAMPLES} values")
    pooled = np.concatenate([xs, ys])
    if np.all(pooled == pooled[0]):
        return float(n1 * n2 / 2.0), 1.0, False

    ranks = rankdata(pooled)
    u_x = float(np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0)

    n = n1 + n2
    if n <= EXACT_U_LIMIT:
        # Exact permutation p-value. Fractional ranks are half-integers, so
        # doubled ranks are integers and the subset rank-sum distribution
        # follows from a counting DP instead of explicit enumeration.
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        max_sum = int(np.sort(doubled)[-n1:].sum())
        table = np.zeros((n1 + 1, max_sum + 1), dtype=np.float64)
        table[0, 0] = 1.0
        for r2 in doubled:
            table[1:, r2:] += table[:-1, : max_sum + 1 - r2]
        base = n1 * (n1 + 1) / 2.0
        threshold = int(np.rint(2.0 * (u_x + base)))
        p = float(table[n1, : threshold + 1].sum()) / comb(n, n1)
    else:
        mean = n1 * n2 / 2.0
        _, tie_counts = np.unique(pooled, return_counts=True)
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
        var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
        if var <= 0:
            return u_x, 1.0, False
        z = (u_x + 0.5 - mean) / np.sqrt(var)
        p = float(norm.cdf(z))
    return u_x, float(p), bool(p < alpha)


@dataclass(frozen=True)
class RankingResult:
    """Point totals from pairwise tests and the resulting ordering.

    ``ranking`` lists (method, rank) pairs sorted by rank; tied methods
    share a rank (1 + number of methods with strictly more points).
    """

    points: dict
    per_metric_points: dict
    ranking: tuple

    def to_dict(self) -> dict:
        return {
            "points": dict(self.points),
            "per_metric_points": {
                metric: dict(scores) for metric, scores in self.per_metric_points.items()
            },
            "ranking": [[method, rank] for method, rank in self.ranking],
        }


def rank_methods(results: dict, alpha: float = 0.05) -> RankingResult:
    """Rank methods by pairwise one-sided U tests on every metric.

    ``results`` maps method id -> metric name -> sample array. All methods
    must cover the same metrics. For each metric and each ordered pair
    (a, b), method a earns one point when its samples are statistically
    lower than b's. The outcome is independent of the supplied ordering.
    """
    methods = sorted(results)
    if len(methods) < 2:
        raise ValueError("ranking needs at least two methods")
    metric_sets = [tuple(sorted(results[m])) for m in methods]
    if len(set(metric_sets)) != 1:
        raise ValueError("methods must cover identical metrics")
    metrics = metric_sets[0]

    points = {m: 0 for m in methods}
    per_metric = {}
    for metric in metrics:
        scores = {m: 0 for m in methods}
        for a, b in ((a, b) for a in methods for b in methods if a != b):
            _, _, lower = mann_whitney_u(results[a][metric], results[b][metric], alpha)
            if lower:
                scores[a] += 1
        per_metric[metric] = scores
        for m in methods:
            points[m] += scores[m]

    ordered = []
    for m in methods:
        rank = 1 + sum(points[o] > points[m] for o in methods)
        ordered.append((m, rank))
    ordered.sort(key=lambda mr: (mr[1], mr[0]))
    return RankingResult(points=points, per_metric_points=per_metric, ranking=tuple(ordered))


def write_metrics_csv(rows: list[dict], path) -> None:
    """Rows keyed by (method, scenario, repetition) with one column per
    metric, sorted for reproducible output."""
    header = ["scenario", "method", "repetition", *METRIC_NAMES]
    ordered = sorted(rows, key=lambda r: (r["scenario"], r["method"], r["repetition"]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in ordered:
            writer.writerow(
                [row["scenario"], row["method"], row["repetition"]]
                + [f"{float(row[name]):.17g}" for name in METRIC_NAMES]
            )


def read_metrics_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {
                "scenario": raw["scenario"],
                "method": raw["method"],
                "repetition": int(raw["repetition"]),
            }
            for name in METRIC_NAMES:
                row[name] = float(raw[name])
            rows.append(row)
    return rows


def save_ranking(result: RankingResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
