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
from dataclasses import dataclass, fields
from math import comb

import numpy as np

from ._scipy import ndtr
from .types import Trajectory, _as_batch, from_dict, to_dict

# Docking angle averages the directions of this many final segments.
ANGLE_TAIL_SEGMENTS = 5
# Largest pooled sample size for which the U distribution is enumerated.
EXACT_U_LIMIT = 20
# Smallest sample either side of a U test may hold.
U_TEST_MIN_SAMPLES = 3


def _check_metric(name: str, value: float) -> None:
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} is {value}: metrics must be finite and nonnegative")


@dataclass(frozen=True)
class MetricReport:
    """Scalar similarity metrics between one trajectory and its reference."""

    frechet: float
    area_between: float
    dtw: float
    final_position_error: float
    final_angle_error: float

    def __post_init__(self):
        for name, value in self.to_dict().items():
            _check_metric(name, value)
        if self.final_angle_error > np.pi + 1e-12:
            raise ValueError("angle error must lie in [0, pi]")

    to_dict = to_dict
    from_dict = classmethod(from_dict)


# The five metric names, in MetricReport's field order.
METRIC_NAMES = tuple(field.name for field in fields(MetricReport))


def _positions(traj) -> np.ndarray:
    if isinstance(traj, Trajectory):
        return traj.positions
    pts = _as_batch(traj, "trajectory positions")
    if 0 in pts.shape:
        raise ValueError("trajectory positions must form a nonempty (M, dim) array")
    return pts


def _pair_positions(a, b) -> tuple[np.ndarray, np.ndarray]:
    pa, pb = _positions(a), _positions(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"trajectories have dimensions {pa.shape[1]} and {pb.shape[1]}")
    return pa, pb


def _wavefront(a: np.ndarray, rb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frechet and DTW costs of B same-shape pairs: a is (dim, m, B) and
    rb is (dim, n, B), holding each b with its points reversed.

    Both costs are the last cell of a coupling-lattice DP
    C[i, j] = step(d[i, j], min(C[i-1, j], C[i, j-1], C[i-1, j-1])),
    with C[0, 0] = d[0, 0] and cells off the lattice at +inf; step is max
    for Frechet and + for DTW. The cells of one anti-diagonal i + j = k
    depend only on diagonals k-1 and k-2, so the sweep runs one diagonal of
    every lane per NumPy call. Lanes are the minor axis throughout: a
    diagonal is an (m+1, 2B) block whose row i + 1 holds cell (i, k-i) of
    the B Frechet lanes, then of the B DTW lanes. Row 0 and the rows a
    diagonal does not reach stay +inf, so each diagonal reads the same
    shifted row ranges of its two predecessors; three such blocks are
    reused in turn. Along a diagonal i runs over a contiguous row range of
    a and k - i over one of rb, so every operand of a diagonal is one
    contiguous (width, B) or (width, 2B) block, and its distances come
    straight from the points, summed over the axes in order like
    ``cdist``. Every cell applies min and step to the same operands as the
    cell-by-cell loop, so each lane is bit-identical to it.
    """
    dim, m, lanes = a.shape
    n = rb.shape[1]
    diagonals = np.full((3, m + 1, 2 * lanes), np.inf)
    dist = np.empty((m, lanes))
    term = np.empty((m, lanes))
    reach = np.empty((m, 2 * lanes))
    for k in range(m + n - 1):
        lo, hi = max(0, k - n + 1), min(m, k + 1)  # i over [lo, hi)
        width = hi - lo
        rows_b = slice(n - 1 - k + lo, n - 1 - k + hi)
        d, t = dist[:width], term[:width]
        np.subtract(a[0, lo:hi], rb[0, rows_b], out=d)
        np.multiply(d, d, out=d)
        for axis in range(1, dim):
            np.subtract(a[axis, lo:hi], rb[axis, rows_b], out=t)
            np.multiply(t, t, out=t)
            np.add(d, t, out=d)
        np.sqrt(d, out=d)
        cells = diagonals[k % 3, lo + 1 : hi + 1]
        if k == 0:
            cells[:, :lanes] = d
            cells[:, lanes:] = d
            continue
        last, before = diagonals[(k - 1) % 3], diagonals[(k - 2) % 3]
        r = reach[:width]
        np.minimum(last[lo:hi], last[lo + 1 : hi + 1], out=r)
        np.minimum(r, before[lo:hi], out=r)
        np.maximum(d, r[:, :lanes], out=cells[:, :lanes])
        np.add(d, r[:, lanes:], out=cells[:, lanes:])
    final = diagonals[(m + n - 2) % 3, m]
    return final[:lanes], final[lanes:]


def _coupling_costs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Frechet and DTW costs of every (a, b) position pair, one wavefront
    per group of pairs sharing (len(a), len(b), dim)."""
    groups: dict = {}
    for index, (pa, pb) in enumerate(pairs):
        groups.setdefault((pa.shape[0], pb.shape[0], pa.shape[1]), []).append(index)
    frechet = np.empty(len(pairs))
    dtw = np.empty(len(pairs))
    for members in groups.values():
        a = np.stack([pairs[i][0].T for i in members], axis=2)
        rb = np.stack([pairs[i][1][::-1].T for i in members], axis=2)
        frechet[members], dtw[members] = _wavefront(a, rb)
    return frechet, dtw


def frechet_distance(a, b) -> float:
    """Discrete Frechet distance between two polylines.

    Dynamic program over the coupling lattice:
    C[i, j] = max(d(a_i, b_j), min(C[i-1, j], C[i, j-1], C[i-1, j-1])),
    computed exactly (no band) one anti-diagonal at a time.
    """
    frechet, _ = _coupling_costs([_pair_positions(a, b)])
    return float(frechet[0])


def dtw_distance(a, b) -> float:
    """Dynamic time warping cost with steps {(1,0), (0,1), (1,1)}:
    the minimum cumulative Euclidean distance over monotone alignments,
    C[i, j] = d(a_i, b_j) + min(C[i-1, j], C[i, j-1], C[i-1, j-1]),
    computed exactly (no band) one anti-diagonal at a time."""
    _, dtw = _coupling_costs([_pair_positions(a, b)])
    return float(dtw[0])


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
    to swapping the curves). Each curve needs at least two points; a
    zero-length curve is resampled to copies of its first point.
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


def compute_metrics_batch(pairs) -> list:
    """``compute_metrics`` of every (produced, reference) pair, in order.

    Frechet and DTW of all pairs come from one batched wavefront, so a
    batch of same-length pairs costs about as many NumPy calls as one pair.
    A pair whose metrics fail yields its exception in place of a report;
    the other pairs' reports are unaffected.
    """
    outcomes: list = []
    swept = []
    owners = []  # outcome index of each swept pair
    for produced, reference in pairs:
        try:
            pa, pb = _pair_positions(produced, reference)
            others = {
                "area_between": area_between_curves(pa, pb),
                "final_position_error": final_position_error(pa, pb),
                "final_angle_error": final_angle_error(pa, pb),
            }
        except Exception as exc:
            outcomes.append(exc)
            continue
        owners.append(len(outcomes))
        outcomes.append(others)
        swept.append((pa, pb))
    frechet, dtw = _coupling_costs(swept)
    for lane, index in enumerate(owners):
        try:
            outcomes[index] = MetricReport(
                frechet=float(frechet[lane]), dtw=float(dtw[lane]), **outcomes[index]
            )
        except ValueError as exc:
            outcomes[index] = exc
    return outcomes


def compute_metrics(produced, reference) -> MetricReport:
    """All five metrics of ``produced`` against ``reference``."""
    (outcome,) = compute_metrics_batch([(produced, reference)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks in which tied values share the mean of the ranks
    they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(first) - 1]
    return ranks


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
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("U test samples must be finite")
    n1, n2 = xs.size, ys.size
    if n1 < U_TEST_MIN_SAMPLES or n2 < U_TEST_MIN_SAMPLES:
        raise ValueError(f"each sample needs at least {U_TEST_MIN_SAMPLES} values")
    pooled = np.concatenate([xs, ys])
    if np.all(pooled == pooled[0]):
        return float(n1 * n2 / 2.0), 1.0, False

    ranks = _average_ranks(pooled)
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
        # Not all pooled values are equal, so tie_term <= n - 2 (one tie of
        # n - 1 values at most) and var >= n1 n2 / 4 > 0.
        var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
        z = (u_x + 0.5 - mean) / np.sqrt(var)
        # Not 0.5 * math.erfc(-z / sqrt(2)): it differs from ndtr in the last bits.
        p = float(ndtr(z))
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

    to_dict = to_dict
    from_dict = classmethod(from_dict)


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


_CSV_COLUMNS = ("scenario", "method", "repetition", *METRIC_NAMES)


def write_metrics_csv(rows: list[dict], path) -> None:
    """Rows keyed by (method, scenario, repetition) with one column per
    metric, sorted for reproducible output."""
    ordered = sorted(rows, key=lambda r: (r["scenario"], r["method"], r["repetition"]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in ordered:
            writer.writerow(
                [row["scenario"], row["method"], row["repetition"]]
                + [f"{float(row[name]):.17g}" for name in METRIC_NAMES]
            )


def read_metrics_csv(path) -> list[dict]:
    """The rows of a ``write_metrics_csv`` file. A metric that is not
    finite and nonnegative, the check ``MetricReport`` makes, raises
    ValueError naming the path, the line and the column; a value that does
    not parse raises one naming the path and the line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in _CSV_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} is missing column(s): {', '.join(missing)}")
        rows = []
        for raw in reader:
            try:
                row = {
                    "scenario": raw["scenario"],
                    "method": raw["method"],
                    "repetition": int(raw["repetition"]),
                }
                for name in METRIC_NAMES:
                    row[name] = float(raw[name])
                    _check_metric(name, row[name])
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
            rows.append(row)
    return rows
