"""Trajectory similarity metrics and nonparametric method ranking.

Five scalar metrics compare a produced trajectory with a reference:
discrete Frechet distance, area between the curves, dynamic time warping
cost, final position error, and final docking-angle error. Methods are
ranked by pairwise one-sided Mann-Whitney U tests: on each metric, a method
earns one point for every competitor over which its samples are
statistically lower, and methods are ordered by total points. Like the
metrics, the tests are scored lane-wise: every metric's ordered method
pairs that share sample sizes are the lanes of one stacked pass, and
``mann_whitney_u`` is a one-lane call of the same kernel.
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
# The error of a final angle whose tail segments give no direction.
_STATIONARY_TAIL = "stationary tail: no direction defined"


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


def _lane_groups(pairs):
    """Each group of (a, b) position pairs that share (len(a), len(b), dim),
    as (indices of its pairs, a, b), with the group's curves stacked as the
    lanes of a (dim, m, L) and b (dim, n, L)."""
    groups: dict = {}
    for index, (pa, pb) in enumerate(pairs):
        groups.setdefault((pa.shape[0], pb.shape[0], pa.shape[1]), []).append(index)
    # Stacked into C-order arrays: np.stack alone would keep the points'
    # (point, axis) order in memory, and the wavefront reads a run of
    # points of one axis at a time.
    for (m, n, dim), members in groups.items():
        a = np.stack([pairs[i][0].T for i in members], axis=2, out=np.empty((dim, m, len(members))))
        b = np.stack([pairs[i][1].T for i in members], axis=2, out=np.empty((dim, n, len(members))))
        yield members, a, b


def _one_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """One (a, b) pair, checked as a batch's pairs are, as the single lane
    of a (dim, m, 1) and b (dim, n, 1) stack."""
    ((_, la, lb),) = _lane_groups([_pair_positions(a, b)])
    return la, lb


def _lane_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each lane's vectors, for u and v of shape (L, dim).

    The stacked (1, dim) @ (dim, 1) products run the BLAS dot of a 1-d
    ``np.dot`` or ``np.linalg.norm`` once per lane, on unit-stride rows as
    those calls see them, so each lane is bit-identical to them; a sum over
    an axis of the elementwise products rounds differently.
    """
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _wavefront(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frechet and DTW costs of each lane of a (dim, m, B) and b (dim, n, B).

    Both costs are the last cell of a coupling-lattice DP
    C[i, j] = step(d[i, j], min(C[i-1, j], C[i, j-1], C[i-1, j-1])),
    with C[0, 0] = d[0, 0] and cells off the lattice at +inf; step is max
    for Frechet and + for DTW. The cells of one anti-diagonal i + j = k
    depend only on diagonals k-1 and k-2, so the sweep runs one diagonal of
    every lane per NumPy call. Lanes are the minor axis throughout: a
    diagonal is a (2, m+1, B) array whose row i + 1 of half 0 holds cell
    (i, k-i) of the B Frechet lanes and of half 1 that of the B DTW lanes.
    Row 0 and the rows a diagonal does not reach stay +inf, so each
    diagonal reads the same shifted row ranges of its two predecessors;
    three such arrays are reused in turn. Along a diagonal i runs over a
    contiguous row range of a and k - i over one of b with its points
    reversed (copied once, so its rows run forward too), so every operand
    of a diagonal is one (width, B) block of contiguous rows per half, and
    its distances come straight from the points, summed over the axes in
    order like ``cdist``. Every cell applies min and step to the same
    operands as the cell-by-cell loop, so each lane is bit-identical to it.
    """
    dim, m, lanes = a.shape
    n = b.shape[1]
    rb = np.ascontiguousarray(b[:, ::-1])
    diagonals = np.full((3, 2, m + 1, lanes), np.inf)
    dist = np.empty((m, lanes))
    term = np.empty((m, lanes))
    reach = np.empty((2, m, lanes))
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
        cells = diagonals[k % 3, :, lo + 1 : hi + 1]
        if k == 0:
            cells[0] = d
            cells[1] = d
            continue
        last, before = diagonals[(k - 1) % 3], diagonals[(k - 2) % 3]
        r = reach[:, :width]
        np.minimum(last[:, lo:hi], last[:, lo + 1 : hi + 1], out=r)
        np.minimum(r, before[:, lo:hi], out=r)
        np.maximum(d, r[0], out=cells[0])
        np.add(d, r[1], out=cells[1])
    final = diagonals[(m + n - 2) % 3, :, m]
    return final[0], final[1]


def frechet_distance(a, b) -> float:
    """Discrete Frechet distance between two polylines.

    Dynamic program over the coupling lattice:
    C[i, j] = max(d(a_i, b_j), min(C[i-1, j], C[i, j-1], C[i-1, j-1])),
    computed exactly (no band) one anti-diagonal at a time.
    """
    frechet, _ = _wavefront(*_one_pair(a, b))
    return float(frechet[0])


def dtw_distance(a, b) -> float:
    """Dynamic time warping cost with steps {(1,0), (0,1), (1,1)}:
    the minimum cumulative Euclidean distance over monotone alignments,
    C[i, j] = d(a_i, b_j) + min(C[i-1, j], C[i, j-1], C[i-1, j-1]),
    computed exactly (no band) one anti-diagonal at a time."""
    _, dtw = _wavefront(*_one_pair(a, b))
    return float(dtw[0])


def _arclength_resample(points: np.ndarray, count: int) -> np.ndarray:
    """Each lane of a (2, m, L) stack resampled to ``count`` points equally
    spaced by arc length, one ``np.interp`` per lane and coordinate over the
    lane's cumulative arc length; a zero-length lane becomes copies of its
    first point."""
    _, m, lanes = points.shape
    seg = np.diff(points, axis=1)
    np.multiply(seg, seg, out=seg)
    cum = np.zeros((m, lanes))
    # Segment lengths summed as np.linalg.norm(axis=1) sums two squares.
    np.cumsum(np.sqrt(seg[0] + seg[1]), axis=0, out=cum[1:])
    moving = cum[-1] > 0
    # A zero stop would send every lane down linspace's other rounding path.
    stations = np.linspace(0.0, np.where(moving, cum[-1], 1.0), count)
    out = np.empty((2, count, lanes))
    for lane in range(lanes):
        for axis in range(2):
            out[axis, :, lane] = np.interp(stations[:, lane], cum[:, lane], points[axis, :, lane])
    out[:, :, ~moving] = points[:, :1, ~moving]
    return out


def _signed_triangle_areas(p0, p1, p2) -> np.ndarray:
    d1 = p1 - p0
    d2 = p2 - p0
    return 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])


def _area_lanes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``area_between_curves`` of each lane of a (dim, m, L) and b (dim, n, L)."""
    if a.shape[1] < 2 or b.shape[1] < 2:
        raise ValueError("area metric needs at least two points per curve")
    if a.shape[0] != 2 or b.shape[0] != 2:
        raise ValueError("area metric requires planar curves")
    count = max(a.shape[1], b.shape[1])
    ra = _arclength_resample(a, count)
    rb = _arclength_resample(b, count)
    a0, a1, b0, b1 = ra[:, :-1], ra[:, 1:], rb[:, :-1], rb[:, 1:]
    terms = np.abs(_signed_triangle_areas(a0, a1, b1) + _signed_triangle_areas(a0, b1, b0))
    # Accumulated in order: np.sum adds pairwise and changes the last bits.
    np.cumsum(terms, axis=0, out=terms)
    return terms[-1].copy()


def area_between_curves(a, b) -> float:
    """Total area of the quadrilateral strip spanned by two curves.

    Both curves are resampled by arc length to a common count; each
    consecutive pair of matched points forms a quadrilateral
    (a_i, a_{i+1}, b_{i+1}, b_i) whose shoelace area is accumulated as the
    absolute sum of its two signed triangles (so the result is invariant
    to swapping the curves). Each curve needs at least two points; a
    zero-length curve is resampled to copies of its first point.
    """
    return float(_area_lanes(*_one_pair(a, b))[0])


def _final_position_lanes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    gap = (a[:, -1] - b[:, -1]).T
    return np.sqrt(_lane_dot(gap, gap))


def final_position_error(a, b) -> float:
    """Euclidean distance between the trajectories' final points."""
    return float(_final_position_lanes(*_one_pair(a, b))[0])


def _tail_directions(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit mean direction, as an (L, dim) stack, of the last
    ``ANGLE_TAIL_SEGMENTS`` segments of each lane of a (dim, m, L) stack,
    and the mask of the lanes whose tail has no direction (every segment
    zero, or unit directions that cancel)."""
    # Each lane's tail points as the (points, dim) rows a lone curve has.
    segs = np.diff(points[:, -ANGLE_TAIL_SEGMENTS - 1 :].transpose(2, 1, 0), axis=1)
    norms = np.linalg.norm(segs, axis=2)
    keep = norms > 0
    # A zero segment adds 0 to the sum of the others' unit directions.
    units = np.divide(segs, norms[..., None], out=np.zeros_like(segs), where=keep[..., None])
    mean_dir = units.sum(axis=1) / np.maximum(keep.sum(axis=1), 1)[:, None]
    length = np.sqrt(_lane_dot(mean_dir, mean_dir))
    stationary = length == 0
    return mean_dir / np.where(stationary, 1.0, length)[:, None], stationary


def _angle_lanes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``final_angle_error`` of each lane of a (dim, m, L) and b (dim, n, L),
    and the mask of the lanes where either tail is stationary."""
    if a.shape[1] < 2 or b.shape[1] < 2:
        raise ValueError("angle metric needs at least two points per curve")
    da, stationary_a = _tail_directions(a)
    db, stationary_b = _tail_directions(b)
    return np.arccos(np.clip(_lane_dot(da, db), -1.0, 1.0)), stationary_a | stationary_b


def final_angle_error(a, b) -> float:
    """Angle in [0, pi] between the mean final-approach directions.

    The approach direction averages the unit directions of the last
    ``ANGLE_TAIL_SEGMENTS`` segments (or all segments when fewer).
    """
    angle, stationary = _angle_lanes(*_one_pair(a, b))
    if stationary[0]:
        raise ValueError(_STATIONARY_TAIL)
    return float(angle[0])


def _score_lanes(a: np.ndarray, b: np.ndarray) -> list:
    """The MetricReport of each lane of a (dim, m, L) and b (dim, n, L), or
    the exception that fails the lane."""
    lanes = a.shape[2]
    try:
        area = _area_lanes(a, b)
    except ValueError as exc:  # a shape that every lane of the group shares
        return [ValueError(*exc.args) for _ in range(lanes)]
    position = _final_position_lanes(a, b)
    angle, stationary = _angle_lanes(a, b)
    frechet, dtw = _wavefront(a, b)
    outcomes: list = []
    for lane in range(lanes):
        try:
            if stationary[lane]:
                raise ValueError(_STATIONARY_TAIL)
            outcomes.append(
                MetricReport(
                    frechet=float(frechet[lane]),
                    area_between=float(area[lane]),
                    dtw=float(dtw[lane]),
                    final_position_error=float(position[lane]),
                    final_angle_error=float(angle[lane]),
                )
            )
        except ValueError as exc:
            outcomes.append(exc)
    return outcomes


def compute_metrics_batch(pairs) -> list:
    """``compute_metrics`` of every (produced, reference) pair, in order.

    Pairs that share (len(produced), len(reference), dim) are scored as
    the lanes of one group: each metric runs once per group, so a batch of
    same-length pairs costs about as many NumPy calls as one pair. A pair
    whose metrics fail yields its own exception in place of a report; the
    other pairs' reports are unaffected.
    """
    outcomes: list = []
    positions = []
    owners = []  # outcome index of each entry of positions
    for produced, reference in pairs:
        try:
            positions.append(_pair_positions(produced, reference))
        except Exception as exc:
            outcomes.append(exc)
            continue
        owners.append(len(outcomes))
        outcomes.append(None)
    for members, a, b in _lane_groups(positions):
        for lane, outcome in zip(members, _score_lanes(a, b)):
            outcomes[owners[lane]] = outcome
    return outcomes


def compute_metrics(produced, reference) -> MetricReport:
    """All five metrics of ``produced`` against ``reference``."""
    (outcome,) = compute_metrics_batch([(produced, reference)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks along the last axis of ``values``, in which tied values
    share the mean of the ranks they span, and each lane's tie sum
    sum(t**3 - t) over its runs of t tied values, an exact integer."""
    n = values.shape[-1]
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    # A run of ties covers the sorted places [start, end): start is the last
    # place at or before each place that opens a run, end the first place
    # after it that opens one, or n.
    opens = np.ones(values.shape, dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=opens[..., 1:])
    place = np.arange(n)
    start = np.maximum.accumulate(np.where(opens, place, 0), axis=-1)
    next_open = np.full(values.shape, n)
    next_open[..., :-1] = np.where(opens[..., 1:], place[1:], n)
    end = np.flip(np.minimum.accumulate(np.flip(next_open, axis=-1), axis=-1), axis=-1)
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, 0.5 * (start + end + 1), axis=-1)
    runs = end - start
    return ranks, np.where(opens, runs**3 - runs, 0).sum(axis=-1)


def _exact_p(ranks: np.ndarray, n1: int, u_x: float) -> float:
    """Exact permutation p-value of one lane's pooled ranks. Fractional
    ranks are half-integers, so doubled ranks are integers and the subset
    rank-sum distribution follows from a counting DP instead of explicit
    enumeration."""
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    max_sum = int(np.sort(doubled)[-n1:].sum())
    table = np.zeros((n1 + 1, max_sum + 1), dtype=np.float64)
    table[0, 0] = 1.0
    for r2 in doubled:
        table[1:, r2:] += table[:-1, : max_sum + 1 - r2]
    base = n1 * (n1 + 1) / 2.0
    threshold = int(np.rint(2.0 * (u_x + base)))
    return float(table[n1, : threshold + 1].sum()) / comb(ranks.size, n1)


def _u_lanes(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U statistic of x and one-sided p-value of each lane of finite samples
    x (L, n1) and y (L, n2), each of at least ``U_TEST_MIN_SAMPLES`` values."""
    n1, n2 = x.shape[1], y.shape[1]
    n = n1 + n2
    ranks, ties = _average_ranks(np.concatenate((x, y), axis=1))
    # Sums of half-integers, exact in any order.
    u = ranks[:, :n1].sum(axis=1) - n1 * (n1 + 1) / 2.0
    # One run of all n values has the largest tie sum, n**3 - n.
    constant = ties == n**3 - n
    if n <= EXACT_U_LIMIT:
        p = np.array([
            1.0 if flat else _exact_p(lane, n1, lane_u)
            for lane, lane_u, flat in zip(ranks, u, constant.tolist())
        ])
    else:
        mean = n1 * n2 / 2.0
        tie_term = ties / (n * (n - 1))
        # Where not all pooled values are equal, tie_term <= n - 2 (one tie
        # of n - 1 values at most) and var >= n1 n2 / 4 > 0.
        var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
        z = (u + 0.5 - mean) / np.sqrt(np.where(constant, 1.0, var))
        # Not 0.5 * math.erfc(-z / sqrt(2)): it differs from ndtr in the last bits.
        p = np.where(constant, 1.0, ndtr(z))
    return u, p


def _u_tests(pairs) -> tuple[np.ndarray, np.ndarray]:
    """U statistic of x and one-sided p-value of every (x, y) sample pair,
    in order. Pairs that share (len(x), len(y)) are scored as the lanes of
    one ``_u_lanes`` pass. The first pair, in order, with a non-finite value
    or a sample of fewer than ``U_TEST_MIN_SAMPLES`` values raises
    ValueError, checked in that order."""
    groups: dict = {}
    for index, (x, y) in enumerate(pairs):
        xs = np.asarray(x, dtype=float).ravel()
        ys = np.asarray(y, dtype=float).ravel()
        members, xl, yl = groups.setdefault((xs.size, ys.size), ([], [], []))
        members.append(index)
        xl.append(xs)
        yl.append(ys)
    stacks, errors = [], []
    for (n1, n2), (members, xl, yl) in groups.items():
        x, y = np.stack(xl), np.stack(yl)
        finite = (np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)).tolist()
        if not all(finite):
            errors.append((members[finite.index(False)], "U test samples must be finite"))
        if min(n1, n2) < U_TEST_MIN_SAMPLES and any(finite):
            errors.append((members[finite.index(True)], f"each sample needs at least {U_TEST_MIN_SAMPLES} values"))
        stacks.append((members, x, y))
    if errors:
        raise ValueError(min(errors)[1])
    u, p = np.empty(len(pairs)), np.empty(len(pairs))
    for members, x, y in stacks:
        u[members], p[members] = _u_lanes(x, y)
    return u, p


def mann_whitney_u(x, y, alpha: float = 0.05) -> tuple[float, float, bool]:
    """One-sided Mann-Whitney U test for "x stochastically lower than y".

    Returns (U statistic of x, one-sided p-value, significance flag at
    ``alpha``). Ranks are fractional under ties; if all pooled values are
    equal, p is 1. For pooled sizes up to ``EXACT_U_LIMIT`` the null
    distribution is enumerated exactly (permutation over which pooled
    values belong to x); larger samples use the normal approximation with
    tie-corrected variance and continuity correction. It is a one-lane
    call of ``_u_tests``, which ``rank_methods`` scores all its pairs with.
    """
    u, p = _u_tests([(x, y)])
    return float(u[0]), float(p[0]), bool(p[0] < alpha)


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
    lower than b's; all the pairs' tests run as the lanes of one
    ``_u_tests`` call, and the first pair whose samples cannot be tested
    raises. The outcome is independent of the supplied ordering.
    """
    methods = sorted(results)
    if len(methods) < 2:
        raise ValueError("ranking needs at least two methods")
    metric_sets = [tuple(sorted(results[m])) for m in methods]
    if len(set(metric_sets)) != 1:
        raise ValueError("methods must cover identical metrics")
    metrics = metric_sets[0]

    # Every metric's ordered method pairs (a, b), scored as lanes of one pass.
    lanes = [(metric, a, b) for metric in metrics for a in methods for b in methods if a != b]
    _, p = _u_tests([(results[a][metric], results[b][metric]) for metric, a, b in lanes])
    points = {m: 0 for m in methods}
    per_metric = {metric: {m: 0 for m in methods} for metric in metrics}
    for (metric, a, _), lower in zip(lanes, (p < alpha).tolist()):
        if lower:
            per_metric[metric][a] += 1
            points[a] += 1

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
    """The rows of a ``write_metrics_csv`` file. A row of another length
    than the header, a value that does not parse, or a metric that is not
    finite and nonnegative (the check ``MetricReport`` makes) raises
    ValueError naming the path, the line and the cause."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in _CSV_COLUMNS if name not in header]
        if missing:
            raise ValueError(f"{path} is missing column(s): {', '.join(missing)}")
        rows = []
        for cells in filter(None, reader):  # skip blank lines
            try:
                if len(cells) != len(header):
                    raise ValueError(f"row has {len(cells)} cells, the header has {len(header)}")
                raw = dict(zip(header, cells))
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
