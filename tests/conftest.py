"""Shared instance builders and independent reference implementations.

The reference implementations here ("oracles") deliberately re-derive
results by exhaustive enumeration, dense linear algebra, grid search or
plain cell-by-cell loops -- different code paths than the package itself
uses -- so the tests cross-check the implementation instead of restating it.
"""

import csv
import itertools
from functools import lru_cache
from math import comb

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from poltrans import PairedKeypoints, PointSet, cli
from poltrans.baselines import LWT_STEP_RATIO, apply_lwt
from poltrans.gp import LENGTHSCALE_GRID, NOISE_FLOOR_RATIO, PolishResult, _brent
from poltrans._scipy import ndtr
from poltrans.metrics import (
    ANGLE_TAIL_SEGMENTS,
    EXACT_U_LIMIT,
    U_TEST_MIN_SAMPLES,
    MetricReport,
    _pair_positions,
    dtw_distance,
    frechet_distance,
)
from poltrans.scenarios import _PROFILES
from poltrans.transport import NEAR_SINGULAR_RATIO, match_tolerance
from poltrans.types import ORIENTATION_TOL, SPD_TOL, Violation, rotation_residual


# ---------------------------------------------------------------------------
# random instance builders


def rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_rotation(rng, dim: int) -> np.ndarray:
    """Uniform-ish random rotation matrix (2D by angle, 3D via QR)."""
    if dim == 2:
        return rotation_2d(rng.uniform(-np.pi, np.pi))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def random_rigid_pair(rng, n: int = 8, dim: int = 2):
    """Keypoints related by an exact rotation plus translation.

    Returns (pairing, rotation, shift) so tests can compare against the
    generating transform.
    """
    source = rng.uniform(-1.0, 1.0, (n, dim))
    rot = random_rotation(rng, dim)
    shift = rng.uniform(-2.0, 2.0, dim)
    target = source @ rot.T + shift
    return PairedKeypoints(PointSet(source), PointSet(target)), rot, shift


def random_smooth_pair(rng, n: int = 10, amplitude: float = 0.12) -> PairedKeypoints:
    """Keypoints under a rigid motion plus a smooth sinusoidal warp."""
    source = rng.uniform(-1.0, 1.0, (n, 2))
    rot = rotation_2d(rng.uniform(-0.7, 0.7))
    shift = rng.uniform(-1.0, 1.0, 2)
    base = source @ rot.T + shift
    warp = amplitude * np.stack(
        [np.sin(1.7 * base[:, 1]), np.cos(1.3 * base[:, 0])], axis=1
    )
    return PairedKeypoints(PointSet(source), PointSet(base + warp))


def fold_pair() -> PairedKeypoints:
    """Keypoints densely sampling a smooth map that folds the plane.

    A 13x2 grid is displaced along x by a Gaussian dip deep enough that
    x + delta(x) is non-monotone: d/dx = 1 + delta'(x) dips to about -0.74
    around x = 1.25, so the interpolated map has negative Jacobian
    determinants at several keypoints while the outer ones stay positive.
    """
    xs = np.linspace(0.0, 3.0, 13)
    gx, gy = np.meshgrid(xs, np.array([0.0, 0.6]))
    source = np.stack([gx.ravel(), gy.ravel()], axis=1)
    target = source.copy()
    target[:, 0] -= 1.1 * np.exp(-((source[:, 0] - 1.5) ** 2) / (2 * 0.35**2))
    return PairedKeypoints(PointSet(source), PointSet(target))


def suite_tasks(suite: str, methods, seeds: int, *flags) -> list:
    """The scene tasks ``poltrans bench --suite <suite> <flags>`` runs for
    ``methods`` at ``seeds`` seeds, built by the suite's table entry."""
    args = cli.build_parser().parse_args(["bench", "--suite", suite, *map(str, flags)])
    return cli.SUITE_TABLE[suite].tasks(methods, seeds, args)


@lru_cache(maxsize=None)
def default_bench_tasks(suite: str) -> tuple:
    """The scene tasks ``poltrans bench --suite <suite>`` runs with every
    flag at its default."""
    entry = cli.SUITE_TABLE[suite]
    return tuple(suite_tasks(suite, entry.methods, entry.seeds))


def previous_format(data: dict, scenario=None) -> dict:
    """A JSON form as files were written before a scenario derived its
    ground truth: each point set also declares its ``dim``, and a
    ``scenario`` also carries its demonstration, its reference, and its
    profile's ``params`` or its ``keypoints_per_frame``."""
    if isinstance(data, dict):
        data = {key: previous_format(value) for key, value in data.items()}
        if "points" in data:
            data["dim"] = len(data["points"][0])
    if scenario is not None:
        data.update(demonstration=scenario.demonstration.to_dict(), reference=scenario.reference.to_dict())
        if scenario.kind == "surface":
            data["params"] = dict(_PROFILES[scenario.profile].params)
        else:
            data["keypoints_per_frame"] = scenario.keypoints_per_frame
    return data


# ---------------------------------------------------------------------------
# brute-force / grid-search oracles


def kernel_se(xi, xj, params) -> float:
    """sp2 * exp(-|xi - xj|^2 / (2 l^2)) for a single pair of points."""
    a = np.asarray(xi, dtype=float).ravel()
    b = np.asarray(xj, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("kernel inputs must have equal length")
    sq = float(np.sum((a - b) ** 2))
    return params.signal_variance * float(np.exp(-sq / (2.0 * params.lengthscale**2)))


def dense_nlml_and_grad(u, sq_dists, y):
    """GP negative LML and its gradient in u = (log sp2, log l, log ratio)
    by the dense formula: K^-1 from an n-column solve against the identity,
    and each coordinate's quad and trace terms from its full dK matrix."""
    n, d_out = y.shape
    sp2, ell, ratio = np.exp(u[0]), np.exp(u[1]), np.exp(u[2])
    eye = np.eye(n)
    corr = np.exp(-sq_dists / (2.0 * ell**2))
    gram = sp2 * (corr + ratio * eye)
    try:
        chol = scipy.linalg.cholesky(gram, lower=True)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros(3)
    alpha = scipy.linalg.cho_solve((chol, True), y)
    nlml = (
        0.5 * float((y * alpha).sum())
        + d_out * float(np.log(chol.diagonal()).sum())
        + 0.5 * n * d_out * np.log(2.0 * np.pi)
    )
    w = scipy.linalg.cho_solve((chol, True), eye)
    grads = np.empty(3)
    d_ell = sp2 * corr * (sq_dists / ell**2)
    for j, dk in enumerate((gram, d_ell, sp2 * ratio * eye)):
        quad = float(((dk @ alpha) * alpha).sum())
        trace = float((w * dk).sum())
        grads[j] = -(0.5 * quad - 0.5 * d_out * trace)
    return nlml, grads


def dense_profiled_nlml(sq_dists, y, ell, ratio, log_sp2_bounds):
    """GP negative LML at lengthscale ``ell`` and noise ratio ``ratio`` with
    the signal variance profiled out, and that variance's log: C built
    afresh as exp(-sq / (2 l^2)) + ratio I, sp2 = sum(y * C^-1 y) / (n d_out)
    clipped to ``log_sp2_bounds``; (inf, nan) when C fails to factor."""
    n, d_out = y.shape
    corr = np.exp(-sq_dists / (2.0 * ell**2)) + ratio * np.eye(n)
    try:
        chol = scipy.linalg.cholesky(corr, lower=True)
    except np.linalg.LinAlgError:
        return np.inf, np.nan
    quad = float((y * scipy.linalg.cho_solve((chol, True), y)).sum())
    log_sp2 = float(np.clip(np.log(quad / (n * d_out)), *log_sp2_bounds))
    nlml = (
        0.5 * quad / np.exp(log_sp2)
        + 0.5 * n * d_out * log_sp2
        + d_out * float(np.log(chol.diagonal()).sum())
        + 0.5 * n * d_out * np.log(2.0 * np.pi)
    )
    return nlml, log_sp2


def fit_gp_bounds(x, y, noise_ratio=1e-6):
    """``gp.fit_gp``'s box over u = (log sp2, log l, log ratio), built from
    cdist, and the data's ell_center."""
    sq = cdist(x, x, "sqeuclidean")
    diam = float(np.sqrt(sq.max())) if x.shape[0] > 1 else 0.0
    ell_center = (diam if diam > 0.0 else 1.0) / np.sqrt(x.shape[1])
    out_var = float(np.mean(np.var(y, axis=0)))
    base = out_var if out_var > 0 else float(np.mean(y**2))
    bounds = [
        (np.log(1e-6 * base), np.log(1e6 * base)),
        (np.log(1e-3 * ell_center), np.log(1e3 * ell_center)),
        (np.log(NOISE_FLOOR_RATIO), np.log(noise_ratio)),
    ]
    return bounds, ell_center


def profiled_grid_start(x, y, noise_ratio=1e-6):
    """The point ``gp.fit_gp`` starts its polish from: the best of its
    profiled lengthscale grid, with each grid matrix built afresh."""
    sq = cdist(x, x, "sqeuclidean")
    bounds, ell_center = fit_gp_bounds(x, y, noise_ratio)
    best_u, best_val = None, np.inf
    for ell in LENGTHSCALE_GRID * ell_center:
        val, log_sp2 = dense_profiled_nlml(sq, y, ell, noise_ratio, bounds[0])
        if val < best_val:
            best_val, best_u = val, np.array([log_sp2, np.log(ell), np.log(noise_ratio)])
    return best_u


def two_phase_minimize(fun, x0, fun0: float, bounds: tuple[float, float]) -> PolishResult:
    """``gp.minimize`` as it was before it chose the first search's noise
    ratio: a Brent search at x0's ratio always, then NOISE_FLOOR_RATIO scored
    at the lengthscale it found and searched from there if it beat every
    point so far. The same call shape and result as ``gp.minimize``."""
    x_best, f_best, nfev = np.asarray(x0, dtype=float), fun0, 0

    def along(log_ratio):
        def f(log_ell):
            nonlocal x_best, f_best, nfev
            nfev += 1
            val, log_sp2 = fun(log_ell, log_ratio)
            if val < f_best:
                x_best, f_best = np.array([log_sp2, log_ell, log_ratio]), val
            return val

        return f

    lo, hi = map(float, bounds)
    _brent(along(x0[2]), lo, hi, float(x0[1]), fun0)
    floor = np.log(NOISE_FLOOR_RATIO)
    if x0[2] > floor:
        log_ell = float(x_best[1])
        at_floor = along(floor)
        f_floor = at_floor(log_ell)
        if x_best[2] == floor:  # the floor beat every point so far
            _brent(at_floor, lo, hi, log_ell, f_floor)
    return PolishResult(x_best, f_best, nfev)


def lwt_jacobian(lwt, x, h: float = 1e-6) -> np.ndarray:
    """Jacobian of a composed LWT map by central finite differences."""
    point = np.asarray(x, dtype=float).ravel()
    dim = point.size
    jac = np.empty((dim, dim))
    for b in range(dim):
        lo = point.copy()
        hi = point.copy()
        lo[b] -= h
        hi[b] += h
        jac[:, b] = (apply_lwt(lwt, hi[None]) - apply_lwt(lwt, lo[None]))[0] / (2.0 * h)
    return jac


def lwt_unit_det(center, translation, radius, x) -> np.ndarray:
    """Determinant of one LWT unit's Jacobian at each row of an (N, dim)
    batch by the rank-one formula 1 - w (x - c).v / r^2, with the bump
    weight w = exp(-|x - c|^2 / (2 r^2))."""
    offset = np.asarray(x, dtype=float) - center
    weight = np.exp(-np.sum(offset**2, axis=1) / (2.0 * radius**2))
    return 1.0 - weight * (offset @ translation) / radius**2


def loop_fit_lwt(kp) -> list[tuple]:
    """The greedy LWT fit as (center, translation, radius) per unit, with
    each unit's radius bounded by the nearest other keypoint found by
    deleting the chosen one and taking the norms of the rest, for at most
    max(1000, n^2) units."""
    tol = match_tolerance(kp)
    current = kp.source.points.copy()
    target = kp.target.points
    units, best_units = [], []
    best_err = float(np.max(np.linalg.norm(target - current, axis=1)))
    for _ in range(max(1000, kp.n**2)):
        residuals = target - current
        norms = np.linalg.norm(residuals, axis=1)
        worst = int(np.argmax(norms))
        err = float(norms[worst])
        if err < best_err:
            best_err, best_units = err, list(units)
        if err <= tol:
            return units
        center = current[worst].copy()
        if kp.n > 1:
            others = np.delete(current, worst, axis=0)
            nearest = float(np.min(np.linalg.norm(others - center, axis=1)))
        else:
            nearest = np.inf
        radius = min(2.0 * err, 0.5 * nearest)
        translation = residuals[worst] * min(1.0, LWT_STEP_RATIO * radius / err)
        units.append((center, translation, radius))
        weight = np.exp(-np.sum((current - center) ** 2, axis=1) / (2.0 * radius**2))
        current = current + weight[:, None] * translation
    err = float(np.max(np.linalg.norm(target - current, axis=1)))
    return list(units) if err < best_err else best_units


def loop_apply_lwt(units, x) -> np.ndarray:
    """An (N, dim) batch pushed through (center, translation, radius) units
    one unit at a time, each bump computed afresh by the textbook formula
    exp(-|x - c|^2 / (2 r^2)) into a new array."""
    pts = np.array(x, dtype=float)
    for center, translation, radius in units:
        weight = np.exp(-np.sum((pts - center) ** 2, axis=1) / (2.0 * radius**2))
        pts = pts + weight[:, None] * translation
    return pts


def loop_polar_rotation(jacobian) -> tuple[np.ndarray, str | None]:
    """Polar rotation factor of one matrix, forced into SO(dim), with the
    last principal direction flipped through an explicit factor vector;
    a note marks a near-singular matrix."""
    jac = np.asarray(jacobian, dtype=float)
    u, s, vt = np.linalg.svd(jac)
    d = 1.0 if np.linalg.det(u @ vt) >= 0 else -1.0
    factors = np.ones(jac.shape[0])
    factors[-1] = d
    rot = (u * factors) @ vt
    note = None
    if s[-1] <= NEAR_SINGULAR_RATIO * s[0]:
        note = "near-singular jacobian: polar rotation factor not unique"
    return rot, note


def loop_validate_labels(labels, tol: float = ORIENTATION_TOL) -> list[Violation]:
    """Label invariant violations found one label at a time, family by
    family: non-finite entries, then orthogonality and determinant of each
    orientation, then symmetry and smallest eigenvalue of each stiffness
    and damping matrix."""
    report = []
    for name in ("positions", "velocities"):
        arr = getattr(labels, name)
        if arr is None:
            continue
        for i, row in enumerate(arr):
            if not np.all(np.isfinite(row)):
                report.append(Violation(name, i, "non-finite", float("nan")))

    if labels.orientations is not None:
        for i, rot in enumerate(labels.orientations):
            if not np.all(np.isfinite(rot)):
                report.append(Violation("orientations", i, "non-finite", float("nan")))
                continue
            ortho, det = rotation_residual(rot)
            if ortho > tol:
                report.append(Violation("orientations", i, "orthogonality", ortho))
            if det > tol:
                report.append(Violation("orientations", i, "determinant", det))

    for name in ("stiffness", "damping"):
        arr = getattr(labels, name)
        if arr is None:
            continue
        for i, mat in enumerate(arr):
            if not np.all(np.isfinite(mat)):
                report.append(Violation(name, i, "non-finite", float("nan")))
                continue
            asym = float(np.max(np.abs(mat - mat.T)))
            if asym > tol:
                report.append(Violation(name, i, "symmetry", asym))
            min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
            if min_eig < -SPD_TOL:
                report.append(Violation(name, i, "negative eigenvalue", -min_eig))
    return report


def loop_labels_csv(moved, path) -> None:
    """Transported labels as CSV, built and written one row at a time by
    ``csv.writer``: index, position, position variance, then velocity and
    its variance, orientations, stiffness and damping when present, then
    the Jacobian and its rotation factor, matrices flattened row-major."""
    axes = range(moved.dim)

    def mat_cols(tag):
        return [f"{tag}_{a}{b}" for a in axes for b in axes]

    header = ["index"]
    header += [f"pos_{a}" for a in axes] + ["pos_var"]
    if moved.velocities is not None:
        header += [f"vel_{a}" for a in axes] + ["vel_var"]
    if moved.orientations is not None:
        header += mat_cols("rot")
    if moved.stiffness is not None:
        header += mat_cols("stiff")
    if moved.damping is not None:
        header += mat_cols("damp")
    header += mat_cols("jac") + mat_cols("proj")

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(moved.m):
            row = [i]
            row += list(moved.positions[i]) + [moved.position_variance[i]]
            if moved.velocities is not None:
                row += list(moved.velocities[i]) + [moved.velocity_variance[i]]
            for field in (moved.orientations, moved.stiffness, moved.damping):
                if field is not None:
                    row += list(field[i].ravel())
            row += list(moved.jacobians[i].ravel())
            row += list(moved.projected_rotations[i].ravel())
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def so2_grid_rotation(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Best-fit rotation by two-stage dense grid search over the angle.

    Minimizes the centered least-squares cost directly on a grid of
    candidate angles (coarse pass over [-pi, pi], then a fine pass around
    the winner), giving roughly 1e-8 angular resolution.
    """
    s = source - source.mean(axis=0)
    t = target - target.mean(axis=0)

    def grid_cost(angles):
        cos, sin = np.cos(angles), np.sin(angles)
        rots = np.stack([np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)], axis=-2)
        moved = np.einsum("kab,nb->kna", rots, s)
        return np.sum((moved - t[None]) ** 2, axis=(1, 2))

    coarse = np.linspace(-np.pi, np.pi, 40001)
    best = coarse[np.argmin(grid_cost(coarse))]
    step = coarse[1] - coarse[0]
    fine = np.linspace(best - 2 * step, best + 2 * step, 40001)
    best = fine[np.argmin(grid_cost(fine))]
    return rotation_2d(best)


@lru_cache(maxsize=None)
def _monotone_paths(m: int, n: int) -> tuple:
    """All index paths from (0, 0) to (m-1, n-1) with steps (1,0)/(0,1)/(1,1)."""
    paths = []

    def extend(path):
        i, j = path[-1]
        if i == m - 1 and j == n - 1:
            paths.append(tuple(path))
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            if i + di < m and j + dj < n:
                path.append((i + di, j + dj))
                extend(path)
                path.pop()

    extend([(0, 0)])
    return tuple(paths)


def brute_force_frechet(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete Frechet distance by enumerating every coupling."""
    dist = np.linalg.norm(a[:, None] - b[None], axis=2)
    best = np.inf
    for path in _monotone_paths(len(a), len(b)):
        width = max(dist[i, j] for i, j in path)
        best = min(best, width)
    return float(best)


def brute_force_dtw(a: np.ndarray, b: np.ndarray) -> float:
    """DTW cost by enumerating every warping path."""
    dist = np.linalg.norm(a[:, None] - b[None], axis=2)
    best = np.inf
    for path in _monotone_paths(len(a), len(b)):
        cost = sum(dist[i, j] for i, j in path)
        best = min(best, cost)
    return float(best)


def loop_frechet(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete Frechet distance by the cell-by-cell double-loop DP."""
    dist = cdist(a, b)
    m, n = dist.shape
    table = np.empty((m, n))
    table[0, 0] = dist[0, 0]
    for i in range(1, m):
        table[i, 0] = max(table[i - 1, 0], dist[i, 0])
    for j in range(1, n):
        table[0, j] = max(table[0, j - 1], dist[0, j])
    for i in range(1, m):
        for j in range(1, n):
            reach = min(table[i - 1, j], table[i, j - 1], table[i - 1, j - 1])
            table[i, j] = max(reach, dist[i, j])
    return float(table[-1, -1])


def loop_dtw(a: np.ndarray, b: np.ndarray) -> float:
    """DTW cost by the cell-by-cell double-loop DP over a padded table."""
    dist = cdist(a, b)
    m, n = dist.shape
    acc = np.full((m + 1, n + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            acc[i, j] = dist[i - 1, j - 1] + min(
                acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1]
            )
    return float(acc[m, n])


def pair_arclength_resample(points: np.ndarray, count: int) -> np.ndarray:
    """One curve resampled to ``count`` points equally spaced by arc
    length, one ``np.interp`` per coordinate; a zero-length curve becomes
    copies of its first point."""
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


def loop_area_between(a: np.ndarray, b: np.ndarray) -> float:
    """Strip area between two curves, one quadrilateral at a time, after
    the per-curve arc-length resampling to a common count."""
    count = max(len(a), len(b))
    ra = pair_arclength_resample(a, count)
    rb = pair_arclength_resample(b, count)

    def signed_triangle(p0, p1, p2):
        d1 = p1 - p0
        d2 = p2 - p0
        return 0.5 * float(d1[0] * d2[1] - d1[1] * d2[0])

    total = 0.0
    for i in range(len(ra) - 1):
        total += abs(
            signed_triangle(ra[i], ra[i + 1], rb[i + 1])
            + signed_triangle(ra[i], rb[i + 1], rb[i])
        )
    return total


def pair_area_between_curves(pa: np.ndarray, pb: np.ndarray) -> float:
    """Strip area of one pair of curves with the checks the package made
    pair by pair: two points per curve, then planar curves."""
    if pa.shape[0] < 2 or pb.shape[0] < 2:
        raise ValueError("area metric needs at least two points per curve")
    if pa.shape[1] != 2 or pb.shape[1] != 2:
        raise ValueError("area metric requires planar curves")
    return loop_area_between(pa, pb)


def pair_final_position_error(pa: np.ndarray, pb: np.ndarray) -> float:
    """Distance between the final points of one pair, by a 1-d norm."""
    return float(np.linalg.norm(pa[-1] - pb[-1]))


def pair_tail_direction(points: np.ndarray) -> np.ndarray:
    """Unit mean direction of one curve's nonzero final segments."""
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


def pair_final_angle_error(pa: np.ndarray, pb: np.ndarray) -> float:
    """Angle between the tail directions of one pair, by a 1-d dot."""
    if pa.shape[0] < 2 or pb.shape[0] < 2:
        raise ValueError("angle metric needs at least two points per curve")
    da, db = pair_tail_direction(pa), pair_tail_direction(pb)
    return float(np.arccos(float(np.clip(np.dot(da, db), -1.0, 1.0))))


def pair_compute_metrics(produced, reference) -> MetricReport:
    """All five metrics of one pair, each computed on its own: area, final
    position and final angle by the per-pair oracles above, in that order,
    then Frechet and DTW by one-pair calls (whose wavefront the cell loops
    ``loop_frechet`` and ``loop_dtw`` check)."""
    pa, pb = _pair_positions(produced, reference)
    area = pair_area_between_curves(pa, pb)
    position = pair_final_position_error(pa, pb)
    angle = pair_final_angle_error(pa, pb)
    return MetricReport(
        frechet=frechet_distance(pa, pb),
        area_between=area,
        dtw=dtw_distance(pa, pb),
        final_position_error=position,
        final_angle_error=angle,
    )


def pair_average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing the mean of the
    ranks they span, from the run starts of its stable sort."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(first) - 1]
    return ranks


def pair_mann_whitney_u(x, y, alpha: float = 0.05) -> tuple[float, float, bool]:
    """The one-sided U test of one sample pair on its own: ranks by
    ``pair_average_ranks``, the exact counting DP up to ``EXACT_U_LIMIT``
    pooled values, else the tie-corrected normal approximation with the tie
    term summed from the sorted run lengths."""
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
    ranks = pair_average_ranks(pooled)
    u_x = float(np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0)
    n = n1 + n2
    if n <= EXACT_U_LIMIT:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        max_sum = int(np.sort(doubled)[-n1:].sum())
        table = np.zeros((n1 + 1, max_sum + 1), dtype=np.float64)
        table[0, 0] = 1.0
        for r2 in doubled:
            table[1:, r2:] += table[:-1, : max_sum + 1 - r2]
        threshold = int(np.rint(2.0 * (u_x + n1 * (n1 + 1) / 2.0)))
        p = float(table[n1, : threshold + 1].sum()) / comb(n, n1)
    else:
        ordered = np.sort(pooled)
        tie_counts = np.diff(np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True]))
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
        var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
        p = float(ndtr((u_x + 0.5 - n1 * n2 / 2.0) / np.sqrt(var)))
    return u_x, p, bool(p < alpha)


def pair_rank_methods(results: dict, alpha: float = 0.05) -> tuple[dict, dict]:
    """(points, per-metric points) of ``rank_methods``, one
    ``pair_mann_whitney_u`` call per metric and ordered method pair."""
    methods = sorted(results)
    metrics = sorted(results[methods[0]])
    points = {m: 0 for m in methods}
    per_metric = {}
    for metric in metrics:
        scores = {m: 0 for m in methods}
        for a in methods:
            for b in methods:
                if a != b and pair_mann_whitney_u(results[a][metric], results[b][metric], alpha)[2]:
                    scores[a] += 1
                    points[a] += 1
        per_metric[metric] = scores
    return points, per_metric


def mw_exact_enumeration(x, y) -> tuple[float, float]:
    """One-sided Mann-Whitney by full enumeration of group assignments.

    Midranks handle ties; the p-value is the exchangeable-pooling
    probability of a rank sum (hence U) at most as small as observed.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pooled = np.concatenate([x, y])
    ranks = rankdata(pooled)
    n1, n = len(x), len(pooled)
    base = n1 * (n1 + 1) / 2.0
    u_obs = ranks[:n1].sum() - base
    hits = 0
    total = 0
    for combo in itertools.combinations(range(n), n1):
        total += 1
        if ranks[list(combo)].sum() - base <= u_obs + 1e-9:
            hits += 1
    return float(u_obs), hits / total


def dense_laplacian_oracle(positions, topology, indices, targets) -> np.ndarray:
    """Graph-Laplacian edit by explicit free/constrained block elimination.

    Builds the Laplacian edge by edge, substitutes the constrained rows'
    values into the free rows' equations, and solves the free block by
    least squares -- a different construction than row substitution on the
    full square system.
    """
    x = np.asarray(positions, dtype=float)
    m = len(x)
    lap = np.zeros((m, m))
    edges = [(i, i + 1) for i in range(m - 1)]
    if topology == "ring":
        edges.append((m - 1, 0))
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0

    indices = np.asarray(indices, dtype=int)
    targets = np.asarray(targets, dtype=float)
    free = np.array([i for i in range(m) if i not in set(indices.tolist())])
    delta = lap @ x

    out = np.empty_like(x)
    out[indices] = targets
    if free.size:
        rhs = delta[free] - lap[np.ix_(free, indices)] @ targets
        sol, *_ = np.linalg.lstsq(lap[np.ix_(free, free)], rhs, rcond=None)
        out[free] = sol
    return out
