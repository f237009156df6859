"""Alternative trajectory transporters used for comparison.

Three reshaping baselines, each consuming the same paired-keypoint task
description as the transportation map but acting on a single demonstrated
trajectory:

* Laplacian editing — solves for the trajectory whose graph-Laplacian
  (differential) coordinates match the demonstration's while assigned nodes
  are pinned to their targets.
* Reshaped KMP — fits a GP from time to displacement through the assigned
  via-displacements and adds the predicted displacement everywhere.
* Locally weighted translation (LWT) — greedily composes Gaussian-bump
  translation units, each bounded so it stays a diffeomorphism, until all
  keypoints land on their targets.

Keypoints are bound to trajectory nodes by minimum-cost one-to-one
assignment (Hungarian). Each bound node's target is its own position plus
the keypoint displacement (target keypoint minus source keypoint), so the
baselines reshape the demonstration rather than teleport it onto the
keypoints. Callers are expected to pre-apply the rigid alignment before
invoking LWT (and typically before the other baselines as well).
"""
from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from ._scipy import linear_sum_assignment
from .gp import KernelParams, build_gp, fit_gp, predict_mean
from .transport import match_tolerance
from .types import PairedKeypoints, Trajectory, _as_batch, _freeze, _sq_dists

# Per-unit translation magnitude is capped at this fraction of the unit
# radius; det(I + v grad(w)^T) >= 1 - 0.5 max_t t e^(-t^2/2) ~= 0.70 > 0.
LWT_STEP_RATIO = 0.5


@dataclass(frozen=True, eq=False)
class ViaAssignment:
    """One-to-one binding of keypoints to trajectory node indices.

    ``indices[k]`` is the trajectory node assigned to keypoint k and
    ``targets[k]`` the position that node should move to.
    """

    indices: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).ravel()
        tgt = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if idx.size != tgt.shape[0]:
            raise ValueError("indices and targets must have equal length")
        if idx.size == 0:
            raise ValueError("assignment must bind at least one node")
        if np.any(idx < 0):
            raise ValueError("trajectory indices must be nonnegative")
        if np.unique(idx).size != idx.size:
            raise ValueError("trajectory indices must be unique")
        idx = idx.copy()
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "targets", _freeze(tgt))

    @property
    def n(self) -> int:
        return self.indices.size


def assign_via_points(traj: Trajectory, kp: PairedKeypoints) -> ViaAssignment:
    """Bind each source keypoint to a distinct trajectory node.

    Minimizes the total Euclidean cost sum_k |s_k - x_{j(k)}| over
    one-to-one assignments. The bound node's target is x_j + (t_k - s_k):
    the node moves by the keypoint's displacement.
    """
    if traj.m < kp.n:
        raise ValueError("more keypoints than trajectory points")
    if traj.dim != kp.dim:
        raise ValueError("trajectory and keypoints must share dimension")
    cost = np.sqrt(_sq_dists(kp.source.points, traj.positions))
    rows, cols = linear_sum_assignment(cost)
    order = np.argsort(rows)  # keypoint order
    cols = cols[order]
    displacement = kp.target.points - kp.source.points
    targets = traj.positions[cols] + displacement
    return ViaAssignment(indices=cols, targets=targets)


def _graph_laplacian(m: int, topology: str) -> np.ndarray:
    """Uniform graph Laplacian of a chain or ring of m nodes: each node's
    degree on the diagonal and -1 per edge to a neighbour. On a ring of
    one or two nodes both neighbours coincide and their entries add up."""
    if topology not in ("chain", "ring"):
        raise ValueError(f"unknown topology {topology!r}; use 'chain' or 'ring'")
    nodes = np.arange(m)
    ring = topology == "ring"
    lap = np.zeros((m, m))
    # One pass per neighbour side, over the nodes that have that neighbour.
    # A pass touches each entry at most once; a ring's coinciding
    # neighbours are hit once per pass.
    for step in (-1, 1):
        has = nodes if ring else nodes[(nodes + step >= 0) & (nodes + step < m)]
        lap[has, has] += 1.0
        lap[has, (has + step) % m] -= 1.0
    return lap


def laplacian_edit(
    traj: Trajectory,
    assignment: ViaAssignment,
    topology: str = "chain",
) -> Trajectory:
    """Reshape the trajectory so assigned nodes sit exactly on their targets
    while free nodes keep the demonstration's differential coordinates.

    With L the uniform graph Laplacian of the chain (or ring, for periodic
    demonstrations), solves L xhat = L x with the rows of assigned nodes
    replaced by hard unit constraints.
    """
    if np.any(assignment.indices >= traj.m):
        raise ValueError("assignment index out of range")
    if assignment.targets.shape[1] != traj.dim:
        raise ValueError("target dimension mismatch")

    lap = _graph_laplacian(traj.m, topology)
    rhs = lap @ traj.positions
    system = lap.copy()
    for row, point in zip(assignment.indices, assignment.targets):
        system[row, :] = 0.0
        system[row, row] = 1.0
        rhs[row] = point
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular constrained Laplacian system") from exc
    return Trajectory(positions=solution, times=traj.times)


def reshaped_kmp(
    traj: Trajectory,
    assignment: ViaAssignment,
    kernel_params: KernelParams | None = None,
) -> Trajectory:
    """Add a time-indexed GP displacement field to the trajectory.

    Displacement labels are (t_j, target_j - x_j) at the assigned nodes'
    timestamps; the fitted GP's mean displacement is added at every
    timestamp. With ``kernel_params`` given the GP uses them as-is,
    otherwise hyperparameters are optimized at ``fit_gp``'s default noise
    ratio, 1e-6, so assigned nodes land on their targets.
    """
    if traj.times is None:
        raise ValueError("timestamps required for time-indexed reshaping")
    if np.any(assignment.indices >= traj.m):
        raise ValueError("assignment index out of range")
    if assignment.targets.shape[1] != traj.dim:
        raise ValueError("target dimension mismatch")

    t_in = traj.times[assignment.indices][:, None]
    displacement = assignment.targets - traj.positions[assignment.indices]
    if kernel_params is not None:
        gp = build_gp(t_in, displacement, kernel_params)
    else:
        gp = fit_gp(t_in, displacement)
    shift = predict_mean(gp, traj.times[:, None])
    return Trajectory(positions=traj.positions + shift, times=traj.times)


@dataclass(frozen=True, eq=False)
class LWTUnit:
    """One local deformation: x -> x + translation * exp(-|x-c|^2/(2 r^2)).

    The translation magnitude is capped at ``LWT_STEP_RATIO * radius``,
    which keeps det(DU) = 1 - w (x-c).v / r^2 strictly positive everywhere,
    so each unit is a diffeomorphism.
    """

    center: np.ndarray
    translation: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).ravel()
        v = np.asarray(self.translation, dtype=float).ravel()
        if c.size != v.size:
            raise ValueError("center and translation dimensions differ")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive")
        step = float(np.linalg.norm(v))
        if step > LWT_STEP_RATIO * self.radius * (1 + 1e-12):
            raise ValueError("translation exceeds the invertibility step bound")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "translation", _freeze(v))

    def weight(self, x: np.ndarray) -> np.ndarray:
        """The bump's weight at each point of an (N, dim) batch, shape (N,)."""
        pts = _as_batch(x, "points", self.center.size)
        sq = np.sum((pts - self.center) ** 2, axis=1)
        return np.exp(-sq / (2.0 * self.radius**2))

    def jacobian_det(self, x: np.ndarray) -> np.ndarray:
        """Analytic det of the unit's Jacobian at each point of an (N, dim)
        batch (rank-one update), shape (N,)."""
        pts = _as_batch(x, "points", self.center.size)
        w = self.weight(pts)
        inner = (pts - self.center) @ self.translation
        return 1.0 - w * inner / self.radius**2


@dataclass(frozen=True, eq=False)
class LWTMap:
    """Ordered composition of local translation units."""

    units: tuple[LWTUnit, ...]
    warnings: tuple[str, ...] = ()

    @property
    def n_units(self) -> int:
        return len(self.units)


def apply_lwt(lwt: LWTMap, x) -> np.ndarray:
    """Push an (N, dim) batch of points through every unit in order."""
    pts = _as_batch(x, "points").copy()
    for unit in lwt.units:
        pts += unit.weight(pts)[:, None] * unit.translation
    return pts


def fit_lwt(kp: PairedKeypoints, max_iters: int = 1000) -> LWTMap:
    """Greedily compose translation units until keypoints match.

    Each iteration picks the keypoint with the largest residual and adds a
    Gaussian bump centered on its current position. The bump radius shrinks
    near other keypoints (half the distance to the nearest one) to limit
    interference, and the step obeys the per-unit invertibility bound, so
    several units may be needed per keypoint. Stops when the largest
    residual drops to ``match_tolerance(kp)``, the transportation map's
    own tolerance; hitting ``max_iters`` first returns the best map found
    plus a warning.
    """
    tol = match_tolerance(kp)

    current = kp.source.points.copy()
    target = kp.target.points
    units: list[LWTUnit] = []
    best_units: list[LWTUnit] = []
    best_err = float(np.max(np.linalg.norm(target - current, axis=1)))

    for _ in range(max_iters):
        residuals = target - current
        norms = np.linalg.norm(residuals, axis=1)
        worst = int(np.argmax(norms))
        err = float(norms[worst])
        if err < best_err:
            best_err = err
            best_units = list(units)
        if err <= tol:
            return LWTMap(units=tuple(units))

        center = current[worst]
        if kp.n > 1:
            others = np.delete(current, worst, axis=0)
            nearest = float(np.min(np.linalg.norm(others - center, axis=1)))
        else:
            nearest = np.inf
        radius = min(2.0 * err, 0.5 * nearest)
        radius = max(radius, 1e-12)

        step = residuals[worst]
        scale = min(1.0, LWT_STEP_RATIO * radius / err)
        unit = LWTUnit(center=center, translation=step * scale, radius=radius)
        units.append(unit)
        current = current + unit.weight(current)[:, None] * unit.translation

    residuals = np.linalg.norm(target - current, axis=1)
    err = float(np.max(residuals))
    if err < best_err:
        best_err, best_units = err, list(units)
    note = f"did not converge in {max_iters} iterations; best residual {best_err:.3e}"
    _warnings.warn(note)
    return LWTMap(units=tuple(best_units), warnings=(note,))
