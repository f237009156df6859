"""Alternative trajectory transporters used for comparison.

Three reshaping baselines, each consuming the same paired-keypoint task
description as the transportation map but acting on a single demonstrated
trajectory:

* Laplacian editing — keeps the demonstration's graph-Laplacian
  (differential) coordinates at free nodes while assigned nodes are pinned
  to their targets. That leaves the displacement a zero second difference
  at free nodes, so it interpolates the pinned ones linearly in the node
  index: a closed form, no solve.
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
invoking LWT (and typically before the other baselines as well); the bench
aligns each scene once and hands Laplacian editing and reshaped KMP one
shared assignment.
"""
from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from ._scipy import linear_sum_assignment
from .gp import KernelParams, build_gp, fit_gp, predict_mean
from .transport import match_tolerance, zero_roundoff
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
        tgt = _as_batch(self.targets, "targets")
        if idx.size != tgt.shape[0]:
            raise ValueError("indices and targets must have equal length")
        if idx.size == 0:
            raise ValueError("assignment must bind at least one node")
        if np.any(idx < 0):
            raise ValueError("trajectory indices must be nonnegative")
        if np.any(np.diff(np.sort(idx)) == 0):
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


def _check_assignment(traj: Trajectory, assignment: ViaAssignment) -> None:
    """Raise ValueError unless ``assignment`` binds nodes of ``traj`` to
    targets of its dimension."""
    if np.any(assignment.indices >= traj.m):
        raise ValueError("assignment index out of range")
    if assignment.targets.shape[1] != traj.dim:
        raise ValueError("target dimension mismatch")


def laplacian_edit(
    traj: Trajectory,
    assignment: ViaAssignment,
    topology: str = "chain",
) -> Trajectory:
    """Reshape the trajectory so assigned nodes land on their targets while
    free nodes keep the demonstration's differential coordinates.

    Solves L xhat = L x, L the uniform graph Laplacian of the chain (or
    ring, for periodic demonstrations), with the assigned nodes' rows
    replaced by hard unit constraints, in closed form: the displacement
    d = xhat - x has L d = 0, a zero second difference, at each free node,
    so it is linear in the node index between consecutive assigned nodes
    (wrapping around on a ring) and constant beyond a chain's outermost ones.
    """
    if topology not in ("chain", "ring"):
        raise ValueError(f"unknown topology {topology!r}; use 'chain' or 'ring'")
    _check_assignment(traj, assignment)

    order = np.argsort(assignment.indices)
    nodes = assignment.indices[order]
    displacement = assignment.targets[order] - traj.positions[nodes]
    period = traj.m if topology == "ring" else None
    shift = np.column_stack(
        [np.interp(np.arange(traj.m), nodes, d, period=period) for d in displacement.T]
    )
    return Trajectory(positions=traj.positions + shift, times=traj.times)


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
    ratio, 1e-6, so assigned nodes land on their targets. Labels that are
    round-off of the targets and nodes (``transport.zero_roundoff``) are
    exact zeros: the GP then adds an exact zero, and ``fit_gp`` searches no
    hyperparameters for the rounding.
    """
    if traj.times is None:
        raise ValueError("timestamps required for time-indexed reshaping")
    _check_assignment(traj, assignment)

    t_in = traj.times[assignment.indices][:, None]
    nodes = traj.positions[assignment.indices]
    displacement = zero_roundoff(assignment.targets - nodes, assignment.targets, nodes)
    if kernel_params is not None:
        gp = build_gp(t_in, displacement, kernel_params)
    else:
        gp = fit_gp(t_in, displacement)
    shift = predict_mean(gp, traj.times[:, None])
    return Trajectory(positions=traj.positions + shift, times=traj.times)


def _bump(sq: np.ndarray, radius: float) -> np.ndarray:
    """exp(-sq / (2 r^2)) of squared distances ``sq``, computed in place:
    -sq / b and sq / -b round alike."""
    sq /= -2.0 * radius**2
    return np.exp(sq, out=sq)


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
        # Read-only copies, raveled as views that stay read-only.
        c = _freeze(self.center).ravel()
        v = _freeze(self.translation).ravel()
        if c.size != v.size:
            raise ValueError("center and translation dimensions differ")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive")
        # np.linalg.norm's own arithmetic for a 1-d vector: sqrt of its dot.
        if math.sqrt(v.dot(v)) > LWT_STEP_RATIO * self.radius * (1 + 1e-12):
            raise ValueError("translation exceeds the invertibility step bound")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "translation", v)

    def weight(self, x: np.ndarray) -> np.ndarray:
        """The bump's weight at each point of an (N, dim) batch, shape (N,)."""
        pts = _as_batch(x, "points", self.center.size)
        return _bump(_sq_dists(pts, self.center[None])[:, 0], self.radius)

    def jacobian_det(self, x: np.ndarray) -> np.ndarray:
        """Analytic det of the unit's Jacobian at each point of an (N, dim)
        batch (rank-one update), shape (N,)."""
        pts = _as_batch(x, "points", self.center.size)
        w = self.weight(pts)
        inner = (pts - self.center) @ self.translation
        return 1.0 - w * inner / self.radius**2


@dataclass(frozen=True, eq=False)
class LWTMap:
    """Ordered composition of local translation units, all of one dimension."""

    units: tuple[LWTUnit, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len({unit.center.size for unit in self.units}) > 1:
            raise ValueError("LWT units must share one dimension")


def apply_lwt(lwt: LWTMap, x) -> np.ndarray:
    """Push an (N, dim) batch of points through every unit in order."""
    dim = lwt.units[0].center.size if lwt.units else None
    pts = _as_batch(x, "points", dim).copy()
    for unit in lwt.units:
        weight = _bump(_sq_dists(pts, unit.center[None])[:, 0], unit.radius)
        pts += weight[:, None] * unit.translation
    return pts


def fit_lwt(kp: PairedKeypoints, max_iters: int = 1000) -> LWTMap:
    """Greedily compose translation units until keypoints match.

    Each iteration picks the keypoint with the largest residual and adds a
    Gaussian bump centered on its current position. The bump radius shrinks
    near other keypoints (half the distance to the nearest one) to limit
    interference, and the step obeys the per-unit invertibility bound, so
    several units may be needed per keypoint. Stops when the largest
    residual drops to ``match_tolerance(kp)``, the transportation map's
    own tolerance; hitting ``max_iters`` (at least 0) first returns the best
    map found plus a warning. Each unit's squared distances to the keypoints
    give both its radius and its bump.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    tol = match_tolerance(kp)

    current = kp.source.points.copy()
    target = kp.target.points
    units: list[LWTUnit] = []
    best, best_err = 0, np.inf

    # One residual check per unit count 0..max_iters; the last adds no unit.
    for n_units in range(max_iters + 1):
        residuals = target - current
        # np.linalg.norm(residuals, axis=1)'s arithmetic: sqrt of row sums.
        norms = np.sqrt((residuals * residuals).sum(axis=1))
        worst = int(np.argmax(norms))
        err = float(norms[worst])
        if err < best_err:
            best, best_err = n_units, err
        if err <= tol:
            return LWTMap(units=tuple(units))
        if n_units == max_iters:
            break

        center = current[worst]
        # One set of squared distances gives the radius and the bump. sqrt
        # is monotone and correctly rounded: sqrt of the least squared
        # distance to another keypoint is the least distance, bit for bit.
        sq = _sq_dists(current, center[None])[:, 0]
        sq[worst] = np.inf
        nearest = math.sqrt(sq.min())
        sq[worst] = 0.0  # the center's own distance
        radius = min(2.0 * err, 0.5 * nearest)
        radius = max(radius, 1e-12)

        step = residuals[worst]
        scale = min(1.0, LWT_STEP_RATIO * radius / err)
        unit = LWTUnit(center=center, translation=step * scale, radius=radius)
        units.append(unit)
        # In place: the unit holds its own copy of the center row.
        current += _bump(sq, radius)[:, None] * unit.translation

    note = f"did not converge in {max_iters} iterations; best residual {best_err:.3e}"
    _warnings.warn(note)
    return LWTMap(units=tuple(units[:best]), warnings=(note,))
