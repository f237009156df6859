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
  keypoints land on their targets. A map is three arrays with one row per
  unit: its centers, translations and radii.

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
from dataclasses import dataclass

import numpy as np

from ._scipy import linear_sum_assignment
from .gp import fit_gp, predict_mean
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

    Minimizes the total squared distance sum_k |s_k - x_{j(k)}|^2 over
    one-to-one assignments: summed distances tie exactly for two keypoints
    beyond two nodes on their line, leaving the choice to rounding, so to
    the scene's pose and units. The bound node's target is x_j + (t_k -
    s_k): the node moves by the keypoint's displacement.
    """
    if traj.m < kp.n:
        raise ValueError("more keypoints than trajectory points")
    if traj.dim != kp.dim:
        raise ValueError("trajectory and keypoints must share dimension")
    rows, cols = linear_sum_assignment(_sq_dists(kp.source.points, traj.positions))
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


def reshaped_kmp(traj: Trajectory, assignment: ViaAssignment) -> Trajectory:
    """Add a time-indexed GP displacement field to the trajectory.

    Displacement labels are (t_j, target_j - x_j) at the assigned nodes'
    timestamps; the fitted GP's mean displacement is added at every
    timestamp. Hyperparameters are optimized at ``fit_gp``'s default noise
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
    shift = predict_mean(fit_gp(t_in, displacement), traj.times[:, None])
    return Trajectory(positions=traj.positions + shift, times=traj.times)


def _bump(sq: np.ndarray, radius: float) -> np.ndarray:
    """exp(-sq / (2 r^2)) of squared distances ``sq``, computed in place:
    -sq / b and sq / -b round alike."""
    sq /= -2.0 * radius**2
    return np.exp(sq, out=sq)


@dataclass(frozen=True, eq=False)
class LWTMap:
    """Ordered composition of K local translation units. Unit k maps
    x -> x + translations[k] * exp(-|x - centers[k]|^2 / (2 radii[k]^2));
    ``centers`` and ``translations`` are (K, dim) and ``radii`` is (K,).

    Each translation is capped at ``LWT_STEP_RATIO`` times its radius,
    which keeps det(DU) = 1 - w (x-c).v / r^2 strictly positive everywhere,
    so each unit is a diffeomorphism.
    """

    centers: np.ndarray
    translations: np.ndarray
    radii: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        centers, translations, radii = (_freeze(a) for a in (self.centers, self.translations, self.radii))
        if centers.ndim != 2 or translations.shape != centers.shape or radii.shape != centers.shape[:1]:
            raise ValueError(
                "centers, translations and radii must be (K, dim), (K, dim) and (K,), not"
                f" {centers.shape}, {translations.shape} and {radii.shape}"
            )
        if not (np.isfinite(centers).all() and np.isfinite(translations).all()):
            raise ValueError("centers and translations must be finite")
        if not (np.isfinite(radii) & (radii > 0)).all():
            raise ValueError("radii must be finite and positive")
        # np.linalg.norm(translations, axis=1)'s arithmetic: sqrt of row sums.
        if (np.sqrt((translations * translations).sum(axis=1)) > LWT_STEP_RATIO * radii * (1 + 1e-12)).any():
            raise ValueError("translation exceeds the invertibility step bound")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "translations", translations)
        object.__setattr__(self, "radii", radii)


def apply_lwt(lwt: LWTMap, x) -> np.ndarray:
    """Push an (N, dim) batch of points through every unit in order."""
    pts = _as_batch(x, "points", lwt.centers.shape[1]).copy()
    for center, translation, radius in zip(lwt.centers, lwt.translations, lwt.radii):
        weight = _bump(_sq_dists(pts, center[None])[:, 0], radius)
        pts += weight[:, None] * translation
    return pts


def _unit_budget(n: int) -> int:
    """``fit_lwt``'s unit budget for n keypoints; its docstring says why."""
    return max(1000, n * n)


def fit_lwt(kp: PairedKeypoints) -> LWTMap:
    """Greedily compose translation units until keypoints match.

    Each iteration picks the keypoint with the largest residual and adds a
    Gaussian bump centered on its current position. The bump radius shrinks
    near other keypoints (half the distance to the nearest one) to limit
    interference, and the step obeys the per-unit invertibility bound, so
    several units may be needed per keypoint. Stops when the largest
    residual drops to ``match_tolerance(kp)``, the transportation map's
    own tolerance. A unit moves its keypoint by at most a quarter of the
    keypoint spacing, which shrinks as 1/n, so the units needed grow as n^2
    and the budget is max(1000, n^2) units. Measured without a budget: 18-42
    units on the bent surface scenes at 12 keypoints, 232-559 at 50 and
    3,678-9,415 (0.09-0.24 n^2) at 200; at most 75 on the frames pairings at
    2 keypoints per frame and 155 at 5. Using up the budget returns the best
    map found, which says so in its ``warnings`` only (no Python warning). A
    keypoint to move that sits on another raises ValueError: no unit moves
    one without the other. So does one whose unit leaves its residual as it
    was: its neighbour is so close that the step is below the float
    resolution of the residual, and every later unit would repeat it. Each
    unit's squared distances to the keypoints give both its radius and its
    bump. The units are written as rows of three arrays of the budget's
    length, of which the map keeps a copy of the rows in use.
    """
    budget = _unit_budget(kp.n)
    tol = match_tolerance(kp)

    current = kp.source.points.copy()
    target = kp.target.points
    centers = np.empty((budget, kp.dim))
    translations = np.empty((budget, kp.dim))
    radii = np.empty(budget)
    best, best_err = 0, np.inf

    # One residual check per unit count 0..budget; the last adds no unit.
    for n_units in range(budget + 1):
        residuals = target - current
        # np.linalg.norm(residuals, axis=1)'s arithmetic: sqrt of row sums.
        norms = np.sqrt((residuals * residuals).sum(axis=1))
        worst = int(np.argmax(norms))
        err = float(norms[worst])
        if err < best_err:
            best, best_err = n_units, err
        if err <= tol or n_units == budget:
            break

        center = centers[n_units] = current[worst]
        # One set of squared distances gives the radius and the bump. sqrt
        # is monotone and correctly rounded: sqrt of the least squared
        # distance to another keypoint is the least distance, bit for bit.
        sq = _sq_dists(current, center[None])[:, 0]
        sq[worst] = np.inf
        other = int(np.argmin(sq))
        if sq[other] == 0.0:
            raise ValueError(f"keypoints {worst} and {other} coincide: no LWT unit moves one alone")
        spacing = math.sqrt(sq[other])
        radii[n_units] = radius = min(2.0 * err, 0.5 * spacing)
        sq[worst] = 0.0  # the center's own distance

        step = residuals[worst]
        translations[n_units] = step * min(1.0, LWT_STEP_RATIO * radius / err)
        current += _bump(sq, radius)[:, None] * translations[n_units]
        if (target[worst] - current[worst] == step).all():
            raise ValueError(
                f"keypoints {worst} and {other} are {spacing:.3g} apart: a unit that moves"
                f" one alone is below the float resolution of its residual {err:.3e}"
            )

    # Only the unit count that converges is within tol, and it is the best.
    note = f"did not converge in {budget} iterations; best residual {best_err:.3e}"
    return LWTMap(
        centers=centers[:best],
        translations=translations[:best],
        radii=radii[:best],
        warnings=() if best_err <= tol else (note,),
    )
