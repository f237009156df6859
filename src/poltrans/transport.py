"""Keypoint-conditioned transportation of policies.

The transportation map composes a global rigid alignment gamma with a GP
residual psi fitted in the aligned frame:

    phi(x) = gamma(x) + psi(gamma(x))

The residual GP is trained on inputs gamma(S) with targets T - gamma(S), so
by construction phi interpolates the keypoint pairs (up to the GP noise
floor) and reverts to the plain rigid map far from every keypoint, where the
zero-mean prior takes over.

Because gamma is affine with Jacobian A, the map's Jacobian is

    J(x) = A + Dpsi(gamma(x)) A

which transports velocities as J xdot, orientations through the rotation
factor of J's polar decomposition, and stiffness/damping by congruence with
that rotation factor. Derivative uncertainty of the GP propagates to a
variance for each Jacobian entry and, contracted against the squared
velocity, to a velocity variance.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .affine import AffineMap, fit_affine
from .gp import NOISE_FLOOR_RATIO, GPModel, fit_gp, predict_derivative, predict_mean, predict_variance
from .types import PairedKeypoints, PolicyLabels, _freeze, load_json, save_json

# Keypoint-match tolerance as a fraction of the target-set diameter.
TOL_MATCH_SCALE = 1e-3
# Smallest/largest singular value below this ratio marks J as near-singular.
NEAR_SINGULAR_RATIO = 1e-9
# Upper bound for the residual GP's optimized noise-to-signal ratio; keeping
# it this small forces near-interpolation of the keypoint residuals.
RESIDUAL_NOISE_RATIO_CAP = 1e-6


@dataclass(frozen=True, eq=False)
class TransportMap:
    """Fitted transportation map: rigid part, residual GP, training pairs."""

    affine: AffineMap
    residual: GPModel
    keypoints: PairedKeypoints
    warnings: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.affine.dim

    @cached_property
    def keypoint_errors(self) -> np.ndarray:
        """Distance from each target keypoint to the image of its source
        keypoint; the same values as ``transport_points`` gives."""
        aligned = self.affine.apply(self.keypoints.source.points)
        mapped = aligned + predict_mean(self.residual, aligned)
        return _freeze(np.linalg.norm(mapped - self.keypoints.target.points, axis=1))

    def to_dict(self) -> dict:
        return {
            "affine": self.affine.to_dict(),
            "residual": self.residual.to_dict(),
            "keypoints": self.keypoints.to_dict(),
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TransportMap":
        return cls(
            affine=AffineMap.from_dict(data["affine"]),
            residual=GPModel.from_dict(data["residual"]),
            keypoints=PairedKeypoints.from_dict(data["keypoints"]),
            warnings=tuple(data.get("warnings", ())),
        )


def save_transport_map(tmap: TransportMap, path) -> None:
    save_json(tmap.to_dict(), path)


def load_transport_map(path) -> TransportMap:
    return TransportMap.from_dict(load_json(path))


@dataclass(frozen=True, eq=False)
class TransportedLabels:
    """Image of a PolicyLabels set under a transportation map.

    ``position_variance`` and ``velocity_variance`` are per-sample scalars
    shared across coordinates (the residual GP uses one set of
    hyperparameters for all output dimensions, and velocity variance
    contracts the per-entry Jacobian variance against the squared velocity).
    """

    positions: np.ndarray
    position_variance: np.ndarray
    jacobians: np.ndarray
    projected_rotations: np.ndarray
    velocities: np.ndarray | None = None
    velocity_variance: np.ndarray | None = None
    orientations: np.ndarray | None = None
    stiffness: np.ndarray | None = None
    damping: np.ndarray | None = None
    warnings: tuple[str, ...] = ()

    @property
    def m(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def to_csv(self, path) -> None:
        """One row per label; matrix-valued fields are flattened row-major."""
        dim = self.dim
        axes = range(dim)

        def mat_cols(tag):
            return [f"{tag}_{a}{b}" for a in axes for b in axes]

        header = ["index"]
        header += [f"pos_{a}" for a in axes] + ["pos_var"]
        if self.velocities is not None:
            header += [f"vel_{a}" for a in axes] + ["vel_var"]
        if self.orientations is not None:
            header += mat_cols("rot")
        if self.stiffness is not None:
            header += mat_cols("stiff")
        if self.damping is not None:
            header += mat_cols("damp")
        header += mat_cols("jac") + mat_cols("proj")

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.m):
                row = [i]
                row += list(self.positions[i]) + [self.position_variance[i]]
                if self.velocities is not None:
                    row += list(self.velocities[i]) + [self.velocity_variance[i]]
                for field in (self.orientations, self.stiffness, self.damping):
                    if field is not None:
                        row += list(field[i].ravel())
                row += list(self.jacobians[i].ravel())
                row += list(self.projected_rotations[i].ravel())
                writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def fit_transport(kp: PairedKeypoints) -> TransportMap:
    """Fit phi = gamma + psi(gamma(.)) to the paired keypoints.

    The rigid part comes first; the GP residual is then fitted on inputs
    gamma(S) against targets T - gamma(S) with its noise ratio capped near
    zero so that every keypoint is matched within
    ``TOL_MATCH_SCALE * target diameter``. If the optimized fit misses that
    tolerance, the fit is retried with the noise pinned at the floor; a
    persistent miss attaches a warning rather than failing.
    """
    affine = fit_affine(kp)
    aligned = affine.apply(kp.source.points)
    residual_targets = kp.target.points - aligned

    residual = fit_gp(aligned, residual_targets, noise_ratio_cap=RESIDUAL_NOISE_RATIO_CAP)
    tmap = TransportMap(affine=affine, residual=residual, keypoints=kp)

    diam = kp.target.diameter()
    tol = TOL_MATCH_SCALE * (diam if diam > 0 else 1.0)
    err = float(tmap.keypoint_errors.max())
    if err > tol:
        pinned = fit_gp(aligned, residual_targets, noise_ratio_cap=NOISE_FLOOR_RATIO)
        pinned_map = TransportMap(affine=affine, residual=pinned, keypoints=kp)
        pinned_err = float(pinned_map.keypoint_errors.max())
        if pinned_err < err:
            tmap, err = pinned_map, pinned_err
        if err > tol:
            note = f"keypoint match tolerance exceeded: max error {err:.3e} > {tol:.3e}"
            tmap = replace(tmap, warnings=(note,))
    return tmap


def _as_points(tmap: TransportMap, x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != tmap.dim:
        raise ValueError(f"expected points of dimension {tmap.dim}")
    return pts, single


def transport_points(tmap: TransportMap, points) -> tuple[np.ndarray, np.ndarray]:
    """phi at a batch of points plus the per-point GP posterior variance
    (scalar per point, shared across coordinates). A single 1-d point
    gives its image and a float variance."""
    pts, single = _as_points(tmap, points)
    aligned = tmap.affine.apply(pts)
    mean = aligned + predict_mean(tmap.residual, aligned)
    var = np.atleast_1d(predict_variance(tmap.residual, aligned))
    if single:
        return mean[0], float(var[0])
    return mean, var


def transport_jacobians(tmap: TransportMap, points) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians J = A + Dpsi(gamma(x)) A and per-entry derivative variances.

    The second return value holds, for each point, the matrix
    A^T Sigma' A whose diagonal entry (b, b) is the variance of every
    Jacobian entry in column b (output rows share hyperparameters, hence
    share the variance). A single 1-d point gives one matrix of each.
    """
    pts, single = _as_points(tmap, points)
    aligned = tmap.affine.apply(pts)
    dpsi, dvar = predict_derivative(tmap.residual, aligned)
    rot = tmap.affine.rotation
    jac = rot[None, :, :] + np.einsum("qac,cb->qab", dpsi, rot)
    jac_var = np.einsum("ca,qcd,db->qab", rot, dvar, rot)
    if single:
        return jac[0], jac_var[0]
    return jac, jac_var


def polar_rotation(jacobian: np.ndarray) -> tuple[np.ndarray, str | None]:
    """Rotation factor of the polar decomposition, forced into SO(dim).

    Uses the SVD J = U S V^T and returns U diag(1, ..., 1, det(UV^T)) V^T,
    which equals the standard polar factor when det(J) > 0 and flips its
    last principal direction otherwise so the determinant stays +1. Returns
    a warning string when J is near singular (the factor is then chosen
    deterministically but is not unique).
    """
    jac = np.asarray(jacobian, dtype=float)
    u, s, vt = np.linalg.svd(jac)
    d = 1.0 if np.linalg.det(u @ vt) >= 0 else -1.0
    factors = np.ones(jac.shape[0])
    factors[-1] = d
    rot = (u * factors) @ vt
    note = None
    if s[-1] < NEAR_SINGULAR_RATIO * s[0]:
        note = "near-singular jacobian: polar rotation factor not unique"
    return rot, note


def transport_labels(tmap: TransportMap, labels: PolicyLabels) -> TransportedLabels:
    """Transport every provided label family through the map.

    Positions map through phi; velocities through J; orientations through
    the polar rotation factor of J; stiffness and damping by congruence
    with that factor. Absent optional labels stay absent.
    """
    if labels.dim != tmap.dim:
        raise ValueError(f"labels have dimension {labels.dim}, map {tmap.dim}")

    positions, pos_var = transport_points(tmap, labels.positions)
    jac, jac_var = transport_jacobians(tmap, labels.positions)

    notes: list[str] = []
    proj = np.empty_like(jac)
    for i in range(jac.shape[0]):
        proj[i], note = polar_rotation(jac[i])
        if note is not None:
            notes.append(f"label {i}: {note}")

    velocities = None
    vel_var = None
    if labels.velocities is not None:
        velocities = np.einsum("mab,mb->ma", jac, labels.velocities)
        diag = np.einsum("mbb->mb", jac_var)
        vel_var = np.einsum("mb,mb->m", diag, labels.velocities**2)

    orientations = None
    if labels.orientations is not None:
        orientations = np.einsum("mab,mbc->mac", proj, labels.orientations)

    stiffness = None
    if labels.stiffness is not None:
        stiffness = np.einsum("mab,mbc,mdc->mad", proj, labels.stiffness, proj)

    damping = None
    if labels.damping is not None:
        damping = np.einsum("mab,mbc,mdc->mad", proj, labels.damping, proj)

    def freeze_opt(arr):
        return None if arr is None else _freeze(arr)

    return TransportedLabels(
        positions=_freeze(positions),
        position_variance=_freeze(np.atleast_1d(pos_var)),
        jacobians=_freeze(jac),
        projected_rotations=_freeze(proj),
        velocities=freeze_opt(velocities),
        velocity_variance=freeze_opt(vel_var),
        orientations=freeze_opt(orientations),
        stiffness=freeze_opt(stiffness),
        damping=freeze_opt(damping),
        warnings=tuple(notes),
    )


def transport_uncertainty(tmap: TransportMap, labels: PolicyLabels, policy_variance) -> np.ndarray:
    """Total per-label variance: supplied policy variance plus the
    transportation (velocity) variance.

    The transportation term contracts the per-entry Jacobian variance
    against the squared velocity, var_i = sum_b Var[dphi/dx_b](xdot_b)^2,
    and vanishes when velocities are absent or zero, so with zero policy
    variance the output equals the transportation variance exactly.
    """
    pol = np.asarray(policy_variance, dtype=float).ravel()
    if pol.size != labels.m:
        raise ValueError(f"expected {labels.m} variances, got {pol.size}")
    if np.any(pol < 0) or not np.all(np.isfinite(pol)):
        raise ValueError("policy variance must be finite and nonnegative")

    if labels.velocities is None:
        transport_var = np.zeros(labels.m)
    else:
        _, jac_var = transport_jacobians(tmap, labels.positions)
        diag = np.einsum("mbb->mb", jac_var)
        transport_var = np.einsum("mb,mb->m", diag, labels.velocities**2)
    return pol + transport_var


@dataclass(frozen=True, eq=False)
class DiffeoReport:
    """Sampled check of local invertibility: sign of det J at the probe
    points plus the necessary condition that all keypoint determinants
    share one sign."""

    fraction_positive: float
    determinants: np.ndarray
    keypoint_determinants: np.ndarray
    keypoints_sign_uniform: bool


def check_local_diffeomorphism(tmap: TransportMap, points) -> DiffeoReport:
    """Evaluate det J at the probe points and at the source keypoints.

    Reports the fraction of probe points with positive determinant and
    whether the keypoint determinants all share a sign — a necessary (not
    sufficient) condition for the map to be a local diffeomorphism on the
    region spanned by the keypoints. The check samples; it never certifies
    global invertibility.
    """
    pts, _ = _as_points(tmap, points)
    if pts.shape[0] < 1:
        raise ValueError("at least one probe point required")
    jac, _ = transport_jacobians(tmap, pts)
    dets = np.linalg.det(jac)

    kp_jac, _ = transport_jacobians(tmap, tmap.keypoints.source.points)
    kp_dets = np.linalg.det(kp_jac)
    uniform = bool(np.all(kp_dets > 0) or np.all(kp_dets < 0))

    return DiffeoReport(
        fraction_positive=float(np.mean(dets > 0)),
        determinants=_freeze(dets),
        keypoint_determinants=_freeze(kp_dets),
        keypoints_sign_uniform=uniform,
    )
