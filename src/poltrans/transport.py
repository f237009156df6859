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

Points go in and come out as (N, dim) batches, one row per point; a lone
point is the one-row batch ``x[None]``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .affine import AffineMap, fit_affine
from .gp import NOISE_FLOOR_RATIO, GPModel, KernelParams, build_gp, fit_gp
from .gp import _mean_derivative, predict_derivative, predict_mean, predict_variance
from .types import PairedKeypoints, PolicyLabels, _decode, _freeze, load_json, save_json

# Keypoint-match tolerance as a fraction of the target-set diameter.
TOL_MATCH_SCALE = 1e-3
# A difference of at most this many ulps of its operands' largest coordinate
# is round-off, whose error grows with the coordinates, not with the
# diameter (``zero_roundoff``). On flat and tilt surface scenes the map's
# residuals measured at most 3.2 such ulps and reshaped_kmp's labels 2.7; on
# bent surface scenes and the frames pairings, at least 7e13 and 1.3e14.
ROUNDOFF_ULPS = 64
# Smallest/largest singular value at or below this ratio marks J as
# near-singular; an all-zero J (0 <= 0) is flagged too.
NEAR_SINGULAR_RATIO = 1e-9
# Matrix-valued label families carried by the polar rotation factor R of J,
# each with its CSV column tag: orientations turn as R O, stiffness and
# damping transform by congruence R K R^T.
ROTATED_FAMILIES = (
    ("orientations", "rot", lambda rot, x: np.einsum("mab,mbc->mac", rot, x)),
    ("stiffness", "stiff", lambda rot, x: np.einsum("mab,mbc,mdc->mad", rot, x, rot)),
    ("damping", "damp", lambda rot, x: np.einsum("mab,mbc,mdc->mad", rot, x, rot)),
)


def match_tolerance(kp: PairedKeypoints) -> float:
    """How far a fitted map may leave a source keypoint from its target:
    ``TOL_MATCH_SCALE`` times the target diameter, or times 1 when that is 0."""
    diam = kp.target.diameter()
    return TOL_MATCH_SCALE * (diam if diam > 0 else 1.0)


def zero_roundoff(difference: np.ndarray, *operands: np.ndarray) -> np.ndarray:
    """``difference``, or exact zeros of its shape when none of its entries
    exceeds ``ROUNDOFF_ULPS`` ulps of the largest coordinate of
    ``operands``: such a difference is the rounding of the operands, not a
    displacement."""
    scale = max(np.abs(operand).max() for operand in operands)
    if np.abs(difference).max() <= ROUNDOFF_ULPS * np.finfo(float).eps * scale:
        return np.zeros_like(difference)
    return difference


def _residual_data(affine: AffineMap, kp: PairedKeypoints) -> tuple[np.ndarray, np.ndarray]:
    """The residual GP's training set: inputs gamma(S), targets T - gamma(S).

    Targets that are round-off of S and T (:func:`zero_roundoff`) are the
    rounding of gamma(S), not a residual, and are returned as exact zeros:
    the rigid part then explains the keypoints and the map is exactly rigid.
    """
    aligned = affine.apply(kp.source.points)
    targets = zero_roundoff(kp.target.points - aligned, kp.source.points, kp.target.points)
    return aligned, targets


@dataclass(frozen=True, eq=False)
class TransportMap:
    """Fitted transportation map: rigid part, residual GP, training pairs.
    Its file holds the keypoints and the residual's hyperparameters; the
    rigid part (``fit_affine``), the residual's training set
    (``_residual_data``) and the warnings follow from them, on load as on fit."""

    affine: AffineMap
    residual: GPModel
    keypoints: PairedKeypoints

    @property
    def dim(self) -> int:
        return self.affine.dim

    @cached_property
    def keypoint_errors(self) -> np.ndarray:
        """Distance from each target keypoint to the image of its source
        keypoint; the same values as ``transport_points`` gives."""
        aligned = self.residual.inputs  # gamma(S), bitwise
        mapped = aligned + predict_mean(self.residual, aligned)
        return _freeze(np.linalg.norm(mapped - self.keypoints.target.points, axis=1))

    @cached_property
    def keypoint_determinants(self) -> np.ndarray:
        """det J at each source keypoint."""
        return _freeze(np.linalg.det(_mean_jacobians(self, self.keypoints.source.points)))

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        """The rigid part's warnings, plus a note when some source keypoint
        maps farther than :func:`match_tolerance` from its target."""
        err, tol = float(self.keypoint_errors.max()), match_tolerance(self.keypoints)
        note = f"keypoint match tolerance exceeded: max error {err:.3e} > {tol:.3e}"
        return self.affine.warnings + ((note,) if err > tol else ())

    def to_dict(self) -> dict:
        return {"keypoints": self.keypoints.to_dict(), "params": self.residual.params.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "TransportMap":
        for key in ("keypoints", "params"):
            if key not in data:
                raise ValueError(f"map file has no {key!r} key; refit the map with 'poltrans fit'")
        kp = _decode(PairedKeypoints, data["keypoints"], "TransportMap.keypoints")
        params = _decode(KernelParams, data["params"], "TransportMap.params")
        affine = fit_affine(kp)
        return cls(affine=affine, residual=build_gp(*_residual_data(affine, kp), params), keypoints=kp)


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
        """One row per label: index, position and its variance, velocity and
        its variance, each matrix family, the Jacobian and its rotation
        factor. Absent families have no columns; matrices are flattened
        row-major."""
        axes = range(self.dim)
        header = ["index", *(f"pos_{a}" for a in axes), "pos_var"]
        columns = [np.arange(self.m), self.positions, self.position_variance]
        if self.velocities is not None:
            header += [*(f"vel_{a}" for a in axes), "vel_var"]
            columns += [self.velocities, self.velocity_variance]
        matrices = [(name, tag) for name, tag, _ in ROTATED_FAMILIES]
        matrices += [("jacobians", "jac"), ("projected_rotations", "proj")]
        for name, tag in matrices:
            field = getattr(self, name)
            if field is not None:
                header += [f"{tag}_{a}{b}" for a in axes for b in axes]
                columns.append(field.reshape(self.m, -1))
        table = np.column_stack(columns)
        fmt = ["%d"] + ["%.17g"] * (table.shape[1] - 1)
        with open(path, "w", newline="") as fh:
            np.savetxt(
                fh, table, fmt=fmt, delimiter=",", newline="\r\n", header=",".join(header), comments=""
            )


def fit_transport(kp: PairedKeypoints) -> TransportMap:
    """Fit phi = gamma + psi(gamma(.)) to the paired keypoints.

    The rigid part comes first; the GP residual is then fitted on inputs
    gamma(S) against targets T - gamma(S) (exact zeros when they are
    round-off, which fit no hyperparameters) at ``fit_gp``'s default noise
    ratio, 1e-6 of the signal variance, so that every keypoint is matched
    within :func:`match_tolerance`. If the optimized fit misses that
    tolerance, it is refitted with the noise pinned at the floor and the
    closer fit is kept; ``warnings`` names a persistent miss.
    """
    affine = fit_affine(kp)
    aligned, residual_targets = _residual_data(affine, kp)
    tmap = TransportMap(affine=affine, residual=fit_gp(aligned, residual_targets), keypoints=kp)

    err = float(tmap.keypoint_errors.max())
    if err > match_tolerance(kp):
        pinned = replace(tmap, residual=fit_gp(aligned, residual_targets, noise_ratio=NOISE_FLOOR_RATIO))
        if float(pinned.keypoint_errors.max()) < err:
            tmap = pinned
    return tmap


def transport_points(tmap: TransportMap, points) -> tuple[np.ndarray, np.ndarray]:
    """phi at an (N, dim) batch of points plus the per-point GP posterior
    variance (scalar per point, shared across coordinates), shape (N,)."""
    aligned = tmap.affine.apply(points)
    mean = aligned + predict_mean(tmap.residual, aligned)
    return mean, predict_variance(tmap.residual, aligned)


def transport_jacobians(tmap: TransportMap, points) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians J = A + Dpsi(gamma(x)) A and per-entry derivative variances
    at an (N, dim) batch of points, each of shape (N, dim, dim).

    The second return value holds, for each point, the matrix
    A^T Sigma' A whose diagonal entry (b, b) is the variance of every
    Jacobian entry in column b (output rows share hyperparameters, hence
    share the variance).
    """
    aligned = tmap.affine.apply(points)
    dpsi, dvar = predict_derivative(tmap.residual, aligned)
    rot = tmap.affine.rotation
    jac_var = np.einsum("ca,qcd,db->qab", rot, dvar, rot)
    return _chain(rot, dpsi), jac_var


def _mean_jacobians(tmap: TransportMap, points) -> np.ndarray:
    """The Jacobians of :func:`transport_jacobians`, bit for bit, without
    their variances, whose covariance solve dominates that call."""
    dpsi, _ = _mean_derivative(tmap.residual, tmap.affine.apply(points))
    return _chain(tmap.affine.rotation, dpsi)


def _chain(rot: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """J = A + Dpsi A, the chain rule through the rigid part."""
    return rot[None, :, :] + np.einsum("qac,cb->qab", dpsi, rot)


def polar_rotation(jacobian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation factor of the polar decomposition, forced into SO(dim).

    Takes one (d, d) matrix or a (..., d, d) stack. Uses the SVD
    J = U S V^T and returns U diag(1, ..., 1, det(UV^T)) V^T, which equals
    the standard polar factor when det(J) > 0 and flips its last principal
    direction otherwise so the determinant stays +1. The second return
    value, a bool array of the stack's leading shape, marks the near
    singular J, whose factor is chosen deterministically but is not unique.
    """
    u, s, vt = np.linalg.svd(np.asarray(jacobian, dtype=float))
    u[..., -1] *= np.where(np.linalg.det(u @ vt) >= 0, 1.0, -1.0)[..., None]
    return u @ vt, s[..., -1] <= NEAR_SINGULAR_RATIO * s[..., 0]


def _velocity_variance(jac_var: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """sum_b Var[dphi/dx_b] (xdot_b)^2 per label, from the per-entry
    Jacobian variances that ``transport_jacobians`` returns."""
    return np.einsum("mb,mb->m", np.einsum("mbb->mb", jac_var), velocities**2)


def transport_labels(tmap: TransportMap, labels: PolicyLabels) -> TransportedLabels:
    """Transport every provided label family through the map.

    Positions map through phi; velocities through J; orientations through
    the polar rotation factor of J; stiffness and damping by congruence
    with that factor. Absent optional labels stay absent.
    """
    if labels.dim != tmap.dim:
        raise ValueError(f"labels have dimension {labels.dim}, map expects {tmap.dim}")

    positions, pos_var = transport_points(tmap, labels.positions)
    jac, jac_var = transport_jacobians(tmap, labels.positions)
    proj, near_singular = polar_rotation(jac)
    notes = tuple(
        f"label {i}: near-singular jacobian: polar rotation factor not unique"
        for i in np.flatnonzero(near_singular)
    )
    optional = {
        name: _freeze(transform(proj, getattr(labels, name)))
        for name, _, transform in ROTATED_FAMILIES
        if getattr(labels, name) is not None
    }
    if labels.velocities is not None:
        optional["velocities"] = _freeze(np.einsum("mab,mb->ma", jac, labels.velocities))
        optional["velocity_variance"] = _freeze(_velocity_variance(jac_var, labels.velocities))

    return TransportedLabels(
        positions=_freeze(positions),
        position_variance=_freeze(pos_var),
        jacobians=_freeze(jac),
        projected_rotations=_freeze(proj),
        warnings=notes,
        **optional,
    )


def transport_uncertainty(moved: TransportedLabels, policy_variance) -> np.ndarray:
    """Total per-label variance: supplied policy variance plus the
    transportation (velocity) variance that ``transport_labels`` computed.

    The transportation term contracts the per-entry Jacobian variance
    against the squared velocity, var_i = sum_b Var[dphi/dx_b](xdot_b)^2,
    and vanishes when velocities are absent or zero, so with zero policy
    variance the output equals the transportation variance exactly.
    """
    pol = np.array(policy_variance, dtype=float).ravel()
    if pol.size != moved.m:
        raise ValueError(f"expected {moved.m} variances, got {pol.size}")
    if np.any(pol < 0) or not np.all(np.isfinite(pol)):
        raise ValueError("policy variance must be finite and nonnegative")
    if moved.velocity_variance is None:
        return pol
    return pol + moved.velocity_variance


@dataclass(frozen=True, eq=False)
class DiffeoReport:
    """Sampled check of local invertibility: sign of det J at the probe
    points plus the necessary condition that all keypoint determinants
    share one sign."""

    fraction_positive: float
    determinants: np.ndarray
    keypoint_determinants: np.ndarray
    keypoints_sign_uniform: bool

    @classmethod
    def from_jacobians(cls, tmap: TransportMap, jacobians: np.ndarray) -> "DiffeoReport":
        """Report on the Jacobians of a map at its probe points."""
        dets = np.linalg.det(jacobians)
        kp_dets = tmap.keypoint_determinants
        return cls(
            fraction_positive=float(np.mean(dets > 0)),
            determinants=_freeze(dets),
            keypoint_determinants=kp_dets,
            keypoints_sign_uniform=bool(np.all(kp_dets > 0) or np.all(kp_dets < 0)),
        )


def check_local_diffeomorphism(tmap: TransportMap, points) -> DiffeoReport:
    """Evaluate det J at the probe points and at the source keypoints.

    Reports the fraction of probe points with positive determinant and
    whether the keypoint determinants all share a sign — a necessary (not
    sufficient) condition for the map to be a local diffeomorphism on the
    region spanned by the keypoints. The check samples; it never certifies
    global invertibility.
    """
    jac = _mean_jacobians(tmap, points)
    if jac.shape[0] < 1:
        raise ValueError("at least one probe point required")
    return DiffeoReport.from_jacobians(tmap, jac)
