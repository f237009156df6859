"""Global rigid component of the transportation map.

Fits the proper rotation + translation that best aligns the source keypoints
to the target keypoints in the least-squares sense, following the classic
SVD construction for paired point sets (Arun/Kabsch). Scaling and shear are
never fitted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import PairedKeypoints, _as_batch, _freeze, is_rotation

# A singular value counts as zero below this fraction of the largest one.
DEGENERATE_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> rotation @ (x - source_centroid) + target_centroid.

    ``warnings`` names what the fit could not determine. The map has no
    file form: it follows from the keypoints it was fitted to
    (:func:`fit_affine`), which a transport map's file holds."""

    rotation: np.ndarray
    source_centroid: np.ndarray
    target_centroid: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        src = np.asarray(self.source_centroid, dtype=float).ravel()
        tgt = np.asarray(self.target_centroid, dtype=float).ravel()
        if rot.shape != (src.size, src.size) or tgt.size != src.size:
            raise ValueError("inconsistent rotation/centroid dimensions")
        if not is_rotation(rot):
            raise ValueError("rotation must be proper (orthogonal, det +1)")
        object.__setattr__(self, "rotation", _freeze(rot))
        object.__setattr__(self, "source_centroid", _freeze(src))
        object.__setattr__(self, "target_centroid", _freeze(tgt))

    @property
    def dim(self) -> int:
        return self.source_centroid.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map an (N, dim) batch of points through the transform."""
        pts = _as_batch(x, "points", self.dim)
        return (pts - self.source_centroid) @ self.rotation.T + self.target_centroid


def _turn(axis: np.ndarray, cos: float) -> np.ndarray:
    """Rodrigues' rotation about ``axis`` = a x b by the angle between unit
    vectors a and b, whose cosine ``cos`` is not negative: I + K + K^2 / (1 + cos)."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + k + (k @ k) / (1.0 + cos)


def _smallest_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 3-D rotation by the smallest angle that carries unit vector a
    onto unit vector b: about a x b, by the angle between them.

    When a and b point apart, a x b loses its leading digits, so the
    rotation carries a onto -b the short way and then turns 180 degrees
    about a x b made exactly normal to b. When b = -a every axis normal to
    a is as short; the half turn is then about b x e, e the coordinate
    axis of b's smallest |component| (the first one on a tie)."""
    axis = np.cross(a, b)
    cos = float(a @ b)
    if cos >= 0.0:
        return _turn(axis, cos)
    normal = axis - (axis @ b) * b
    if np.linalg.norm(normal) <= DEGENERATE_REL_TOL:
        normal = np.cross(b, np.eye(3)[np.argmin(np.abs(b))])
    normal /= np.linalg.norm(normal)
    return (2.0 * np.outer(normal, normal) - np.eye(3)) @ _turn(-axis, -cos)


def fit_affine(kp: PairedKeypoints) -> AffineMap:
    """Fit the optimal rigid alignment between paired keypoint sets.

    The rotation comes from the SVD of the centered cross-covariance
    (S - S_bar)^T (T - T_bar) = U Sigma V^T as A = V U^T. If that product
    reflects (det < 0), the last column of V is flipped in sign and A is
    recomputed, which yields the optimal proper rotation because singular
    values are sorted descending. A single vanishing singular value
    (relative to the largest; coplanar points in 3D, collinear in 2D) keeps
    the flip-rule construction. When all vanish (coincident points) the
    rotation is the identity. In 3D, two vanishing values (collinear
    points) leave Sigma_1 u_1 v_1^T, so every rotation carrying u_1 onto v_1
    is optimal and the spin about v_1 is free: the fit takes the smallest
    such rotation and says so in ``warnings``.
    """
    src = kp.source.points
    tgt = kp.target.points
    src_centroid = src.mean(axis=0)
    tgt_centroid = tgt.mean(axis=0)

    cross = (src - src_centroid).T @ (tgt - tgt_centroid)
    u, sigma, vt = np.linalg.svd(cross)

    # All-zero sigma (coincident points) counts dim zeros.
    n_zero = int(np.sum(sigma <= DEGENERATE_REL_TOL * sigma[0]))
    warnings = ()
    if n_zero == kp.dim:
        rotation = np.eye(kp.dim)
    elif n_zero == 2:
        rotation = _smallest_rotation(u[:, 0], vt[0])
        warnings = (
            "collinear keypoints: the rotation about the target line is free; "
            "took the smallest rotation carrying the source line onto it",
        )
    else:
        v = vt.T
        rotation = v @ u.T
        if np.linalg.det(rotation) < 0:
            v = v.copy()
            v[:, -1] *= -1.0
            rotation = v @ u.T

    return AffineMap(
        rotation=rotation,
        source_centroid=src_centroid,
        target_centroid=tgt_centroid,
        warnings=warnings,
    )
