"""Global rigid component of the transportation map.

Fits the proper rotation + translation that best aligns the source keypoints
to the target keypoints in the least-squares sense, following the classic
SVD construction for paired point sets (Arun/Kabsch). Scaling and shear are
never fitted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import PairedKeypoints, _as_batch, _freeze, from_dict, is_rotation, to_dict

# A singular value counts as zero below this fraction of the largest one.
DEGENERATE_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> rotation @ (x - source_centroid) + target_centroid."""

    rotation: np.ndarray
    source_centroid: np.ndarray
    target_centroid: np.ndarray

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

    to_dict = to_dict
    from_dict = classmethod(from_dict)


def fit_affine(kp: PairedKeypoints) -> AffineMap:
    """Fit the optimal rigid alignment between paired keypoint sets.

    The rotation comes from the SVD of the centered cross-covariance
    (S - S_bar)^T (T - T_bar) = U Sigma V^T as A = V U^T. If that product
    reflects (det < 0), the last column of V is flipped in sign and A is
    recomputed, which yields the optimal proper rotation because singular
    values are sorted descending. When at least two singular values vanish
    (relative to the largest) the rotation is not uniquely determined and
    is set to the identity; a single vanishing singular value (coplanar
    points in 3D, collinear in 2D) keeps the flip-rule construction.
    """
    src = kp.source.points
    tgt = kp.target.points
    src_centroid = src.mean(axis=0)
    tgt_centroid = tgt.mean(axis=0)

    cross = (src - src_centroid).T @ (tgt - tgt_centroid)
    u, sigma, vt = np.linalg.svd(cross)

    # All-zero sigma (coincident points) counts dim >= 2 zeros.
    n_zero = int(np.sum(sigma <= DEGENERATE_REL_TOL * sigma[0]))
    if n_zero >= 2:
        rotation = np.eye(kp.dim)
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
    )
