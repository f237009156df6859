"""Rigid-alignment fitting against grid-search and inequality oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_rigid_pair, rotation_2d, so2_grid_rotation
from poltrans import PairedKeypoints, PointSet, fit_affine, is_rotation
from poltrans.affine import AffineMap


def residual_norm(kp, mapping):
    return float(np.linalg.norm(mapping.apply(kp.source.points) - kp.target.points))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.sampled_from([2, 3]))
def test_recovers_exact_rigid_motion(seed, n, dim):
    # exact recovery needs the centered points to span at least dim-1
    # directions (rank-deficient cases fall back to a pure translation)
    rng = np.random.default_rng(seed)
    kp, rot, shift = random_rigid_pair(rng, n=max(n, dim), dim=dim)
    mapping = fit_affine(kp)
    assert is_rotation(mapping.rotation)
    assert_allclose(mapping.apply(kp.source.points), kp.target.points, atol=1e-9)
    # the generating rotation is identifiable once the points span the plane
    if np.linalg.matrix_rank(kp.source.points - kp.source.points.mean(0)) == dim:
        assert_allclose(mapping.rotation, rot, atol=1e-8)


def test_matches_grid_search_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        src = rng.uniform(-1, 1, (9, 2))
        tgt = rng.uniform(-1, 1, (9, 2))
        kp = PairedKeypoints(PointSet(src), PointSet(tgt))
        mapping = fit_affine(kp)
        oracle = so2_grid_rotation(src, tgt)
        assert np.abs(mapping.rotation - oracle).max() < 1e-6


def test_residual_never_worse_than_plain_translation():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        src = rng.uniform(-2, 2, (n, 2))
        tgt = rng.uniform(-2, 2, (n, 2))
        kp = PairedKeypoints(PointSet(src), PointSet(tgt))
        fitted = residual_norm(kp, fit_affine(kp))
        shift_only = float(
            np.linalg.norm((src + tgt.mean(0) - src.mean(0)) - tgt)
        )
        raw = float(np.linalg.norm(src - tgt))
        assert fitted <= shift_only + 1e-12
        assert shift_only <= raw + 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    src = rng.uniform(-1, 1, (12, 2))
    tgt = rng.uniform(-1, 1, (12, 2))
    order = rng.permutation(12)
    a = fit_affine(PairedKeypoints(PointSet(src), PointSet(tgt)))
    b = fit_affine(PairedKeypoints(PointSet(src[order]), PointSet(tgt[order])))
    assert_allclose(a.rotation, b.rotation, atol=1e-12)
    assert_allclose(a.source_centroid, b.source_centroid, atol=1e-12)
    assert_allclose(a.target_centroid, b.target_centroid, atol=1e-12)


def test_single_pair_gives_pure_translation():
    kp = PairedKeypoints(PointSet([[1.0, 2.0]]), PointSet([[3.0, 5.0]]))
    mapping = fit_affine(kp)
    assert_allclose(mapping.rotation, np.eye(2), atol=0)
    assert_allclose(mapping.apply(np.array([[1.0, 2.0]])), [[3.0, 5.0]], atol=1e-12)


def test_coincident_points_give_identity_rotation():
    src = np.zeros((4, 2))
    tgt = np.ones((4, 2))
    mapping = fit_affine(PairedKeypoints(PointSet(src), PointSet(tgt)))
    assert_allclose(mapping.rotation, np.eye(2), atol=0)


def test_collinear_lines_still_align():
    src = np.stack([np.linspace(0, 1, 5), np.zeros(5)], axis=1)
    tgt = np.stack([np.zeros(5), np.linspace(0, 1, 5)], axis=1)
    mapping = fit_affine(PairedKeypoints(PointSet(src), PointSet(tgt)))
    assert is_rotation(mapping.rotation)
    assert_allclose(mapping.apply(src), tgt, atol=1e-9)


def test_mirror_data_yields_rotation_not_reflection():
    rng = np.random.default_rng(5)
    src = rng.uniform(-1, 1, (8, 2))
    tgt = src * np.array([-1.0, 1.0])  # a reflection would fit exactly
    mapping = fit_affine(PairedKeypoints(PointSet(src), PointSet(tgt)))
    assert is_rotation(mapping.rotation)
    assert np.linalg.det(mapping.rotation) == pytest.approx(1.0)
    # still at least as good as translation alone
    kp = PairedKeypoints(PointSet(src), PointSet(tgt))
    assert residual_norm(kp, mapping) <= float(
        np.linalg.norm((src + tgt.mean(0) - src.mean(0)) - tgt)
    ) + 1e-12


def test_apply_maps_batches_and_rejects_a_1d_point():
    mapping = AffineMap(
        rotation=rotation_2d(0.5),
        source_centroid=np.array([1.0, 0.0]),
        target_centroid=np.array([0.0, 2.0]),
    )
    one = mapping.apply(np.array([[1.0, 0.0]]))
    assert one.shape == (1, 2)
    assert_allclose(one[0], [0.0, 2.0], atol=1e-15)
    batch = mapping.apply(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert batch.shape == (2, 2)
    assert_allclose(batch[:1], one, atol=0)
    with pytest.raises(ValueError, match="points must have dimension 2"):
        mapping.apply(np.array([1.0, 0.0]))


def test_identity_on_identical_sets():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, (6, 2))
    kp = PairedKeypoints(PointSet(pts), PointSet(pts))
    mapping = fit_affine(kp)
    assert_allclose(mapping.rotation, np.eye(2), atol=1e-12)
    assert residual_norm(kp, mapping) < 1e-12
