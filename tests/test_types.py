"""Container invariants, validation reports, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.spatial.distance import cdist, pdist

import poltrans
from conftest import loop_validate_labels, random_rotation, rotation_2d
from poltrans import (
    PairedKeypoints,
    PointSet,
    PolicyLabels,
    Trajectory,
    is_rotation,
    load_json,
    rotation_residual,
    save_json,
    validate_labels,
)
from poltrans.types import _sq_dists


class TestPointSet:
    def test_basic_properties(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert ps.n == 4
        assert ps.dim == 2
        assert ps.diameter() == pytest.approx(np.sqrt(2.0))

    def test_single_point_diameter_is_zero(self):
        assert PointSet([[3.0, 4.0]]).diameter() == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_distances_equal_scipy(self, dim):
        rng = np.random.default_rng(40 + dim)
        for n in (1, 2, 3, 17, 200):
            a = rng.uniform(-5.0, 5.0, (n, dim)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.uniform(-5.0, 5.0, (n + 3, dim))
            assert np.array_equal(np.sqrt(_sq_dists(a, b)), cdist(a, b))
            expected = float(pdist(a).max()) if n > 1 else 0.0
            assert PointSet(a).diameter() == expected

    def test_points_are_read_only(self):
        ps = PointSet([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [[[1.0]], [[1.0, 2.0, 3.0, 4.0]]])
    def test_rejects_unsupported_dimension(self, bad):
        with pytest.raises(ValueError, match="dimension"):
            PointSet(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointSet([[0.0, np.nan]])
        with pytest.raises(ValueError):
            PointSet([[np.inf, 0.0]])

    def test_dict_round_trip(self):
        ps = PointSet([[0.25, -1.5, 3.0], [2.0, 0.125, -0.75]])
        back = PointSet.from_dict(ps.to_dict())
        assert_array_equal(back.points, ps.points)

    def test_from_dict_checks_declared_dim(self):
        with pytest.raises(ValueError, match="dim"):
            PointSet.from_dict({"dim": 3, "points": [[0.0, 1.0]]})


class TestPairedKeypoints:
    def test_counts_must_match(self):
        with pytest.raises(ValueError, match="points"):
            PairedKeypoints(PointSet([[0.0, 0.0]]), PointSet([[0.0, 0.0], [1.0, 1.0]]))

    def test_dims_must_match(self):
        with pytest.raises(ValueError, match="dimensions"):
            PairedKeypoints(PointSet([[0.0, 0.0]]), PointSet([[0.0, 0.0, 0.0]]))

    def test_round_trip(self):
        kp = PairedKeypoints(
            PointSet([[0.0, 0.0], [1.0, 0.0]]), PointSet([[0.5, 0.5], [1.5, 0.5]])
        )
        back = PairedKeypoints.from_dict(kp.to_dict())
        assert_array_equal(back.source.points, kp.source.points)
        assert_array_equal(back.target.points, kp.target.points)
        assert back.n == 2 and back.dim == 2


class TestPolicyLabels:
    def test_optional_fields_default_to_none(self):
        labels = PolicyLabels(positions=[[0.0, 0.0], [1.0, 1.0]])
        assert labels.m == 2 and labels.dim == 2
        assert labels.velocities is None
        assert labels.stiffness is None

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="velocities"):
            PolicyLabels(positions=[[0.0, 0.0]], velocities=[[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="stiffness"):
            PolicyLabels(positions=[[0.0, 0.0]], stiffness=np.zeros((1, 3, 3)))
        with pytest.raises(ValueError, match="orientations"):
            PolicyLabels(positions=[[0.0, 0.0]], orientations=np.zeros((2, 2, 2)))

    def test_round_trip_preserves_all_fields(self):
        rng = np.random.default_rng(3)
        rots = np.stack([rotation_2d(a) for a in rng.uniform(-3, 3, 4)])
        spd = np.stack([np.diag(d) for d in rng.uniform(0.5, 2.0, (4, 2))])
        labels = PolicyLabels(
            positions=rng.normal(size=(4, 2)),
            velocities=rng.normal(size=(4, 2)),
            orientations=rots,
            stiffness=spd,
            damping=0.1 * spd,
        )
        back = PolicyLabels.from_dict(labels.to_dict())
        for name in ("positions", "velocities", "orientations", "stiffness", "damping"):
            assert_array_equal(getattr(back, name), getattr(labels, name))


class TestTrajectory:
    def test_times_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(positions=[[0.0, 0.0], [1.0, 0.0]], times=[0.0, 0.0])
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(positions=[[0.0, 0.0], [1.0, 0.0]], times=[1.0, 0.0])

    def test_times_length_must_match(self):
        with pytest.raises(ValueError, match="length"):
            Trajectory(positions=[[0.0, 0.0], [1.0, 0.0]], times=[0.0, 1.0, 2.0])

    def test_times_are_optional(self):
        traj = Trajectory(positions=[[0.0, 0.0], [1.0, 0.0]])
        assert traj.times is None and traj.m == 2

    def test_round_trip(self):
        traj = Trajectory(positions=[[0.0, 0.5], [1.0, 0.25]], times=[0.0, 0.125])
        back = Trajectory.from_dict(traj.to_dict())
        assert_array_equal(back.positions, traj.positions)
        assert_array_equal(back.times, traj.times)


class TestRotationChecks:
    @given(st.floats(-np.pi, np.pi))
    def test_plane_rotations_pass(self, theta):
        assert is_rotation(rotation_2d(theta))

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    def test_random_rotations_pass(self, seed, dim):
        rng = np.random.default_rng(seed)
        assert is_rotation(random_rotation(rng, dim))

    def test_reflection_fails_on_determinant(self):
        flip = np.diag([1.0, -1.0])
        ortho, det = rotation_residual(flip)
        assert ortho <= 1e-15
        assert det == pytest.approx(2.0)
        assert not is_rotation(flip)

    def test_scaling_fails_on_orthogonality(self):
        assert not is_rotation(2.0 * np.eye(2))


class TestValidateLabels:
    def test_clean_labels_report_nothing(self):
        labels = PolicyLabels(
            positions=[[0.0, 0.0]],
            velocities=[[1.0, 0.0]],
            orientations=rotation_2d(0.3)[None],
            stiffness=np.diag([2.0, 1.0])[None],
        )
        assert validate_labels(labels) == []

    def test_each_violation_kind_is_reported(self):
        labels = PolicyLabels(
            positions=[[0.0, 0.0], [1.0, 1.0]],
            orientations=np.stack([np.diag([1.0, -1.0]), 1.5 * np.eye(2)]),
            stiffness=np.stack([[[1.0, 0.5], [-0.5, 1.0]], np.diag([1.0, -2.0])]),
        )
        kinds = {(v.field, v.index, v.kind) for v in validate_labels(labels)}
        assert ("orientations", 0, "determinant") in kinds
        assert ("orientations", 1, "orthogonality") in kinds
        assert ("stiffness", 0, "symmetry") in kinds
        assert ("stiffness", 1, "negative eigenvalue") in kinds

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_checks_equal_the_per_label_loop(self, dim):
        """Same violations, in the same order and with bitwise equal
        residuals, as one label at a time, on every family at once."""
        rng = np.random.default_rng(40 + dim)
        m = 300
        q, _ = np.linalg.qr(rng.normal(size=(m, dim, dim)))
        q[np.linalg.det(q) < 0, :, 0] *= -1.0
        spd = np.einsum("mab,mb,mcb->mac", q, rng.uniform(0.5, 3.0, (m, dim)), q)

        def perturbed(stack):
            out = stack + rng.normal(size=stack.shape) * 10.0 ** rng.uniform(-12, -7, (m, 1, 1))
            out[rng.integers(m, size=20)] *= -1.0
            out[rng.integers(m, size=10), dim - 1, 0] = np.nan
            return out

        positions = rng.normal(size=(m, dim))
        positions[rng.integers(m, size=10), 0] = np.inf
        velocities = rng.normal(size=(m, dim))
        velocities[rng.integers(m, size=10), 1] = np.nan
        labels = PolicyLabels(
            positions=positions,
            velocities=velocities,
            orientations=perturbed(q),
            stiffness=perturbed(spd),
            damping=perturbed(spd),
        )

        def keys(report):
            return [(v.field, v.index, v.kind, repr(v.residual)) for v in report]

        expected = keys(loop_validate_labels(labels))
        assert {kind for _, _, kind, _ in expected} == {
            "non-finite", "orthogonality", "determinant", "symmetry", "negative eigenvalue"
        }
        assert keys(validate_labels(labels)) == expected

    def test_validation_never_raises_on_weird_numbers(self):
        labels = PolicyLabels(positions=[[0.0, 0.0]], velocities=[[np.nan, 0.0]])
        report = validate_labels(labels)
        assert any(v.kind == "non-finite" for v in report)


def test_json_round_trip(tmp_path):
    ps = PointSet([[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "points.json"
    save_json(ps, path)
    assert_array_equal(PointSet.from_dict(load_json(path)).points, ps.points)


def test_save_json_sorts_keys_and_creates_the_parent_directory(tmp_path):
    path = tmp_path / "a" / "b" / "out.json"
    save_json({"b": 1, "a": {"d": 2, "c": 3}}, path)
    assert path.read_text() == '{\n  "a": {\n    "c": 3,\n    "d": 2\n  },\n  "b": 1\n}\n'


def test_package_exports_are_sorted_unique_and_resolve():
    names = poltrans.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(poltrans, name), name
