"""Container invariants, validation reports, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.spatial.distance import cdist, pdist

import poltrans
from conftest import loop_validate_labels, random_rotation, rotation_2d
from poltrans import (
    KernelParams,
    MetricReport,
    PairedKeypoints,
    PointSet,
    PolicyLabels,
    Pose,
    RankingResult,
    SurfaceScenario,
    Trajectory,
    fit_transport,
    is_rotation,
    make_surface_scenario,
    random_frame_scenario,
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

    def test_rejects_an_empty_set(self):
        with pytest.raises(ValueError, match="point set needs at least one point"):
            PointSet(np.empty((0, 2)))

    def test_dict_round_trip(self):
        ps = PointSet([[0.25, -1.5, 3.0], [2.0, 0.125, -0.75]])
        back = PointSet.from_dict(ps.to_dict())
        assert_array_equal(back.points, ps.points)

    def test_json_form_is_the_points_alone_and_a_declared_dim_is_ignored(self):
        assert PointSet([[0.0, 1.0]]).to_dict() == {"points": [[0.0, 1.0]]}
        for declared in (2, 3, "2", None):
            assert PointSet.from_dict({"dim": declared, "points": [[0.0, 1.0]]}).dim == 2


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

    def test_rejects_non_finite_positions(self):
        with pytest.raises(ValueError, match="positions contain NaN or Inf"):
            Trajectory(positions=[[0.0, 0.0], [np.nan, 0.0]])

    @pytest.mark.parametrize("times", [[0.0, 1.0, np.inf], [np.nan], [-np.inf, 0.0, 1.0], [0.0, np.nan, 1.0]])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(ValueError, match="times contain NaN or Inf"):
            Trajectory(positions=np.zeros((len(times), 2)), times=times)

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
    assert path.read_text() == '{"a": {"c": 3, "d": 2}, "b": 1}\n'


def test_package_exports_are_sorted_unique_and_resolve():
    names = poltrans.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(poltrans, name), name


def _full_labels():
    rng = np.random.default_rng(7)
    spd = np.stack([np.diag(d) for d in rng.uniform(0.5, 2.0, (3, 2))])
    return PolicyLabels(
        positions=rng.normal(size=(3, 2)),
        velocities=rng.normal(size=(3, 2)),
        orientations=np.stack([rotation_2d(a) for a in rng.uniform(-3, 3, 3)]),
        stiffness=spd,
        damping=0.1 * spd,
    )


# One builder per record class, with each optional family present and absent.
RECORDS = {
    "point_set": lambda: PointSet([[0.1, 0.2, 0.3], [-1.5, 2.0, 1e-17]]),
    "paired_keypoints": lambda: make_surface_scenario("sine", n_keypoints=5).keypoints,
    "policy_labels_full": _full_labels,
    "policy_labels_positions_only": lambda: PolicyLabels(positions=[[0.1, 0.7], [0.3, 0.2]]),
    "trajectory_with_times": lambda: Trajectory(positions=[[0.0, 0.5], [1.0, 0.25]], times=[0.0, 0.1]),
    "trajectory_without_times": lambda: Trajectory(positions=[[0.0, 0.5], [1.0, 0.25]]),
    "kernel_params": lambda: KernelParams(signal_variance=0.3, lengthscale=0.7, noise_variance=1e-7),
    "pose": lambda: Pose(xy=(0.1, -0.2), heading=1.1),
    "surface_scenario": lambda: make_surface_scenario("composite", n_keypoints=6, seed=2),
    "frame_scenario": lambda: random_frame_scenario(204, keypoints_per_frame=3),
    "metric_report": lambda: MetricReport(0.1, 0.2, 0.3, 0.4, 0.5),
    "ranking_result": lambda: RankingResult(
        points={"gpt": 3, "le": 0}, per_metric_points={"dtw": {"gpt": 1, "le": 0}}, ranking=(("gpt", 1), ("le", 2))
    ),
    "transport_map": lambda: fit_transport(make_surface_scenario("step", n_keypoints=6).keypoints),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS.keys())
def test_json_form_round_trips_byte_for_byte(build):
    record = build()
    first = json.dumps(record.to_dict(), sort_keys=True)
    again = type(record).from_dict(json.loads(first))
    assert json.dumps(again.to_dict(), sort_keys=True) == first


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS.keys())
def test_a_file_in_the_earlier_indented_layout_reads_back(tmp_path, build):
    record = build()
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n")
    again = type(record).from_dict(load_json(path))
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(record.to_dict(), sort_keys=True)


@pytest.mark.parametrize("cls, data, key", [
    (PolicyLabels, {"velocities": [[0.0, 1.0]]}, "positions"),
    (Trajectory, {"times": [0.0]}, "positions"),
    (KernelParams, {"signal_variance": 1.0, "noise_variance": 0.0}, "lengthscale"),
    (PairedKeypoints, {"source": {"points": [[0.0, 0.0]]}}, "target"),
])
def test_missing_required_key_is_a_key_error_naming_it(cls, data, key):
    with pytest.raises(KeyError, match=key):
        cls.from_dict(data)


def test_integer_json_reads_back_with_the_field_types():
    params = KernelParams.from_dict({"signal_variance": 2, "lengthscale": 1, "noise_variance": 0})
    assert all(type(v) is float for v in params.to_dict().values())
    assert type(Pose.from_dict({"xy": [1, 2], "heading": 1}).heading) is float

    data = make_surface_scenario("tilt", n_keypoints=4, seed=3).to_dict()
    data.update(seed=3.0)
    scenario = SurfaceScenario.from_dict(data)
    assert type(scenario.seed) is int and scenario.seed == 3


def dumps_oracle(value) -> str:
    """The package's JSON layout as json itself writes it."""
    return json.dumps(value, sort_keys=True)


def reads_back(loaded, value) -> bool:
    """Whether ``loaded``, read by json.loads, is ``value`` as JSON holds
    it: tuples as lists, keys as their JSON text, float subclasses as
    floats, and NaN as NaN."""
    if isinstance(value, dict):
        keys = [k if isinstance(k, str) else json.dumps(k) for k in value]
        return (
            type(loaded) is dict
            and sorted(loaded) == sorted(keys)
            and all(reads_back(loaded[k], v) for k, v in zip(keys, value.values()))
        )
    if isinstance(value, (list, tuple)):
        return type(loaded) is list and len(loaded) == len(value) and all(map(reads_back, loaded, value))
    if value != value:
        return loaded != loaded
    return type(loaded) is (float if isinstance(value, float) else type(value)) and loaded == value


# Named JSON values: float blocks and their edges, empties, key kinds,
# escapes and non-finite floats.
WRITER_CASES = {
    "block_n_2": np.random.default_rng(1).normal(size=(9, 2)).tolist(),
    "block_n_2_2": (
        np.random.default_rng(2).normal(size=(5, 2, 2)) * 10.0 ** np.arange(-200, 200, 80)[:, None, None]
    ).tolist(),
    "ragged_rows": [[1.0, 2.0], [3.0]],
    "ragged_depth": [[[1.0]], [[2.0, 3.0]]],
    "tuple_row": [[1.0, 2.0], (3.0, 4.0)],
    "tuple_of_floats": (1.0, 2.5),
    "tuple_of_rows": ([1.0, 2.0], [3.0, 4.0]),
    "int_in_a_block": [[1.0, 2], [3.0, 4.0]],
    "ints_bools_and_floats": [1, 2.0, True, 3.5],
    "nan_in_a_block": [[0.5, math.nan], [1.5, 2.5]],
    "infinity_in_a_block": [[[0.5, 0.25], [1.0, -math.inf]], [[0.0, 1.0], [2.0, 3.0]]],
    "block_whose_sum_overflows": [1e308, 1e308, -1e308],
    "float64_in_a_list": [np.float64(0.1), 0.2],
    "empty_list": [],
    "empty_dict": {},
    "list_of_an_empty_list": [[]],
    "list_of_empty_lists": [[], []],
    "list_of_an_empty_dict": [{}],
    "empties_in_a_dict": {"a": [], "b": {}, "c": [[]]},
    "nested_dicts": {"b": [0.5, 1.5], "a": {"d": 2, "c": [[-0.0, 5e-324]]}},
    "number_keys": {1: 1.5, 2.5: "x", -3: None},
    "bool_key": {True: 1.0},
    "none_key": {None: [1.0]},
    "non_finite_keys": {math.nan: 1.0, math.inf: 2.0},
    "escaped_string": "caf\u00e9 \x00\x1f \U0001f600 \ud800",
    "big_int": 10**100,
}
UNWRITABLE = {
    "int64": np.int64(3),
    "int64_value": {"n": np.int64(3)},
    "float32_in_a_block": [[1.0, 2.0], [3.0, np.float32(4.0)]],
    "numpy_bool": [np.bool_(True)],
    "set": {"s": {1, 2}},
    "tuple_key": {(1, 2): 1.0},
    "object": object(),
}


# Each named value, and each record (which save_json writes by its to_dict).
JSON_CASES = {**WRITER_CASES, **{f"record_{name}": build for name, build in RECORDS.items()}}


class TestJsonWriter:
    @pytest.mark.parametrize("case", JSON_CASES.values(), ids=JSON_CASES.keys())
    def test_save_json_writes_one_sorted_line_that_reads_back(self, tmp_path, case):
        value = case() if callable(case) else case
        data = value.to_dict() if hasattr(value, "to_dict") else value
        path = tmp_path / "out.json"
        save_json(value, path)
        text = path.read_text(encoding="utf-8")
        assert text == dumps_oracle(data) + "\n" and text.count("\n") == 1
        assert reads_back(json.loads(text), data)

    @pytest.mark.parametrize("value", UNWRITABLE.values(), ids=UNWRITABLE.keys())
    def test_an_unwritable_value_raises_jsons_type_error_and_writes_no_file(self, tmp_path, value):
        with pytest.raises(TypeError) as expected:
            dumps_oracle(value)
        path = tmp_path / "sub" / "out.json"
        with pytest.raises(TypeError) as raised:
            save_json(value, path)
        assert str(raised.value) == str(expected.value)
        assert not path.exists()
