"""Scenario generators: analytic profiles and frame attachment."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import previous_format, rotation_2d
from poltrans.scenarios import (
    _PROFILES,
    CANONICAL_GOAL,
    CANONICAL_START,
    SURFACE_PROFILES,
    FrameScenario,
    Pose,
    SurfaceScenario,
    frame_pairing,
    load_scenario,
    make_frame_scenario,
    make_surface_scenario,
    random_frame_scenario,
    save_scenario,
    surface_map,
)
from poltrans.types import save_json


class TestSurfaceScenarios:
    def test_flat_profile_is_the_identity(self):
        scenario = make_surface_scenario("flat", seed=1)
        assert_array_equal(
            scenario.keypoints.source.points, scenario.keypoints.target.points
        )
        assert_array_equal(
            scenario.demonstration.positions, scenario.reference.positions
        )

    def test_tilt_rotates_about_the_baseline_start(self):
        scenario = make_surface_scenario("tilt", seed=2)
        rot = rotation_2d(_PROFILES["tilt"].params["angle"])
        expected = scenario.keypoints.source.points @ rot.T
        assert_allclose(scenario.keypoints.target.points, expected, atol=1e-15)

    def test_sine_ordinates_evaluated_pointwise(self):
        scenario = make_surface_scenario("sine", seed=3)
        a = _PROFILES["sine"].params["amplitude"]
        f = _PROFILES["sine"].params["frequency"]
        xs = scenario.keypoints.source.points[:, 0]
        target = scenario.keypoints.target.points
        assert_allclose(target[:, 0], xs, atol=0)
        assert_allclose(target[:, 1], a * np.sin(2 * np.pi * f * xs), atol=1e-15)

    def test_step_profile_formula(self):
        scenario = make_surface_scenario("step", seed=4)
        h, pos, w = (_PROFILES["step"].params[key] for key in ("height", "position", "width"))
        xs = scenario.keypoints.source.points[:, 0]
        expected = 0.5 * h * (1.0 + np.tanh((xs - pos) / w))
        assert_allclose(scenario.keypoints.target.points[:, 1], expected, atol=1e-15)

    def test_composite_is_sine_then_rotation(self):
        scenario = make_surface_scenario("composite", seed=5)
        src = scenario.keypoints.source.points
        params = _PROFILES["composite"].params
        bumped = src.copy()
        bumped[:, 1] += params["amplitude"] * np.sin(2 * np.pi * params["frequency"] * src[:, 0])
        expected = bumped @ rotation_2d(params["angle"]).T
        assert_allclose(scenario.keypoints.target.points, expected, atol=1e-15)

    def test_source_keypoints_live_on_the_baseline(self):
        scenario = make_surface_scenario("sine", n_keypoints=17, seed=6)
        src = scenario.keypoints.source.points
        assert src.shape == (17, 2)
        assert np.all(src[:, 1] == 0.0)
        assert np.all((src[:, 0] >= 0.0) & (src[:, 0] <= 1.0))
        assert np.all(np.diff(src[:, 0]) >= 0.0)

    def test_demonstration_loop_hits_its_waypoints(self):
        scenario = make_surface_scenario("flat", seed=0)
        demo = scenario.demonstration
        assert demo.m == 200
        assert_array_equal(demo.times, np.arange(200) / 200)
        assert_allclose(demo.positions[0], [0.0, 0.3], atol=0)
        assert_allclose(demo.positions[30], [0.0, 0.0], atol=1e-15)  # t = 0.15
        assert_allclose(demo.positions[120], [1.0, 0.0], atol=1e-15)  # t = 0.6
        assert_allclose(demo.positions[150], [1.0, 0.3], atol=1e-15)  # t = 0.75

    def test_reference_is_the_mapped_demonstration(self):
        scenario = make_surface_scenario("sine", seed=7)
        mapping = surface_map("sine")
        assert_allclose(
            scenario.reference.positions,
            mapping(scenario.demonstration.positions),
            atol=0,
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown profile"):
            make_surface_scenario("bumpy")
        with pytest.raises(ValueError, match="unknown profile"):
            surface_map("bumpy")
        with pytest.raises(ValueError, match="two keypoints"):
            make_surface_scenario("flat", n_keypoints=1)

    def test_deterministic_and_name(self):
        a = make_surface_scenario("step", n_keypoints=9, seed=11)
        b = make_surface_scenario("step", n_keypoints=9, seed=11)
        assert a.name == "surface-step-11"
        assert_array_equal(a.keypoints.source.points, b.keypoints.source.points)
        assert_array_equal(a.keypoints.target.points, b.keypoints.target.points)

    def test_every_profile_generates(self):
        for profile in SURFACE_PROFILES:
            scenario = make_surface_scenario(profile, seed=0)
            assert np.isfinite(scenario.keypoints.target.points).all()


class TestFrameScenarios:
    def test_canonical_poses_give_identity_pairing(self):
        scenario = make_frame_scenario(CANONICAL_START, CANONICAL_GOAL)
        assert_allclose(
            scenario.keypoints.source.points, scenario.keypoints.target.points, atol=0
        )
        assert_allclose(
            scenario.demonstration.positions, scenario.reference.positions, atol=0
        )

    def test_pure_translation_moves_keypoints_exactly(self):
        shift = np.array([0.4, -0.3])
        start = Pose(xy=tuple(CANONICAL_START.position + shift), heading=CANONICAL_START.heading)
        goal = Pose(xy=tuple(CANONICAL_GOAL.position + shift), heading=CANONICAL_GOAL.heading)
        scenario = make_frame_scenario(start, goal, keypoints_per_frame=4)
        assert_allclose(
            scenario.keypoints.target.points,
            scenario.keypoints.source.points + shift,
            atol=1e-12,
        )

    def test_rotated_goal_frame_matches_manual_rotation(self):
        extra = np.pi / 4
        goal = Pose(xy=CANONICAL_GOAL.xy, heading=CANONICAL_GOAL.heading + extra)
        scenario = make_frame_scenario(CANONICAL_START, goal, keypoints_per_frame=5)
        src = scenario.keypoints.source.points
        tgt = scenario.keypoints.target.points
        # start-frame group untouched
        assert_allclose(tgt[:5], src[:5], atol=1e-12)
        # goal-frame group rotates about the goal origin
        rot = rotation_2d(extra)
        expected = CANONICAL_GOAL.position + (src[5:] - CANONICAL_GOAL.position) @ rot.T
        assert_allclose(tgt[5:], expected, atol=1e-12)

    def test_keypoint_layout(self):
        scenario = make_frame_scenario(CANONICAL_START, CANONICAL_GOAL, keypoints_per_frame=3)
        src = scenario.keypoints.source.points
        assert scenario.keypoints.n == 6 and scenario.keypoints_per_frame == 3
        assert_allclose(src[0], CANONICAL_START.position, atol=0)
        assert_allclose(src[3], CANONICAL_GOAL.position, atol=0)

    def test_curve_shape_and_contact_clearance(self):
        scenario = random_frame_scenario(seed=42)
        curve = scenario.reference
        goal = scenario.goal_pose
        assert curve.m == 200
        assert_allclose(curve.positions[0], scenario.start_pose.position, atol=1e-12)
        contact = goal.position - 0.06 * goal.direction
        assert_allclose(curve.positions[-1], contact, atol=1e-12)
        # docking tail runs along the goal heading
        tail = np.diff(curve.positions[-20:], axis=0)
        tail_dirs = tail / np.linalg.norm(tail, axis=1)[:, None]
        assert_allclose(tail_dirs, np.tile(goal.direction, (19, 1)), atol=1e-9)

    def test_poses_stable_across_keypoint_counts(self):
        a = random_frame_scenario(seed=9, keypoints_per_frame=2)
        b = random_frame_scenario(seed=9, keypoints_per_frame=5)
        assert_array_equal(a.start_pose.position, b.start_pose.position)
        assert a.start_pose.heading == b.start_pose.heading
        assert_array_equal(a.goal_pose.position, b.goal_pose.position)
        assert a.goal_pose.heading == b.goal_pose.heading
        assert a.name == "frame-9"

    def test_coincident_frames_rejected(self):
        pose = Pose(xy=(0.2, 0.2), heading=0.0)
        with pytest.raises(ValueError, match="coincide"):
            make_frame_scenario(pose, pose)

    @pytest.mark.parametrize("xy, heading", [((np.nan, 0.0), 0.0), ((0.0, np.inf), 0.0), ((0.0, 0.0), np.nan)])
    def test_non_finite_pose_rejected(self, xy, heading):
        with pytest.raises(ValueError, match="pose entries must be finite"):
            Pose(xy=xy, heading=heading)

    def test_a_pose_position_keeps_two_numbers_as_floats(self):
        assert Pose(xy=[1, 2], heading=0.0).xy == (1.0, 2.0)
        pose = Pose(xy=(np.float64(0.5), np.float64(-0.25)), heading=0.0)
        assert [type(v) for v in pose.xy] == [float, float]
        assert pose.xy == (0.5, -0.25)

    @pytest.mark.parametrize("xy", [(1.0,), (1.0, 2.0, 3.0), "ab", np.zeros(2)])
    def test_a_pose_position_that_is_not_a_pair_is_rejected(self, xy):
        with pytest.raises(ValueError, match="Pose.xy must be a pair of numbers"):
            Pose(xy=xy, heading=0.0)

    def test_a_dock_point_on_the_start_gives_a_resting_arc(self):
        """With the dock point on the start position the Hermite tangents
        are zero: the arc rests at the start, then the docking segment
        runs along the goal heading."""
        start = Pose(xy=(0.0, 0.0), heading=0.0)
        goal = Pose(xy=(0.22, 0.0), heading=0.0)
        curve = make_frame_scenario(start, goal, keypoints_per_frame=2).reference
        assert_array_equal(curve.positions[:170], np.zeros((170, 2)))
        assert_allclose(curve.positions[-1], [0.16, 0.0], rtol=1e-12)
        assert np.all(np.diff(curve.positions[169:, 0]) > 0)

    def test_frames_need_a_keypoint_each(self):
        with pytest.raises(ValueError, match="need at least one keypoint per frame"):
            random_frame_scenario(3, keypoints_per_frame=0)

    def test_frame_pairing_semantics(self):
        train = random_frame_scenario(seed=1)
        test = random_frame_scenario(seed=2)
        pairing = frame_pairing(train, test)
        assert_array_equal(pairing.source.points, train.keypoints.target.points)
        assert_array_equal(pairing.target.points, test.keypoints.target.points)
        with pytest.raises(ValueError, match="keypoints-per-frame"):
            frame_pairing(train, random_frame_scenario(seed=2, keypoints_per_frame=2))


class TestScenarioSerialization:
    def test_surface_round_trip_is_bitwise_stable(self, tmp_path):
        scenario = make_surface_scenario("composite", seed=13)
        first = tmp_path / "a.json"
        save_scenario(scenario, first)
        loaded = load_scenario(first)
        assert isinstance(loaded, SurfaceScenario)
        second = tmp_path / "b.json"
        save_scenario(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert_array_equal(
            loaded.keypoints.target.points, scenario.keypoints.target.points
        )

    def test_frame_round_trip_is_bitwise_stable(self, tmp_path):
        scenario = random_frame_scenario(seed=21)
        first = tmp_path / "a.json"
        save_scenario(scenario, first)
        loaded = load_scenario(first)
        assert isinstance(loaded, FrameScenario)
        second = tmp_path / "b.json"
        save_scenario(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert_array_equal(loaded.reference.positions, scenario.reference.positions)

    @pytest.mark.parametrize("build", [
        lambda: make_surface_scenario("composite", n_keypoints=6, seed=13),
        lambda: random_frame_scenario(seed=21, keypoints_per_frame=3),
    ], ids=["surface", "frame"])
    def test_a_file_in_the_previous_format_loads_with_the_derived_keys_ignored(self, tmp_path, build):
        scenario = build()
        old = previous_format(scenario.to_dict(), scenario)
        path = tmp_path / "old.json"
        save_json(old, path)
        loaded = load_scenario(path)
        assert loaded.to_dict() == scenario.to_dict()
        assert loaded.demonstration.to_dict() == old["demonstration"]
        assert loaded.reference.to_dict() == old["reference"]
        derived = "params" if scenario.kind == "surface" else "keypoints_per_frame"
        assert set(old) - set(loaded.to_dict()) == {"demonstration", "reference", derived}

    def test_repeated_generation_serializes_identically(self, tmp_path):
        for idx, path in enumerate(("x.json", "y.json")):
            save_scenario(make_surface_scenario("sine", seed=3), tmp_path / path)
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()

    def test_unknown_kind_rejected(self, tmp_path):
        # a missing kind, and unhashable ones, which a bare table lookup
        # would turn into a TypeError
        path = tmp_path / "bad.json"
        for text in ('{"kind": "volume"}', "{}", '{"kind": ["x"]}', '{"kind": {"x": 1}}'):
            path.write_text(text)
            with pytest.raises(ValueError, match="unknown scenario kind"):
                load_scenario(path)

