"""Reshaping baselines against enumeration and dense-solve oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    default_bench_tasks,
    dense_laplacian_oracle,
    loop_apply_lwt,
    loop_fit_lwt,
    lwt_jacobian,
    suite_tasks,
)
from poltrans import PairedKeypoints, PointSet, Trajectory, cli, gp
from poltrans.baselines import (
    LWT_STEP_RATIO,
    LWTMap,
    LWTUnit,
    ViaAssignment,
    apply_lwt,
    assign_via_points,
    fit_lwt,
    laplacian_edit,
    reshaped_kmp,
)
from poltrans.cli import _gamma_pretransform
from poltrans.gp import KernelParams
from poltrans.scenarios import SURFACE_PROFILES, make_surface_scenario
from poltrans.transport import ROUNDOFF_ULPS


def random_traj(rng, m, dim=2, with_times=True):
    times = np.linspace(0.0, 1.0, m) if with_times else None
    return Trajectory(positions=rng.uniform(-1.0, 1.0, (m, dim)), times=times)


def loop_graph_laplacian(m, topology):
    """The Laplacian built node by node: the degree on the diagonal, then
    -1 per neighbour, where a ring's wrapped neighbours may coincide."""
    lap = np.zeros((m, m))
    for i in range(m):
        neighbors = []
        if i > 0 or topology == "ring":
            neighbors.append((i - 1) % m)
        if i < m - 1 or topology == "ring":
            neighbors.append((i + 1) % m)
        lap[i, i] = len(neighbors)
        for j in neighbors:
            lap[i, j] -= 1.0
    return lap


def row_substituted_solve(positions, topology, indices, targets):
    """The edit as a dense solve: L xhat = L x with each assigned node's row
    replaced by a unit row whose right-hand side is the node's target."""
    lap = loop_graph_laplacian(len(positions), topology)
    system, rhs = lap.copy(), lap @ positions
    for row, point in zip(indices, targets):
        system[row, :] = 0.0
        system[row, row] = 1.0
        rhs[row] = point
    return np.linalg.solve(system, rhs)


def brute_force_assignment_cost(traj, kp):
    """Minimum total matching cost by enumerating ordered index tuples."""
    best = np.inf
    for combo in itertools.permutations(range(traj.m), kp.n):
        cost = sum(
            np.linalg.norm(kp.source.points[k] - traj.positions[j])
            for k, j in enumerate(combo)
        )
        best = min(best, cost)
    return best


class TestAssignment:
    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(3, 7))
            n = int(rng.integers(1, min(m, 4)))
            traj = random_traj(rng, m)
            src = rng.uniform(-1, 1, (n, 2))
            kp = PairedKeypoints(PointSet(src), PointSet(src + 0.1))
            assignment = assign_via_points(traj, kp)
            cost = sum(
                np.linalg.norm(src[k] - traj.positions[j])
                for k, j in enumerate(assignment.indices)
            )
            assert cost == pytest.approx(brute_force_assignment_cost(traj, kp), abs=1e-12)

    def test_targets_are_node_plus_keypoint_displacement(self):
        rng = np.random.default_rng(1)
        traj = random_traj(rng, 10)
        src = rng.uniform(-1, 1, (3, 2))
        dst = src + rng.uniform(-0.5, 0.5, (3, 2))
        kp = PairedKeypoints(PointSet(src), PointSet(dst))
        assignment = assign_via_points(traj, kp)
        expected = traj.positions[assignment.indices] + (dst - src)
        assert_allclose(assignment.targets, expected, atol=0)

    def test_more_keypoints_than_nodes_rejected(self):
        traj = Trajectory(positions=[[0.0, 0.0], [1.0, 0.0]])
        src = np.zeros((3, 2))
        kp = PairedKeypoints(PointSet(src), PointSet(src))
        with pytest.raises(ValueError, match="more keypoints than trajectory points"):
            assign_via_points(traj, kp)

    def test_dimension_mismatch_rejected(self):
        traj = Trajectory(positions=np.zeros((4, 3)))
        src = np.zeros((2, 2))
        kp = PairedKeypoints(PointSet(src), PointSet(src))
        with pytest.raises(ValueError, match="dimension"):
            assign_via_points(traj, kp)

    def test_assignment_validation(self):
        with pytest.raises(ValueError, match="unique"):
            ViaAssignment(indices=[0, 0], targets=[[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            ViaAssignment(indices=[-1], targets=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="equal length"):
            ViaAssignment(indices=[0, 1], targets=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="at least one"):
            ViaAssignment(indices=[], targets=np.zeros((0, 2)))


class TestLaplacianEdit:
    @pytest.mark.parametrize("topology", ["chain", "ring"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 200])
    def test_matches_the_row_substituted_dense_solve(self, topology, m):
        # m = 1 and 2 on a ring: both neighbours of a node are one node
        rng = np.random.default_rng(m)
        for k in sorted({1, min(2, m), min(5, m)}):
            traj = random_traj(rng, m)
            idx = rng.choice(m, size=k, replace=False)
            tgt = traj.positions[idx] + rng.uniform(-0.4, 0.4, (k, 2))
            edited = laplacian_edit(traj, ViaAssignment(indices=idx, targets=tgt), topology=topology)
            dense = row_substituted_solve(traj.positions, topology, idx, tgt)
            assert np.abs(edited.positions - dense).max() < 1e-12

    @pytest.mark.parametrize(
        "topology, idx",
        [
            # pins adjacent across the ring's wrap: the one free run is 1 .. m-2
            pytest.param("ring", [0, 29], id="ring-pinned-at-both-ends"),
            # free runs at both ends of a chain keep the outer pins' displacement
            pytest.param("chain", [6, 13, 21], id="chain-pinned-inside"),
            pytest.param("chain", [17, 3, 25, 9], id="chain-unsorted"),
            pytest.param("ring", [17, 3, 25, 9], id="ring-unsorted"),
        ],
    )
    def test_closed_form_edge_cases_match_block_elimination(self, topology, idx):
        rng = np.random.default_rng(12)
        traj = random_traj(rng, 30)
        idx = np.array(idx)
        tgt = traj.positions[idx] + rng.uniform(-0.4, 0.4, (idx.size, 2))
        edited = laplacian_edit(traj, ViaAssignment(indices=idx, targets=tgt), topology=topology)
        oracle = dense_laplacian_oracle(traj.positions, topology, idx, tgt)
        assert np.abs(edited.positions - oracle).max() < 1e-12

    @pytest.mark.parametrize("topology", ["chain", "ring"])
    def test_matches_dense_block_elimination(self, topology):
        rng = np.random.default_rng(2)
        for _ in range(40):
            m = int(rng.integers(5, 30))
            traj = random_traj(rng, m)
            k = int(rng.integers(1, 4))
            idx = rng.choice(m, size=k, replace=False)
            tgt = traj.positions[idx] + rng.uniform(-0.4, 0.4, (k, 2))
            assignment = ViaAssignment(indices=idx, targets=tgt)
            edited = laplacian_edit(traj, assignment, topology=topology)
            oracle = dense_laplacian_oracle(traj.positions, topology, idx, tgt)
            assert np.abs(edited.positions - oracle).max() < 1e-9

    def test_constraints_hit_exactly(self):
        rng = np.random.default_rng(3)
        traj = random_traj(rng, 20)
        idx = np.array([0, 7, 19])
        tgt = traj.positions[idx] + 0.3
        edited = laplacian_edit(traj, ViaAssignment(indices=idx, targets=tgt))
        assert np.abs(edited.positions[idx] - tgt).max() < 1e-9

    def test_identity_when_targets_equal_current_positions(self):
        rng = np.random.default_rng(4)
        traj = random_traj(rng, 15)
        idx = np.array([9, 2])
        assignment = ViaAssignment(indices=idx, targets=traj.positions[idx])
        for topology in ("chain", "ring"):
            edited = laplacian_edit(traj, assignment, topology=topology)
            assert edited.positions.tobytes() == traj.positions.tobytes()

    def test_targets_override(self):
        rng = np.random.default_rng(5)
        traj = random_traj(rng, 12)
        override = np.array([[2.0, -1.0]])
        edited = laplacian_edit(traj, ViaAssignment(indices=[4], targets=override))
        assert_allclose(edited.positions[4], override[0], atol=1e-9)

    def test_out_of_range_index_rejected(self):
        traj = Trajectory(positions=np.zeros((3, 2)) + np.arange(3)[:, None])
        assignment = ViaAssignment(indices=[5], targets=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="out of range"):
            laplacian_edit(traj, assignment)

    def test_target_dimension_mismatch_rejected(self):
        traj = Trajectory(positions=np.zeros((3, 2)) + np.arange(3)[:, None])
        assignment = ViaAssignment(indices=[1], targets=[[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="target dimension mismatch"):
            laplacian_edit(traj, assignment)

    def test_unknown_topology_rejected(self):
        traj = Trajectory(positions=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assignment = ViaAssignment(indices=[0], targets=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="topology"):
            laplacian_edit(traj, assignment, topology="mesh")

    def test_preserves_interior_shape_of_translated_segment(self):
        """Constraining both endpoints to a pure translation must translate
        every node: the differential coordinates are translation-invariant."""
        rng = np.random.default_rng(6)
        traj = random_traj(rng, 25)
        shift = np.array([0.7, -0.2])
        idx = np.array([0, 24])
        assignment = ViaAssignment(indices=idx, targets=traj.positions[idx] + shift)
        edited = laplacian_edit(traj, assignment)
        assert np.abs(edited.positions - (traj.positions + shift)).max() < 1e-9


class TestReshapedKMP:
    def test_assigned_nodes_land_on_targets(self):
        rng = np.random.default_rng(7)
        traj = Trajectory(
            positions=np.stack([np.linspace(0, 1, 40), np.zeros(40)], axis=1),
            times=np.linspace(0.0, 1.0, 40),
        )
        idx = np.array([5, 20, 34])
        tgt = traj.positions[idx] + rng.uniform(-0.3, 0.3, (3, 2))
        reshaped = reshaped_kmp(traj, ViaAssignment(indices=idx, targets=tgt))
        assert np.abs(reshaped.positions[idx] - tgt).max() < 1e-4

    def test_fixed_kernel_pins_to_working_precision(self):
        traj = Trajectory(
            positions=np.zeros((21, 2)),
            times=np.linspace(0.0, 1.0, 21),
        )
        idx = np.array([10])
        tgt = np.array([[0.5, 0.25]])
        reshaped = reshaped_kmp(
            traj,
            ViaAssignment(indices=idx, targets=tgt),
            kernel_params=KernelParams(1.0, 0.2, 0.0),
        )
        assert np.abs(reshaped.positions[10] - tgt[0]).max() < 1e-6

    def test_displacement_decays_beyond_thirty_lengthscales(self):
        ell = 0.5
        times = np.concatenate([[-40.0 * ell], np.linspace(-0.5, 0.5, 11), [40.0 * ell]])
        traj = Trajectory(positions=np.zeros((13, 2)), times=times)
        displacement = np.array([[0.4, -0.2]])
        reshaped = reshaped_kmp(
            traj,
            ViaAssignment(indices=[6], targets=displacement),
            kernel_params=KernelParams(1.0, ell, 0.0),
        )
        scale = np.linalg.norm(displacement)
        assert np.linalg.norm(reshaped.positions[0]) <= 1e-3 * scale
        assert np.linalg.norm(reshaped.positions[-1]) <= 1e-3 * scale

    def test_requires_timestamps(self):
        traj = Trajectory(positions=np.zeros((5, 2)))
        assignment = ViaAssignment(indices=[0], targets=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="timestamps"):
            reshaped_kmp(traj, assignment)

    def test_out_of_range_index_rejected(self):
        traj = Trajectory(positions=np.zeros((3, 2)), times=[0.0, 1.0, 2.0])
        assignment = ViaAssignment(indices=[7], targets=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="out of range"):
            reshaped_kmp(traj, assignment)

    def test_target_dimension_mismatch_rejected(self):
        traj = Trajectory(positions=np.zeros((3, 2)), times=[0.0, 1.0, 2.0])
        assignment = ViaAssignment(indices=[1], targets=[[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="target dimension mismatch"):
            reshaped_kmp(traj, assignment)


def kmp_roundoff_ratio(kp: PairedKeypoints, demo: Trajectory) -> float:
    """max |target - node| of reshaped_kmp's displacement labels on the
    bench's pre-aligned inputs, in ulps of the labels' operands' largest
    coordinate."""
    aligned, aligned_kp = _gamma_pretransform(kp, demo)
    assignment = assign_via_points(aligned, aligned_kp)
    nodes = aligned.positions[assignment.indices]
    scale = max(np.abs(assignment.targets).max(), np.abs(nodes).max())
    return float(np.abs(assignment.targets - nodes).max() / (np.finfo(float).eps * scale))


class TestReshapedKMPRoundOff:
    """On flat and tilt scenes the pre-alignment explains the keypoints, so
    reshaped_kmp's displacement labels are only rounding. They are exact
    zeros, as the transport map's residuals are: no hyperparameter search,
    and the demonstration comes back as aligned."""

    def test_flat_and_tilt_bench_scenes_search_nothing(self, monkeypatch):
        def no_polish(*args):
            raise AssertionError("gp.minimize ran on round-off labels")

        monkeypatch.setattr(gp, "minimize", no_polish)
        scenes = [
            task
            for task in default_bench_tasks("surfaces")
            if "reshaped_kmp" in task.methods and task.scenario.profile in ("flat", "tilt")
        ]
        assert len(scenes) == 6
        for scene in scenes:
            produced, band, report = cli.METHOD_TABLE["reshaped_kmp"].run(scene)
            aligned, _ = scene.aligned
            assert np.array_equal(produced.positions, aligned.positions)
            assert np.array_equal(produced.times, aligned.times)
            assert band is None and report is None

    def test_threshold_has_headroom_on_both_sides(self):
        """Over a seed sweep, flat and tilt labels stay far below
        ROUNDOFF_ULPS, and the labels of scenes that bend (surfaces and the
        frames pairings) far above it."""
        rigid = [
            kmp_roundoff_ratio(scenario.keypoints, scenario.demonstration)
            for profile in ("flat", "tilt")
            for n in (12, 50, 200)
            for seed in range(10)
            for scenario in [make_surface_scenario(profile, n_keypoints=n, seed=seed)]
        ]
        bent = [
            kmp_roundoff_ratio(scenario.keypoints, scenario.demonstration)
            for profile in ("sine", "step", "composite")
            for n in (12, 50, 200)
            for seed in range(10)
            for scenario in [make_surface_scenario(profile, n_keypoints=n, seed=seed)]
        ]
        bent += [
            kmp_roundoff_ratio(task.keypoints, task.demonstration)
            for task in suite_tasks("frames", ("reshaped_kmp",), 20)
        ]
        # measured: at most 2.7 ulps rigid, at least 1.3e14 bent
        assert max(rigid) <= 4 < ROUNDOFF_ULPS
        assert min(bent) >= 1e13 > ROUNDOFF_ULPS

    def test_given_kernel_shifts_round_off_labels_by_zero(self):
        scenario = make_surface_scenario("tilt", seed=0)
        aligned, aligned_kp = _gamma_pretransform(scenario.keypoints, scenario.demonstration)
        assignment = assign_via_points(aligned, aligned_kp)
        assert 0.0 < kmp_roundoff_ratio(scenario.keypoints, scenario.demonstration) <= ROUNDOFF_ULPS
        reshaped = reshaped_kmp(aligned, assignment, kernel_params=KernelParams(1.0, 0.1, 0.0))
        assert np.array_equal(reshaped.positions, aligned.positions)

    def test_labels_above_the_threshold_are_fitted(self):
        """A displacement just above ROUNDOFF_ULPS ulps is a displacement:
        the GP fits it and the assigned node moves by it."""
        times = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(positions=np.column_stack([times, np.ones(11)]), times=times)
        step = 2 * ROUNDOFF_ULPS * np.finfo(float).eps
        targets = traj.positions[[2, 5, 8]] + [[0.0, step], [0.0, 0.0], [0.0, 0.0]]
        assignment = ViaAssignment(indices=[2, 5, 8], targets=targets)
        reshaped = reshaped_kmp(traj, assignment, kernel_params=KernelParams(1.0, 0.1, 0.0))
        assert reshaped.positions[2, 1] > traj.positions[2, 1]


class TestLWT:
    def test_converges_and_matches_keypoints(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            src = rng.uniform(-1, 1, (n, 2))
            tgt = src + rng.uniform(-0.3, 0.3, (n, 2))
            kp = PairedKeypoints(PointSet(src), PointSet(tgt))
            lwt = fit_lwt(kp)
            assert lwt.warnings == ()
            moved = apply_lwt(lwt, src)
            tol = 1e-3 * max(kp.target.diameter(), 1e-12)
            assert np.linalg.norm(moved - tgt, axis=1).max() <= tol

    @staticmethod
    def assert_units_match_the_loop(kp):
        units = fit_lwt(kp).units
        expected = loop_fit_lwt(kp)
        assert len(units) == len(expected)
        for unit, (center, translation, radius) in zip(units, expected):
            assert unit.center.tobytes() == center.tobytes()
            assert unit.translation.tobytes() == translation.tobytes()
            assert unit.radius == radius

    def test_units_are_bitwise_the_delete_and_norm_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            dim = int(rng.choice([2, 3]))
            src = rng.uniform(-1, 1, (n, dim))
            tgt = src + rng.uniform(-0.3, 0.3, (n, dim))
            self.assert_units_match_the_loop(PairedKeypoints(PointSet(src), PointSet(tgt)))

    @pytest.mark.parametrize("profile", SURFACE_PROFILES)
    def test_surface_scene_units_are_bitwise_the_delete_and_norm_loop(self, profile):
        for seed in range(3):
            scenario = make_surface_scenario(profile, n_keypoints=12, seed=seed)
            _, kp = _gamma_pretransform(scenario.keypoints, scenario.demonstration)
            self.assert_units_match_the_loop(kp)

    def test_apply_is_bitwise_the_unit_by_unit_loop(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            dim = int(rng.choice([2, 3]))
            src = rng.uniform(-1, 1, (n, dim))
            kp = PairedKeypoints(PointSet(src), PointSet(src + rng.uniform(-0.3, 0.3, (n, dim))))
            lwt = fit_lwt(kp)
            units = [(u.center, u.translation, u.radius) for u in lwt.units]
            probes = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 50)), dim))
            for x in (probes, src):
                assert apply_lwt(lwt, x).tobytes() == loop_apply_lwt(units, x).tobytes()

    @pytest.mark.parametrize("profile", SURFACE_PROFILES)
    def test_surface_scene_transport_is_bitwise_the_loops(self, profile):
        """The bench's lwt run, fit and apply, against the two loops."""
        for seed in range(3):
            scenario = make_surface_scenario(profile, n_keypoints=12, seed=seed)
            demo, kp = _gamma_pretransform(scenario.keypoints, scenario.demonstration)
            moved = apply_lwt(fit_lwt(kp), demo.positions)
            assert moved.tobytes() == loop_apply_lwt(loop_fit_lwt(kp), demo.positions).tobytes()

    def test_a_negative_iteration_budget_is_rejected(self):
        """It used to return an empty map that warned "did not converge in
        -1 iterations; best residual inf"."""
        scenario = make_surface_scenario("sine", n_keypoints=12, seed=0)
        with pytest.raises(ValueError, match="max_iters must be nonnegative, got -1"):
            fit_lwt(scenario.keypoints, max_iters=-1)
        # a zero budget still checks the residual once and adds no unit
        with pytest.warns(UserWarning, match="did not converge in 0 iterations"):
            assert fit_lwt(scenario.keypoints, max_iters=0).units == ()

    def test_a_fit_converging_on_its_last_allowed_unit_does_not_warn(self):
        scenario = make_surface_scenario("sine", n_keypoints=12, seed=0)
        _, kp = _gamma_pretransform(scenario.keypoints, scenario.demonstration)
        assert len(fit_lwt(kp).units) == 25
        lwt = fit_lwt(kp, max_iters=25)
        assert len(lwt.units) == 25
        assert lwt.warnings == ()

    def test_every_unit_keeps_positive_determinant(self):
        rng = np.random.default_rng(9)
        src = rng.uniform(-1, 1, (5, 2))
        tgt = src + rng.uniform(-0.25, 0.25, (5, 2))
        lwt = fit_lwt(PairedKeypoints(PointSet(src), PointSet(tgt)))
        assert len(lwt.units) > 0
        for unit in lwt.units:
            direction = unit.translation
            norm = np.linalg.norm(direction)
            if norm == 0:
                continue
            # worst case lies along the translation through the center
            line = unit.center + np.outer(np.linspace(-4, 4, 401), direction / norm) * unit.radius
            dets = unit.jacobian_det(line)
            assert dets.min() > 0.69  # analytic floor is 1 - 0.5 e^{-1/2}

    def test_composed_jacobian_positive_on_grid(self):
        rng = np.random.default_rng(10)
        src = rng.uniform(-1, 1, (6, 2))
        tgt = src + rng.uniform(-0.2, 0.2, (6, 2))
        lwt = fit_lwt(PairedKeypoints(PointSet(src), PointSet(tgt)))
        grid = np.stack(
            np.meshgrid(np.linspace(-1.5, 1.5, 12), np.linspace(-1.5, 1.5, 12)),
            axis=-1,
        ).reshape(-1, 2)
        for point in np.vstack([grid, src]):
            assert np.linalg.det(lwt_jacobian(lwt, point)) > 0.0

    def test_far_field_is_identity(self):
        rng = np.random.default_rng(11)
        src = rng.uniform(-1, 1, (4, 2))
        tgt = src + rng.uniform(-0.2, 0.2, (4, 2))
        lwt = fit_lwt(PairedKeypoints(PointSet(src), PointSet(tgt)))
        far = np.array([[1e3, -1e3]])
        assert np.linalg.norm(apply_lwt(lwt, far) - far) < 1e-9

    def test_identical_sets_need_no_units(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        lwt = fit_lwt(PairedKeypoints(PointSet(pts), PointSet(pts)))
        assert len(lwt.units) == 0

    def test_contradictory_keypoints_warn_after_budget(self):
        src = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        tgt = np.array([[0.0, 1.0], [0.0, -1.0], [2.0, 0.0]])
        kp = PairedKeypoints(PointSet(src), PointSet(tgt))
        with pytest.warns(UserWarning, match="did not converge"):
            lwt = fit_lwt(kp, max_iters=50)
        assert len(lwt.warnings) == 1

    def test_unit_validation(self):
        with pytest.raises(ValueError, match="step bound"):
            LWTUnit(center=[0.0, 0.0], translation=[1.0, 0.0], radius=1.0)
        with pytest.raises(ValueError, match="radius"):
            LWTUnit(center=[0.0, 0.0], translation=[0.0, 0.0], radius=0.0)
        # at the bound itself construction succeeds
        LWTUnit(center=[0.0, 0.0], translation=[LWT_STEP_RATIO, 0.0], radius=1.0)

    def test_unit_center_and_translation_must_share_dimension(self):
        with pytest.raises(ValueError, match="center and translation dimensions differ"):
            LWTUnit(center=[0.0, 0.0], translation=[0.1, 0.0, 0.0], radius=1.0)

    def test_units_of_two_dimensions_do_not_compose(self):
        planar = LWTUnit(center=[0.0, 0.0], translation=[0.1, 0.0], radius=1.0)
        spatial = LWTUnit(center=[0.0, 0.0, 0.0], translation=[0.1, 0.0, 0.0], radius=1.0)
        with pytest.raises(ValueError, match="share one dimension"):
            LWTMap(units=(planar, spatial))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(0.05, 3.0),
    st.floats(0.0, 1.0),
    st.floats(-np.pi, np.pi),
)
def test_unit_determinant_positive_whenever_step_respects_bound(
    cx, cy, radius, frac, angle
):
    step = frac * LWT_STEP_RATIO * radius
    translation = step * np.array([np.cos(angle), np.sin(angle)])
    unit = LWTUnit(center=[cx, cy], translation=translation, radius=radius)
    probes = unit.center + np.outer(
        np.linspace(-5, 5, 101), translation if step else [1.0, 0.0]
    )
    assert unit.jacobian_det(probes).min() > 0.0
