"""Reshaping baselines against enumeration and dense-solve oracles."""

import itertools
import tracemalloc
import warnings

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
    lwt_unit_det,
    suite_tasks,
)
from poltrans import PairedKeypoints, PointSet, Trajectory, baselines, cli, gp
from poltrans.baselines import (
    LWT_STEP_RATIO,
    LWTMap,
    ViaAssignment,
    apply_lwt,
    assign_via_points,
    fit_lwt,
    laplacian_edit,
    reshaped_kmp,
)
from poltrans.cli import _gamma_pretransform
from poltrans.gp import KernelParams, build_gp
from poltrans.scenarios import SURFACE_PROFILES, make_surface_scenario
from poltrans.transport import ROUNDOFF_ULPS, match_tolerance


def fix_kernel(monkeypatch, params: KernelParams) -> None:
    """Have reshaped_kmp's GP use ``params`` as they are, where it would fit
    its own: a stand-in for ``fit_gp`` in ``baselines``."""
    monkeypatch.setattr(baselines, "fit_gp", lambda inputs, outputs: build_gp(inputs, outputs, params))


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
    """Minimum total squared distance by enumerating ordered index tuples."""
    best = np.inf
    for combo in itertools.permutations(range(traj.m), kp.n):
        cost = sum(
            np.sum((kp.source.points[k] - traj.positions[j]) ** 2)
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
                np.sum((src[k] - traj.positions[j]) ** 2)
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

    def test_fixed_kernel_pins_to_working_precision(self, monkeypatch):
        traj = Trajectory(
            positions=np.zeros((21, 2)),
            times=np.linspace(0.0, 1.0, 21),
        )
        idx = np.array([10])
        tgt = np.array([[0.5, 0.25]])
        fix_kernel(monkeypatch, KernelParams(1.0, 0.2, 0.0))
        reshaped = reshaped_kmp(traj, ViaAssignment(indices=idx, targets=tgt))
        assert np.abs(reshaped.positions[10] - tgt[0]).max() < 1e-6

    def test_displacement_decays_beyond_thirty_lengthscales(self, monkeypatch):
        ell = 0.5
        times = np.concatenate([[-40.0 * ell], np.linspace(-0.5, 0.5, 11), [40.0 * ell]])
        traj = Trajectory(positions=np.zeros((13, 2)), times=times)
        displacement = np.array([[0.4, -0.2]])
        fix_kernel(monkeypatch, KernelParams(1.0, ell, 0.0))
        reshaped = reshaped_kmp(traj, ViaAssignment(indices=[6], targets=displacement))
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
            result = cli.METHOD_TABLE["reshaped_kmp"].run(scene)
            aligned, _ = scene.aligned
            assert np.array_equal(result.trajectory.positions, aligned.positions)
            assert np.array_equal(result.trajectory.times, aligned.times)
            assert result.band is None and result.report is None and result.warnings == ()

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

    def test_given_kernel_shifts_round_off_labels_by_zero(self, monkeypatch):
        scenario = make_surface_scenario("tilt", seed=0)
        aligned, aligned_kp = _gamma_pretransform(scenario.keypoints, scenario.demonstration)
        assignment = assign_via_points(aligned, aligned_kp)
        assert 0.0 < kmp_roundoff_ratio(scenario.keypoints, scenario.demonstration) <= ROUNDOFF_ULPS
        fix_kernel(monkeypatch, KernelParams(1.0, 0.1, 0.0))
        reshaped = reshaped_kmp(aligned, assignment)
        assert np.array_equal(reshaped.positions, aligned.positions)

    def test_labels_above_the_threshold_are_fitted(self, monkeypatch):
        """A displacement just above ROUNDOFF_ULPS ulps is a displacement:
        the GP fits it and the assigned node moves by it."""
        times = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(positions=np.column_stack([times, np.ones(11)]), times=times)
        step = 2 * ROUNDOFF_ULPS * np.finfo(float).eps
        targets = traj.positions[[2, 5, 8]] + [[0.0, step], [0.0, 0.0], [0.0, 0.0]]
        assignment = ViaAssignment(indices=[2, 5, 8], targets=targets)
        fix_kernel(monkeypatch, KernelParams(1.0, 0.1, 0.0))
        reshaped = reshaped_kmp(traj, assignment)
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
        lwt = fit_lwt(kp)
        expected = loop_fit_lwt(kp)
        assert len(lwt.radii) == len(expected)
        for row, (center, translation, radius) in enumerate(expected):
            assert lwt.centers[row].tobytes() == center.tobytes()
            assert lwt.translations[row].tobytes() == translation.tobytes()
            assert lwt.radii[row] == radius

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
            units = list(zip(lwt.centers, lwt.translations, lwt.radii))
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

    def test_the_unit_budget_is_a_thousand_or_n_squared(self):
        assert [baselines._unit_budget(n) for n in (1, 12, 31, 32, 50, 200)] == [
            1000, 1000, 1000, 1024, 2500, 40000
        ]

    def test_a_fit_converging_on_its_last_allowed_unit_does_not_warn(self, monkeypatch):
        scenario = make_surface_scenario("sine", n_keypoints=12, seed=0)
        _, kp = _gamma_pretransform(scenario.keypoints, scenario.demonstration)
        assert fit_lwt(kp).radii.shape == (25,)
        monkeypatch.setattr(baselines, "_unit_budget", lambda n: 25)
        lwt = fit_lwt(kp)
        assert lwt.radii.shape == (25,)
        assert lwt.warnings == ()
        # one unit fewer is a fit that stops short
        monkeypatch.setattr(baselines, "_unit_budget", lambda n: 24)
        (note,) = fit_lwt(kp).warnings
        assert note.startswith("did not converge in 24 iterations; best residual ")

    def test_a_bent_surface_scene_converges_at_200_keypoints(self):
        """The bent scenes need 3,678-9,415 units here, past the old fixed
        budget of 1000; composite-0 needs the most of the nine. The map it
        returns is three arrays, 40 bytes of data per unit in 2-d."""
        scenario = make_surface_scenario("composite", n_keypoints=200, seed=0)
        _, kp = _gamma_pretransform(scenario.keypoints, scenario.demonstration)
        tracemalloc.start()
        try:
            lwt = fit_lwt(kp)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lwt.warnings == ()
        units = lwt.radii.size
        assert 1000 < units <= baselines._unit_budget(kp.n)
        assert held <= 64 * units
        moved = apply_lwt(lwt, kp.source.points)
        assert np.linalg.norm(moved - kp.target.points, axis=1).max() <= match_tolerance(kp)

    def test_every_unit_keeps_positive_determinant(self):
        rng = np.random.default_rng(9)
        src = rng.uniform(-1, 1, (5, 2))
        tgt = src + rng.uniform(-0.25, 0.25, (5, 2))
        lwt = fit_lwt(PairedKeypoints(PointSet(src), PointSet(tgt)))
        assert lwt.radii.size > 0
        for center, direction, radius in zip(lwt.centers, lwt.translations, lwt.radii):
            norm = np.linalg.norm(direction)
            if norm == 0:
                continue
            # worst case lies along the translation through the center
            line = center + np.outer(np.linspace(-4, 4, 401), direction / norm) * radius
            dets = lwt_unit_det(center, direction, radius, line)
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
        assert lwt.centers.shape == lwt.translations.shape == (0, 2)
        assert lwt.radii.shape == (0,)

    def test_contradictory_keypoints_warn_after_budget(self, monkeypatch):
        """The map's ``warnings`` are the one report: no Python warning.
        These keypoints, 1e-9 apart and pulled opposite ways, take 115
        units."""
        src = np.array([[0.0, 0.0], [1e-9, 0.0], [2.0, 0.0]])
        tgt = np.array([[0.0, 1.0], [1e-9, -1.0], [2.0, 0.0]])
        kp = PairedKeypoints(PointSet(src), PointSet(tgt))
        monkeypatch.setattr(baselines, "_unit_budget", lambda n: 50)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lwt = fit_lwt(kp)
        assert caught == []
        (note,) = lwt.warnings
        assert note.startswith("did not converge in 50 iterations; best residual ")

    @pytest.mark.parametrize("targets", [[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, -1.0]]])
    def test_a_keypoint_on_another_is_named_and_rejected(self, targets):
        """With equal targets this fit returned 1000 units of ~5e-13 each;
        with different ones it spent its budget and returned none."""
        src = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        tgt = np.vstack([[2.0, 0.0], targets])
        kp = PairedKeypoints(PointSet(src), PointSet(tgt))
        with pytest.raises(ValueError, match="keypoints 1 and 2 coincide"):
            fit_lwt(kp)

    def test_a_step_below_the_residuals_resolution_is_named_and_rejected(self, monkeypatch):
        """Sources 1e-30 apart pulled opposite ways: a unit moves its keypoint
        by at most a quarter of that spacing, which leaves a residual of 1 as
        it was, so the fit raises after its first unit instead of spending
        its budget."""
        src = np.array([[0.0, 0.0], [1e-30, 0.0], [2.0, 0.0]])
        tgt = np.array([[0.0, 1.0], [1e-30, -1.0], [2.0, 0.0]])
        radii = []
        real_bump = baselines._bump
        monkeypatch.setattr(baselines, "_bump", lambda sq, radius: radii.append(radius) or real_bump(sq, radius))
        with pytest.raises(ValueError, match=r"keypoints 0 and 1 are 1e-30 apart: .* residual 1\.000e\+00$"):
            fit_lwt(PairedKeypoints(PointSet(src), PointSet(tgt)))
        assert len(radii) == 1

    def test_a_step_above_the_residuals_resolution_still_converges(self):
        """1e-12 apart, each unit lowers the residual; the fit converges, in
        150 units, as the loop oracle's does."""
        src = np.array([[0.0, 0.0], [1e-12, 0.0], [2.0, 0.0]])
        tgt = np.array([[0.0, 1.0], [1e-12, -1.0], [2.0, 0.0]])
        kp = PairedKeypoints(PointSet(src), PointSet(tgt))
        lwt = fit_lwt(kp)
        assert lwt.warnings == ()
        assert lwt.radii.shape == (150,)
        self.assert_units_match_the_loop(kp)

    def test_an_empty_map_takes_only_its_own_width(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        lwt = fit_lwt(PairedKeypoints(PointSet(pts), PointSet(pts)))
        assert lwt.centers.shape == (0, 3)
        assert apply_lwt(lwt, pts).tobytes() == pts.tobytes()
        with pytest.raises(ValueError, match="points must have dimension 3"):
            apply_lwt(lwt, pts[:, :2])

    def test_a_step_at_the_bound_builds_and_one_past_it_does_not(self):
        LWTMap(centers=[[0.0, 0.0]], translations=[[LWT_STEP_RATIO, 0.0]], radii=[1.0])
        with pytest.raises(ValueError, match="exceeds the invertibility step bound"):
            LWTMap(centers=[[0.0, 0.0], [1.0, 0.0]], translations=[[0.1, 0.0], [0.0, 0.6]], radii=[1.0, 1.0])

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
    def test_a_radius_that_is_not_finite_and_positive_is_rejected(self, radius):
        with pytest.raises(ValueError, match="radii must be finite and positive"):
            LWTMap(centers=[[0.0, 0.0], [1.0, 0.0]], translations=np.zeros((2, 2)), radii=[1.0, radius])

    @pytest.mark.parametrize("row", [[[np.nan, 0.0]], [[0.0, np.inf]]])
    def test_a_center_or_translation_that_is_not_finite_is_rejected(self, row):
        """A NaN translation would pass the step bound, as NaN compares
        false, and carry NaN into every point the map moves."""
        with pytest.raises(ValueError, match="centers and translations must be finite"):
            LWTMap(centers=row, translations=[[0.1, 0.0]], radii=[1.0])
        with pytest.raises(ValueError, match="centers and translations must be finite"):
            LWTMap(centers=[[0.0, 0.0]], translations=row, radii=[1.0])

    @pytest.mark.parametrize(
        "centers, translations, radii",
        [
            (np.zeros((2, 2)), np.zeros((2, 3)), np.ones(2)),  # two dimensions
            (np.zeros((2, 2)), np.zeros((3, 2)), np.ones(2)),  # translations for three units
            (np.zeros((2, 2)), np.zeros((2, 2)), np.ones(3)),  # radii for three units
            (np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 1))),  # radii not one per row
            (np.zeros(2), np.zeros(2), np.ones(1)),  # a lone center is not a (K, dim) array
        ],
    )
    def test_arrays_of_mismatched_shapes_are_rejected(self, centers, translations, radii):
        with pytest.raises(ValueError, match=r"must be \(K, dim\), \(K, dim\) and \(K,\), not"):
            LWTMap(centers=centers, translations=translations, radii=radii)

    def test_the_arrays_are_read_only_copies(self):
        centers = np.zeros((1, 2))
        lwt = LWTMap(centers=centers, translations=[[0.1, 0.0]], radii=[1.0])
        centers[0, 0] = 5.0
        assert lwt.centers[0, 0] == 0.0
        for array in (lwt.centers, lwt.translations, lwt.radii):
            assert not array.flags.writeable


def test_the_rank_one_determinant_is_the_one_unit_maps_jacobian():
    """The oracle the determinant properties use, against finite
    differences of a one-unit map."""
    rng = np.random.default_rng(16)
    for _ in range(20):
        center = rng.uniform(-1, 1, 2)
        radius = rng.uniform(0.1, 2.0)
        translation = rng.uniform(-1, 1, 2)
        translation *= rng.uniform(0, LWT_STEP_RATIO) * radius / np.linalg.norm(translation)
        lwt = LWTMap(centers=[center], translations=[translation], radii=[radius])
        probes = center + radius * rng.uniform(-3, 3, (5, 2))
        dets = lwt_unit_det(center, translation, radius, probes)
        assert_allclose(dets, [np.linalg.det(lwt_jacobian(lwt, p)) for p in probes], rtol=1e-7)


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
    center = np.array([cx, cy])
    # the map accepts the unit: its step is within the bound
    LWTMap(centers=[center], translations=[translation], radii=[radius])
    probes = center + np.outer(
        np.linspace(-5, 5, 101), translation if step else [1.0, 0.0]
    )
    assert lwt_unit_det(center, translation, radius, probes).min() > 0.0
