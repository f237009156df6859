"""Trajectory metrics and rank statistics against enumeration oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats as scipy_stats

from conftest import (
    brute_force_dtw,
    brute_force_frechet,
    default_bench_tasks,
    loop_area_between,
    loop_dtw,
    loop_frechet,
    mw_exact_enumeration,
    pair_arclength_resample,
    pair_area_between_curves,
    pair_compute_metrics,
    pair_final_angle_error,
    pair_final_position_error,
    pair_mann_whitney_u,
    pair_rank_methods,
)
from poltrans import Trajectory, cli, save_json
from poltrans.metrics import (
    EXACT_U_LIMIT,
    METRIC_NAMES,
    MetricReport,
    RankingResult,
    area_between_curves,
    _arclength_resample,
    _average_ranks,
    _lane_groups,
    _u_tests,
    _wavefront,
    compute_metrics,
    compute_metrics_batch,
    dtw_distance,
    final_angle_error,
    final_position_error,
    frechet_distance,
    mann_whitney_u,
    rank_methods,
    read_metrics_csv,
    write_metrics_csv,
)

PARALLEL_A = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
PARALLEL_B = PARALLEL_A + np.array([0.0, 1.0])


def wavefront_costs(pairs):
    """Frechet and DTW costs of every (a, b) pair, in order, one wavefront
    per group of pairs that share (len(a), len(b), dim)."""
    frechet, dtw = np.empty(len(pairs)), np.empty(len(pairs))
    for members, a, b in _lane_groups(pairs):
        frechet[members], dtw[members] = _wavefront(a, b)
    return frechet, dtw


def tail_trajectory(angle, n=8, origin=(0.0, 0.0)):
    """Straight polyline marching along a fixed heading."""
    step = np.array([np.cos(angle), np.sin(angle)])
    return np.asarray(origin) + np.outer(np.arange(n), 0.1 * step)


class TestCurveDistances:
    def test_agree_with_path_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            a = rng.uniform(-1, 1, (int(rng.integers(2, 8)), 2))
            b = rng.uniform(-1, 1, (int(rng.integers(2, 8)), 2))
            assert frechet_distance(a, b) == pytest.approx(
                brute_force_frechet(a, b), abs=1e-12
            )
            assert dtw_distance(a, b) == pytest.approx(
                brute_force_dtw(a, b), abs=1e-12
            )

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 5), (5, 1), (2, 2), (37, 90), (90, 37), (200, 200)]
    )
    def test_bit_identical_to_the_cell_loops(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for _ in range(3):
            a = rng.uniform(-1, 1, (shape[0], 2))
            b = rng.uniform(-1, 1, (shape[1], 2))
            assert frechet_distance(a, b) == loop_frechet(a, b)
            assert dtw_distance(a, b) == loop_dtw(a, b)

    @pytest.mark.parametrize("shape", [(2, 2), (6, 9), (9, 6), (40, 40)])
    def test_bit_identical_to_the_cell_loops_under_ties(self, shape):
        # points on a 3x3 integer grid: many couplings reach a cell with
        # equal cost, so min picks between equal operands throughout
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(5):
            a = rng.integers(0, 3, (shape[0], 2)).astype(float)
            b = rng.integers(0, 3, (shape[1], 2)).astype(float)
            assert frechet_distance(a, b) == loop_frechet(a, b)
            assert dtw_distance(a, b) == loop_dtw(a, b)

    def test_one_batch_of_mixed_shapes_and_dims_matches_the_cell_loops(self):
        # the batch groups its pairs by (m, n, dim) and sweeps each group's
        # pairs as lanes of one wavefront; integer-grid pairs bring ties
        rng = np.random.default_rng(11)
        pairs = []
        for m, n in [(1, 1), (1, 5), (5, 1), (2, 2), (37, 90), (90, 37), (200, 200)]:
            for dim in (1, 2, 3):
                pairs.append((rng.uniform(-1, 1, (m, dim)), rng.uniform(-1, 1, (n, dim))))
                pairs.append(
                    (rng.integers(0, 3, (m, dim)).astype(float), rng.integers(0, 3, (n, dim)).astype(float))
                )
        frechet, dtw = wavefront_costs(pairs)
        assert frechet.tolist() == [loop_frechet(a, b) for a, b in pairs]
        assert dtw.tolist() == [loop_dtw(a, b) for a, b in pairs]

    def test_many_lanes_per_group_match_the_cell_loops_lane_by_lane(self):
        # 19 lanes (odd, more than 16) in each (m, n, dim) group with m != n,
        # every third lane on an integer grid for ties; the groups' pairs
        # are interleaved, so each lane's cost must land at its own index
        rng = np.random.default_rng(19)
        pairs = []
        for lane in range(19):
            for m, n in [(23, 41), (41, 23)]:
                for dim in (1, 2, 3):
                    if lane % 3 == 0:
                        a = rng.integers(0, 3, (m, dim)).astype(float)
                        b = rng.integers(0, 3, (n, dim)).astype(float)
                    else:
                        a, b = rng.uniform(-1, 1, (m, dim)), rng.uniform(-1, 1, (n, dim))
                    pairs.append((a, b))
        frechet, dtw = wavefront_costs(pairs)
        for lane, (a, b) in enumerate(pairs):
            assert frechet[lane] == loop_frechet(a, b)
            assert dtw[lane] == loop_dtw(a, b)

    @pytest.mark.parametrize(
        "metric",
        [
            frechet_distance,
            dtw_distance,
            area_between_curves,
            final_position_error,
            final_angle_error,
            compute_metrics,
        ],
        ids=lambda metric: metric.__name__,
    )
    def test_mismatched_dimensions_are_rejected(self, metric):
        # every one-pair metric checks dimensions first, as the batch does
        rng = np.random.default_rng(5)
        planar = np.cumsum(rng.uniform(0.1, 1.0, (10, 2)), axis=0)
        spatial = np.cumsum(rng.uniform(0.1, 1.0, (10, 3)), axis=0)
        with pytest.raises(ValueError, match="trajectories have dimensions 2 and 3"):
            metric(planar, spatial)

    def test_parallel_segments_hand_values(self):
        assert frechet_distance(PARALLEL_A, PARALLEL_B) == pytest.approx(1.0)
        assert dtw_distance(PARALLEL_A, PARALLEL_B) == pytest.approx(3.0)
        assert area_between_curves(PARALLEL_A, PARALLEL_B) == pytest.approx(2.0)

    def test_identical_curves_are_at_distance_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (10, 2))
        assert frechet_distance(pts, pts) == 0.0
        assert dtw_distance(pts, pts) == 0.0
        assert area_between_curves(pts, pts) == pytest.approx(0.0, abs=1e-15)

    def test_accepts_trajectories_and_arrays(self):
        traj = Trajectory(positions=PARALLEL_A)
        assert frechet_distance(traj, PARALLEL_B) == frechet_distance(
            PARALLEL_A, PARALLEL_B
        )

    @pytest.mark.parametrize("distance", [frechet_distance, dtw_distance])
    def test_non_finite_raw_arrays_are_rejected(self, distance):
        # a NaN past the first row used to slip through the DP's min/max
        holed = PARALLEL_B.copy()
        holed[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            distance(PARALLEL_A, holed)
        with pytest.raises(ValueError, match="finite"):
            distance(holed, PARALLEL_A)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetry_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (int(rng.integers(2, 7)), 2))
        b = rng.uniform(-1, 1, (int(rng.integers(2, 7)), 2))
        fr = frechet_distance(a, b)
        assert fr == pytest.approx(frechet_distance(b, a), abs=1e-12)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), abs=1e-12)
        # the Frechet width never exceeds the DTW sum and never drops below
        # the endpoint separations
        assert fr <= dtw_distance(a, b) + 1e-12
        assert fr >= np.linalg.norm(a[0] - b[0]) - 1e-12
        assert fr >= np.linalg.norm(a[-1] - b[-1]) - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_identity_coupling_bounds_equal_length_pairs(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        a = rng.uniform(-1, 1, (m, 2))
        b = rng.uniform(-1, 1, (m, 2))
        identity_width = np.linalg.norm(a - b, axis=1).max()
        assert frechet_distance(a, b) <= identity_width + 1e-12


class TestAreaBetweenCurves:
    def test_triangle_hand_value(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert area_between_curves(a, b) == pytest.approx(0.5)

    def test_zero_length_curve_is_its_first_point(self):
        assert area_between_curves([[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]) == 0.5

    def test_single_point_curve_is_rejected(self):
        with pytest.raises(ValueError, match="at least two points per curve"):
            area_between_curves([[0.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]])

    def test_resampling_makes_equivalent_polylines_coincide(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0]])
        dense = np.stack([np.linspace(0, 2, 17), np.zeros(17)], axis=1)
        assert area_between_curves(a, dense) == pytest.approx(0.0, abs=1e-12)

    def test_rectangle_with_mismatched_sampling(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        assert area_between_curves(a, b) == pytest.approx(2.0)

    def test_bit_identical_to_the_quadrilateral_loop(self):
        rng = np.random.default_rng(9)
        for m, n in [(2, 2), (2, 300), (300, 2), (37, 90), (200, 200)]:
            a = rng.uniform(-1, 1, (m, 2))
            b = rng.uniform(-1, 1, (n, 2))
            assert area_between_curves(a, b) == loop_area_between(a, b)

    @pytest.mark.parametrize("m", [2, 3, 7, 20])
    def test_resampler_is_bitwise_np_interp_lane_by_lane(self, m):
        # 24 lanes: random walks, walks with repeated points, walks on a
        # half-unit grid (stations land on knots) and zero-length lanes,
        # half of them of distinct points whose squared steps underflow,
        # resampled to every count from m to 2m + 2
        rng = np.random.default_rng(m)
        grid_steps = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5], [0.0, 0.0]])
        lanes = []
        for lane in range(24):
            kind = lane % 4
            if kind == 2:
                steps = grid_steps[rng.integers(0, 5, m)]
            else:
                steps = rng.uniform(-1, 1, (m, 2))
            if kind == 1:
                steps[rng.random(m) < 0.4] = 0.0
            if kind == 3 and lane % 8 == 7:
                steps *= 1e-170
            elif kind == 3:
                steps[1:] = 0.0
            lanes.append(np.cumsum(steps, axis=0))
        stack = np.stack([pts.T for pts in lanes], axis=2)
        for count in range(m, 2 * m + 3):
            out = _arclength_resample(stack, count)
            assert out.shape == (2, count, len(lanes))
            for lane, pts in enumerate(lanes):
                expected = pair_arclength_resample(pts, count).T
                assert out[:, :, lane].tobytes() == expected.tobytes()

    def test_needs_two_points_per_curve(self):
        with pytest.raises(ValueError):
            area_between_curves(np.array([[0.0, 0.0]]), PARALLEL_A)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (9, 2))
        b = rng.uniform(-1, 1, (5, 2))
        assert area_between_curves(a, b) == pytest.approx(
            area_between_curves(b, a), abs=1e-12
        )


class TestEndpointMetrics:
    def test_final_position_error(self):
        assert final_position_error(PARALLEL_A, PARALLEL_B) == pytest.approx(1.0)
        assert final_position_error(PARALLEL_A, PARALLEL_A) == 0.0

    def test_final_angle_error_hand_values(self):
        a = tail_trajectory(np.pi / 6)
        b = tail_trajectory(np.pi / 4)
        assert final_angle_error(a, b) == pytest.approx(np.pi / 12, abs=1e-12)
        assert final_angle_error(a, a) == pytest.approx(0.0, abs=1e-12)
        opposite = tail_trajectory(np.pi / 6 + np.pi)
        assert final_angle_error(a, opposite) == pytest.approx(np.pi, abs=1e-12)

    def test_angle_only_looks_at_the_tail(self):
        """A sharp turn early on must not affect the final heading."""
        bent = np.vstack([tail_trajectory(np.pi / 2, n=4), tail_trajectory(0.0, n=8) + [0, 0.4]])
        straight = tail_trajectory(0.0, n=8)
        assert final_angle_error(bent, straight) == pytest.approx(0.0, abs=1e-12)

    def test_stationary_tail_raises(self):
        frozen = np.vstack([tail_trajectory(0.0, n=3), np.tile([9.0, 9.0], (7, 1))])
        with pytest.raises(ValueError, match="stationary tail"):
            final_angle_error(frozen, PARALLEL_A)

    def test_compute_metrics_bundles_the_individual_functions(self):
        report = compute_metrics(PARALLEL_A, PARALLEL_B)
        assert report.frechet == frechet_distance(PARALLEL_A, PARALLEL_B)
        assert report.dtw == dtw_distance(PARALLEL_A, PARALLEL_B)
        assert report.area_between == area_between_curves(PARALLEL_A, PARALLEL_B)
        assert report.final_position_error == 1.0
        assert set(report.to_dict()) == set(METRIC_NAMES)

    def test_metric_names_are_the_report_fields_in_column_order(self):
        """metrics.csv writes its columns in METRIC_NAMES order."""
        assert METRIC_NAMES == (
            "frechet", "area_between", "dtw", "final_position_error", "final_angle_error"
        )
        report = MetricReport(*(0.5 * i for i in range(5)))
        assert report.to_dict() == {name: 0.5 * i for i, name in enumerate(METRIC_NAMES)}
        with pytest.raises(ValueError, match="finite and nonnegative"):
            MetricReport(0.0, 0.0, 0.0, 0.0, -1.0)

    def test_batch_reports_every_pair_and_isolates_failures(self):
        frozen = np.vstack([tail_trajectory(0.0, n=3), np.tile([9.0, 9.0], (7, 1))])
        holed = PARALLEL_B.copy()
        holed[1, 0] = np.nan
        pairs = [
            (PARALLEL_A, PARALLEL_B),
            (frozen, tail_trajectory(0.2, n=10)),
            (holed, PARALLEL_A),
            (tail_trajectory(0.3, n=10), tail_trajectory(0.5, n=10)),
            (PARALLEL_B, PARALLEL_A),
        ]
        outcomes = compute_metrics_batch(pairs)
        assert isinstance(outcomes[1], ValueError) and "stationary tail" in str(outcomes[1])
        assert isinstance(outcomes[2], ValueError) and "finite" in str(outcomes[2])
        for k in (0, 3, 4):
            assert outcomes[k] == compute_metrics(*pairs[k])
        assert compute_metrics_batch([]) == []

    @pytest.mark.parametrize("suite", ["surfaces", "frames"])
    def test_batch_equals_the_per_pair_oracles_on_every_suite_cell(self, suite):
        """The default bench suites' cells, scored as lanes, equal their
        pairs scored one at a time: the lanes' axis reductions and BLAS
        dots round like the per-pair code's."""
        pairs = [
            (outcome[0], task.scenario.reference)
            for task in default_bench_tasks(suite)
            for outcome in cli._run_scene(task)
        ]
        assert len(pairs) == {"surfaces": 60, "frames": 40}[suite]
        assert compute_metrics_batch(pairs) == [pair_compute_metrics(*pair) for pair in pairs]

    def test_one_batch_of_mixed_lengths_and_dims_matches_the_oracles(self):
        # planar and 3-D pairs of several lengths, with integer-grid points
        # (repeated points, zero-length segments, ties in the arc length),
        # widely scaled curves and short curves whose tail is the whole curve
        rng = np.random.default_rng(23)
        pairs = []
        for lane in range(300):
            m, n = (int(k) for k in rng.choice([2, 3, 6, 40], size=2))
            dim = 3 if lane % 5 == 0 else 2
            if lane % 4 == 0:
                a = rng.integers(0, 3, (m, dim)).astype(float)
            else:
                a = np.cumsum(rng.uniform(-1, 1, (m, dim)), axis=0) * 10.0 ** rng.integers(-3, 4)
            pairs.append((a, rng.uniform(-1, 1, (n, dim))))
        expected = []
        for pair in pairs:
            try:
                expected.append(pair_compute_metrics(*pair))
            except ValueError as exc:
                expected.append(str(exc))
        outcomes = compute_metrics_batch(pairs)
        assert [str(o) if isinstance(o, ValueError) else o for o in outcomes] == expected
        assert {e for e in expected if isinstance(e, str)} == {
            "area metric requires planar curves",
            "stationary tail: no direction defined",
        }

    def test_each_failing_lane_fails_alone_with_its_own_message(self):
        rng = np.random.default_rng(4)

        def curve(m=8, dim=2):
            return np.cumsum(rng.uniform(0.1, 1.0, (m, dim)), axis=0)

        zero_length = np.tile([0.5, 0.5], (8, 1))
        stationary = curve()
        stationary[-6:] = stationary[-6]
        pairs = [
            (curve(), curve()),
            (zero_length, curve()),
            (curve(), curve()),
            (stationary, curve()),
            (curve(dim=3), curve(dim=3)),
            (curve(m=1), curve()),
            (np.empty((0, 2)), curve()),
            (curve(), curve()),
        ]
        failing = {
            1: "stationary tail: no direction defined",
            3: "stationary tail: no direction defined",
            4: "area metric requires planar curves",
            5: "area metric needs at least two points per curve",
            6: "trajectory positions must form a nonempty (M, dim) array",
        }
        outcomes = compute_metrics_batch(pairs)
        for k, pair in enumerate(pairs):
            if k in failing:
                assert type(outcomes[k]) is ValueError and str(outcomes[k]) == failing[k]
                with pytest.raises(ValueError) as raised:
                    pair_compute_metrics(*pair)
                assert str(raised.value) == failing[k]
            else:
                assert outcomes[k] == pair_compute_metrics(*pair) == compute_metrics(*pair)
        # each failing lane holds its own exception object
        assert len({id(outcomes[k]) for k in failing}) == len(failing)
        # the zero-length curve fails on its angle only: its area is its first point's
        assert area_between_curves(*pairs[1]) == pair_area_between_curves(*pairs[1])

    def test_one_pair_calls_equal_the_per_pair_oracles(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m, n = (int(k) for k in rng.integers(2, 30, size=2))
            dim = int(rng.choice([2, 3]))
            a = np.cumsum(rng.uniform(-1, 1, (m, dim)), axis=0)
            b = np.cumsum(rng.uniform(-1, 1, (n, dim)), axis=0)
            assert final_position_error(a, b) == pair_final_position_error(a, b)
            assert final_angle_error(a, b) == pair_final_angle_error(a, b)
            if dim == 2:
                assert area_between_curves(a, b) == pair_area_between_curves(a, b)

    def test_compute_metrics_raises_the_error_of_a_failing_pair(self):
        frozen = np.vstack([tail_trajectory(0.0, n=3), np.tile([9.0, 9.0], (7, 1))])
        with pytest.raises(ValueError, match="stationary tail"):
            compute_metrics(frozen, tail_trajectory(0.2, n=10))

    def test_final_angle_needs_two_points_per_curve(self):
        with pytest.raises(ValueError, match="angle metric needs at least two points per curve"):
            final_angle_error([[0.0, 0.0]], PARALLEL_A)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            MetricReport(-1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MetricReport(0.0, 0.0, 0.0, 0.0, 4.0)
        with pytest.raises(ValueError):
            MetricReport(np.nan, 0.0, 0.0, 0.0, 0.0)


class TestMannWhitney:
    def test_textbook_example(self):
        u, p, lower = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert u == 0.0
        assert p == pytest.approx(0.05)
        assert lower is False  # strict comparison at alpha = 0.05

    def test_mirrored_example(self):
        u, p, lower = mann_whitney_u([4.0, 5.0, 6.0], [1.0, 2.0, 3.0])
        assert u == 9.0
        assert p == pytest.approx(1.0)
        assert lower is False

    def test_exact_branch_matches_enumeration_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n1 = int(rng.integers(3, 9))
            n2 = int(rng.integers(3, 9))
            x = rng.integers(0, 5, n1).astype(float)
            y = rng.integers(0, 5, n2).astype(float)
            if np.all(np.concatenate([x, y]) == x[0]):
                continue
            u, p, _ = mann_whitney_u(x, y)
            u_ref, p_ref = mw_exact_enumeration(x, y)
            assert u == pytest.approx(u_ref, abs=1e-12)
            assert p == pytest.approx(p_ref, abs=1e-12)

    def test_exact_branch_matches_scipy_without_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n1 = int(rng.integers(3, 10))
            n2 = int(rng.integers(3, min(10, 21 - n1)))
            x = rng.standard_normal(n1)
            y = rng.standard_normal(n2) + rng.uniform(-1, 1)
            _, p, _ = mann_whitney_u(x, y)
            ref = scipy_stats.mannwhitneyu(x, y, alternative="less", method="exact")
            assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_approximate_branch_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n1 = int(rng.integers(11, 30))
            n2 = int(rng.integers(11, 30))
            x = rng.integers(0, 8, n1).astype(float)
            y = rng.integers(0, 8, n2).astype(float) + rng.integers(0, 3)
            if np.all(np.concatenate([x, y]) == x[0]):
                continue
            _, p, _ = mann_whitney_u(x, y)
            ref = scipy_stats.mannwhitneyu(
                x, y, alternative="less", method="asymptotic", use_continuity=True
            )
            assert p == pytest.approx(ref.pvalue, abs=1e-10)

    @pytest.mark.parametrize("n1, n2", [(11, 11), (3, 30), (30, 3)])
    def test_approximate_branch_variance_is_positive_under_the_largest_tie(self, n1, n2):
        """All but one pooled value tied is the largest tie short of all
        equal: the tie term is n - 2 and the variance n1 n2 / 4."""
        for x, y in ((np.zeros(n1), np.r_[np.zeros(n2 - 1), 1.0]), (np.r_[1.0, np.zeros(n1 - 1)], np.zeros(n2))):
            _, p, _ = mann_whitney_u(x, y)
            ref = scipy_stats.mannwhitneyu(x, y, alternative="less", method="asymptotic", use_continuity=True)
            assert 0.0 < p <= 1.0
            assert p == pytest.approx(ref.pvalue, abs=1e-10)

    def test_average_ranks_match_scipy_rankdata(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            values = rng.integers(0, int(rng.integers(1, 6)), int(rng.integers(1, 30))).astype(float)
            ranks, ties = _average_ranks(values)
            assert ranks.tolist() == scipy_stats.rankdata(values).tolist()
            runs = np.unique(values, return_counts=True)[1]
            assert int(ties) == int(np.sum(runs**3 - runs))

    def test_clearly_shifted_large_samples_are_significant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0.0, 1.0, 25)
        y = rng.normal(4.0, 1.0, 25)
        _, p, lower = mann_whitney_u(x, y)
        assert lower and p < 1e-6

    def test_all_identical_values(self):
        u, p, lower = mann_whitney_u([5.0, 5.0, 5.0], [5.0, 5.0, 5.0, 5.0])
        assert u == 6.0  # n1 n2 / 2
        assert p == 1.0 and lower is False

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError, match="at least 3"):
            mann_whitney_u([1.0, 2.0], [3.0, 4.0, 5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_are_rejected(self, bad):
        """A NaN has no rank: it used to give (3.0, 0.35, False) here."""
        with pytest.raises(ValueError, match="U test samples must be finite"):
            mann_whitney_u([1.0, 2.0, bad], [3.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="U test samples must be finite"):
            mann_whitney_u([3.0, 4.0, 5.0], [1.0, 2.0, bad])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 9), st.integers(3, 9))
    def test_u_statistics_of_both_sides_partition_the_pairs(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 6, n1).astype(float)
        y = rng.integers(0, 6, n2).astype(float)
        if np.all(np.concatenate([x, y]) == x[0]):
            return
        ux, px, _ = mann_whitney_u(x, y)
        uy, py, _ = mann_whitney_u(y, x)
        assert ux + uy == pytest.approx(n1 * n2, abs=1e-9)
        assert 0.0 < px <= 1.0 and 0.0 < py <= 1.0


class TestRanking:
    @staticmethod
    def shifted_results(shifts, n=12, seed=7):
        rng = np.random.default_rng(seed)
        base = rng.uniform(1.0, 2.0, n)
        return {
            method: {
                "frechet": base + offset + rng.normal(0, 0.01, n),
                "dtw": 2 * base + offset + rng.normal(0, 0.01, n),
            }
            for method, offset in shifts.items()
        }

    def test_dominant_method_ranks_first(self):
        results = self.shifted_results({"alpha": 0.0, "beta": 5.0, "gamma": 10.0})
        ranking = dict(rank_methods(results).ranking)
        assert ranking == {"alpha": 1, "beta": 2, "gamma": 3}

    def test_order_invariance(self):
        results = self.shifted_results({"alpha": 0.0, "beta": 5.0, "gamma": 10.0})
        reordered = {k: results[k] for k in ("gamma", "alpha", "beta")}
        assert rank_methods(results).ranking == rank_methods(reordered).ranking
        assert rank_methods(results).points == rank_methods(reordered).points

    def test_indistinguishable_methods_share_rank_one(self):
        results = self.shifted_results({"a": 0.0, "b": 0.0})
        result = rank_methods(results)
        assert dict(result.ranking) == {"a": 1, "b": 1}
        assert result.points == {"a": 0, "b": 0}

    def test_points_count_significant_wins_per_metric(self):
        results = self.shifted_results({"good": 0.0, "bad": 5.0})
        result = rank_methods(results)
        assert result.per_metric_points["frechet"] == {"good": 1, "bad": 0}
        assert result.per_metric_points["dtw"] == {"good": 1, "bad": 0}
        assert result.points == {"good": 2, "bad": 0}

    def test_preconditions(self):
        with pytest.raises(ValueError, match="two methods"):
            rank_methods({"only": {"frechet": np.ones(5)}})
        with pytest.raises(ValueError, match="identical metrics"):
            rank_methods(
                {
                    "a": {"frechet": np.ones(5)},
                    "b": {"dtw": np.ones(5)},
                }
            )


def bits(outcome) -> tuple:
    """A (U, p, flag) triple with its floats as their exact bit patterns."""
    u, p, flag = outcome
    return float(u).hex(), float(p).hex(), flag


class TestLaneUTests:
    """``rank_methods`` scores every metric's ordered method pairs as the
    lanes of one stacked pass; each lane is the per-pair test
    ``pair_mann_whitney_u`` bit for bit."""

    @staticmethod
    def assert_lanes_match_the_oracle(results: dict, alpha: float = 0.05) -> int:
        methods = sorted(results)
        pairs = [
            (results[a][metric], results[b][metric])
            for metric in sorted(results[methods[0]])
            for a in methods
            for b in methods
            if a != b
        ]
        u, p = _u_tests(pairs)
        for pair, lane in zip(pairs, zip(u.tolist(), p.tolist(), (p < alpha).tolist())):
            expected = bits(pair_mann_whitney_u(*pair, alpha))
            assert bits(lane) == expected
            assert bits(mann_whitney_u(*pair, alpha)) == expected
        result = rank_methods(results, alpha)
        assert (result.points, result.per_metric_points) == pair_rank_methods(results, alpha)
        return len(pairs)

    @staticmethod
    def bench_samples(tmp_path, *flags) -> dict:
        out = tmp_path / "bench"
        assert cli.main(["bench", *map(str, flags), "--out-dir", str(out)]) == 0
        rows = read_metrics_csv(out / "metrics.csv")
        return {
            method: {name: np.array([r[name] for r in rows if r["method"] == method]) for name in METRIC_NAMES}
            for method in sorted({r["method"] for r in rows})
        }

    @pytest.mark.parametrize(
        "flags, lanes, exact",
        [
            (("--suite", "surfaces"), 60, False),
            (("--suite", "frames"), 10, False),
            # 5 scenes per method: the exact path
            (("--suite", "surfaces", "--seeds", 1, "--n-keypoints", 7), 60, True),
        ],
    )
    def test_the_default_suites_samples(self, tmp_path, flags, lanes, exact):
        samples = self.bench_samples(tmp_path, *flags)
        n = 2 * len(next(iter(samples.values()))["frechet"])
        assert (n <= EXACT_U_LIMIT) == exact
        assert self.assert_lanes_match_the_oracle(samples) == lanes

    @pytest.mark.parametrize("sizes", [(3, 4, 5, 9), (11, 12, 20, 25), (3, 8, 15, 30)])
    def test_random_samples_with_ties_on_both_paths(self, sizes):
        """Integer-valued samples of mixed sizes, so the lanes fall into
        several (n1, n2) groups on the exact and the normal path."""
        rng = np.random.default_rng(sum(sizes))
        for trial in range(8):
            results = {
                f"m{k}": {
                    metric: rng.integers(0, int(rng.integers(1, 7)), size).astype(float) * 10.0 ** (trial - 4)
                    for metric in ("frechet", "dtw", "area_between")
                }
                for k, size in enumerate(sizes)
            }
            for alpha in (0.05, 0.5):
                self.assert_lanes_match_the_oracle(results, alpha)

    def test_an_all_equal_pooled_lane_among_others(self):
        results = {
            "a": {"frechet": np.full(12, 0.25), "dtw": np.full(4, 2.0)},
            "b": {"frechet": np.full(12, 0.25), "dtw": np.array([2.0, 3.0, 1.0])},
            "c": {"frechet": np.arange(12.0), "dtw": np.full(4, 2.0)},
        }
        assert self.assert_lanes_match_the_oracle(results) == 12
        u, p = _u_tests([(results["a"]["frechet"], results["b"]["frechet"])])
        assert (u.tolist(), p.tolist()) == ([72.0], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_and_short_samples_raise_the_first_lanes_error(self, bad):
        """The error is the one the per-pair loop raises first: lanes in
        order, the finite check before the size check."""
        rng = np.random.default_rng(2)
        for _ in range(40):
            results = {m: {k: rng.uniform(size=int(rng.integers(2, 6))) for k in ("dtw", "frechet")} for m in "abc"}
            method, metric = "abc"[int(rng.integers(3))], ("dtw", "frechet")[int(rng.integers(2))]
            results[method][metric][int(rng.integers(2))] = bad
            with pytest.raises(ValueError) as expected:
                pair_rank_methods(results)
            with pytest.raises(ValueError, match=str(expected.value)):
                rank_methods(results)
        with pytest.raises(ValueError, match="U test samples must be finite"):
            rank_methods({"a": {"dtw": np.ones(5)}, "b": {"dtw": np.r_[np.ones(4), bad]}})


class TestCsvAndJson:
    def test_metrics_csv_round_trip_and_sorting(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = []
        for scenario in ("s-b", "s-a"):
            for method in ("m2", "m1"):
                for rep in (1, 0):
                    row = {"scenario": scenario, "method": method, "repetition": rep}
                    row.update({name: float(rng.uniform(0, 2)) for name in METRIC_NAMES})
                    rows.append(row)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, path)
        back = read_metrics_csv(path)
        keys = [(r["scenario"], r["method"], r["repetition"]) for r in back]
        assert keys == sorted(keys)
        original = {(r["scenario"], r["method"], r["repetition"]): r for r in rows}
        for r in back:
            src = original[(r["scenario"], r["method"], r["repetition"])]
            for name in METRIC_NAMES:
                assert r[name] == src[name]  # %.17g survives the round trip

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.5"])
    def test_read_rejects_a_non_finite_or_negative_metric(self, tmp_path, bad):
        rows = [
            {"scenario": "s", "method": "m", "repetition": i, **{name: 0.1 for name in METRIC_NAMES}}
            for i in range(3)
        ]
        rows[1]["dtw"] = float(bad)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, path)
        with pytest.raises(ValueError, match=rf"{path} line 3: dtw is {bad}: metrics must be finite"):
            read_metrics_csv(path)

    @pytest.mark.parametrize(
        "row, cells",
        [("s,m,0,0.1,0.1", 5), ("s,m,0,0.1,0.1,0.1,0.1,0.1,9", 9)],
    )
    def test_read_rejects_a_row_whose_cell_count_is_not_the_headers(self, tmp_path, row, cells):
        path = tmp_path / "metrics.csv"
        path.write_text("scenario,method,repetition," + ",".join(METRIC_NAMES) + "\n" + row + "\n")
        with pytest.raises(ValueError) as info:
            read_metrics_csv(path)
        assert str(info.value) == f"{path} line 2: row has {cells} cells, the header has 8"

    def test_write_is_deterministic(self, tmp_path):
        rows = [
            {
                "scenario": "s",
                "method": "m",
                "repetition": i,
                **{name: 0.1 * i for name in METRIC_NAMES},
            }
            for i in (2, 0, 1)
        ]
        write_metrics_csv(rows, tmp_path / "a.csv")
        write_metrics_csv(list(reversed(rows)), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_ranking_json(self, tmp_path):
        result = RankingResult(
            points={"a": 2, "b": 0},
            per_metric_points={"frechet": {"a": 1, "b": 0}},
            ranking=(("a", 1), ("b", 2)),
        )
        path = tmp_path / "ranking.json"
        save_json(result, path)

        data = json.loads(path.read_text())
        assert data["ranking"] == [["a", 1], ["b", 2]]
        assert data["points"] == {"a": 2, "b": 0}
