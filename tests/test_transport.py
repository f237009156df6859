"""Transportation maps: keypoint matching, Jacobians, label closures."""

import dataclasses
import json
import sys
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist

from conftest import (
    default_bench_tasks,
    fold_pair,
    kernel_se,
    loop_labels_csv,
    loop_polar_rotation,
    random_rigid_pair,
    random_rotation,
    random_smooth_pair,
)
from poltrans import (
    PairedKeypoints,
    PointSet,
    PolicyLabels,
    check_local_diffeomorphism,
    fit_transport,
    load_transport_map,
    polar_rotation,
    save_transport_map,
    transport_jacobians,
    transport_labels,
    transport_points,
    transport_uncertainty,
)
from poltrans import gp, transport, types
from poltrans.affine import fit_affine
from poltrans.gp import predict_mean
from poltrans.scenarios import frame_pairing, make_surface_scenario, random_frame_scenario
from poltrans.transport import ROUNDOFF_ULPS, TOL_MATCH_SCALE, match_tolerance, zero_roundoff
from poltrans.types import save_json


def rigid_labels(rng, m=6, dim=2):
    rots = np.stack([random_rotation(rng, dim) for _ in range(m)])
    eigs = rng.uniform(0.5, 3.0, (m, dim))
    spd = np.einsum("mab,mb,mcb->mac", rots, eigs, rots)
    return PolicyLabels(
        positions=rng.uniform(-1.0, 1.0, (m, dim)),
        velocities=rng.uniform(-1.0, 1.0, (m, dim)),
        orientations=rots,
        stiffness=spd,
        damping=0.4 * spd,
    )


def collinear_3d_pair():
    """8 keypoints on the x-axis, targets Rz(90 deg) of them plus
    (0.3, 0.1, 0): the rigid fit leaves the spin about the line free."""
    x = np.linspace(-1.0, 2.0, 8)
    src = np.stack([x, np.zeros(8), np.zeros(8)], axis=1)
    tgt = np.stack([np.full(8, 0.3), x + 0.1, np.zeros(8)], axis=1)
    return PairedKeypoints(PointSet(src), PointSet(tgt))


def noisy_sine_pair(seed: int) -> PairedKeypoints:
    """Keypoints bent by a sine of seeded amplitude, with seeded Gaussian
    noise on the targets."""
    rng = np.random.default_rng(seed)
    n = rng.choice([5, 8, 12, 20, 40])
    source = rng.uniform(0, 1, (n, 2))
    amp = rng.uniform(0.02, 0.2)
    noise = rng.choice([1e-3, 1e-2, 3e-2])
    target = source + amp * np.sin(3 * source[:, ::-1]) + rng.normal(scale=noise, size=(n, 2))
    return PairedKeypoints(PointSet(source), PointSet(target))


class TestFit:
    def test_keypoints_reproduced_within_tolerance(self):
        scenario = make_surface_scenario("sine", n_keypoints=12, seed=0)
        tmap = fit_transport(scenario.keypoints)
        mapped, _ = transport_points(tmap, scenario.keypoints.source.points)
        err = np.linalg.norm(mapped - scenario.keypoints.target.points, axis=1).max()
        assert err <= 1e-3 * scenario.keypoints.target.diameter()
        assert tmap.warnings == ()

    def test_matches_from_scratch_reimplementation(self):
        """Recompute the map value directly from the stored pieces: rigid
        part plus the kernel-solve residual, using scalar kernel calls and
        a plain dense solve."""
        rng = np.random.default_rng(0)
        kp = random_smooth_pair(rng, n=9)
        tmap = fit_transport(kp)
        model = tmap.residual
        n = model.n
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                gram[i, j] = kernel_se(model.inputs[i], model.inputs[j], model.params)
        gram += model.params.noise_variance * np.eye(n)
        alpha = np.linalg.solve(gram, model.outputs)

        queries = rng.uniform(-1.5, 1.5, (7, 2))
        moved, _ = transport_points(tmap, queries)
        for q, got in zip(queries, moved):
            (base,) = tmap.affine.apply(q[None])
            k_star = np.array([kernel_se(base, xn, model.params) for xn in model.inputs])
            assert_allclose(got, base + k_star @ alpha, atol=1e-9)

    def test_contradictory_keypoints_warn(self):
        kp = PairedKeypoints(
            PointSet([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
            PointSet([[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]]),
        )
        tmap = fit_transport(kp)
        assert any("tolerance exceeded" in w for w in tmap.warnings)

    @pytest.mark.parametrize("seed, n", [(0, 40), (25, 12)])
    def test_a_fit_that_misses_the_tolerance_is_refitted_at_the_noise_floor(self, monkeypatch, seed, n):
        """On these noisy sets the fit at the default noise ratio leaves a
        keypoint 20.9x (seed 0) or 1.42x (seed 25) the match tolerance from
        its target; the refit with the noise pinned at the floor matches
        every keypoint within 4e-6 or 1.0e-4 of the tolerance."""
        kp = noisy_sine_pair(seed)
        assert len(kp.source.points) == n
        fit_gp = transport.fit_gp
        fits = []

        def recorded(*args, **kwargs):
            fits.append(fit_gp(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(transport, "fit_gp", recorded)
        tmap = fit_transport(kp)
        tol = match_tolerance(kp)
        assert len(fits) == 2 and tmap.residual is fits[1]
        assert dataclasses.replace(tmap, residual=fits[0]).keypoint_errors.max() > tol
        assert tmap.keypoint_errors.max() <= 1e-3 * tol and tmap.warnings == ()
        params = tmap.residual.params
        assert params.noise_variance == pytest.approx(gp.NOISE_FLOOR_RATIO * params.signal_variance)

    def test_collinear_3d_keypoints_map_the_plane_of_the_turn(self, tmp_path):
        """On ``collinear_3d_pair`` (0.5, 2, 0) maps onto the image of its
        rotation, not of the identity, and the map and its file name the
        free spin."""
        tmap = fit_transport(collinear_3d_pair())
        mapped, _ = transport_points(tmap, [[0.5, 2.0, 0.0]])
        assert_allclose(mapped, [[-1.7, 0.6, 0.0]], atol=1e-12)
        assert np.linalg.det(tmap.affine.rotation) == pytest.approx(1.0)
        (warning,) = tmap.warnings
        assert "collinear keypoints" in warning
        save_transport_map(tmap, tmp_path / "map.json")
        assert load_transport_map(tmp_path / "map.json").warnings == (warning,)

    @pytest.mark.parametrize("case", ["surface", "contradictory"])
    def test_keypoint_errors_equal_transported_keypoints(self, tmp_path, case):
        if case == "surface":
            kp = make_surface_scenario("composite", n_keypoints=50, seed=1).keypoints
        else:  # the warned path, through the pinned-noise retry
            kp = PairedKeypoints(
                PointSet([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
                PointSet([[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]]),
            )
        fresh = fit_transport(kp)
        save_transport_map(fresh, tmp_path / "map.json")
        loaded = load_transport_map(tmp_path / "map.json")
        for tmap in (fresh, loaded):
            mapped, _ = transport_points(tmap, kp.source.points)
            expected = np.linalg.norm(mapped - kp.target.points, axis=1)
            assert np.array_equal(tmap.keypoint_errors, expected)
        assert (case == "contradictory") == bool(fresh.warnings)

    def test_a_fit_computes_each_distance_matrix_once(self, monkeypatch):
        """A 200-keypoint fit computes the residual inputs' n x n squared
        distances once, in fit_gp, for the search and the fitted model, and
        the target diameter once however often the tolerance is read; the
        keypoint check still predicts through predict_mean."""
        kp = make_surface_scenario("step", n_keypoints=200, seed=7).keypoints
        real = types._sq_dists
        callers = Counter()

        def counted(a, b):
            callers[sys._getframe(1).f_code.co_name, a.shape[0], b.shape[0]] += 1
            return real(a, b)

        monkeypatch.setattr(gp, "_sq_dists", counted)
        monkeypatch.setattr(types, "_sq_dists", counted)
        tmap = fit_transport(kp)
        assert tmap.warnings == () and match_tolerance(kp) == TOL_MATCH_SCALE * kp.target.diameter()
        assert callers == {("fit_gp", 200, 200): 1, ("_diameter", 200, 200): 1, ("predict_mean", 200, 200): 1}

    def test_step_residual_leaves_the_lengthscale_floor(self):
        """On the step profile the likelihood prefers a lengthscale near the
        keypoint spacing to a spike at the lower bound, which reproduced
        the rigid map and gave det J <= 0 on 1% of the demonstration."""
        scenario = make_surface_scenario("step", n_keypoints=12, seed=0)
        tmap = fit_transport(scenario.keypoints)
        x = tmap.residual.inputs
        ell_floor = 1e-3 * pdist(x).max() / np.sqrt(x.shape[1])
        assert tmap.residual.params.lengthscale > 10.0 * ell_floor
        report = check_local_diffeomorphism(tmap, scenario.demonstration.positions)
        assert report.fraction_positive == 1.0

    def test_dimension_check_on_queries(self):
        tmap = fit_transport(random_smooth_pair(np.random.default_rng(1)))
        with pytest.raises(ValueError):
            transport_points(tmap, np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_are_value_errors(self, bad):
        tmap = fit_transport(random_smooth_pair(np.random.default_rng(1)))
        for points in ([[0.2, bad]], [[0.2, 0.1], [bad, 0.0]]):
            for evaluate in (transport_points, transport_jacobians):
                with pytest.raises(ValueError, match="points must be finite"):
                    evaluate(tmap, points)


def roundoff_ratio(kp: PairedKeypoints) -> float:
    """max |T - gamma(S)| in ulps of the keypoints' largest coordinate."""
    gamma_s = fit_affine(kp).apply(kp.source.points)
    scale = max(np.abs(kp.source.points).max(), np.abs(kp.target.points).max())
    return float(np.abs(kp.target.points - gamma_s).max() / (np.finfo(float).eps * scale))


class TestRoundOffResidual:
    """Flat and tilt scenes move rigidly, so T - gamma(S) is only the
    rounding of gamma(S). It is fitted as zero: no hyperparameter search,
    and the map is exactly the rigid part."""

    @pytest.mark.parametrize("n", [12, 50, 200])
    @pytest.mark.parametrize("profile", ["flat", "tilt"])
    def test_rigid_scene_fits_an_exactly_zero_residual(self, profile, n, tmp_path, monkeypatch):
        searches = []
        real_minimize = gp.minimize

        def counted(*args, **kwargs):
            searches.append(args)
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(gp, "minimize", counted)
        scenario = make_surface_scenario(profile, n_keypoints=n, seed=1)
        kp = scenario.keypoints
        tmap = fit_transport(kp)
        assert searches == []
        assert not np.any(tmap.residual.outputs)
        x = scenario.demonstration.positions
        assert not np.any(predict_mean(tmap.residual, tmap.affine.apply(x)))
        assert np.array_equal(transport_points(tmap, x)[0], tmap.affine.apply(x))
        assert tmap.keypoint_errors.max() <= TOL_MATCH_SCALE * kp.target.diameter()
        assert tmap.warnings == ()

        save_transport_map(tmap, tmp_path / "map.json")
        back = load_transport_map(tmp_path / "map.json")
        for name in ("inputs", "outputs", "chol", "alpha"):
            assert np.array_equal(getattr(back.residual, name), getattr(tmap.residual, name))
        assert back.residual.params == tmap.residual.params
        for fresh, loaded in zip(transport_points(tmap, x), transport_points(back, x)):
            assert np.array_equal(fresh, loaded)

    def test_zero_roundoff_cuts_at_roundoff_ulps_of_the_largest_operand(self):
        a = np.array([[4.0, -1.0], [0.0, 0.5]])
        b = np.array([[-0.5, 2.0], [1.0, -3.0]])
        limit = ROUNDOFF_ULPS * np.finfo(float).eps * 4.0
        at = np.array([[limit, -limit], [0.0, 1e-300]])
        zeroed = zero_roundoff(at, a, b)
        assert np.array_equal(zeroed, np.zeros((2, 2))) and not np.shares_memory(zeroed, at)
        above = np.array([[0.0, 0.0], [-np.nextafter(limit, 1.0), 0.0]])
        assert zero_roundoff(above, a, b) is above
        assert zero_roundoff(above, a, 2.0 * b) is not above  # the largest coordinate is now 6

    def test_threshold_has_headroom_on_both_sides(self):
        """Rigid scenes stay far below ROUNDOFF_ULPS and scenes that bend
        (surfaces and the frames pairings) far above it, over a seed sweep."""
        rigid = [
            roundoff_ratio(make_surface_scenario(profile, n_keypoints=n, seed=seed).keypoints)
            for profile in ("flat", "tilt")
            for n in (12, 50, 200)
            for seed in range(10)
        ]
        bent = [
            roundoff_ratio(make_surface_scenario(profile, n_keypoints=n, seed=seed).keypoints)
            for profile in ("sine", "step", "composite")
            for n in (12, 50, 200)
            for seed in range(10)
        ]
        bent += [
            roundoff_ratio(frame_pairing(random_frame_scenario(train, kpf), random_frame_scenario(test, kpf)))
            for kpf in (2, 5)
            for train in range(100, 103)
            for test in range(200, 220)
        ]
        assert max(rigid) <= 8 < ROUNDOFF_ULPS
        assert min(bent) >= 1e12 > ROUNDOFF_ULPS


class TestJacobians:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(8):
            tmap = fit_transport(random_smooth_pair(rng))
            queries = rng.uniform(-1.2, 1.2, (5, 2))
            jacs, _ = transport_jacobians(tmap, queries)
            for q, jac in zip(queries[:, None], jacs):  # one-row batches
                fd = np.empty((2, 2))
                for b in range(2):
                    e = np.zeros(2)
                    e[b] = h
                    (hi,), _ = transport_points(tmap, q + e)
                    (lo,), _ = transport_points(tmap, q - e)
                    fd[:, b] = (hi - lo) / (2 * h)
                tol = max(1e-6, 1e-4 * np.linalg.norm(jac))
                assert np.abs(jac - fd).max() < tol

    def test_far_from_data_reverts_to_rigid_part(self):
        rng = np.random.default_rng(3)
        kp = random_smooth_pair(rng)
        tmap = fit_transport(kp)
        params = tmap.residual.params
        sp = np.sqrt(params.signal_variance)
        span = tmap.residual.inputs.max(axis=0)
        far = (span + 30.0 * params.lengthscale)[None]
        moved, _ = transport_points(tmap, far)
        # the residual mean vanishes: only the rigid part remains
        assert np.linalg.norm(moved - tmap.affine.apply(far)) <= 1e-6 * sp
        (jac,), _ = transport_jacobians(tmap, far)
        assert np.linalg.norm(jac - tmap.affine.rotation) <= (
            1e-6 * sp / params.lengthscale
        )


class TestPolarRotation:
    def test_orthonormal_with_unit_determinant(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            jac = rng.normal(size=(2, 2))
            rot, near_singular = polar_rotation(jac)
            assert_allclose(rot.T @ rot, np.eye(2), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
            if abs(np.linalg.det(jac)) > 1e-6:
                assert not near_singular

    def test_is_nearest_rotation_in_frobenius_norm(self):
        from conftest import rotation_2d

        rng = np.random.default_rng(5)
        for _ in range(20):
            jac = rng.normal(size=(2, 2))
            jac += np.sign(np.linalg.det(jac)) * np.eye(2)  # keep det positive-ish
            if np.linalg.det(jac) <= 1e-3:
                continue
            rot, _ = polar_rotation(jac)
            best = np.linalg.norm(jac - rot)
            for theta in rng.uniform(-np.pi, np.pi, 200):
                assert best <= np.linalg.norm(jac - rotation_2d(theta)) + 1e-9

    def test_near_singular_emits_note(self):
        rot, near_singular = polar_rotation(np.array([[1.0, 0.0], [0.0, 1e-14]]))
        assert near_singular
        assert_allclose(rot.T @ rot, np.eye(2), atol=1e-12)

    def test_reflection_input_still_yields_proper_rotation(self):
        rot, _ = polar_rotation(np.diag([1.0, -1.0]))
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_equals_per_matrix_oracle(self, dim):
        """One call on a stack gives, matrix by matrix, exactly the oracle's
        rotation and note, on reflections, an exactly singular matrix, the
        zero matrix and 1e-14-conditioned ones."""
        rng = np.random.default_rng(30 + dim)
        tiny = np.diag([1.0] * (dim - 1) + [1e-14])
        stack = np.concatenate([
            rng.normal(size=(40, dim, dim)),
            [np.diag([1.0] * (dim - 1) + [-1.0])],
            [np.outer(rng.normal(size=dim), rng.normal(size=dim))],
            [np.zeros((dim, dim))],
            [tiny, random_rotation(rng, dim) @ tiny @ random_rotation(rng, dim)],
        ])
        assert np.sum(np.linalg.det(stack) < 0) > 10

        rots, near_singular = polar_rotation(stack)
        assert near_singular.shape == (len(stack),)
        for jac, rot, flag in zip(stack, rots, near_singular):
            expected, note = loop_polar_rotation(jac)
            assert np.array_equal(rot, expected)
            assert flag == (note is not None)
        assert near_singular[-4:].all()

        single, flag = polar_rotation(stack[0])
        assert np.array_equal(single, rots[0])
        assert np.shape(flag) == ()


class TestLabelTransport:
    def test_rigid_map_transports_exactly(self):
        rng = np.random.default_rng(6)
        kp, rot, shift = random_rigid_pair(rng, n=10)
        tmap = fit_transport(kp)
        labels = rigid_labels(rng)
        moved = transport_labels(tmap, labels)

        expected_pos = labels.positions @ rot.T + shift
        assert np.abs(moved.positions - expected_pos).max() < 1e-6
        assert np.abs(moved.jacobians - rot).max() < 1e-6
        assert np.abs(moved.projected_rotations - rot).max() < 1e-6
        assert np.abs(moved.velocities - labels.velocities @ rot.T).max() < 1e-6

    def test_rotation_labels_stay_rotations(self):
        rng = np.random.default_rng(7)
        tmap = fit_transport(random_smooth_pair(rng))
        labels = rigid_labels(rng, m=12)
        moved = transport_labels(tmap, labels)
        from poltrans import is_rotation

        for rot in moved.orientations:
            assert is_rotation(rot)
        for rot in moved.projected_rotations:
            assert is_rotation(rot)

    def test_stiffness_stays_symmetric_psd_with_same_spectrum(self):
        rng = np.random.default_rng(8)
        tmap = fit_transport(random_smooth_pair(rng))
        labels = rigid_labels(rng, m=10)
        moved = transport_labels(tmap, labels)
        for before, after in zip(labels.stiffness, moved.stiffness):
            assert np.abs(after - after.T).max() < 1e-9
            assert np.linalg.eigvalsh(after).min() > -1e-9
            assert_allclose(
                np.sort(np.linalg.eigvalsh(after)),
                np.sort(np.linalg.eigvalsh(before)),
                atol=1e-9,
            )

    def test_velocity_variance_matches_manual_contraction(self):
        """velocity_variance must equal sum_b (A^T Sig' A)_bb v_b^2 with
        Sig' the derivative posterior covariance at the mapped point."""
        from poltrans.gp import predict_derivative

        rng = np.random.default_rng(9)
        kp = random_smooth_pair(rng)
        tmap = fit_transport(kp)
        labels = rigid_labels(rng, m=5)
        moved = transport_labels(tmap, labels)

        rot = tmap.affine.rotation
        mapped = tmap.affine.apply(labels.positions)
        _, dvar = predict_derivative(tmap.residual, mapped)
        for i in range(labels.m):
            mat = rot.T @ dvar[i] @ rot
            manual = sum(
                mat[b, b] * labels.velocities[i, b] ** 2 for b in range(2)
            )
            assert moved.velocity_variance[i] == pytest.approx(manual, rel=1e-12)

    def test_far_field_unit_velocity_variance_is_prior_rate(self):
        rng = np.random.default_rng(10)
        tmap = fit_transport(random_smooth_pair(rng))
        params = tmap.residual.params
        far = np.array([[200.0, 200.0]])
        labels = PolicyLabels(positions=far, velocities=np.array([[1.0, 0.0]]))
        moved = transport_labels(tmap, labels)
        prior_rate = params.signal_variance / params.lengthscale**2
        assert moved.velocity_variance[0] == pytest.approx(prior_rate, rel=1e-9)

    def test_near_singular_jacobian_warns_per_label(self):
        tmap = fit_transport(fold_pair())

        def det_at(x):
            (jac,), _ = transport_jacobians(tmap, np.array([[x, 0.5]]))
            return float(np.linalg.det(jac))

        # bisect a det sign change down to a numerically singular point
        xs = np.linspace(0.0, 2.0, 400)
        dets = np.array([det_at(x) for x in xs])
        flips = np.where(np.sign(dets[:-1]) != np.sign(dets[1:]))[0]
        assert flips.size > 0
        lo, hi = xs[flips[0]], xs[flips[0] + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.sign(det_at(mid)) == np.sign(det_at(lo)):
                lo = mid
            else:
                hi = mid
        labels = PolicyLabels(positions=[[0.0, 0.5], [0.5 * (lo + hi), 0.5]])
        moved = transport_labels(tmap, labels)
        assert moved.warnings == ("label 1: near-singular jacobian: polar rotation factor not unique",)


    def test_collapsed_jacobian_warns(self, monkeypatch):
        """A label where J is all zeros has no unique rotation factor."""
        from poltrans import transport

        real = transport.transport_jacobians

        def collapsed_at_label_1(tmap, x):
            jac, jac_var = real(tmap, x)
            jac = jac.copy()
            jac[1] = 0.0
            return jac, jac_var

        tmap = fit_transport(random_rigid_pair(np.random.default_rng(6), n=10)[0])
        monkeypatch.setattr(transport, "transport_jacobians", collapsed_at_label_1)
        moved = transport_labels(tmap, PolicyLabels(positions=[[0.0, 0.5], [0.3, 0.5], [0.6, 0.5]]))
        assert moved.warnings == ("label 1: near-singular jacobian: polar rotation factor not unique",)


class TestUncertainty:
    def test_total_is_bitwise_sum_of_parts(self):
        rng = np.random.default_rng(11)
        tmap = fit_transport(random_smooth_pair(rng))
        labels = rigid_labels(rng, m=7)
        policy = rng.uniform(0.0, 0.5, 7)
        moved = transport_labels(tmap, labels)
        total = transport_uncertainty(moved, policy)
        assert np.array_equal(total, policy + moved.velocity_variance)

    def test_zero_policy_variance_passes_transport_part_through(self):
        rng = np.random.default_rng(12)
        tmap = fit_transport(random_smooth_pair(rng))
        labels = rigid_labels(rng, m=4)
        moved = transport_labels(tmap, labels)
        total = transport_uncertainty(moved, np.zeros(4))
        assert np.array_equal(total, moved.velocity_variance)

    def test_missing_velocities_add_nothing(self):
        rng = np.random.default_rng(13)
        tmap = fit_transport(random_smooth_pair(rng))
        moved = transport_labels(tmap, PolicyLabels(positions=rng.uniform(-1, 1, (3, 2))))
        policy = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(transport_uncertainty(moved, policy), policy)

    def test_rejects_invalid_policy_variance(self):
        rng = np.random.default_rng(14)
        tmap = fit_transport(random_smooth_pair(rng))
        moved = transport_labels(tmap, PolicyLabels(positions=rng.uniform(-1, 1, (3, 2))))
        with pytest.raises(ValueError):
            transport_uncertainty(moved, np.array([0.1, -0.2, 0.3]))
        with pytest.raises(ValueError):
            transport_uncertainty(moved, np.array([0.1, np.nan, 0.3]))
        with pytest.raises(ValueError):
            transport_uncertainty(moved, np.array([0.1, 0.2]))


class TestDiffeomorphismCheck:
    def test_rigid_map_is_globally_orientation_preserving(self):
        rng = np.random.default_rng(15)
        kp, _, _ = random_rigid_pair(rng, n=8)
        tmap = fit_transport(kp)
        probes = rng.uniform(-2.0, 2.0, (50, 2))
        report = check_local_diffeomorphism(tmap, probes)
        assert report.fraction_positive == 1.0
        assert report.keypoints_sign_uniform
        assert np.all(report.keypoint_determinants > 0)

    def test_fold_is_detected_at_keypoints_and_probes(self):
        tmap = fit_transport(fold_pair())
        xs = np.linspace(-0.2, 2.2, 30)
        ys = np.linspace(-0.2, 1.2, 20)
        grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        report = check_local_diffeomorphism(tmap, grid)
        assert report.fraction_positive < 1.0
        assert not report.keypoints_sign_uniform
        assert report.determinants.shape == (grid.shape[0],)

    @pytest.mark.parametrize("suite", ["surfaces", "frames"])
    def test_mean_jacobians_and_reports_on_the_default_scenes(self, suite):
        """The check reads Jacobians without their variances; on the gpt
        map of every default scene they are transport_jacobians' own, at
        the demonstration's nodes and at the keypoints, and so is every
        field of the report."""
        for task in default_bench_tasks(suite):
            if "gpt" not in task.methods:
                continue
            tmap = fit_transport(task.keypoints)
            nodes, keypoints = task.demonstration.positions, task.keypoints.source.points
            jac, kp_jac = (transport_jacobians(tmap, x)[0] for x in (nodes, keypoints))
            assert transport._mean_jacobians(tmap, nodes).tobytes() == jac.tobytes()
            assert transport._mean_jacobians(tmap, keypoints).tobytes() == kp_jac.tobytes()

            report = check_local_diffeomorphism(tmap, nodes)
            dets, kp_dets = np.linalg.det(jac), np.linalg.det(kp_jac)
            assert report.fraction_positive == float(np.mean(dets > 0))
            assert report.determinants.tobytes() == dets.tobytes()
            assert report.keypoint_determinants.tobytes() == kp_dets.tobytes()
            assert report.keypoints_sign_uniform == bool(np.all(kp_dets > 0) or np.all(kp_dets < 0))


class TestSerialization:
    def test_map_round_trip_preserves_predictions(self, tmp_path):
        """Loading rebuilds the rigid part, the residual GP and the warnings
        bit for bit from the keypoints and the hyperparameters: on small
        and 200-keypoint fits, on the pinned-noise retry of contradictory
        keypoints, on a collinear 3-D pair and on a frames pairing."""
        rng = np.random.default_rng(16)
        queries = {2: rng.uniform(-1.5, 1.5, (10, 2)), 3: np.random.default_rng(20).uniform(-1.5, 1.5, (10, 3))}
        contradictory = PairedKeypoints(
            PointSet([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
            PointSet([[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]]),
        )
        surface = make_surface_scenario("sine", n_keypoints=200, seed=0).keypoints
        frames = frame_pairing(random_frame_scenario(106), random_frame_scenario(204))
        for kp in (random_smooth_pair(rng), surface, contradictory, collinear_3d_pair(), frames):
            tmap = fit_transport(kp)
            path = tmp_path / "map.json"
            save_transport_map(tmap, path)
            back = load_transport_map(path)
            for name in ("inputs", "outputs", "chol", "alpha"):
                assert np.array_equal(getattr(back.residual, name), getattr(tmap.residual, name))
            assert back.residual.params == tmap.residual.params
            for name in ("rotation", "source_centroid", "target_centroid"):
                assert np.array_equal(getattr(back.affine, name), getattr(tmap.affine, name))
            assert back.warnings == tmap.warnings
            for evaluate in (transport_points, transport_jacobians):
                for fresh, loaded in zip(evaluate(tmap, queries[kp.dim]), evaluate(back, queries[kp.dim])):
                    assert np.array_equal(fresh, loaded)

    def test_flat_and_tilt_hyperparameters_are_floats_as_loaded(self, tmp_path):
        """Their residuals are all zeros, which skip the search; its
        lengthscale used to be an np.float64, unlike every other fit's and
        every loaded map's."""
        for profile in ("flat", "tilt"):
            tmap = fit_transport(make_surface_scenario(profile, n_keypoints=12, seed=0).keypoints)
            save_transport_map(tmap, tmp_path / "map.json")
            fitted = dataclasses.asdict(tmap.residual.params)
            loaded = dataclasses.asdict(load_transport_map(tmp_path / "map.json").residual.params)
            assert [type(value) for value in (*fitted.values(), *loaded.values())] == [float] * 6
            assert fitted == loaded

    def test_map_file_holds_each_fact_once(self, tmp_path):
        """The keypoints and the hyperparameters: the rigid part, the
        residual's training set and the warnings follow from them."""
        tmap = fit_transport(random_smooth_pair(np.random.default_rng(18)))
        save_transport_map(tmap, tmp_path / "map.json")
        data = json.loads((tmp_path / "map.json").read_text())
        assert set(data) == {"keypoints", "params"}
        assert data["params"] == tmap.residual.params.to_dict()

    def test_map_with_a_stale_affine_and_warnings_loads_from_its_keypoints(self, tmp_path):
        """A file that also holds an ``affine`` and ``warnings``, as maps
        written before they were derived did, loads as the map of its
        keypoints and hyperparameters: a wrong affine and a stale warning
        change nothing."""
        tmap = fit_transport(collinear_3d_pair())
        older = {
            **tmap.to_dict(),
            "affine": {
                "rotation": np.eye(3).tolist(),
                "source_centroid": [1.0, 2.0, 3.0],
                "target_centroid": [0.0, 0.0, 0.0],
            },
            "warnings": ["stale"],
        }
        save_transport_map(tmap, tmp_path / "map.json")
        save_json(older, tmp_path / "older.json")
        current, loaded = (load_transport_map(tmp_path / name) for name in ("map.json", "older.json"))
        for name in ("chol", "alpha"):
            assert np.array_equal(getattr(loaded.residual, name), getattr(current.residual, name))
        assert loaded.warnings == current.warnings == tmap.warnings
        queries = np.random.default_rng(20).uniform(-1.5, 1.5, (10, 3))
        for evaluate in (transport_points, transport_jacobians):
            for new, old in zip(evaluate(current, queries), evaluate(loaded, queries)):
                assert np.array_equal(new, old)

    def test_map_without_params_asks_for_a_refit(self, tmp_path):
        data = fit_transport(random_smooth_pair(np.random.default_rng(19))).to_dict()
        del data["params"]
        path = tmp_path / "map.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="no 'params' key; refit the map"):
            load_transport_map(path)

    def test_transported_labels_csv(self, tmp_path):
        rng = np.random.default_rng(17)
        tmap = fit_transport(random_smooth_pair(rng))
        labels = rigid_labels(rng, m=5)
        moved = transport_labels(tmap, labels)
        path = tmp_path / "out.csv"
        moved.to_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "index"
        for key in ("pos_0", "pos_var", "vel_0", "vel_var", "rot_00", "jac_00", "proj_00"):
            assert key in header
        assert len(lines) == 1 + labels.m
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["pos_0"]) == moved.positions[0, 0]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "families", [(), ("velocities",), ("velocities", "orientations", "stiffness", "damping")]
    )
    def test_csv_is_byte_identical_to_row_loop(self, tmp_path, dim, families):
        rng = np.random.default_rng(40 + dim)
        source = rng.uniform(-1.0, 1.0, (10, dim))
        target = source @ random_rotation(rng, dim).T + 0.1 * np.sin(2.0 * source)
        tmap = fit_transport(PairedKeypoints(PointSet(source), PointSet(target)))
        full = rigid_labels(rng, m=9, dim=dim)
        labels = PolicyLabels(positions=full.positions, **{f: getattr(full, f) for f in families})
        moved = transport_labels(tmap, labels)
        assert np.array_equal(moved.projected_rotations, [loop_polar_rotation(j)[0] for j in moved.jacobians])

        moved.to_csv(tmp_path / "table.csv")
        loop_labels_csv(moved, tmp_path / "rows.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
