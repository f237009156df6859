"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single ``[criterion NN] PASS`` line on success (shown
with ``pytest -v`` through the test name as well), so the whole gate reads
as a checklist. Oracles come from ``conftest``: enumeration, dense solves,
and grid searches that are independent of the library's own algorithms.
"""

import time

import numpy as np
import pytest

from conftest import (
    brute_force_dtw,
    brute_force_frechet,
    dense_laplacian_oracle,
    fold_pair,
    lwt_jacobian,
    mw_exact_enumeration,
    random_rigid_pair,
    random_smooth_pair,
    so2_grid_rotation,
)
from poltrans import (
    PairedKeypoints,
    PointSet,
    PolicyLabels,
    Trajectory,
    check_local_diffeomorphism,
    fit_affine,
    fit_transport,
    is_rotation,
    transport_jacobians,
    transport_labels,
    transport_points,
    transport_uncertainty,
)
from poltrans.baselines import ViaAssignment, apply_lwt, fit_lwt, laplacian_edit, reshaped_kmp
from poltrans.gp import KernelParams, build_gp, predict_derivative, predict_mean, predict_variance
from poltrans.metrics import dtw_distance, frechet_distance, mann_whitney_u, read_metrics_csv


def full_labels(rng, m=6):
    from conftest import random_rotation

    rots = np.stack([random_rotation(rng, 2) for _ in range(m)])
    eigs = rng.uniform(0.5, 3.0, (m, 2))
    spd = np.einsum("mab,mb,mcb->mac", rots, eigs, rots)
    return PolicyLabels(
        positions=rng.uniform(-1.0, 1.0, (m, 2)),
        velocities=rng.uniform(-1.0, 1.0, (m, 2)),
        orientations=rots,
        stiffness=spd,
        damping=0.4 * spd,
    )


def test_criterion_01_keypoint_matching_at_scale():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        kp = random_smooth_pair(rng, n=n, amplitude=0.1)
        tmap = fit_transport(kp)
        mapped, _ = transport_points(tmap, kp.source.points)
        err = np.linalg.norm(mapped - kp.target.points, axis=1).max()
        bound = 1e-3 * kp.target.diameter()
        assert err <= bound, f"keypoint mismatch {err:.3e} > {bound:.3e} at N={n}"
        worst = max(worst, err / bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"100 fits took {elapsed:.1f}s"
    print(f"[criterion 01] PASS - 100 scenarios matched (worst {worst:.2e} of bound, {elapsed:.1f}s)")


def test_criterion_02_affine_optimality_and_residual_inequality():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        src = rng.uniform(-2, 2, (n, 2))
        tgt = rng.uniform(-2, 2, (n, 2))
        mapping = fit_affine(PairedKeypoints(PointSet(src), PointSet(tgt)))
        fitted = np.linalg.norm(mapping.apply(src) - tgt)
        translation_only = np.linalg.norm(src - src.mean(0) + tgt.mean(0) - tgt)
        assert fitted <= translation_only + 1e-12
        assert translation_only <= np.linalg.norm(src - tgt) + 1e-12

    for _ in range(100):
        n = int(rng.integers(3, 15))
        src = rng.uniform(-1, 1, (n, 2))
        tgt = rng.uniform(-1, 1, (n, 2))
        mapping = fit_affine(PairedKeypoints(PointSet(src), PointSet(tgt)))
        oracle = so2_grid_rotation(src, tgt)
        assert np.abs(mapping.rotation - oracle).max() < 1e-6
    print("[criterion 02] PASS - 1000 inequality instances, 100 grid-search matches")


def test_criterion_03_jacobian_vs_finite_differences():
    rng = np.random.default_rng(103)
    h = 1e-5
    pairs = 0
    for _ in range(50):
        tmap = fit_transport(random_smooth_pair(rng, n=int(rng.integers(4, 14))))
        for q in rng.uniform(-1.5, 1.5, (20, 2)):
            jac, _ = transport_jacobians(tmap, q)
            fd = np.empty((2, 2))
            for b in range(2):
                e = np.zeros(2)
                e[b] = h
                hi, _ = transport_points(tmap, q + e)
                lo, _ = transport_points(tmap, q - e)
                fd[:, b] = (hi - lo) / (2 * h)
            tol = max(1e-6, 1e-4 * np.linalg.norm(jac))
            assert np.abs(jac - fd).max() <= tol
            pairs += 1
    assert pairs == 1000
    print("[criterion 03] PASS - 1000 (scenario, point) pairs within tolerance")


def test_criterion_04_out_of_distribution_affine_reversion():
    rng = np.random.default_rng(104)
    for _ in range(100):
        kp = random_smooth_pair(rng, n=int(rng.integers(4, 12)))
        tmap = fit_transport(kp)
        params = tmap.residual.params
        sp = float(np.sqrt(params.signal_variance))
        ell = params.lengthscale
        center = kp.source.points.mean(axis=0)
        radius = np.linalg.norm(kp.source.points - center, axis=1).max()
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        query = center + (radius + 30.0 * ell) * direction
        moved, _ = transport_points(tmap, query)
        assert np.linalg.norm(moved - tmap.affine.apply(query)) <= 1e-6 * sp
        jac, _ = transport_jacobians(tmap, query)
        assert np.linalg.norm(jac - tmap.affine.rotation) <= 1e-6 * sp / ell
    print("[criterion 04] PASS - 100 scenarios revert to the rigid part at 30 lengthscales")


def test_criterion_05_label_transport_closures():
    rng = np.random.default_rng(105)
    for _ in range(100):
        tmap = fit_transport(random_smooth_pair(rng, n=8))
        labels = full_labels(rng, m=5)
        moved = transport_labels(tmap, labels)
        for rot in moved.orientations:
            assert is_rotation(rot, tol=1e-9)
        for rot in moved.projected_rotations:
            assert is_rotation(rot, tol=1e-9)
        for field in ("stiffness", "damping"):
            before = getattr(labels, field)
            after = getattr(moved, field)
            for mat_in, mat_out in zip(before, after):
                assert np.abs(mat_out - mat_out.T).max() <= 1e-9
                assert np.abs(
                    np.sort(np.linalg.eigvalsh(mat_out))
                    - np.sort(np.linalg.eigvalsh(mat_in))
                ).max() <= 1e-9
    print("[criterion 05] PASS - rotations stay in SO(2), spectra preserved to 1e-9")


def test_criterion_06_uncertainty_additivity_bit_level():
    rng = np.random.default_rng(106)
    for _ in range(20):
        tmap = fit_transport(random_smooth_pair(rng, n=7))
        labels = full_labels(rng, m=6)
        policy = rng.uniform(0.0, 0.5, labels.m)
        moved = transport_labels(tmap, labels)
        total = transport_uncertainty(moved, policy)
        assert np.array_equal(total, policy + moved.velocity_variance)

        still = PolicyLabels(
            positions=labels.positions, velocities=np.zeros_like(labels.velocities)
        )
        frozen = transport_labels(tmap, still)
        assert np.all(frozen.velocity_variance == 0.0)
        assert np.array_equal(transport_uncertainty(frozen, policy), policy)
    print("[criterion 06] PASS - total = policy + transport variance, bitwise")


def test_criterion_07_rigid_scenario_exactness():
    rng = np.random.default_rng(107)
    for _ in range(100):
        kp, rot, _ = random_rigid_pair(rng, n=int(rng.integers(4, 12)))
        tmap = fit_transport(kp)
        labels = full_labels(rng, m=5)
        moved = transport_labels(tmap, labels)
        assert np.abs(moved.velocities - labels.velocities @ rot.T).max() <= 1e-6
        dets = np.linalg.det(moved.jacobians)
        assert np.abs(dets - 1.0).max() <= 1e-6
    print("[criterion 07] PASS - 100 rigid scenarios transport velocities exactly")


def test_criterion_08_fold_detection_at_keypoints():
    fold_map = fit_transport(fold_pair())
    grid = np.stack(
        np.meshgrid(np.linspace(-0.2, 2.2, 25), np.linspace(-0.2, 1.2, 15)), axis=-1
    ).reshape(-1, 2)
    report = check_local_diffeomorphism(fold_map, grid)
    assert not report.keypoints_sign_uniform
    assert report.fraction_positive < 1.0

    rng = np.random.default_rng(108)
    for _ in range(20):
        kp, _, _ = random_rigid_pair(rng, n=6)
        rigid_report = check_local_diffeomorphism(
            fit_transport(kp), rng.uniform(-2, 2, (40, 2))
        )
        assert rigid_report.keypoints_sign_uniform
        assert rigid_report.fraction_positive == 1.0
        assert np.all(rigid_report.keypoint_determinants > 0)
    print("[criterion 08] PASS - fold flagged at keypoints; rigid maps uniformly positive")


def test_criterion_09_gp_closed_forms_and_derivative():
    model = build_gp([[0.0]], [[1.0]], KernelParams(1.0, 1.0, 0.1))
    assert abs(predict_mean(model, [0.0])[0] - 1.0 / 1.1) <= 1e-12
    assert abs(predict_variance(model, [0.0]) - (1.0 - 1.0 / 1.1)) <= 1e-12
    assert abs(predict_mean(model, [40.0])[0]) <= 1e-12
    assert abs(predict_variance(model, [40.0]) - 1.0) <= 1e-12

    rng = np.random.default_rng(109)
    x = rng.uniform(-1, 1, (10, 2))
    y = np.stack([np.sin(2 * x[:, 0]), np.cos(x[:, 1])], axis=1)
    dmodel = build_gp(x, y, KernelParams(1.0, 0.7, 1e-4))
    h = 1e-5
    for q in rng.uniform(-1, 1, (10, 2)):
        jac, _ = predict_derivative(dmodel, q)
        fd = np.empty((2, 2))
        for b in range(2):
            e = np.zeros(2)
            e[b] = h
            fd[:, b] = (predict_mean(dmodel, q + e) - predict_mean(dmodel, q - e)) / (2 * h)
        tol = max(1e-6, 1e-4 * np.linalg.norm(jac))
        assert np.abs(jac - fd).max() <= tol
    print("[criterion 09] PASS - hand-computed posterior to 1e-12; derivative matches FD")


def test_criterion_10_metric_enumeration_oracles():
    rng = np.random.default_rng(110)
    for _ in range(200):
        a = rng.uniform(-1, 1, (int(rng.integers(2, 8)), 2))
        b = rng.uniform(-1, 1, (int(rng.integers(2, 8)), 2))
        assert frechet_distance(a, b) == pytest.approx(brute_force_frechet(a, b), abs=1e-12)
        assert dtw_distance(a, b) == pytest.approx(brute_force_dtw(a, b), abs=1e-12)

    checked = 0
    for n1 in range(3, 9):
        for n2 in range(3, 9):
            for _ in range(3):
                x = rng.integers(0, 6, n1).astype(float)
                y = rng.integers(0, 6, n2).astype(float)
                if np.all(np.concatenate([x, y]) == x[0]):
                    continue
                u, p, _ = mann_whitney_u(x, y)
                u_ref, p_ref = mw_exact_enumeration(x, y)
                assert u == pytest.approx(u_ref, abs=1e-12)
                assert p == pytest.approx(p_ref, abs=1e-12)
                checked += 1
    assert checked >= 100
    print(f"[criterion 10] PASS - 200 curve pairs enumerated; {checked} exact U tests")


def test_criterion_11_baseline_contracts():
    rng = np.random.default_rng(111)
    for i in range(100):
        topology = "chain" if i % 2 == 0 else "ring"
        m = int(rng.integers(5, 30))
        traj = Trajectory(positions=rng.uniform(-1, 1, (m, 2)))
        k = int(rng.integers(1, 4))
        idx = rng.choice(m, size=k, replace=False)
        tgt = traj.positions[idx] + rng.uniform(-0.4, 0.4, (k, 2))
        edited = laplacian_edit(
            traj, ViaAssignment(indices=idx, targets=tgt), topology=topology
        )
        oracle = dense_laplacian_oracle(traj.positions, topology, idx, tgt)
        assert np.abs(edited.positions - oracle).max() <= 1e-9

    for _ in range(20):
        m = 40
        times = np.linspace(0.0, 1.0, m)
        traj = Trajectory(positions=rng.uniform(-1, 1, (m, 2)), times=times)
        idx = np.sort(rng.choice(m, size=3, replace=False))
        tgt = traj.positions[idx] + rng.uniform(-0.3, 0.3, (3, 2))
        reshaped = reshaped_kmp(traj, ViaAssignment(indices=idx, targets=tgt))
        assert np.abs(reshaped.positions[idx] - tgt).max() <= 1e-4

    for _ in range(100):
        n = int(rng.integers(2, 11))
        src = rng.uniform(-1, 1, (n, 2))
        tgt = src + rng.uniform(-0.25, 0.25, (n, 2))
        kp = PairedKeypoints(PointSet(src), PointSet(tgt))
        lwt = fit_lwt(kp)
        assert lwt.warnings == ()
        moved = apply_lwt(lwt, src)
        assert np.linalg.norm(moved - tgt, axis=1).max() <= 1e-3 * max(
            kp.target.diameter(), 1e-12
        )
        for unit in lwt.units:
            probes = unit.center + unit.radius * rng.uniform(-3, 3, (40, 2))
            assert unit.jacobian_det(probes).min() > 0.0
        grid = np.stack(
            np.meshgrid(np.linspace(-1.5, 1.5, 5), np.linspace(-1.5, 1.5, 5)), axis=-1
        ).reshape(-1, 2)
        for point in grid[:: max(1, len(grid) // 8)]:
            assert np.linalg.det(lwt_jacobian(lwt, point)) > 0.0
    print("[criterion 11] PASS - LE oracle 1e-9; KMP pins; 100 LWT fits invertible")


def test_criterion_12_frame_suite_reproduces_ranking(tmp_path):
    from poltrans.cli import main

    start = time.perf_counter()
    out = tmp_path / "frames"
    code = main(
        [
            "bench", "--suite", "frames", "--seeds", "20", "--train-seeds", "9",
            "--methods", "gpt,le", "--out-dir", str(out),
        ]
    )
    assert code == 0
    rows = read_metrics_csv(out / "metrics.csv")
    assert len(rows) == 40  # 20 test seeds x 2 methods
    by_method = {
        method: {
            name: np.array([r[name] for r in rows if r["method"] == method])
            for name in ("final_position_error", "final_angle_error")
        }
        for method in ("gpt", "le")
    }
    elapsed = time.perf_counter() - start
    details = []
    for metric in ("final_position_error", "final_angle_error"):
        _, p, lower = mann_whitney_u(by_method["gpt"][metric], by_method["le"][metric])
        assert lower and p < 0.05, f"{metric}: p={p:.4g}"
        details.append(f"{metric} p={p:.2e}")
    assert elapsed < 300.0, f"frame suite took {elapsed:.0f}s"
    print(f"[criterion 12] PASS - {'; '.join(details)} ({elapsed:.0f}s)")


def test_criterion_13_surface_bench_report(tmp_path):
    import json

    from poltrans.cli import main

    out = tmp_path / "surfaces"
    code = main(
        [
            "bench", "--suite", "surfaces", "--seeds", "3",
            "--methods", "gpt", "--out-dir", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report) == 15  # 5 profiles x 3 seeds
    for name, entry in report.items():
        for field in (
            "fit_seconds",
            "transport_seconds",
            "keypoint_error_max",
            "keypoint_error_mean",
            "det_positive_pct",
        ):
            assert field in entry, f"{name} missing {field}"
        assert entry["fit_seconds"] > 0 and entry["transport_seconds"] > 0
    for name, entry in report.items():
        assert entry["det_positive_pct"] == 100.0, name
    print("[criterion 13] PASS - per-surface report complete; det J > 0 at 100% on every scene")
