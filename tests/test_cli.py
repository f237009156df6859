"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poltrans import PolicyLabels, Trajectory, save_json
from poltrans import cli
from poltrans.cli import main
from poltrans.metrics import METRIC_NAMES, compute_metrics, read_metrics_csv
from poltrans.scenarios import frame_pairing, load_scenario, make_surface_scenario, save_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(make_surface_scenario("sine", n_keypoints=10, seed=0), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestFit:
    def test_writes_map_and_report(self, tmp_path, scenario_file):
        out = tmp_path / "fit"
        assert run("fit", "--scenario", scenario_file, "--out-dir", out) == 0
        assert (out / "map.json").exists()
        report = json.loads((out / "fit_report.json").read_text())
        assert report["n_keypoints"] == 10
        assert report["fit_seconds"] > 0
        assert report["keypoint_error_max"] >= report["keypoint_error_mean"] >= 0
        assert report["warnings"] == []

    def test_baseline_method_is_a_usage_error(self, tmp_path, scenario_file):
        code = run("fit", "--scenario", scenario_file, "--method", "le", "--out-dir", tmp_path)
        assert code == 2

    def test_unknown_method_is_a_usage_error(self, tmp_path, scenario_file):
        code = run("fit", "--scenario", scenario_file, "--method", "warp", "--out-dir", tmp_path)
        assert code == 2

    def test_missing_scenario_file_is_a_runtime_error(self, tmp_path):
        code = run("fit", "--scenario", tmp_path / "nope.json", "--out-dir", tmp_path)
        assert code == 1

    def test_scenario_missing_a_key_names_the_record_and_the_key(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"kind": "surface"}))
        out = tmp_path / "fit"
        assert run("fit", "--scenario", scenario, "--out-dir", out) == 1
        assert capsys.readouterr().err == "error: SurfaceScenario has no 'profile' key\n"
        assert not out.exists()

    @pytest.mark.parametrize("payload", ["[1, 2]", '"scenario"', "null"])
    def test_scenario_that_is_not_a_json_object_fails_naming_the_file(self, tmp_path, capsys, payload):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(payload)
        out = tmp_path / "fit"
        assert run("fit", "--scenario", scenario, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {scenario} does not hold a JSON object\n"
        assert not out.exists()

    def test_rigid_map_is_byte_identical_at_one_and_two_blas_threads(self, tmp_path):
        """A tilt scene moves rigidly, so its residual is fitted as zero
        without a search whose end BLAS rounding could steer: map.json does
        not depend on OpenBLAS's thread count. (Maps of scenes that bend do.)"""
        scenario = tmp_path / "tilt.json"
        save_scenario(make_surface_scenario("tilt", n_keypoints=200, seed=0), scenario)
        src = Path(__file__).resolve().parents[1] / "src"
        maps = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            argv = ["fit", "--scenario", str(scenario), "--out-dir", str(out)]
            subprocess.run(
                [sys.executable, "-m", "poltrans.cli", *argv], env=env, capture_output=True, check=True, timeout=120
            )
            maps.append((out / "map.json").read_bytes())
        assert maps[0] == maps[1]


class TestTransport:
    @pytest.fixture()
    def fitted_map(self, tmp_path, scenario_file):
        out = tmp_path / "fit"
        assert run("fit", "--scenario", scenario_file, "--out-dir", out) == 0
        return out / "map.json"

    def test_transports_labels_to_csv(self, tmp_path, fitted_map):
        rng = np.random.default_rng(0)
        labels = PolicyLabels(
            positions=rng.uniform(0.0, 1.0, (6, 2)),
            velocities=rng.uniform(-1.0, 1.0, (6, 2)),
        )
        labels_path = tmp_path / "labels.json"
        save_json(labels, labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 0
        csv_text = (out / "transported.csv").read_text().strip().splitlines()
        assert len(csv_text) == 7
        report = json.loads((out / "transport_report.json").read_text())
        assert 0.0 <= report["det_positive_fraction"] <= 1.0
        assert isinstance(report["keypoints_sign_uniform"], bool)
        assert len(report["keypoint_determinants"]) == 10

    def test_one_jacobian_pass_over_the_labels(self, tmp_path, fitted_map, monkeypatch):
        """m labels and n keypoints cost m + n derivative-posterior rows, and
        the report's det J fields are those of the diffeomorphism check."""
        from poltrans import check_local_diffeomorphism, load_json, load_transport_map, transport

        rows = []
        predict = transport.predict_derivative

        def counting(model, x, *args, **kwargs):
            rows.append(len(x))
            return predict(model, x, *args, **kwargs)

        monkeypatch.setattr(transport, "predict_derivative", counting)
        rng = np.random.default_rng(3)
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=rng.uniform(0.0, 1.0, (25, 2))), labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 0
        assert sum(rows) == 25 + 10

        labels = PolicyLabels.from_dict(load_json(labels_path))
        diffeo = check_local_diffeomorphism(load_transport_map(fitted_map), labels.positions)
        report = json.loads((out / "transport_report.json").read_text())
        assert report["det_positive_fraction"] == diffeo.fraction_positive
        assert report["keypoint_determinants"] == diffeo.keypoint_determinants.tolist()
        assert report["keypoints_sign_uniform"] == diffeo.keypoints_sign_uniform

    def test_label_violations_are_reported_as_warnings(self, tmp_path, fitted_map):
        labels = PolicyLabels(
            positions=[[0.2, 0.0], [0.6, 0.1]],
            orientations=np.stack([2.0 * np.eye(2), np.eye(2)]),
            stiffness=np.stack([np.eye(2), -np.eye(2)]),
        )
        labels_path = tmp_path / "labels.json"
        save_json(labels, labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 0
        warnings = json.loads((out / "transport_report.json").read_text())["warnings"]
        assert warnings[:3] == [
            "orientations[0]: orthogonality residual 3.000e+00",
            "orientations[0]: determinant residual 3.000e+00",
            "stiffness[1]: negative eigenvalue residual 1.000e+00",
        ]
        assert len((out / "transported.csv").read_text().splitlines()) == 3

    def test_non_finite_positions_are_named_and_fail(self, tmp_path, fitted_map, capsys):
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=[[0.2, np.nan], [0.5, 0.1], [np.inf, 0.0]]), labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "positions[0]: non-finite; positions[2]: non-finite" in err
        assert not (out / "transport_report.json").exists()

    def test_non_finite_velocities_are_warnings(self, tmp_path, fitted_map):
        labels = PolicyLabels(positions=[[0.2, 0.0], [0.5, 0.1]], velocities=[[0.0, 1.0], [np.nan, 0.0]])
        labels_path = tmp_path / "labels.json"
        save_json(labels, labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 0
        warnings = json.loads((out / "transport_report.json").read_text())["warnings"]
        assert warnings[0] == "velocities[1]: non-finite residual nan"

    def test_dimension_mismatch_fails_cleanly(self, tmp_path, fitted_map):
        labels_path = tmp_path / "labels3d.json"
        save_json(PolicyLabels(positions=np.zeros((2, 3))), labels_path)
        code = run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", tmp_path)
        assert code == 1

    def test_missing_arguments_are_usage_errors(self, tmp_path, fitted_map):
        assert run("transport", "--map", fitted_map) == 2

    def test_labels_without_positions_fail_naming_the_key(self, tmp_path, fitted_map, capsys):
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"velocities": [[0.0, 1.0]]}))
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 1
        assert capsys.readouterr().err == "error: PolicyLabels has no 'positions' key\n"
        assert not out.exists()

    @pytest.mark.parametrize("which", ["map", "labels"])
    def test_file_that_is_not_a_json_object_fails_naming_it(self, tmp_path, fitted_map, capsys, which):
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=[[0.2, 0.0]]), labels_path)
        bad = {"map": fitted_map, "labels": labels_path}[which]
        bad.write_text("[[0.2, 0.0]]")
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {bad} does not hold a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("lengthscale", [1e160, 1e-170])
    def test_map_with_a_lengthscale_out_of_range_fails_cleanly(self, tmp_path, fitted_map, capsys, lengthscale):
        """A lengthscale whose square overflows (or underflows) cannot be
        loaded into a kernel; the map file is rejected with a message."""
        data = json.loads(fitted_map.read_text())
        data["params"]["lengthscale"] = lengthscale
        fitted_map.write_text(json.dumps(data))
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=[[0.2, 0.0]]), labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: lengthscale {lengthscale:g} is out of range: its square is not a positive normal float"]
        assert not out.exists()

    def test_map_whose_variances_overflow_fails_naming_them(self, tmp_path, fitted_map, capsys):
        """Variances whose sum overflows used to reach the Gram diagonal as
        inf and fail as 'non-PD Gram matrix', naming neither."""
        data = json.loads(fitted_map.read_text())
        data["params"].update(signal_variance=1e308, noise_variance=1e308)
        fitted_map.write_text(json.dumps(data))
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=[[0.2, 0.0]]), labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: signal variance 1e+308 and noise variance 1e+308 sum past the largest float"]
        assert not out.exists()

    def test_map_in_the_old_format_asks_for_a_refit(self, tmp_path, fitted_map, capsys):
        """A map file that carries the residual's training set in place of
        its hyperparameters predates the current format."""
        data = json.loads(fitted_map.read_text())
        data["residual"] = {"inputs": [], "outputs": [], "params": data.pop("params")}
        fitted_map.write_text(json.dumps(data))
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=[[0.2, 0.0]]), labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 1
        assert "map file has no 'params' key; refit the map" in capsys.readouterr().err
        assert not out.exists()


class TestMetricsAndRank:
    def test_metrics_command(self, tmp_path):
        a = Trajectory(positions=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        b = Trajectory(positions=[[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_json(a, pa)
        save_json(b, pb)
        out = tmp_path / "metrics.json"
        assert run("metrics", "--produced", pa, "--reference", pb, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == set(METRIC_NAMES)
        assert payload["frechet"] == pytest.approx(1.0)

    def test_rank_command(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = []
        for method, shift in (("good", 0.0), ("bad", 4.0)):
            for rep in range(10):
                row = {"scenario": "s-0", "method": method, "repetition": rep}
                row.update(
                    {name: float(rng.uniform(0, 1) + shift) for name in METRIC_NAMES}
                )
                rows.append(row)
        from poltrans.metrics import write_metrics_csv

        csv_path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, csv_path)
        out = tmp_path / "ranking.json"
        assert run("rank", "--metrics", csv_path, "--out", out) == 0
        ranking = json.loads(out.read_text())
        assert ranking["ranking"][0] == ["good", 1]
        assert ranking["ranking"][1] == ["bad", 2]

    def test_rank_single_method_is_trivial(self, tmp_path):
        rows = [
            {
                "scenario": "s-0",
                "method": "gpt",
                "repetition": rep,
                **{name: 0.1 for name in METRIC_NAMES},
            }
            for rep in range(3)
        ]
        from poltrans.metrics import write_metrics_csv

        csv_path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, csv_path)
        assert run("rank", "--metrics", csv_path) == 0
        ranking = json.loads((tmp_path / "ranking.json").read_text())
        assert ranking["ranking"] == [["gpt", 1]]

    @pytest.mark.parametrize("alpha", ["5", "1", "0", "-1", "nan"])
    def test_rank_alpha_outside_the_unit_interval_is_a_usage_error(self, tmp_path, capsys, alpha):
        rows = [
            {"scenario": f"s-{rep}", "method": method, "repetition": rep, **{name: 0.1 for name in METRIC_NAMES}}
            for method in ("gpt", "le")
            for rep in range(3)
        ]
        from poltrans.metrics import write_metrics_csv

        csv_path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, csv_path)
        assert run("rank", "--metrics", csv_path, "--alpha", alpha) == 2
        assert "argument --alpha: must lie strictly between 0 and 1" in capsys.readouterr().err
        assert not (tmp_path / "ranking.json").exists()

    def test_rank_names_the_missing_metric_columns(self, tmp_path, capsys):
        csv_path = tmp_path / "metrics.csv"
        kept = [name for name in METRIC_NAMES if name not in ("frechet", "dtw")]
        csv_path.write_text(",".join(["scenario", "method", "repetition", *kept]) + "\n")
        assert run("rank", "--metrics", csv_path) == 1
        assert capsys.readouterr().err == f"error: {csv_path} is missing column(s): frechet, dtw\n"
        assert not (tmp_path / "ranking.json").exists()

    def test_rank_fails_on_a_nan_metric(self, tmp_path, capsys):
        rows = [
            {"scenario": f"s-{rep}", "method": method, "repetition": rep, **{name: 0.1 for name in METRIC_NAMES}}
            for method in ("gpt", "le")
            for rep in range(3)
        ]
        rows[4]["frechet"] = float("nan")
        from poltrans.metrics import write_metrics_csv

        csv_path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, csv_path)
        assert run("rank", "--metrics", csv_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path} line ") and "frechet is nan" in err
        assert not (tmp_path / "ranking.json").exists()

    def test_rank_rejects_empty_csv(self, tmp_path):
        csv_path = tmp_path / "metrics.csv"
        csv_path.write_text("scenario,method,repetition," + ",".join(METRIC_NAMES) + "\n")
        assert run("rank", "--metrics", csv_path) == 1


class TestScenarioGen:
    def test_surface_corpus_layout(self, tmp_path):
        assert run("scenario-gen", "--suite", "surfaces", "--seeds", 2, "--out-dir", tmp_path) == 0
        files = sorted(p.name for p in (tmp_path / "scenarios" / "surfaces").iterdir())
        assert len(files) == 10  # 5 profiles x 2 seeds
        assert "flat-0.json" in files and "composite-1.json" in files

    def test_frame_corpus_layout(self, tmp_path):
        code = run(
            "scenario-gen", "--suite", "frames",
            "--seeds", 3, "--train-seeds", 2, "--kpf", 2, "--out-dir", tmp_path,
        )
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "scenarios" / "frames").iterdir())
        assert files == [
            "test-200.json", "test-201.json", "test-202.json",
            "train-100.json", "train-101.json",
        ]

    def test_surface_files_are_the_bench_inputs(self, tmp_path):
        code = run(
            "scenario-gen", "--suite", "surfaces", "--seeds", 2, "--n-keypoints", 7, "--out-dir", tmp_path,
        )
        assert code == 0
        target = tmp_path / "scenarios" / "surfaces"
        expected = {
            f"{cell.scenario.profile}-{cell.scenario.seed}.json": cell.scenario.to_dict()
            for cell in cli._surface_cells(cli.METHODS, 2, 7)
        }
        assert sorted(p.name for p in target.iterdir()) == sorted(expected)
        for name, scenario in expected.items():
            assert load_scenario(target / name).to_dict() == scenario

    def test_frame_files_are_the_bench_inputs(self, tmp_path, monkeypatch):
        """At the default five keypoints per frame, the train and test files
        are the scenarios whose pairing the gpt cells transport through."""
        code = run(
            "scenario-gen", "--suite", "frames", "--seeds", 3, "--train-seeds", 2, "--out-dir", tmp_path,
        )
        assert code == 0
        target = tmp_path / "scenarios" / "frames"
        files = {path.name: load_scenario(path).to_dict() for path in target.iterdir()}
        built = []
        real = cli.random_frame_scenario

        def recorded(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "random_frame_scenario", recorded)
        cells = cli._frame_cells(("gpt",), 3, 2)
        assert len(cells) == 3
        for cell in cells:
            test = cell.scenario
            (train,) = [s for s in built if s.reference is cell.demonstration]
            assert cell.keypoints.to_dict() == frame_pairing(train, test).to_dict()
            assert files[f"test-{test.seed}.json"] == test.to_dict()
            assert files[f"train-{train.seed}.json"] == train.to_dict()

    def test_default_corpus_is_the_bench_default(self, tmp_path):
        """Without --seeds, scenario-gen writes the corpus that bench runs
        on by default: 5 profiles x 3 seeds, and 20 test plus 9 train frames."""
        for suite in ("surfaces", "frames"):
            assert run("scenario-gen", "--suite", suite, "--out-dir", tmp_path) == 0
        surfaces = sorted(p.name for p in (tmp_path / "scenarios" / "surfaces").iterdir())
        assert surfaces == sorted(
            f"{cell.scenario.profile}-{cell.scenario.seed}.json" for cell in cli._surface_cells(("gpt",), 3, 12)
        )
        assert len(surfaces) == 15
        frames = sorted(p.name for p in (tmp_path / "scenarios" / "frames").iterdir())
        assert frames == sorted(
            [f"test-{seed}.json" for seed in range(200, 220)] + [f"train-{seed}.json" for seed in range(100, 109)]
        )

    def test_unknown_suite_is_usage_error(self, tmp_path):
        assert run("scenario-gen", "--suite", "boxes", "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize(
        "suite, flags, flag",
        [
            ("surfaces", ("--seeds", 0), "--seeds"),
            ("surfaces", ("--seeds", -2), "--seeds"),
            ("surfaces", ("--n-keypoints", 1), "--n-keypoints"),
            ("frames", ("--seeds", 0), "--seeds"),
            ("frames", ("--train-seeds", 0), "--train-seeds"),
            ("frames", ("--kpf", 0), "--kpf"),
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, tmp_path, capsys, suite, flags, flag):
        assert run("scenario-gen", "--suite", suite, *flags, "--out-dir", tmp_path / "out") == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBench:
    def test_surfaces_bench_artifacts(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "bench", "--suite", "surfaces", "--seeds", 1,
            "--methods", "gpt,le", "--n-keypoints", 8, "--out-dir", out,
        )
        assert code == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert len(rows) == 10  # 5 profiles x 1 seed x 2 methods
        assert not (out / "failures.json").exists()
        ranking = json.loads((out / "ranking.json").read_text())
        assert {m for m, _ in ranking["ranking"]} == {"gpt", "le"}
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {f"surface-{p}-0" for p in ("flat", "tilt", "sine", "step", "composite")}
        for entry in report.values():
            assert entry["fit_seconds"] > 0
            assert entry["transport_seconds"] > 0
            assert entry["keypoint_error_max"] >= 0
            assert 0.0 <= entry["det_positive_pct"] <= 100.0
        svg = sorted(p.name for p in (out / "svg").iterdir())
        assert len(svg) == 5 and svg[0].endswith(".svg")

    def test_rerun_is_bitwise_identical_across_thread_counts(self, tmp_path, monkeypatch):
        suites = {
            "surfaces": ("--seeds", 1, "--methods", "gpt,le,lwt", "--n-keypoints", 7),
            "frames": ("--seeds", 3, "--train-seeds", 2, "--methods", "gpt,le"),
        }
        for suite, flags in suites.items():
            outputs = []
            for threads in ("1", "3"):
                monkeypatch.setenv("POLTRANS_THREADS", threads)
                out = tmp_path / f"{suite}-{threads}"
                assert run("bench", "--suite", suite, *flags, "--out-dir", out) == 0
                outputs.append(out)
            a, b = outputs
            # timings.json sits beside the artifacts it must not touch
            assert (a / "timings.json").exists() and (b / "timings.json").exists()
            assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
            assert (a / "ranking.json").read_bytes() == (b / "ranking.json").read_bytes()
            svgs = sorted(p.name for p in (a / "svg").iterdir())
            assert svgs == sorted(p.name for p in (b / "svg").iterdir())
            for name in svgs:
                assert (a / "svg" / name).read_bytes() == (b / "svg" / name).read_bytes()
            # every scene has a gpt cell, so each suite reports every scene
            scenes = {row["scenario"] for row in read_metrics_csv(a / "metrics.csv")}
            report = json.loads((a / "report.json").read_text())
            assert set(report) == scenes
            for entry in report.values():
                assert entry["keypoint_error_max"] >= entry["keypoint_error_mean"] >= 0
                assert 0.0 <= entry["det_positive_pct"] <= 100.0

    def test_timings_json_holds_the_seconds_of_every_stage(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "bench", "--suite", "surfaces", "--seeds", 1,
            "--methods", "gpt,le", "--n-keypoints", 6, "--out-dir", out,
        )
        assert code == 0
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == set(cli.BENCH_STAGES)
        for entry in timings.values():
            assert set(entry) == {"wall_s", "cpu_s"}
            assert all(isinstance(v, float) and v >= 0.0 for v in entry.values())
        assert timings["cells"]["wall_s"] > 0.0
        # no stage timing in the other JSON artifacts
        for name in ("report.json", "ranking.json"):
            assert "wall_s" not in (out / name).read_text()

    @pytest.mark.parametrize(
        "suite, builder, methods, builds",
        [
            # 5 profiles x 3 seeds, one scenario per scene
            ("surfaces", "make_surface_scenario", cli.METHODS, 15),
            # 3 scenes x 2 keypoint counts x (train, test)
            ("frames", "random_frame_scenario", cli.METHODS, 12),
            ("frames", "random_frame_scenario", ("gpt", "lwt"), 6),
        ],
    )
    def test_cells_of_a_scene_share_one_frozen_build(self, monkeypatch, suite, builder, methods, builds):
        calls = []
        real = getattr(cli, builder)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, builder, counted)
        make_cells = {
            "surfaces": lambda: cli._surface_cells(methods, 3, 12),
            "frames": lambda: cli._frame_cells(methods, 3, 9),
        }[suite]
        cells = make_cells()
        assert len(cells) == 3 * len(methods) * (5 if suite == "surfaces" else 1)
        assert len(calls) == builds
        # One build per scene, and per keypoint count on frames.
        by_key = {}
        for cell in cells:
            key = (cell.scenario.name, cli.FRAME_KPF[cell.method] if suite == "frames" else None)
            built = (cell.scenario, cell.keypoints, cell.demonstration)
            shared = by_key.setdefault(key, built)
            assert all(a is b for a, b in zip(shared, built))
        assert len({id(cell.scenario) for cell in cells}) == len(by_key)
        # The methods of a scene share these inputs, so none may write into them.
        for cell in cells:
            arrays = list(_arrays(cell))
            assert arrays and not any(arr.flags.writeable for arr in arrays)
        # Nothing is cached across cell lists.
        make_cells()
        assert len(calls) == 2 * builds

    def test_failed_cell_is_recorded_and_bench_continues(self, tmp_path, monkeypatch):
        class Boom(Exception):
            pass

        real = cli._run_method

        def failing_le(method, *args):
            if method == "le":
                raise Boom("forced failure")
            return real(method, *args)

        monkeypatch.setattr(cli, "_run_method", failing_le)
        out = tmp_path / "bench"
        code = run(
            "bench", "--suite", "frames", "--seeds", 3, "--train-seeds", 1,
            "--methods", "gpt,le", "--out-dir", out,
        )
        assert code == 0
        failures = json.loads((out / "failures.json").read_text())["failures"]
        assert failures == [
            {"scenario": f"frame-{seed}", "method": "le", "stage": "method",
             "error": "forced failure", "type": "Boom"}
            for seed in (200, 201, 202)
        ]
        assert [row["method"] for row in read_metrics_csv(out / "metrics.csv")] == ["gpt"] * 3
        assert json.loads((out / "ranking.json").read_text())["ranking"] == [["gpt", 1]]
        assert (out / "svg" / "frame-200.svg").exists()

    def test_metric_failure_is_recorded_with_its_stage(self, tmp_path, monkeypatch):
        flags = ("--suite", "surfaces", "--seeds", 1, "--methods", "gpt,le", "--n-keypoints", 7)
        monkeypatch.setenv("POLTRANS_THREADS", "1")
        assert run("bench", *flags, "--out-dir", tmp_path / "clean") == 0

        real = cli._run_method
        le_calls = []

        def stalled_first_le(method, *args):
            produced, extras = real(method, *args)
            if method == "le":
                le_calls.append(1)
                if len(le_calls) == 1:
                    # zero-length final segments leave no docking angle to score
                    positions = produced.positions.copy()
                    positions[-6:] = positions[-6]
                    produced = Trajectory(positions=positions, times=produced.times)
            return produced, extras

        monkeypatch.setattr(cli, "_run_method", stalled_first_le)
        out = tmp_path / "stalled"
        assert run("bench", *flags, "--out-dir", out) == 0
        failures = json.loads((out / "failures.json").read_text())["failures"]
        assert failures == [
            {"scenario": "surface-flat-0", "method": "le", "stage": "metrics",
             "error": "stationary tail: no direction defined", "type": "ValueError"}
        ]
        clean = (tmp_path / "clean" / "metrics.csv").read_text().splitlines()
        stalled = (out / "metrics.csv").read_text().splitlines()
        assert stalled == [line for line in clean if not line.startswith("surface-flat-0,le,")]

    def test_rows_equal_per_cell_compute_metrics(self, tmp_path, monkeypatch):
        pairs = {}
        real = cli._run_cell

        def recorded(cell):
            produced, extras, error = real(cell)
            pairs[cell.scenario.name, cell.method] = (produced, cell.scenario.reference)
            return produced, extras, error

        monkeypatch.setenv("POLTRANS_THREADS", "2")
        monkeypatch.setattr(cli, "_run_cell", recorded)
        out = tmp_path / "bench"
        assert run("bench", "--suite", "surfaces", "--seeds", 1, "--n-keypoints", 7, "--out-dir", out) == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert len(rows) == len(pairs) == 20
        for row in rows:
            expected = compute_metrics(*pairs[row["scenario"], row["method"]]).to_dict()
            assert {name: row[name] for name in METRIC_NAMES} == expected

    def test_folding_gpt_maps_are_warned_per_scene(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run("bench", "--suite", "frames", "--seeds", 5, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        folded = sorted(name for name, entry in report.items() if entry["det_positive_pct"] < 100.0)
        # frame-204's gpt map folds on about a third of its demonstration
        assert "frame-204" in folded
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {name}: gpt det(J) > 0 on only {report[name]['det_positive_pct']:.1f}% "
            "of the demonstration"
            for name in folded
        ]

    def test_ranking_error_comes_last_and_names_the_method(self, tmp_path, monkeypatch, capsys):
        real = cli._run_method
        le_calls = []

        def one_le_failure(method, *args):
            if method == "le":
                le_calls.append(1)
                if len(le_calls) == 1:
                    raise RuntimeError("forced failure")
            return real(method, *args)

        monkeypatch.setenv("POLTRANS_THREADS", "1")
        monkeypatch.setattr(cli, "_run_method", one_le_failure)
        out = tmp_path / "bench"
        code = run(
            "bench", "--suite", "frames", "--seeds", 3, "--train-seeds", 1,
            "--methods", "gpt,le", "--out-dir", out,
        )
        assert code == 1
        assert "method 'le' has 2 rows" in capsys.readouterr().err
        assert not (out / "ranking.json").exists()
        assert (out / "timings.json").exists()
        assert len(read_metrics_csv(out / "metrics.csv")) == 5
        assert len(json.loads((out / "failures.json").read_text())["failures"]) == 1
        assert set(json.loads((out / "report.json").read_text())) == {"frame-200", "frame-201", "frame-202"}
        assert len(list((out / "svg").iterdir())) == 3

    @pytest.mark.parametrize(
        "suite, flags, flag",
        [
            ("surfaces", ("--seeds", 0), "--seeds"),
            ("surfaces", ("--n-keypoints", 1), "--n-keypoints"),
            ("frames", ("--train-seeds", 0), "--train-seeds"),
            ("frames", ("--seeds", 2), "--seeds"),
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, tmp_path, capsys, suite, flags, flag):
        assert run("bench", "--suite", suite, *flags, "--out-dir", tmp_path / "out") == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["5", "1", "0", "-1", "nan"])
    def test_alpha_outside_the_unit_interval_is_a_usage_error(self, tmp_path, capsys, alpha):
        flags = ("--suite", "surfaces", "--seeds", 1, "--methods", "gpt,le", "--alpha", alpha)
        assert run("bench", *flags, "--out-dir", tmp_path / "out") == 2
        assert "argument --alpha: must lie strictly between 0 and 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_frame_svg_draws_the_transported_demonstration(self, tmp_path, monkeypatch):
        """A frame scene's SVG draws the training demonstration and the
        keypoint pairing that gpt transported, not the test scene's own
        canonical curve and keypoints."""
        drawn = {}

        def record(path, demo, reference, produced, keypoints, bands):
            drawn[path.stem] = (demo, reference, keypoints)

        monkeypatch.setattr(cli, "_scene_svg", record)
        flags = ("--suite", "frames", "--seeds", 3, "--train-seeds", 2, "--methods", "gpt,le")
        assert run("bench", *flags, "--out-dir", tmp_path / "out") == 0
        cells = cli._frame_cells(("gpt",), 3, 2)
        assert sorted(drawn) == sorted(cell.scenario.name for cell in cells)
        for cell in cells:
            demo, reference, keypoints = drawn[cell.scenario.name]
            assert np.array_equal(demo.positions, cell.demonstration.positions)
            assert not np.array_equal(demo.positions, cell.scenario.demonstration.positions)
            assert np.array_equal(reference.positions, cell.scenario.reference.positions)
            assert keypoints.to_dict() == cell.keypoints.to_dict()

    def test_one_frame_method_runs_on_fewer_than_three_seeds(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "bench", "--suite", "frames", "--seeds", 1, "--train-seeds", 1,
            "--methods", "le", "--out-dir", out,
        )
        assert code == 0
        assert json.loads((out / "ranking.json").read_text())["ranking"] == [["le", 1]]

    def test_unknown_suite_and_method(self, tmp_path):
        assert run("bench", "--suite", "planets", "--out-dir", tmp_path) == 2
        assert run("bench", "--suite", "surfaces", "--methods", "gpt,nope", "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("cpus, workers", [(None, 1), (1, 1), (2, 2), (16, 4)])
    def test_unset_worker_count_follows_the_cpu_count(self, monkeypatch, cpus, workers):
        monkeypatch.delenv("POLTRANS_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._worker_count() == workers

    def test_worker_count_env_overrides_and_is_validated(self, monkeypatch):
        monkeypatch.setenv("POLTRANS_THREADS", "3")
        assert cli._worker_count() == 3
        monkeypatch.setenv("POLTRANS_THREADS", "0")
        assert cli._worker_count() == 1
        monkeypatch.setenv("POLTRANS_THREADS", "many")
        with pytest.raises(cli.UsageError, match="POLTRANS_THREADS"):
            cli._worker_count()


def _arrays(obj):
    """Every ndarray reachable from ``obj`` through tuples and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))


REQUIRED = "required"
# Each subcommand's flags and their defaults: the flags the parser has had
# since --config (on fit, transport, bench and scenario-gen) was removed.
CLI_SURFACE = {
    "fit": {"--scenario": REQUIRED, "--out-dir": "."},
    "transport": {"--map": REQUIRED, "--labels": REQUIRED, "--out-dir": "."},
    "bench": {
        "--suite": REQUIRED, "--seeds": None, "--train-seeds": 9, "--n-keypoints": 12,
        "--methods": None, "--alpha": 0.05, "--out-dir": "bench-out",
    },
    "metrics": {"--produced": REQUIRED, "--reference": REQUIRED, "--out": None},
    "rank": {"--metrics": REQUIRED, "--alpha": 0.05, "--out": None},
    "scenario-gen": {
        "--suite": REQUIRED, "--seeds": None, "--train-seeds": 9, "--n-keypoints": 12,
        "--kpf": 5, "--out-dir": ".",
    },
}


class TestParsing:
    @pytest.mark.parametrize("command", sorted(CLI_SURFACE))
    def test_subcommand_flags_and_defaults(self, command):
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(CLI_SURFACE)
        flags = {
            "/".join(action.option_strings): REQUIRED if action.required else action.default
            for action in sub.choices[command]._actions
            if action.dest != "help"
        }
        assert flags == CLI_SURFACE[command]

    def test_unknown_command(self):
        assert run("explode") == 2

    def test_no_command(self):
        assert run() == 2

    def test_missing_required_flag(self):
        assert run("metrics", "--produced", "x.json") == 2


@pytest.fixture()
def tracing(monkeypatch):
    """The benchmark's tracer module, loaded from perfbench/tracing.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _scipy_loaded_by(*argv) -> set:
    """The ``scipy`` modules in sys.modules after a fresh ``import
    poltrans.cli`` and, with ``argv``, after ``cli.main(argv)`` has also run
    and returned 0; one process per call."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run_main = f"assert poltrans.cli.main({[str(a) for a in argv]!r}) == 0; " if argv else ""
    code = (
        f"import json, sys, poltrans.cli; {run_main}"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return set(json.loads(result.stdout.splitlines()[-1]))  # after main's own output


# The extension modules poltrans._scipy loads its four routines from.
ROUTINE_MODULES = {"scipy.linalg._flapack", "scipy.optimize._lsap", "scipy.special._special_ufuncs"}


@pytest.fixture(scope="module")
def start_up(tmp_path_factory):
    """The scipy modules a fresh process holds after importing the CLI, and
    after a ``fit`` and a ``transport`` through the fitted map."""
    tmp = tmp_path_factory.mktemp("start_up")
    scenario, labels = tmp / "scenario.json", tmp / "labels.json"
    save_scenario(make_surface_scenario("sine", n_keypoints=10, seed=0), scenario)
    save_json(PolicyLabels(positions=[[0.2, 0.0], [0.5, 0.1]], velocities=[[0.0, 1.0], [1.0, 0.0]]), labels)
    loaded = {
        "import": _scipy_loaded_by(),
        "fit": _scipy_loaded_by("fit", "--scenario", scenario, "--out-dir", tmp / "fit"),
        "transport": _scipy_loaded_by(
            "transport", "--map", tmp / "fit" / "map.json", "--labels", labels, "--out-dir", tmp / "transport"
        ),
    }
    assert (tmp / "transport" / "transported.csv").is_file()
    return loaded


def test_cli_import_leaves_out_scipy_stats(start_up):
    """scipy.stats adds about 0.6 s to every command's start-up and no
    command needs it."""
    assert "scipy.stats" not in start_up["import"]


def test_cli_import_leaves_out_scipy_ndimage(start_up):
    """scipy.ndimage costs ~0.4 s when imported fresh and no module uses it."""
    assert "scipy.ndimage" not in start_up["import"]


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.special"])
def test_cli_import_and_fit_leave_out_lazily_imported_scipy(module, start_up):
    """Each of these packages' initializers costs 0.3 s of CPU or more on a
    fresh start. poltrans loads its four SciPy routines from their compiled
    modules instead, so no command runs one."""
    for command, loaded in start_up.items():
        assert module not in loaded, command


@pytest.mark.parametrize("suite", ["surfaces", "frames"])
def test_bench_loads_only_the_compiled_scipy_routines(tmp_path, suite):
    """The baselines' linear_sum_assignment and the U tests' ndtr come from
    their extension modules, not from scipy.optimize and scipy.special."""
    out = tmp_path / "bench"
    argv = ("bench", "--suite", suite, "--seeds", 3, "--train-seeds", 2, "--out-dir", out)
    assert _scipy_loaded_by(*argv) == ROUTINE_MODULES
    assert (out / "ranking.json").is_file()


def test_benchmark_tracer_binds_every_traced_name(tracing):
    """The benchmark's tracer patches poltrans names (its LAYER_FUNCTIONS,
    gp.minimize, cli.ThreadPoolExecutor); deleting or renaming one of them
    must fail here rather than only in a traced benchmark run."""
    pool = cli.ThreadPoolExecutor
    with tracing.installed(tracing.Tracer()):
        assert cli.ThreadPoolExecutor is not pool
    assert cli.ThreadPoolExecutor is pool


def test_benchmark_own_tests_pass():
    """The benchmark's tests pin what its tracer assumes of poltrans, such
    as the query counts of ``gp.predict_variance``. They run as their own
    session because both test trees have a ``conftest.py``."""
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]


def test_benchmark_counts_gp_objective_evals(tracing):
    """The tracer counts fit_gp's objective evaluations through the
    module-level ``gp.minimize``; a fit that bypasses it would read 0."""
    from poltrans import fit_transport

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        fit_transport(make_surface_scenario("sine", n_keypoints=6, seed=3).keypoints)
    assert tracing.layer_metrics(tracer)["gp.fit_gp.objective_evals"] > 0
