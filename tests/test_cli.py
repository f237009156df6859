"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import fold_pair, suite_tasks
from poltrans import PolicyLabels, Trajectory, fit_transport, save_json, save_transport_map
from poltrans import cli
from poltrans.cli import main
from poltrans.metrics import METRIC_NAMES, compute_metrics, mann_whitney_u, read_metrics_csv, write_metrics_csv
from poltrans.scenarios import frame_pairing, load_scenario, make_surface_scenario, save_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(make_surface_scenario("sine", n_keypoints=10, seed=0), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def _replace_run(monkeypatch, method, run):
    """Give ``method``'s entry of the bench's method table another run."""
    monkeypatch.setitem(cli.METHOD_TABLE, method, dataclasses.replace(cli.METHOD_TABLE[method], run=run))


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

    def test_malformed_scenario_fails_naming_the_file(self, tmp_path, capsys):
        scenario = tmp_path / "broken.json"
        scenario.write_text('{"kind": "surface", }')
        out = tmp_path / "fit"
        assert run("fit", "--scenario", scenario, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {scenario} is not valid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 21 (char 20)\n"
        )
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
        """m labels cost m derivative-posterior rows, the keypoints none, and
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
        assert sum(rows) == 25

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

    def test_stiffness_drift_is_taken_over_the_finite_labels(self, tmp_path, fitted_map):
        stiffness = np.stack([3.0 * np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], np.diag([1.0, 5.0])])
        positions = [[0.2, 0.0], [0.5, 0.1], [0.7, 0.05]]
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=positions, stiffness=stiffness), labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 0
        text = (out / "transport_report.json").read_text()
        assert "NaN" not in text
        report = json.loads(text)
        assert report["warnings"][0] == "stiffness[1]: non-finite residual nan"
        # the drift equals that of the finite labels transported alone
        finite_path = tmp_path / "finite.json"
        save_json(PolicyLabels(positions=positions[::2], stiffness=stiffness[::2]), finite_path)
        alone = tmp_path / "alone"
        assert run("transport", "--map", fitted_map, "--labels", finite_path, "--out-dir", alone) == 0
        expected = json.loads((alone / "transport_report.json").read_text())["stiffness_spectrum_max_drift"]
        assert 0.0 <= report["stiffness_spectrum_max_drift"] == expected < 1e-9

    def test_stiffness_drift_is_left_out_when_no_label_is_finite(self, tmp_path, fitted_map):
        stiffness = np.stack([[[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]])
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=[[0.2, 0.0], [0.5, 0.1]], stiffness=stiffness), labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", fitted_map, "--labels", labels_path, "--out-dir", out) == 0
        report = json.loads((out / "transport_report.json").read_text())
        assert "stiffness_spectrum_max_drift" not in report
        assert [w.split(" residual")[0] for w in report["warnings"][:2]] == [
            "stiffness[0]: non-finite",
            "stiffness[1]: non-finite",
        ]

    def test_labels_across_a_fold_are_warned(self, tmp_path, capsys):
        map_path = tmp_path / "fold.json"
        save_transport_map(fit_transport(fold_pair()), map_path)
        xs = np.linspace(0.0, 3.0, 31)
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=np.stack([xs, np.full(31, 0.3)], axis=1)), labels_path)
        out = tmp_path / "transport"
        assert run("transport", "--map", map_path, "--labels", labels_path, "--out-dir", out) == 0
        fraction = json.loads((out / "transport_report.json").read_text())["det_positive_fraction"]
        assert 0.0 < fraction < 1.0
        warning = f"warning: det(J) > 0 on only {100 * fraction:.1f}% of label positions\n"
        assert capsys.readouterr().err == warning

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


    @pytest.mark.parametrize(
        ("command", "key", "value", "message"),
        [
            ("fit", "keypoints", None, "SurfaceScenario.keypoints must be a JSON object, not null"),
            ("fit", "keypoints", {"source": 3}, "PairedKeypoints.source must be a JSON object, not int"),
            ("fit", "params", None, "SurfaceScenario.params must be a JSON object, not null"),
            ("fit", "params", {"amplitude": None}, "SurfaceScenario.params['amplitude'] must be a number, not null"),
            ("transport", "params", None, "TransportMap.params must be a JSON object, not null"),
            ("transport", "keypoints", [], "TransportMap.keypoints must be a JSON object, not list"),
            ("fit", "seed", 3.7, "SurfaceScenario.seed must be an integer, not float 3.7"),
            ("fit", "seed", True, "SurfaceScenario.seed must be an integer, not bool True"),
            ("fit", "seed", "12", "SurfaceScenario.seed must be an integer, not str '12'"),
            ("fit", "params", {"amplitude": "0.1"}, "SurfaceScenario.params['amplitude'] must be a number, not str '0.1'"),
            ("fit", "params", {"amplitude": False}, "SurfaceScenario.params['amplitude'] must be a number, not bool False"),
            (
                "fit",
                "params",
                {"amplitude": 10**400},
                "SurfaceScenario.params['amplitude'] must be a number within the float range,"
                " not an integer of about 10^400",
            ),
            (
                "fit",
                "keypoints",
                {"source": {"dim": 2.5, "points": [[0.0, 0.0]]}},
                "PointSet.dim must be an integer, not float 2.5",
            ),
            (
                "transport",
                "keypoints",
                {"source": {"dim": "2", "points": [[0.0, 0.0]]}},
                "PointSet.dim must be an integer, not str '2'",
            ),
            (
                "transport",
                "params",
                {"signal_variance": "0.1", "lengthscale": 1.0},
                "KernelParams.signal_variance must be a number, not str '0.1'",
            ),
            (
                "transport",
                "params",
                {"signal_variance": 0.1, "lengthscale": True},
                "KernelParams.lengthscale must be a number, not bool True",
            ),
        ],
    )
    def test_a_malformed_field_fails_naming_the_record_and_the_field(
        self, tmp_path, scenario_file, fitted_map, capsys, command, key, value, message
    ):
        """A scenario or map field of the wrong JSON type is an input error,
        not a traceback: a number field takes no bool or string, a float
        field no integer past the largest float, and an integer field no
        fraction."""
        path = scenario_file if command == "fit" else fitted_map
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        labels_path = tmp_path / "labels.json"
        save_json(PolicyLabels(positions=[[0.2, 0.0]]), labels_path)
        inputs = ("--scenario", path) if command == "fit" else ("--map", path, "--labels", labels_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(command, *inputs, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
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

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    def test_stdout_is_the_written_json_file(self, tmp_path, capsys, command):
        a = Trajectory(positions=[[0.0, 0.0], [1.0, 0.3], [2.0, 0.1]])
        b = Trajectory(positions=[[0.0, 1.0], [1.0, 1.7], [2.0, 1.0]])
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_json(a, pa)
        save_json(b, pb)
        out = tmp_path / "out.json"
        if command == "metrics":
            assert run("metrics", "--produced", pa, "--reference", pb, "--out", out) == 0
        else:
            from poltrans.metrics import write_metrics_csv

            rng = np.random.default_rng(3)
            rows = []
            for method in ("gpt", "le"):
                for rep in range(6):
                    row = {"scenario": f"s-{rep}", "method": method, "repetition": 0}
                    row.update({name: float(rng.uniform(0, 1)) for name in METRIC_NAMES})
                    rows.append(row)
            write_metrics_csv(rows, tmp_path / "metrics.csv")
            assert run("rank", "--metrics", tmp_path / "metrics.csv", "--out", out) == 0
        text = out.read_text()
        assert capsys.readouterr().out == text
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("which", ["produced", "reference"])
    def test_malformed_trajectory_fails_naming_the_file(self, tmp_path, capsys, which):
        paths = {name: tmp_path / f"{name}.json" for name in ("produced", "reference")}
        for path in paths.values():
            save_json(Trajectory(positions=[[0.0, 0.0], [1.0, 0.0]]), path)
        paths[which].write_text('{"positions": [[0.0, 0.0]')
        out = tmp_path / "metrics.json"
        argv = ("metrics", "--produced", paths["produced"], "--reference", paths["reference"], "--out", out)
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {paths[which]} is not valid JSON: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

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

    def test_rank_alpha_sets_the_significance_level(self, tmp_path):
        # "low" lies a little below "high" on every metric: a one-sided p
        # between 0.05 and 0.5, significant at --alpha 0.5 only
        low = np.arange(10.0)
        high = low + 1.5
        _, p, _ = mann_whitney_u(low, high)
        assert 0.05 < p < 0.5
        rows = [
            {"scenario": "s-0", "method": method, "repetition": rep, **{name: values[rep] for name in METRIC_NAMES}}
            for method, values in (("low", low), ("high", high))
            for rep in range(10)
        ]
        csv_path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, csv_path)
        assert run("rank", "--metrics", csv_path, "--out", tmp_path / "default.json") == 0
        assert run("rank", "--metrics", csv_path, "--alpha", "0.5", "--out", tmp_path / "half.json") == 0
        default = json.loads((tmp_path / "default.json").read_text())
        half = json.loads((tmp_path / "half.json").read_text())
        assert default["points"] == {"high": 0, "low": 0}
        assert half["points"] == {"high": 0, "low": len(METRIC_NAMES)}
        assert half["ranking"] == [["low", 1], ["high", 2]]

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

    def test_rank_fails_on_a_short_row(self, tmp_path, capsys):
        csv_path = tmp_path / "metrics.csv"
        csv_path.write_text("scenario,method,repetition," + ",".join(METRIC_NAMES) + "\ns,m,0,0.1,0.1\n")
        assert run("rank", "--metrics", csv_path) == 1
        err = capsys.readouterr().err
        assert err == f"error: {csv_path} line 2: row has 5 cells, the header has 8\n"
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
            f"{task.scenario.profile}-{task.scenario.seed}.json": task.scenario.to_dict()
            for task in suite_tasks("surfaces", cli.METHODS, 2, "--n-keypoints", 7)
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
        tasks = suite_tasks("frames", ("gpt",), 3, "--train-seeds", 2)
        assert len(tasks) == 3
        for task in tasks:
            test = task.scenario
            (train,) = [s for s in built if s.reference is task.demonstration]
            assert task.keypoints.to_dict() == frame_pairing(train, test).to_dict()
            assert files[f"test-{test.seed}.json"] == test.to_dict()
            assert files[f"train-{train.seed}.json"] == train.to_dict()

    def test_default_corpus_is_the_bench_default(self, tmp_path):
        """Without --seeds, scenario-gen writes the corpus that bench runs
        on by default: 5 profiles x 3 seeds, and 20 test plus 9 train frames."""
        for suite in ("surfaces", "frames"):
            assert run("scenario-gen", "--suite", suite, "--out-dir", tmp_path) == 0
        surfaces = sorted(p.name for p in (tmp_path / "scenarios" / "surfaces").iterdir())
        assert surfaces == sorted(
            f"{task.scenario.profile}-{task.scenario.seed}.json"
            for task in suite_tasks("surfaces", ("gpt",), 3)
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
        assert set(timings) == {*cli.BENCH_STAGES, "methods"}
        for name in cli.BENCH_STAGES:
            assert set(timings[name]) == {"wall_s", "cpu_s"}
            assert all(isinstance(v, float) and v >= 0.0 for v in timings[name].values())
        assert timings["cells"]["wall_s"] > 0.0
        # each method's thread CPU, summed over its cells, within the pool stage's
        methods = timings["methods"]
        assert set(methods) == {"gpt", "le"}
        for entry in methods.values():
            assert set(entry) == {"cpu_s"}
            assert isinstance(entry["cpu_s"], float) and entry["cpu_s"] >= 0.0
        assert sum(entry["cpu_s"] for entry in methods.values()) <= timings["cells"]["cpu_s"] + 1e-3
        # no stage timing in the other JSON artifacts
        for name in ("report.json", "ranking.json"):
            assert "wall_s" not in (out / name).read_text()

    def test_timings_json_times_building_the_cells(self, tmp_path, monkeypatch):
        """``scenes`` covers ``Suite.tasks``, which runs before the pool;
        ``_run_bench`` on scene tasks built elsewhere reads it as zero."""
        spent = []
        build = cli.SUITE_TABLE["frames"].tasks

        def timed(*args):
            wall, cpu = time.perf_counter(), time.process_time()
            tasks = build(*args)
            spent.append((time.perf_counter() - wall, time.process_time() - cpu))
            return tasks

        monkeypatch.setitem(cli.SUITE_TABLE, "frames", dataclasses.replace(cli.SUITE_TABLE["frames"], tasks=timed))
        out = tmp_path / "bench"
        assert run("bench", "--suite", "frames", "--seeds", 3, "--methods", "le", "--out-dir", out) == 0
        scenes = json.loads((out / "timings.json").read_text())["scenes"]
        [(wall, cpu)] = spent
        assert scenes["wall_s"] >= wall > 0.0 and scenes["cpu_s"] >= cpu

        tasks = suite_tasks("frames", ("le",), 3)
        assert cli._run_bench("frames", tasks, 0.05, tmp_path / "prebuilt") == 0
        timings = json.loads((tmp_path / "prebuilt" / "timings.json").read_text())
        assert set(timings) == {*cli.BENCH_STAGES, "methods"}
        assert timings["scenes"] == {"wall_s": 0.0, "cpu_s": 0.0}

    @pytest.mark.parametrize(
        "suite, builder, methods, builds, scenes, per_kpf",
        [
            # 5 profiles x 3 seeds, one scenario per scene
            ("surfaces", "make_surface_scenario", cli.METHODS, 15, 15, False),
            # 3 scenes x 2 keypoint counts x (train, test)
            ("frames", "random_frame_scenario", cli.METHODS, 12, 3, True),
            ("frames", "random_frame_scenario", ("gpt", "lwt"), 6, 3, True),
        ],
    )
    def test_cells_of_a_scene_share_one_frozen_build(
        self, monkeypatch, suite, builder, methods, builds, scenes, per_kpf
    ):
        calls = []
        real = getattr(cli, builder)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, builder, counted)
        tasks = suite_tasks(suite, methods, 3)
        cells = [(task, method) for task in tasks for method in task.methods]
        assert len(cells) == scenes * len(methods)
        assert len(calls) == builds
        # One build per scene, and per keypoint count on frames.
        by_key = {}
        for task, method in cells:
            key = (task.scenario.name, cli.METHOD_TABLE[method].frame_kpf if per_kpf else None)
            built = (task.scenario, task.keypoints, task.demonstration)
            shared = by_key.setdefault(key, built)
            assert all(a is b for a, b in zip(shared, built))
        assert len({id(task.scenario) for task in tasks}) == len(by_key)
        # The methods of a scene share these inputs, so none may write into them.
        for task in tasks:
            arrays = list(_arrays(task))
            assert arrays and not any(arr.flags.writeable for arr in arrays)
        # Nothing is cached across task lists.
        suite_tasks(suite, methods, 3)
        assert len(calls) == 2 * builds

    def test_default_frames_cells_build_each_scenario_once(self, monkeypatch):
        """20 test seeds draw from 9 training seeds, so training seeds repeat:
        one build per (seed, keypoints per frame), 56 rather than 80."""
        calls = []
        real = cli.random_frame_scenario

        def counted(seed, keypoints_per_frame):
            calls.append((seed, keypoints_per_frame))
            return real(seed, keypoints_per_frame=keypoints_per_frame)

        monkeypatch.setattr(cli, "random_frame_scenario", counted)
        tasks = suite_tasks("frames", ("gpt", "le"), 20)
        used = {(task.scenario.seed, kpf) for task in tasks for kpf in (2, 5)}
        assert len(calls) == len(set(calls)) == 56
        assert used < set(calls) and sum(len(task.methods) for task in tasks) == 40

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "flags, alignments, assignments",
        [
            # le, reshaped_kmp and lwt share one scene task per surface scene
            (("--suite", "surfaces"), 15, 15),
            # per frame scene: le and reshaped_kmp share the 2-keypoint task,
            # lwt aligns on gpt's 5-keypoint task, which gpt leaves alone
            (("--suite", "frames", "--seeds", 3, "--methods", ",".join(cli.METHODS)), 6, 3),
        ],
    )
    def test_a_scene_task_aligns_and_assigns_once(self, tmp_path, monkeypatch, threads, flags, alignments, assignments):
        def counted(name):
            real, seen = getattr(cli, name), []

            def wrapper(*args):
                seen.append(args)
                return real(*args)

            monkeypatch.setattr(cli, name, wrapper)
            return seen

        aligned, assigned = counted("_gamma_pretransform"), counted("assign_via_points")
        monkeypatch.setenv("POLTRANS_THREADS", threads)
        assert run("bench", *flags, "--out-dir", tmp_path / "bench") == 0
        assert not (tmp_path / "bench" / "failures.json").exists()
        assert (len(aligned), len(assigned)) == (alignments, assignments)

    def test_a_shared_preparation_that_fails_fails_each_reader(self, tmp_path, monkeypatch):
        """A failed alignment is not kept: each method that reads it raises
        it again and records its own failure."""

        def failing(*args):
            raise RuntimeError("no alignment")

        monkeypatch.setattr(cli, "_gamma_pretransform", failing)
        out = tmp_path / "bench"
        flags = ("--suite", "surfaces", "--seeds", 1, "--n-keypoints", 7)
        assert run("bench", *flags, "--methods", "gpt,le,lwt", "--out-dir", out) == 0
        failures = json.loads((out / "failures.json").read_text())["failures"]
        assert [(f["method"], f["error"]) for f in failures] == [("le", "no alignment"), ("lwt", "no alignment")] * 5
        assert [row["method"] for row in read_metrics_csv(out / "metrics.csv")] == ["gpt"] * 5

    def test_failed_cell_is_recorded_and_bench_continues(self, tmp_path, monkeypatch):
        class Boom(Exception):
            pass

        def failing_le(*args):
            raise Boom("forced failure")

        _replace_run(monkeypatch, "le", failing_le)
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

        real = cli.METHOD_TABLE["le"].run
        le_calls = []

        def stalled_first_le(*args):
            produced, band, report = real(*args)
            le_calls.append(1)
            if len(le_calls) == 1:
                # zero-length final segments leave no docking angle to score
                positions = produced.positions.copy()
                positions[-6:] = positions[-6]
                produced = Trajectory(positions=positions, times=produced.times)
            return produced, band, report

        _replace_run(monkeypatch, "le", stalled_first_le)
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

        def recorded(method, scene):
            outcome = real(method, scene)
            pairs[scene.scenario.name, method] = (outcome[0], scene.scenario.reference)
            return outcome

        monkeypatch.setenv("POLTRANS_THREADS", "2")
        monkeypatch.setattr(cli, "_run_cell", recorded)
        out = tmp_path / "bench"
        assert run("bench", "--suite", "surfaces", "--seeds", 1, "--n-keypoints", 7, "--out-dir", out) == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert len(rows) == len(pairs) == 20
        for row in rows:
            expected = compute_metrics(*pairs[row["scenario"], row["method"]]).to_dict()
            assert {name: row[name] for name in METRIC_NAMES} == expected

    def test_a_method_in_the_table_alone_runs_through_the_bench(self, tmp_path, monkeypatch):
        """_run_bench names no method: one table entry gives a method its
        rows, its stroke in every SVG, and leaves gpt's report alone."""

        def untransported(scene):
            return scene.demonstration, None, None

        monkeypatch.setitem(cli.METHOD_TABLE, "dummy", cli.Method("#123456", 5, untransported))
        alone, both = tmp_path / "gpt", tmp_path / "gpt-dummy"
        for methods, out in ((("gpt",), alone), (("gpt", "dummy"), both)):
            assert cli._run_bench("surfaces", suite_tasks("surfaces", methods, 1, "--n-keypoints", 7), 0.05, out) == 0
        rows = read_metrics_csv(both / "metrics.csv")
        assert [row for row in rows if row["method"] == "gpt"] == read_metrics_csv(alone / "metrics.csv")
        assert [row["scenario"] for row in rows if row["method"] == "dummy"] == [
            row["scenario"] for row in rows if row["method"] == "gpt"
        ]
        svgs = sorted((both / "svg").iterdir())
        assert len(svgs) == 5 and all("#123456" in svg.read_text() for svg in svgs)

        def untimed(out):
            report = json.loads((out / "report.json").read_text())
            timed = ("fit_seconds", "transport_seconds")
            return {scene: {k: v for k, v in entry.items() if k not in timed} for scene, entry in report.items()}

        assert untimed(both) == untimed(alone)

    def test_a_suite_in_the_table_alone_runs_through_bench_and_scenario_gen(self, tmp_path, monkeypatch, capsys):
        """bench and scenario-gen name no suite: one table entry gives --suite
        its id, bench its scene tasks and scenario-gen its files, and the
        seeds rule reads the entry's tasks."""

        def scenarios(seeds, args):
            return [
                (f"sine-{seed}.json", make_surface_scenario("sine", n_keypoints=args.n_keypoints, seed=seed))
                for seed in range(seeds)
            ]

        def tasks(methods, seeds, args):
            return [
                cli.SceneTask(scenario, scenario.keypoints, scenario.demonstration, "ring", tuple(methods))
                for _, scenario in scenarios(seeds, args)
            ]

        monkeypatch.setitem(cli.SUITE_TABLE, "dummy", cli.Suite(3, ("gpt", "le"), tasks, scenarios))
        out = tmp_path / "bench"
        assert run("bench", "--suite", "dummy", "--n-keypoints", 7, "--out-dir", out) == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert [(row["scenario"], row["method"]) for row in rows] == [
            (f"surface-sine-{seed}", method) for seed in range(3) for method in ("gpt", "le")
        ]
        assert {method for method, _ in json.loads((out / "ranking.json").read_text())["ranking"]} == {"gpt", "le"}

        assert run("scenario-gen", "--suite", "dummy", "--seeds", 2, "--out-dir", tmp_path) == 0
        target = tmp_path / "scenarios" / "dummy"
        assert sorted(p.name for p in target.iterdir()) == ["sine-0.json", "sine-1.json"]
        assert load_scenario(target / "sine-1.json").to_dict() == make_surface_scenario("sine", seed=1).to_dict()

        # one scene cannot rank two methods; one method on it still runs
        one = tmp_path / "one-scene"
        assert run("bench", "--suite", "dummy", "--seeds", 1, "--out-dir", one) == 2
        assert "argument --seeds: must be at least 3 scenes" in capsys.readouterr().err
        assert not one.exists()
        assert run("bench", "--suite", "dummy", "--seeds", 1, "--methods", "le", "--out-dir", one) == 0
        assert (one / "metrics.csv").is_file()

    def test_cells_finishing_out_of_order_keep_cell_order(self, tmp_path, monkeypatch):
        """At 3 workers the first scenes' dummy tasks wait until the last
        scenes' have returned, so tasks finish out of order; the artifacts
        still follow the task order and equal the 1-worker run's."""
        early, late = ("frame-200", "frame-201"), ("frame-203", "frame-204")
        failing = ("frame-200", "frame-202")
        outputs = []
        for threads in ("1", "3"):
            lock = threading.Lock()
            pending = [len(late)]
            late_done = threading.Event()
            finished = []

            def dummy(task):
                demo, scene = task.demonstration, task.scenario.name
                try:
                    if threads != "1" and scene in early and not late_done.wait(timeout=60):
                        raise TimeoutError("the late tasks never finished")
                    if scene in failing:
                        raise RuntimeError(f"forced failure in {scene}")
                    return Trajectory(positions=demo.positions + 0.01, times=demo.times), None, None
                finally:
                    with lock:
                        finished.append(scene)
                        if scene in late:
                            pending[0] -= 1
                            if pending[0] == 0:
                                late_done.set()

            # two keypoints per frame: a scene's SVG shows whether its dummy
            # task (first in task order) or its gpt task supplied the bundle
            monkeypatch.setitem(cli.METHOD_TABLE, "dummy", cli.Method("#123456", 2, dummy))
            monkeypatch.setenv("POLTRANS_THREADS", threads)
            tasks = suite_tasks("frames", ("dummy", "gpt"), 5, "--train-seeds", 1)
            out = tmp_path / threads
            assert cli._run_bench("frames", tasks, 0.05, out) == 0
            outputs.append(out)
            if threads != "1":
                assert finished.index("frame-200") > finished.index("frame-204")
        one, three = outputs
        failures = json.loads((three / "failures.json").read_text())["failures"]
        assert [(f["scenario"], f["method"], f["error"]) for f in failures] == [
            (scene, "dummy", f"forced failure in {scene}") for scene in failing
        ]
        for name in ("metrics.csv", "failures.json", "ranking.json"):
            assert (one / name).read_bytes() == (three / name).read_bytes()
        svgs = sorted(p.name for p in (one / "svg").iterdir())
        assert svgs == sorted(p.name for p in (three / "svg").iterdir()) and len(svgs) == 5
        for name in svgs:
            assert (one / "svg" / name).read_bytes() == (three / "svg" / name).read_bytes()
        # frame-201's dummy task finished after its gpt task, and still supplied its bundle
        marker_count = (three / "svg" / "frame-201.svg").read_text().count("<circle")
        assert marker_count < (three / "svg" / "frame-200.svg").read_text().count("<circle")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RUSAGE_THREAD is Linux-only")
    def test_the_cells_stage_wakes_the_calling_thread_a_few_times(self, tmp_path, monkeypatch):
        """One wait on all 15 tasks (60 cells) of the default surfaces
        suite: reading each result as it finished woke the calling thread
        once per result."""
        import resource

        switches = []
        stage = cli._stage

        @contextlib.contextmanager
        def counted(timings, name):
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
            with stage(timings, name):
                yield
            if name == "cells":
                switches.append(resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw - before)

        monkeypatch.setattr(cli, "_stage", counted)
        monkeypatch.setenv("POLTRANS_THREADS", "1")
        tasks = suite_tasks("surfaces", cli.METHODS, 3)
        cells = [(task, method) for task in tasks for method in task.methods]
        assert len(cells) == 60
        assert cli._run_bench("surfaces", tasks, 0.05, tmp_path / "bench") == 0
        assert len(switches) == 1 and switches[0] < len(cells) // 4

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

    def test_the_fold_warning_names_the_method_that_reported(self, tmp_path, monkeypatch, capsys):
        """The warning used to say "gpt" whatever method returned the report entry."""

        def folding(scene):
            return scene.demonstration, None, {"det_positive_pct": 50.0}

        monkeypatch.setitem(cli.METHOD_TABLE, "folding", cli.Method("#123456", 5, folding))
        tasks = suite_tasks("surfaces", ("folding",), 1, "--n-keypoints", 7)
        assert cli._run_bench("surfaces", tasks, 0.05, tmp_path / "bench") == 0
        scenes = sorted({task.scenario.name for task in tasks})
        assert json.loads((tmp_path / "bench" / "report.json").read_text()) == {
            scene: {"det_positive_pct": 50.0} for scene in scenes
        }
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {scene}: folding det(J) > 0 on only 50.0% of the demonstration" for scene in scenes
        ]

    def test_ranking_error_comes_last_and_names_the_method(self, tmp_path, monkeypatch, capsys):
        real = cli.METHOD_TABLE["le"].run
        le_calls = []

        def one_le_failure(*args):
            le_calls.append(1)
            if len(le_calls) == 1:
                raise RuntimeError("forced failure")
            return real(*args)

        monkeypatch.setenv("POLTRANS_THREADS", "1")
        _replace_run(monkeypatch, "le", one_le_failure)
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
        tasks = suite_tasks("frames", ("gpt",), 3, "--train-seeds", 2)
        assert sorted(drawn) == sorted(task.scenario.name for task in tasks)
        for task in tasks:
            demo, reference, keypoints = drawn[task.scenario.name]
            assert np.array_equal(demo.positions, task.demonstration.positions)
            assert not np.array_equal(demo.positions, task.scenario.demonstration.positions)
            assert np.array_equal(reference.positions, task.scenario.reference.positions)
            assert keypoints.to_dict() == task.keypoints.to_dict()

    def test_the_first_method_of_a_frames_call_supplies_its_keypoints_to_the_svg(self, tmp_path):
        """A frame scene's tasks run in the order of the first --methods
        entry that pairs on each keypoint count, so the first method's task
        supplies the keypoints drawn: gpt's five per frame or le's two."""
        for methods, markers in (("gpt,le", 20), ("le,gpt", 8)):
            out = tmp_path / methods
            flags = ("--suite", "frames", "--seeds", 3, "--train-seeds", 1, "--methods", methods)
            assert run("bench", *flags, "--out-dir", out) == 0
            svgs = sorted((out / "svg").iterdir())
            assert len(svgs) == 3
            assert [svg.read_text().count("<circle") for svg in svgs] == [markers] * 3

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

    def test_a_repeated_method_is_refused_before_any_file_is_written(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run("bench", "--suite", "surfaces", "--methods", "gpt,le,le", "--out-dir", out) == 2
        assert "method 'le' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_an_empty_method_list_is_refused(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run("bench", "--suite", "surfaces", "--methods", ",", "--out-dir", out) == 2
        assert "argument --methods: needs at least one method id" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [None, 1, 2, 16])
    def test_unset_worker_count_is_one(self, monkeypatch, cpus):
        """Two workers were slower than one on a 2-vCPU host, so the pool
        no longer grows with the CPU count."""
        monkeypatch.delenv("POLTRANS_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._worker_count() == 1
        monkeypatch.setenv("POLTRANS_THREADS", " ")
        assert cli._worker_count() == 1

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


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def _helps(sub: argparse._SubParsersAction, command: str) -> dict:
    """The command's help line and each of its flags' help strings."""
    (line,) = [a.help for a in sub._choices_actions if a.dest == command]
    flags = {"/".join(a.option_strings): a.help for a in sub.choices[command]._actions}
    return {"": line, **flags}


# Argument lists whose exit code, stdout and stderr must not depend on
# whether main builds the full parser or only the named command's: every
# command's help, no command, an unknown or misplaced one, and errors in
# each kind of flag. A usage line listing only the parsed command would
# show in the trailing --bogus case, which argparse reports at the top level.
MESSAGE_ARGVS = [
    *([command, "-h"] for command in CLI_SURFACE),
    [], ["-h"], ["fitt"], ["-h", "fit"], ["--version"],
    ["fit"], ["fit", "--scenario"], ["transport", "--map", "m.json"], ["metrics", "--produced", "x.json"],
    ["bench", "--suite", "surfaces", "--alpha", "2"], ["rank", "--metrics", "m.csv", "--alpha", "nan"],
    ["bench", "--suite", "surfaces", "--seeds", "0"], ["scenario-gen", "--suite", "frames", "--seeds", "0"],
    ["bench", "--suite", "nope"], ["bench", "--suite", "surfaces", "--methods", ","],
    ["fit", "fit"], ["fit", "--scenario", "x", "--bogus"],
]


class TestParsing:
    @pytest.mark.parametrize("command", sorted(CLI_SURFACE))
    def test_subcommand_flags_and_defaults(self, command):
        full = _subparsers(cli.build_parser())
        assert sorted(full.choices) == sorted(CLI_SURFACE)
        own = _subparsers(cli.build_parser(command))
        assert list(own.choices) == [command]
        for sub in (full, own):
            flags = {
                "/".join(action.option_strings): REQUIRED if action.required else action.default
                for action in sub.choices[command]._actions
                if action.dest != "help"
            }
            assert flags == CLI_SURFACE[command]
            assert _helps(sub, command) == _helps(full, command)
            assert _helps(sub, command)[""] == cli.COMMAND_TABLE[command].help
            if command == "bench":
                (methods,) = [a for a in sub.choices[command]._actions if a.dest == "methods"]
                assert f"({', '.join(cli.METHODS)})" in methods.help

    @pytest.mark.parametrize("argv", MESSAGE_ARGVS, ids=lambda argv: " ".join(argv) or "<none>")
    def test_messages_match_the_full_parser(self, argv, monkeypatch, capsys):
        code = main(list(argv))
        produced = capsys.readouterr()
        full_parser = cli.build_parser
        # The oracle: main with the full parser, whatever the command.
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
        assert (code, *produced) == (main(list(argv)), *capsys.readouterr())
        if argv[-1:] == ["--bogus"]:
            assert produced.err.startswith("usage: poltrans [-h] {fit,transport,bench,metrics,rank,scenario-gen} ...\n")

    def test_main_reads_sys_argv_when_argv_is_none(self, monkeypatch, scenario_file, tmp_path, capsys):
        monkeypatch.setattr(sys, "argv", ["poltrans", "fit", "--scenario", str(scenario_file), "--out-dir", str(tmp_path)])
        assert main() == 0
        assert (tmp_path / "map.json").is_file()
        monkeypatch.setattr(sys, "argv", ["poltrans"])
        assert main() == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_a_fit_call_adds_only_fits_own_flags(self, monkeypatch, scenario_file, tmp_path):
        """main builds only the parser of the command it runs: the top
        level's and fit's -h, then fit's two flags, and no other command's."""
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *names, **kwargs):
            added.append(names)
            return add_argument(self, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert run("fit", "--scenario", scenario_file, "--out-dir", tmp_path) == 0
        assert sorted(added) == sorted([("-h", "--help"), ("-h", "--help"), ("--scenario",), ("--out-dir",)])

    def test_unknown_command(self):
        assert run("explode") == 2

    def test_no_command(self):
        assert run() == 2

    def test_missing_required_flag(self):
        assert run("metrics", "--produced", "x.json") == 2


def _perfbench_module(monkeypatch, stem: str, name: str):
    """perfbench/<stem>.py loaded as module ``name``, which leaves
    sys.modules when the test ends."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tracing(monkeypatch):
    """The benchmark's tracer module, loaded from perfbench/tracing.py."""
    return _perfbench_module(monkeypatch, "tracing", "perfbench_tracing")


@pytest.fixture()
def workloads(monkeypatch):
    """The benchmark's workload module, loaded from perfbench/workloads.py
    after the two sibling modules it imports by their bare names."""
    for stem in ("percentiles", "tracing"):
        _perfbench_module(monkeypatch, stem, stem)
    return _perfbench_module(monkeypatch, "workloads", "perfbench_workloads")


def _scipy_loaded_by(*argv) -> set:
    """The ``scipy`` modules, and ``numpy.ma`` and ``fractions`` if loaded, in sys.modules
    after a fresh ``import poltrans.cli`` and, with ``argv``, after
    ``cli.main(argv)`` has also run and returned 0; one process per call."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run_main = f"assert poltrans.cli.main({[str(a) for a in argv]!r}) == 0; " if argv else ""
    code = (
        f"import json, sys, poltrans.cli; {run_main}"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy' or m in ('numpy.ma', 'fractions')]))"
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


def test_cli_import_and_fit_leave_out_fractions(start_up):
    """fractions imports decimal (~2.7 ms on a fresh start); the SVG printer
    settles its half-cent ties in plain integers instead."""
    for command, loaded in start_up.items():
        assert "fractions" not in loaded, command


@pytest.mark.parametrize("suite", ["surfaces", "frames"])
def test_bench_loads_only_the_compiled_scipy_routines(tmp_path, suite):
    """The baselines' linear_sum_assignment and the U tests' ndtr come from
    their extension modules, not from scipy.optimize and scipy.special, no
    np.unique call loads numpy.ma (16-34 ms of CPU on a fresh start), and
    printing the SVGs loads no fractions."""
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


def test_benchmark_checks_pass_on_the_default_surfaces_bench(workloads, tmp_path):
    """The suite_surfaces workload reads report.json's top-level entries and
    expects one row per method in cli.METHODS and scene, 60 in all (5
    profiles x 3 seeds x 4 methods); nesting report.json or adding a
    default surfaces method must fail here rather than only in a benchmark
    run."""
    out = tmp_path / "bench"
    assert run("bench", "--suite", "surfaces", "--out-dir", out) == 0
    problems, facts = workloads.SuiteSurfaces(1).check(0, out)
    assert problems == []
    assert facts["cells_attempted"] == 60


def test_benchmark_tracer_sees_every_call_of_the_suite_table(tracing, tmp_path):
    """The suite table's entries call the package through cli's module
    globals, which the tracer patches; a record holding a package function
    itself would read 0 calls."""
    counted = []
    for argv in (
        ("bench", "--suite", "surfaces", "--seeds", 1, "--methods", "gpt", "--out-dir", tmp_path / "bench"),
        ("scenario-gen", "--suite", "surfaces", "--seeds", 1, "--out-dir", tmp_path / "gen"),
    ):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert run(*argv) == 0
        counted.append(tracing.layer_metrics(tracer))
    bench, gen = counted
    assert bench["scenarios.make_surface_scenario.calls"] == 5
    assert bench["transport.fit_transport.calls"] == 5
    assert gen["scenarios.make_surface_scenario.calls"] == 5


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
