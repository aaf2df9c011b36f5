"""Experiment runner: config parsing, CSV outputs, determinism, errors."""

import csv
import json

import pytest

from ssls.cli import (
    ConfigError,
    compare_methods,
    load_config,
    main,
    run_experiment,
)

FAST_SSLS = {
    "epochs": 4,
    "init_epochs": 6,
    "batch_size": 32,
    "n_temperatures": 3,
    "n_inner": 4,
    "step_size": 0.01,
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "experiment": "linear_gaussian",
        "method": "ssls",
        "ensemble_size": 40,
        "steps": 2,
        "seed": 0,
        "out_dir": str(tmp_path / "out"),
        "ssls": dict(FAST_SSLS),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestLoadConfig:
    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "lorenz96", "method": "apf"}))
        cfg = load_config(path)
        assert cfg.ensemble_size == 500
        assert cfg.steps == 50
        assert cfg.model.forcing == 8.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "experiment": "linear_gaussian",\n  "method" "x"\n}')
        with pytest.raises(ConfigError, match="bad.json:3"):
            load_config(path)

    def test_unknown_field_named(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["ensembel_size"] = 10
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="ensembel_size"):
            load_config(path)

    def test_unknown_experiment_and_method(self, tmp_path):
        path = write_config(tmp_path, experiment="pendulum")
        with pytest.raises(ConfigError, match="pendulum"):
            load_config(path)
        path = write_config(tmp_path, method="ukf")
        with pytest.raises(ConfigError, match="ukf"):
            load_config(path)

    def test_wrong_type_reports_field(self, tmp_path):
        path = write_config(tmp_path, steps="many")
        with pytest.raises(ConfigError, match="steps"):
            load_config(path)

    def test_kalman_requires_linear_gaussian(self, tmp_path):
        path = write_config(tmp_path, experiment="double_well_linear", method="kalman")
        with pytest.raises(ConfigError, match="kalman"):
            load_config(path)

    def test_compare_needs_two_methods(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["method"]
        raw["methods"] = ["ssls"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="at least two"):
            load_config(path, compare=True)


class TestRunExperiment:
    def test_smoke_run_writes_csvs(self, tmp_path):
        path = write_config(tmp_path)
        out = run_experiment(path)
        trajectory = read_rows(out / "trajectory.csv")
        metrics = read_rows(out / "metrics.csv")
        summary = read_rows(out / "summary.csv")
        assert trajectory[0] == ["step", "ref_0", "obs_0", "mean_0", "std_0"]
        assert metrics[0] == ["step", "rmse", "spread", "coverage", "crps"]
        assert len(trajectory) == 3 and len(metrics) == 3  # header + 2 steps
        assert summary[1][0] == "ssls"

    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out = run_experiment(path)
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        out = run_experiment(path)
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert first == second

    def test_floats_round_trip_exactly(self, tmp_path):
        path = write_config(tmp_path, method="enkf")
        out = run_experiment(path)
        rows = read_rows(out / "trajectory.csv")
        for row in rows[1:]:
            for cell in row[1:]:
                assert format(float(cell), ".17g") == cell

    def test_seed_and_out_overrides(self, tmp_path):
        path = write_config(tmp_path, method="apf")
        out_a = run_experiment(path, out=str(tmp_path / "a"))
        out_b = run_experiment(path, seed=123, out=str(tmp_path / "b"))
        assert out_a.name == "a" and out_b.name == "b"
        rows_a = read_rows(out_a / "trajectory.csv")
        rows_b = read_rows(out_b / "trajectory.csv")
        assert rows_a != rows_b  # different seed, different trajectory

    def test_kalman_run_on_linear_gaussian(self, tmp_path):
        path = write_config(tmp_path, method="kalman")
        out = run_experiment(path)
        assert (out / "metrics.csv").exists()

    def test_shifted_prior_field(self, tmp_path):
        path = write_config(tmp_path, method="enkf", ensemble_size=400,
                            model={"init_prior_shift": -10.0})
        out = run_experiment(path)
        rows = read_rows(out / "trajectory.csv")
        y1 = float(rows[1][2])
        mean1 = float(rows[1][3])
        # conjugate update of the shifted prior: (-10/1 + y/0.2) / (1 + 1/0.2)
        assert mean1 == pytest.approx((-10.0 + 5.0 * y1) / 6.0, abs=0.3)


class TestCompareMethods:
    def test_two_methods_three_files(self, tmp_path):
        path = write_config(tmp_path, steps=5)
        raw = json.loads(path.read_text())
        del raw["method"]
        raw["methods"] = ["enkf", "apf"]
        path.write_text(json.dumps(raw))
        out = compare_methods(path)
        files = sorted(f.name for f in out.iterdir())
        assert files == ["comparison.csv", "metrics_apf.csv", "metrics_enkf.csv"]
        joined = read_rows(out / "comparison.csv")
        assert len(joined) == 6  # header + 5 steps
        assert "rmse_enkf" in joined[0] and "rmse_apf" in joined[0]
        assert "mean_0_enkf" in joined[0] and "std_0_apf" in joined[0]

    def test_methods_share_the_reference_run(self, tmp_path):
        path = write_config(tmp_path, steps=4)
        raw = json.loads(path.read_text())
        del raw["method"]
        raw["methods"] = ["enkf", "kalman"]
        path.write_text(json.dumps(raw))
        out = compare_methods(path)
        joined = read_rows(out / "comparison.csv")
        ref_col = joined[0].index("ref_0")
        single = run_experiment(write_config(tmp_path, name="single.json", steps=4,
                                             method="enkf", out_dir=str(tmp_path / "single_out")))
        single_rows = read_rows(single / "trajectory.csv")
        for joined_row, single_row in zip(joined[1:], single_rows[1:]):
            assert joined_row[ref_col] == single_row[1]

    def test_single_method_rejected(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError):
            compare_methods(path)


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, method="enkf")
        assert main(["run", str(path)]) == 0
        assert "wrote results" in capsys.readouterr().out

    def test_config_error_exit_nonzero(self, tmp_path, capsys):
        path = write_config(tmp_path, experiment="double_well_linear", method="kalman")
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_assimilation_error_exit_two(self, tmp_path, capsys):
        ssls = dict(FAST_SSLS, n_temperatures=10, n_inner=20, step_size=5.0, clip_norm=None)
        path = write_config(tmp_path, ensemble_size=50, steps=1, ssls=ssls)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "assimilation failed at step 1:" in err
        assert "Traceback" not in err

    def test_missing_config_exit_nonzero(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_compare_via_main(self, tmp_path):
        path = write_config(tmp_path, steps=3)
        raw = json.loads(path.read_text())
        del raw["method"]
        raw["methods"] = ["enkf", "apf"]
        path.write_text(json.dumps(raw))
        assert main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 0
        assert (tmp_path / "cmp" / "comparison.csv").exists()
