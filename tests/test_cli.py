"""Experiment runner: config parsing, CSV outputs, determinism, errors."""

import contextlib
import csv
import functools
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssls import cli
from ssls.cli import (
    ConfigError,
    compare_methods,
    load_config,
    main,
    run_experiment,
)
from ssls.models import make_double_well, make_linear_gaussian, make_lorenz96
from ssls.sampler import AnnealPlan, make_schedule
from ssls.score_net import TrainConfig

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

FAST_SSLS = {
    "epochs": 4,
    "init_epochs": 6,
    "batch_size": 32,
    "n_temperatures": 3,
    "n_inner": 4,
    "step_size": 0.01,
}

# SSLS settings whose first Langevin update diverges.
UNSTABLE_SSLS = dict(FAST_SSLS, n_temperatures=10, n_inner=20, step_size=5.0)


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
        assert cfg.ssls.ensemble_size == 500
        assert cfg.steps == 50
        assert_same_model(cfg.model, make_lorenz96())

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
        path = write_config(tmp_path, ensemble_size=50, steps=1, ssls=UNSTABLE_SSLS)
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


def write_compare_config(tmp_path, methods, **overrides):
    path = write_config(tmp_path, **overrides)
    raw = json.loads(path.read_text())
    del raw["method"]
    raw["methods"] = methods
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def started(monkeypatch):
    """The worker processes started while the test runs."""
    processes = []
    start = multiprocessing.process.BaseProcess.start

    def spy(process):
        processes.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", spy)
    return processes


def no_fork(monkeypatch):
    """Report ``fork`` as unavailable, as on Windows."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])


def csv_bytes(out_dir):
    return {f.name: f.read_bytes() for f in sorted(Path(out_dir).glob("*.csv"))}


class TestCompareWorkers:
    """``compare`` runs each method after the first in a forked worker."""

    def test_worker_failure_reported_as_in_sequence(self, tmp_path, capsys, monkeypatch, started):
        path = write_compare_config(tmp_path, ["kalman", "ssls"], ensemble_size=50, steps=1,
                                    ssls=UNSTABLE_SSLS)
        assert main(["compare", str(path)]) == 2
        forked = capsys.readouterr().err
        assert [p.exitcode for p in started] == [0]
        assert multiprocessing.active_children() == []
        assert csv_bytes(tmp_path / "out") == {}

        no_fork(monkeypatch)
        assert main(["compare", str(path)]) == 2
        assert capsys.readouterr().err == forked
        assert forked.startswith("assimilation failed at step 1:")
        assert len(started) == 1

    def test_failure_here_terminates_the_workers(self, tmp_path, capsys, monkeypatch, started):
        run_method, here = cli.run_method, os.getpid()

        def slow_enkf(method, *args):
            if method == "enkf" and os.getpid() != here:
                time.sleep(60)
            return run_method(method, *args)

        monkeypatch.setattr(cli, "run_method", slow_enkf)
        path = write_compare_config(tmp_path, ["ssls", "enkf"], ensemble_size=50, steps=1,
                                    ssls=UNSTABLE_SSLS)
        assert main(["compare", str(path)]) == 2
        assert "assimilation failed at step 1:" in capsys.readouterr().err
        assert [p.exitcode for p in started] == [-signal.SIGTERM]
        assert multiprocessing.active_children() == []
        assert csv_bytes(tmp_path / "out") == {}

    def test_worker_that_exits_without_records_is_named(self, tmp_path, monkeypatch, started):
        run_method, here = cli.run_method, os.getpid()

        def dying_apf(method, *args):
            if method == "apf" and os.getpid() != here:
                os._exit(3)
            return run_method(method, *args)

        monkeypatch.setattr(cli, "run_method", dying_apf)
        path = write_compare_config(tmp_path, ["kalman", "enkf", "apf"])
        with pytest.raises(RuntimeError, match="'apf' exited with code 3"):
            compare_methods(path)
        assert sorted(p.exitcode for p in started) == [0, 3]
        assert multiprocessing.active_children() == []
        assert csv_bytes(tmp_path / "out") == {}

    def test_unflushed_text_is_printed_once(self, tmp_path):
        path = write_compare_config(tmp_path, ["kalman", "enkf", "apf"])
        code = (
            "import sys\n"
            "from ssls.cli import main\n"
            "sys.stdout.write('out before compare; ')\n"
            "sys.stderr.write('err before compare')\n"
            f"sys.exit(main(['compare', {str(path)!r}]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"out before compare; wrote results to {tmp_path / 'out'}\n"
        assert result.stderr == "err before compare"

    def test_without_fork_the_same_csv_bytes(self, tmp_path, monkeypatch, started):
        path = write_compare_config(tmp_path, ["kalman", "enkf", "apf"], steps=5)
        forked = csv_bytes(compare_methods(path, out=str(tmp_path / "forked")))
        assert len(started) == 2
        no_fork(monkeypatch)
        sequential = csv_bytes(compare_methods(path, out=str(tmp_path / "sequential")))
        assert len(started) == 2
        assert sorted(forked) == ["comparison.csv", "metrics_apf.csv", "metrics_enkf.csv",
                                  "metrics_kalman.csv"]
        assert forked == sequential

    def test_run_starts_no_worker(self, tmp_path, started):
        run_experiment(write_config(tmp_path, method="enkf"))
        assert started == []


# Each experiment's model factory, called as the config's `model` section
# would call it.
FACTORIES = {
    "linear_gaussian": make_linear_gaussian,
    "double_well_linear": functools.partial(make_double_well, measurement="linear"),
    "double_well_nonlinear": functools.partial(make_double_well, measurement="nonlinear"),
    "lorenz96": make_lorenz96,
}


def factory_model(experiment, init_prior_shift=0.0, **kwargs):
    """The experiment's factory model with its guess prior moved by the shift."""
    model = FACTORIES[experiment](**kwargs)
    base = model.initial_prior_sampler
    return model.replace(initial_prior_sampler=lambda rng, n: base(rng, n) + init_prior_shift)


def assert_same_model(got, want):
    """``got`` gives ``want``'s outputs bit for bit on fixed inputs and seeds.

    Overflow is allowed: a Lorenz-96 spin-up with ``dt=2`` diverges.
    """
    assert (got.state_dim, got.obs_dim, got.obs_noise_std) == (
        want.state_dim, want.obs_dim, want.obs_noise_std)
    x = np.linspace(-1.5, 1.5, 6 * want.state_dim).reshape(6, -1)
    y = x[::-1] + 0.25
    pairs = {
        "dynamics": [m.dynamics(x, x) for m in (got, want)],
        "log_likelihood_grad": [m.log_likelihood_grad(x, y) for m in (got, want)],
    }
    for sampler in ("dynamics_noise_sampler", "initial_prior_sampler", "reference_initial_sampler"):
        with np.errstate(over="ignore", invalid="ignore"):
            pairs[sampler] = [getattr(m, sampler)(np.random.default_rng(0), 3) for m in (got, want)]
    for name, (a, b) in pairs.items():
        assert np.array_equal(a, b, equal_nan=True), name


def ssls_settings(ssls):
    """What each `ssls` config field set in a built ``SslsConfig``."""
    train, plan = ssls.train, ssls.plan
    return {
        "smoothing": train.smoothing, "epochs": train.epochs, "batch_size": train.batch_size,
        "learning_rate": train.learning_rate, "n_temperatures": plan.num_temperatures,
        "n_inner": plan.n_inner, "step_size": plan.step_size, "init_epochs": ssls.init_epochs,
    }


# Every field that each experiment takes, with a value of its kind, wrong-kind
# values, and whether it may be null.
_SHIFT = (-3.0, ["x", True], False)
_DOUBLE_WELL = {
    "beta": (0.4, ["x", True], False),
    "dt": (0.02, ["x", True], False),
    "obs_noise_std": (0.3, ["x", False], True),
    "init_prior_shift": _SHIFT,
}
_SSLS_CASES = {
    "smoothing": (0.2, ["x", True], False),
    "epochs": (7, ["x", 7.5, True], False),
    "init_epochs": (9, ["x", 9.5, True], True),
    "batch_size": (16, ["x", 16.0, True], False),
    "learning_rate": (0.002, ["x", True], False),
    "n_temperatures": (3, ["x", 3.5, True], False),
    "n_inner": (5, ["x", 5.5, True], False),
    "step_size": (0.02, ["x", True], False),
}
FIELD_CASES = {
    "linear_gaussian": {"model": {"init_prior_shift": _SHIFT}, "ssls": _SSLS_CASES},
    "double_well_linear": {"model": _DOUBLE_WELL, "ssls": _SSLS_CASES},
    "double_well_nonlinear": {
        "model": dict(_DOUBLE_WELL, gamma=(0.5, ["x", True], False)), "ssls": _SSLS_CASES,
    },
    "lorenz96": {
        "model": {
            "dim": (8, ["x", 8.5, True], False),
            "forcing": (6.0, ["x", True], False),
            "dt": (0.02, ["x", True], False),
            "process_noise_std": (0.2, ["x", True], False),
            "obs_noise_std": (0.3, ["x", False], False),
            "init_prior_shift": _SHIFT,
        },
        "ssls": _SSLS_CASES,
    },
}


def _parameters(f):
    return set(inspect.signature(f).parameters)


def test_field_cases_cover_every_field():
    """Each experiment takes the arguments of its factory, less those the
    config does not expose, and the `ssls` section the settable parameters
    of TrainConfig, make_schedule, AnnealPlan and SslsConfig."""
    hidden = {"measurement", "spinup_steps"}
    ssls = (_parameters(TrainConfig) - {"hidden"}) | (_parameters(AnnealPlan) - {"betas"})
    for experiment, factory in FACTORIES.items():
        fields = _parameters(factory) - hidden | {"init_prior_shift"}
        if experiment == "double_well_linear":
            fields.remove("gamma")  # the offset of the exponential measurement
        assert set(FIELD_CASES[experiment]["model"]) == fields
        assert set(FIELD_CASES[experiment]["ssls"]) == ssls | {"n_temperatures", "init_epochs"}


def _check_field(section, name, value, experiment, cfg):
    if section == "ssls":
        got = ssls_settings(cfg.ssls)[name]
        assert got == value and type(got) is type(value)
    else:
        assert_same_model(cfg.model, factory_model(experiment, **{name: value}))


@pytest.mark.parametrize(
    "section,name",
    sorted({(section, name) for cases in FIELD_CASES.values()
            for section, fields in cases.items() for name in fields}),
)
def test_each_field_checks_its_kind(tmp_path, section, name):
    takers = [e for e, cases in FIELD_CASES.items() if name in cases[section]]
    for experiment in takers:
        good, wrong, nullable = FIELD_CASES[experiment][section][name]

        def config(value):
            return write_config(tmp_path, experiment=experiment, method="enkf",
                                **{section: {name: value}})

        _check_field(section, name, good, experiment, load_config(config(good)))
        if isinstance(good, float):  # an integer is a valid real number
            _check_field(section, name, 2.0, experiment, load_config(config(2)))
        for value in wrong:
            with pytest.raises(ConfigError, match=f"^'{section}': {name} must be "):
                load_config(config(value))
        if nullable:
            _check_field(section, name, None, experiment, load_config(config(None)))
        else:
            with pytest.raises(ConfigError, match=f"^'{section}': {name} must be "):
                load_config(config(None))


@pytest.mark.parametrize("experiment", sorted(FIELD_CASES))
def test_each_experiment_rejects_the_model_fields_it_does_not_use(tmp_path, experiment):
    good = {name: case[0] for cases in FIELD_CASES.values()
            for name, case in cases["model"].items()}
    unused = sorted(set(good) - set(FIELD_CASES[experiment]["model"]))
    assert unused
    for name in unused:
        path = write_config(tmp_path, experiment=experiment, method="enkf",
                            model={name: good[name]})
        with pytest.raises(ConfigError, match=f"'model': unknown field.*'{name}'"):
            load_config(path)


def test_store_ensembles_is_not_a_config_field(tmp_path):
    path = write_config(tmp_path, ssls=dict(FAST_SSLS, store_ensembles=True))
    with pytest.raises(ConfigError, match="store_ensembles"):
        load_config(path)


# Values of the right kind that the model factory, TrainConfig, AnnealPlan,
# make_schedule or SslsConfig rejects (the infinite dt is JSON `Infinity`).
OUT_OF_RANGE = [
    ("linear_gaussian", "ssls", "step_size", -1),
    ("linear_gaussian", "ssls", "n_temperatures", 0),
    ("linear_gaussian", "ssls", "epochs", 0),
    ("linear_gaussian", "ssls", "batch_size", 0),
    ("linear_gaussian", "ssls", "smoothing", 0),
    ("linear_gaussian", "ssls", "init_epochs", 0),
    ("linear_gaussian", "ssls", "learning_rate", -1),
    ("double_well_linear", "model", "dt", -1),
    ("double_well_linear", "model", "dt", float("inf")),
    ("lorenz96", "model", "dim", 3),
    ("lorenz96", "model", "obs_noise_std", 0),
    ("double_well_nonlinear", "model", "beta", 0),
]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("experiment,section,name,value", OUT_OF_RANGE)
def test_out_of_range_value_exits_1_before_any_simulation(
    tmp_path, capsys, monkeypatch, command, experiment, section, name, value
):
    simulated = []
    monkeypatch.setattr(cli, "simulate_reference", lambda *args, **kw: simulated.append(args))
    fields = {section: dict(FAST_SSLS, **{name: value}) if section == "ssls" else {name: value}}
    path = write_config(tmp_path, experiment=experiment, **fields)
    if command == "compare":  # SSLS after a method that would run first
        raw = json.loads(path.read_text())
        del raw["method"]
        raw["methods"] = ["enkf", "ssls"]
        path.write_text(json.dumps(raw))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert simulated == []
    assert list(tmp_path.rglob("*.csv")) == []


class _Loaded(Exception):
    """Raised in place of the reference run: the config loaded."""


def _stop_after_loading(*args, **kwargs):
    raise _Loaded


# Where each experiment's fields go: the top level, or a section.
_FIELD_SLOTS = sorted(
    [(e, None, n) for e in FIELD_CASES
     for n in ("ensemble_size", "steps", "seed", "mutation_period", "out_dir")]
    + [(e, section, n) for e, cases in FIELD_CASES.items()
       for section, fields in cases.items() for n in fields],
    key=str,
)
_JSON_VALUES = st.one_of(
    st.integers(-3, 64),
    st.integers(2**1024, 2**1400),  # beyond the float range
    st.integers(-(2**1400), -(2**1024)),
    st.floats(),  # json.dumps writes NaN and Infinity, which json.loads reads back
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(slot=st.sampled_from(_FIELD_SLOTS), value=_JSON_VALUES)
@example(slot=("double_well_nonlinear", "model", "obs_noise_std"), value=1.3407807929942597e154)
def test_any_json_value_of_a_field_loads_or_exits_1(slot, value):
    """Counts are drawn small: a large ``n_temperatures`` is allocated when
    the config loads."""
    experiment, section, name = slot
    raw = {"experiment": experiment, "method": "enkf"}
    raw.update({name: value} if section is None else {section: {name: value}})
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "simulate_reference", _stop_after_loading)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        try:
            with contextlib.redirect_stderr(err):
                status = main(["run", str(path)])
        except _Loaded:
            return
    assert status == 1
    assert err.getvalue().startswith("config error: ") and "Traceback" not in err.getvalue()


def test_count_beyond_int64_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, method="ssls", ssls=dict(FAST_SSLS, n_temperatures=2**63))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: 'ssls': n_temperatures must be at most {2**63 - 1}" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_negative_seed_exits_1(tmp_path, capsys):
    assert main(["run", str(write_config(tmp_path, method="enkf", seed=-1))]) == 1
    assert "config error: top level: seed must be at least 0" in capsys.readouterr().err
    path = write_config(tmp_path, method="enkf")
    assert main(["run", str(path), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error: top level: seed must be at least 0" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert main(["run", str(path), "--seed", "5"]) == 0


@pytest.mark.parametrize("seed", [True, 1.5, "7"])
@pytest.mark.parametrize("runner", [run_experiment, compare_methods])
def test_seed_argument_must_be_an_integer(tmp_path, monkeypatch, runner, seed):
    """``ExperimentConfig`` checks the seed argument: ``True`` does not run as 1."""
    simulated = []
    monkeypatch.setattr(cli, "simulate_reference", lambda *args, **kw: simulated.append(args))
    if runner is compare_methods:
        path = write_compare_config(tmp_path, ["enkf", "apf"])
    else:
        path = write_config(tmp_path, method="enkf")
    with pytest.raises(ConfigError, match="^top level: seed must be an integer, got "):
        runner(path, seed=seed)
    assert simulated == []


_ALLOCATION_FAILED = MemoryError("Unable to allocate 8.00 TiB for an array")


def _fail_allocation(*args, **kwargs):
    raise _ALLOCATION_FAILED


@pytest.mark.parametrize("where", ["model factory", "reference run"])
def test_count_too_large_to_allocate_exits_1(tmp_path, capsys, monkeypatch, where):
    """NumPy raises ``MemoryError`` for an array too large to allocate; it is
    raised here by a patch, since a real one would be attempted."""
    if where == "reference run":
        monkeypatch.setattr(cli, "simulate_reference", _fail_allocation)
        section = "top level"
    else:
        monkeypatch.setitem(cli._MODELS, "linear_gaussian", (_fail_allocation, ()))
        section = "'model'"
    assert main(["run", str(write_config(tmp_path, method="enkf"))]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {section}: {_ALLOCATION_FAILED}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_diverging_reference_run_exits_1_before_the_output_directory(tmp_path, capsys, command):
    # A Lorenz-96 step of dt=2 overflows in the spin-up of the initial state.
    path = write_config(tmp_path, experiment="lorenz96", method="enkf", model={"dt": 2})
    if command == "compare":
        raw = json.loads(path.read_text())
        del raw["method"]
        raw["methods"] = ["enkf", "apf"]
        path.write_text(json.dumps(raw))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error: the reference run diverges: step 1: state is not finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_diverging_reference_run_names_the_first_bad_step(tmp_path, capsys, monkeypatch):
    real = cli.simulate_reference

    def diverging(*args, **kwargs):
        run = real(*args, **kwargs)
        run.observations[2:] = np.inf
        return run

    monkeypatch.setattr(cli, "simulate_reference", diverging)
    path = write_config(tmp_path, method="enkf", steps=4)
    assert main(["run", str(path)]) == 1
    assert "step 3: observation is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_LG = {"experiment": "linear_gaussian"}
# Config files that load_config rejects before any simulation, with the error.
INVALID_CONFIGS = {
    "duplicate-methods": ("compare", dict(_LG, methods=["enkf", "enkf"]),
                          "field 'methods': duplicate method names"),
    "zero-steps": ("run", dict(_LG, method="enkf", steps=0),
                   "top level: steps must be at least 1"),
    "zero-mutation-period": ("run", dict(_LG, method="enkf", mutation_period=0),
                             "top level: mutation_period must be at least 1"),
    "model-not-an-object": ("run", dict(_LG, method="enkf", model=[1]),
                            "field 'model': must be an object"),
    "top-level-not-an-object": ("run", [1, 2], "top level must be a JSON object"),
    "missing-experiment": ("run", {"method": "enkf"}, "field 'experiment' is required"),
    "run-given-methods": ("run", dict(_LG, methods=["enkf", "apf"]),
                          "field 'method': run takes a single method"),
    "run-given-method-and-methods": ("run", dict(_LG, method="enkf", methods=["kalman", "apf"]),
                                     "field 'method': run takes a single method"),
    "compare-given-method-and-methods": (
        "compare", dict(_LG, method="apf", methods=["kalman", "enkf"]),
        "field 'method': compare takes a methods list"),
    "missing-method": ("run", _LG, "field 'method' is required"),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_config_exits_1_before_any_simulation(tmp_path, capsys, monkeypatch, case):
    command, raw, message = INVALID_CONFIGS[case]
    simulated = []
    monkeypatch.setattr(cli, "simulate_reference", lambda *args, **kw: simulated.append(args))
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err
    assert simulated == []
    assert list(tmp_path.iterdir()) == [path]


def test_cli_docstring_names_every_config_field():
    """The schema in the ``ssls.cli`` docstring, the one copy of it written
    by hand, names exactly the fields that load_config accepts."""
    doc = cli.__doc__
    schema = doc[doc.index("Config schema"):doc.index("The ``model`` section")]
    ssls_start = schema.index('"ssls": {')
    ssls_end = schema.index("}", ssls_start)
    top = _parameters(cli.ExperimentConfig) | {"method", "ensemble_size"}
    assert set(re.findall(r'^      "(\w+)":', schema, re.M)) == top
    ssls = re.findall(r'"(\w+)":', schema[ssls_start + len('"ssls":'):ssls_end])
    assert set(ssls) == set(_SSLS_CASES)

    table = doc[doc.index("guess prior of the ensemble methods::"):]
    table = table.split("\n\n")[1]
    model_fields = {}
    for line in table.splitlines():
        names = re.findall(r"\w+", line)
        if not line.startswith(" " * 5):  # a new experiment's row
            experiment, names = names[0], names[1:]
        model_fields.setdefault(experiment, set()).update(names)
    assert model_fields == {e: set(cases["model"]) for e, cases in FIELD_CASES.items()}


@pytest.mark.parametrize("value", ["x", 2.5, True, None, 1])
def test_ensemble_size_is_checked_at_the_top_level(tmp_path, value):
    with pytest.raises(ConfigError, match="ensemble_size"):
        load_config(write_config(tmp_path, method="enkf", ensemble_size=value))


@pytest.mark.parametrize("value", [None, 5, True])
def test_out_dir_must_be_a_string(tmp_path, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, method="enkf", out_dir=value)
    with pytest.raises(ConfigError, match="^top level: out_dir must be a string, got "):
        load_config(path)


# What each file in demos/configs/ loads to, recorded before the config
# sections built the library's objects: the top-level fields, the arguments
# of the experiment's factory, and the `ssls` settings.
_SSLS = {
    "smoothing": 0.1, "epochs": 60, "init_epochs": 250, "batch_size": 128,
    "learning_rate": 0.001, "n_temperatures": 10, "n_inner": 20,
    "step_size": 0.01,
}
_DW_MODEL = {"beta": 0.3, "dt": 0.1, "init_prior_shift": 0.0}
DEMO_EXPECTED = {
    "compare_linear_gaussian.json": {
        "experiment": "linear_gaussian", "methods": ["ssls", "kalman", "enkf", "apf"],
        "ensemble_size": 500, "steps": 10, "seed": 7,
        "out_dir": "results/compare_linear_gaussian", "mutation_period": None,
        "model": {"init_prior_shift": 0.0}, "ssls": _SSLS,
    },
    "double_well_linear.json": {
        "experiment": "double_well_linear", "methods": ["ssls", "apf", "enkf"],
        "ensemble_size": 500, "steps": 100, "seed": 3,
        "out_dir": "results/double_well_linear", "mutation_period": 20,
        "model": dict(_DW_MODEL, obs_noise_std=0.1),
        "ssls": dict(_SSLS, step_size=0.005),
    },
    "double_well_nonlinear.json": {
        "experiment": "double_well_nonlinear", "methods": ["ssls", "apf", "enkf"],
        "ensemble_size": 500, "steps": 100, "seed": 3,
        "out_dir": "results/double_well_nonlinear", "mutation_period": 20,
        "model": dict(_DW_MODEL, obs_noise_std=0.2, gamma=0.6),
        "ssls": dict(_SSLS, step_size=0.005),
    },
    "linear_gaussian.json": {
        "experiment": "linear_gaussian", "methods": ["ssls"],
        "ensemble_size": 500, "steps": 10, "seed": 7,
        "out_dir": "results/linear_gaussian", "mutation_period": None,
        "model": {"init_prior_shift": 0.0}, "ssls": _SSLS,
    },
    "lorenz96.json": {
        "experiment": "lorenz96", "methods": ["ssls"],
        "ensemble_size": 500, "steps": 50, "seed": 1,
        "out_dir": "results/lorenz96", "mutation_period": None,
        "model": {"dim": 20, "forcing": 8.0, "dt": 0.05, "obs_noise_std": 0.5,
                  "process_noise_std": 0.31622776601683794, "init_prior_shift": 0.0},
        "ssls": dict(_SSLS, epochs=50, batch_size=100),
    },
    "shifted_prior.json": {
        "experiment": "linear_gaussian", "methods": ["ssls"],
        "ensemble_size": 500, "steps": 10, "seed": 7,
        "out_dir": "results/shifted_prior", "mutation_period": None,
        "model": {"init_prior_shift": -10.0}, "ssls": _SSLS,
    },
}


def test_demo_configs_are_all_recorded():
    assert sorted(p.name for p in DEMO_CONFIGS.glob("*.json")) == sorted(DEMO_EXPECTED)


@pytest.mark.parametrize("name", sorted(DEMO_EXPECTED))
def test_demo_config_loads_as_recorded(name):
    path = DEMO_CONFIGS / name
    cfg = load_config(path, compare="methods" in json.loads(path.read_text()))
    expected = dict(DEMO_EXPECTED[name])
    model_args, ssls = expected.pop("model"), expected.pop("ssls")
    size = expected.pop("ensemble_size")
    assert {key: getattr(cfg, key) for key in expected} == expected
    assert_same_model(cfg.model, factory_model(cfg.experiment, **model_args))
    assert ssls_settings(cfg.ssls) == ssls
    assert np.array_equal(cfg.ssls.plan.betas, make_schedule(ssls["n_temperatures"]))
    assert (cfg.ssls.ensemble_size, cfg.ssls.train.hidden, cfg.ssls.store_ensembles) == (
        size, (64, 64), False)


# SHA-1s of the CSVs that each demo config writes when shortened to 2 steps
# and 40 particles.  The Kalman, EnKF and APF files were recorded before the
# config sections built the library's objects; the SSLS files and columns,
# with the tanh (64, 64) score network.  The network computes in float32, so
# a NumPy build with other BLAS kernels may round differently.
DEMO_CSV_SHA1 = {
    "compare_linear_gaussian.json": {
        "comparison.csv": "e81a8e59a9418f27671c69c547efe189186bfb84",
        "metrics_apf.csv": "6d5758c5cb8188511bcd5fbee2697b878da04ec5",
        "metrics_enkf.csv": "4d932c15e8bba60ef2123574c6fc945e4bb42126",
        "metrics_kalman.csv": "3f3b8151bb0c812140622f55cbab644e6e0edb71",
        "metrics_ssls.csv": "0a195db3c8328a9032c92e68536bd19cd0c5cb49",
    },
    "double_well_linear.json": {
        "comparison.csv": "c2d14042d775226c2ddb06daa3241662e852e546",
        "metrics_apf.csv": "d94f4a720e6e3fa7d4ef00b8e60ada7f7314f413",
        "metrics_enkf.csv": "a3865995cb82915790a4b94d43f0713bc9e189a8",
        "metrics_ssls.csv": "8b3451c39133834c45d6288367326c4e995bcee7",
    },
    "double_well_nonlinear.json": {
        "comparison.csv": "24324447d47d6bf83cbcd5710a5b65d8e000ef2c",
        "metrics_apf.csv": "c44cecb5114846c34f101d333fc41fbbca457074",
        "metrics_enkf.csv": "a5c394a8f418dd87599a5e451103514f101c9675",
        "metrics_ssls.csv": "17c4e236a459dcaaa1ef1ef18a107bcb62576057",
    },
    "linear_gaussian.json": {
        "metrics.csv": "0a195db3c8328a9032c92e68536bd19cd0c5cb49",
        "summary.csv": "1cd96e17c95a0238da2ad395337d6d33e3efac81",
        "trajectory.csv": "fee65a049b40727077e093ebe57ce07920ddc5ac",
    },
    "lorenz96.json": {
        "metrics.csv": "a170d8527fb165015b36ff2ff90902950a0ff50a",
        "summary.csv": "f71bf71455bc822d59a8ddecd46fed5bdd3c5ef8",
        "trajectory.csv": "6e57db06516bb2584e6310fe13e5832543592401",
    },
    "shifted_prior.json": {
        "metrics.csv": "d9ca62a840103a1320efc41e7ddcb1922a5d045b",
        "summary.csv": "28b75997d1fc2948ef106e00691771bd639e4a63",
        "trajectory.csv": "c9e3fc51a4d3e77c899e688de57db35b6b44055d",
    },
}


# The same for a compare of EnKF and APF on the lorenz96 demo config, whose
# tables have 20 columns per group, recorded before every per-step table
# came from one writer.
L96_COMPARE_SHA1 = {
    "comparison.csv": "3868c770bd601a695954a996f70c279d18febc8e",
    "metrics_apf.csv": "21a2ff27fc3b17b605a0b343e4e02656c7c34115",
    "metrics_enkf.csv": "ddccc2ef563ca4cd7c784ca66ce5fde7a0aa314e",
}


@pytest.mark.parametrize("name", sorted(DEMO_CSV_SHA1))
def test_shortened_demo_config_writes_recorded_csvs(tmp_path, name):
    raw = json.loads((DEMO_CONFIGS / name).read_text())
    raw.update(steps=2, ensemble_size=40, out_dir=str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    assert main(["compare" if "methods" in raw else "run", str(path)]) == 0
    written = {f.name: hashlib.sha1(f.read_bytes()).hexdigest()
               for f in (tmp_path / "out").iterdir()}
    assert written == DEMO_CSV_SHA1[name]


def test_shortened_lorenz96_compare_writes_recorded_csvs(tmp_path):
    raw = json.loads((DEMO_CONFIGS / "lorenz96.json").read_text())
    del raw["method"]
    raw.update(methods=["enkf", "apf"], steps=2, ensemble_size=40, out_dir=str(tmp_path / "out"))
    path = tmp_path / "lorenz96.json"
    path.write_text(json.dumps(raw))
    assert main(["compare", str(path)]) == 0
    written = {f.name: hashlib.sha1(f.read_bytes()).hexdigest()
               for f in (tmp_path / "out").iterdir()}
    assert written == L96_COMPARE_SHA1


# 300-step linear-Gaussian tables at n=20, recorded before the CLI wrote
# per-method tables of arrays.  Past 8 values NumPy's pairwise sum and a
# sequential sum can round differently, so these pins also fix the order in
# which summary.csv's time averages are summed.
LONG_RUN_SHA1 = {
    "run": {
        "metrics.csv": "b4b62766ed152269334ab162b418eafb9b57c761",
        "summary.csv": "35c303fedfe1a832427ce1b5c8986e9d142a49f0",
        "trajectory.csv": "56feb343cb88a7bb4ffa9fa0b422c9e640bb9bf9",
    },
    "compare": {
        "comparison.csv": "f73f134e1c4909d269475721496387a48715b7de",
        "metrics_enkf.csv": "74f9123fce506c90d77b0832e45dfcdfe9d05e6c",
        "metrics_kalman.csv": "fb0d9f96c3686e0556fbb6f47b2d2d7ccbc332d3",
    },
}


@pytest.mark.parametrize("command, methods", [("run", {"method": "enkf"}),
                                              ("compare", {"methods": ["kalman", "enkf"]})])
def test_long_linear_gaussian_run_writes_recorded_csvs(tmp_path, command, methods):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "linear_gaussian", "ensemble_size": 20,
                                "steps": 300, "seed": 5, "out_dir": str(tmp_path / "out"),
                                **methods}))
    assert main([command, str(path)]) == 0
    written = {f.name: hashlib.sha1(f.read_bytes()).hexdigest()
               for f in (tmp_path / "out").iterdir()}
    assert written == LONG_RUN_SHA1[command]
