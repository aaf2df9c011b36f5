"""Experiment runner with a JSON config file and CSV outputs.

Two commands are exposed::

    ssls run <config.json> [--seed N] [--out DIR]
    ssls compare <config.json> [--seed N] [--out DIR]

``run`` executes one filtering method on one experiment and writes
``trajectory.csv`` (reference, observation, ensemble mean/std per step),
``metrics.csv`` (one row of RMSE/spread/coverage/CRPS per step) and
``summary.csv`` (time-averaged metrics).  ``compare`` runs several methods
against the *same* reference trajectory and writes one ``metrics_<m>.csv``
per method plus a joined ``comparison.csv`` keyed by time step.

Config schema (JSON object; unknown keys are rejected)::

    {
      "experiment": "linear_gaussian" | "double_well_linear"
                  | "double_well_nonlinear" | "lorenz96",
      "method":  "ssls" | "enkf" | "apf" | "kalman",   # run only
      "methods": [ ... ],                               # compare only
      "ensemble_size": int,        # >= 2 for ensemble methods
      "steps": int,
      "seed": int,
      "mutation_period": int|null, # sign flips of the reference state
      "out_dir": str,
      "model": {                   # optional per-experiment parameters
        "beta": float, "dt": float, "obs_noise_std": float,
        "gamma": float, "dim": int, "forcing": float,
        "process_noise_std": float, "init_prior_shift": float
      },
      "ssls": {                    # optional sampler/training parameters
        "smoothing": float, "epochs": int,
        "init_epochs": int,        # epochs of the first, cold-started step
        "batch_size": int, "learning_rate": float, "warm_start": bool,
        "n_temperatures": int, "n_inner": int, "step_size": float,
        "clip_norm": float|null
      }
    }

A ``float`` field also takes an integer; JSON booleans are not numbers.

``method: "kalman"`` is the exact-posterior oracle and is only valid for
the linear-Gaussian experiment; it always uses the true reference prior, so
``init_prior_shift`` affects only the ensemble methods.  Floats in the CSV
files carry 17 significant digits and round-trip exactly.

The exit status is 1 for an invalid config and 2 when a filter run fails
(SSLS, EnKF or APF); the message on standard error names the failing step.
"""

import argparse
import csv
import json
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines
from .assimilator import AssimilationError, AssimilationRecord, SslsConfig, assimilate
from .models import (
    LINEAR_GAUSSIAN,
    ModelSpec,
    ReferenceRun,
    make_double_well,
    make_linear_gaussian,
    make_lorenz96,
    simulate_reference,
)
from .sampler import AnnealPlan, make_schedule
from .score_net import TrainConfig

EXPERIMENTS = ("linear_gaussian", "double_well_linear", "double_well_nonlinear", "lorenz96")
METHODS = ("ssls", "enkf", "apf", "kalman")


class ConfigError(ValueError):
    """A config file is missing, malformed, or violates a constraint."""


@dataclass
class ModelParams:
    """Experiment-specific model parameters with standard benchmark defaults.

    The config file's ``model`` section is parsed by these annotations.
    """

    beta: float = 0.3
    dt: float | None = None
    obs_noise_std: float | None = None
    gamma: float = 0.6
    dim: int = 20
    forcing: float = 8.0
    process_noise_std: float = float(np.sqrt(0.1))
    init_prior_shift: float = 0.0


@dataclass
class SslsParams:
    """Flat view of the SSLS knobs exposed through the config file.

    The config file's ``ssls`` section is parsed by these annotations.
    """

    smoothing: float = 0.1
    epochs: int = 60
    init_epochs: int = 250
    batch_size: int = 128
    learning_rate: float = 1e-3
    warm_start: bool = True
    n_temperatures: int = 10
    n_inner: int = 20
    step_size: float = 0.01
    clip_norm: float | None = 100.0


@dataclass
class ExperimentConfig:
    """A fully validated experiment description."""

    experiment: str
    methods: list[str]
    ensemble_size: int
    steps: int
    seed: int
    out_dir: str
    mutation_period: int | None = None
    model: ModelParams = field(default_factory=ModelParams)
    ssls: SslsParams = field(default_factory=SslsParams)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"field 'experiment': unknown experiment {self.experiment!r}; "
                f"choose one of {EXPERIMENTS}"
            )
        if not self.methods:
            raise ConfigError("field 'method': at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(
                    f"field 'method': unknown method {m!r}; choose one of {METHODS}"
                )
            if m == "kalman" and self.experiment != "linear_gaussian":
                raise ConfigError(
                    "field 'method': 'kalman' is exact only for the "
                    "linear_gaussian experiment"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("field 'methods': duplicate method names")
        if any(m != "kalman" for m in self.methods) and self.ensemble_size < 2:
            raise ConfigError("field 'ensemble_size': ensemble methods need at least 2")
        if self.steps < 1:
            raise ConfigError("field 'steps': must be at least 1")
        if self.mutation_period is not None and self.mutation_period < 1:
            raise ConfigError("field 'mutation_period': must be at least 1")


# Per-experiment defaults, over the dataclass defaults and _TOP_LEVEL_DEFAULTS.
_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "linear_gaussian": {"steps": 10},
    "double_well_linear": {
        "steps": 100,
        "mutation_period": 20,
        "model": {"dt": 0.1, "obs_noise_std": 0.1},
        "ssls": {"step_size": 0.005},
    },
    "double_well_nonlinear": {
        "steps": 100,
        "mutation_period": 20,
        "model": {"dt": 0.1, "obs_noise_std": 0.2},
        "ssls": {"step_size": 0.005},
    },
    "lorenz96": {
        "steps": 50,
        "model": {"dt": 0.05, "obs_noise_std": 0.5},
        "ssls": {"epochs": 50, "batch_size": 100},
    },
}
_TOP_LEVEL_DEFAULTS = {"ensemble_size": 500, "seed": 0, "mutation_period": None}


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _typed(values: dict, cls, where: str) -> dict:
    """``values`` checked against the annotations of ``cls``'s fields.

    A field's annotation gives its kind (``int``, ``float`` or ``bool``) and
    whether it may be ``null`` (``| None``).  A float field also takes an
    integer; JSON booleans are not numbers.  The annotations are read as
    evaluated types, so this module must not postpone their evaluation.
    """
    hints = {f.name: f.type for f in fields(cls)}
    typed = {}
    for key, value in values.items():
        kind, *rest = typing.get_args(hints[key]) or (hints[key],)
        if value is None and type(None) in rest:
            typed[key] = None
            continue
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{where} field {key!r}: expected {kind.__name__}, got {value!r}")
        typed[key] = kind(value)
    return typed


def _section(raw: dict, name: str, cls, defaults: dict):
    """Build ``cls`` from section ``name`` over the experiment's defaults."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"field {name!r}: must be an object")
    _check_keys(section, cls.__dataclass_fields__, f"{name!r}")
    return cls(**_typed({**defaults.get(name, {}), **section}, cls, f"{name!r}"))


def load_config(path, compare: bool = False) -> ExperimentConfig:
    """Parse and validate a JSON config file.

    ``compare=True`` requires a ``methods`` list with at least two entries;
    otherwise a single ``method`` is required.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _check_keys(raw, {*ExperimentConfig.__dataclass_fields__, "method"}, str(path))

    if "experiment" not in raw:
        raise ConfigError("field 'experiment' is required")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"field 'experiment': unknown experiment {experiment!r}; "
            f"choose one of {EXPERIMENTS}"
        )
    defaults = _EXPERIMENT_DEFAULTS[experiment]

    if compare:
        if "methods" not in raw or not isinstance(raw["methods"], list):
            raise ConfigError("field 'methods': compare needs a list of methods")
        methods = [str(m) for m in raw["methods"]]
        if len(methods) < 2:
            raise ConfigError("field 'methods': compare needs at least two methods")
    else:
        if "methods" in raw and "method" not in raw:
            raise ConfigError("field 'method': run takes a single method "
                              "(use the compare command for a methods list)")
        if "method" not in raw:
            raise ConfigError("field 'method' is required")
        methods = [str(raw["method"])]

    top = {**_TOP_LEVEL_DEFAULTS, **defaults, **raw}
    scalars = ("ensemble_size", "steps", "seed", "mutation_period")
    return ExperimentConfig(
        experiment=experiment,
        methods=methods,
        out_dir=str(raw.get("out_dir", "results")),
        model=_section(raw, "model", ModelParams, defaults),
        ssls=_section(raw, "ssls", SslsParams, defaults),
        **_typed({k: top[k] for k in scalars}, ExperimentConfig, "top level"),
    )


def build_model(cfg: ExperimentConfig) -> ModelSpec:
    """Instantiate the configured state-space model."""
    p = cfg.model
    if cfg.experiment == "linear_gaussian":
        return make_linear_gaussian(guess_mean=p.init_prior_shift, guess_std=1.0)
    if cfg.experiment in ("double_well_linear", "double_well_nonlinear"):
        kind = "linear" if cfg.experiment == "double_well_linear" else "nonlinear"
        model = make_double_well(
            beta=p.beta,
            dt=p.dt if p.dt is not None else 0.1,
            measurement=kind,
            obs_noise_std=p.obs_noise_std,
            gamma=p.gamma,
        )
    else:
        model = make_lorenz96(
            dim=p.dim,
            forcing=p.forcing,
            dt=p.dt if p.dt is not None else 0.05,
            process_noise_std=p.process_noise_std,
            obs_noise_std=p.obs_noise_std if p.obs_noise_std is not None else 0.5,
        )
    if p.init_prior_shift != 0.0:
        base = model.initial_prior_sampler
        shift = p.init_prior_shift
        model = model.replace(initial_prior_sampler=lambda rng, n: base(rng, n) + shift)
    return model


def build_ssls_config(cfg: ExperimentConfig, seed: int) -> SslsConfig:
    s = cfg.ssls
    return SslsConfig(
        ensemble_size=cfg.ensemble_size,
        train=TrainConfig(
            smoothing=s.smoothing,
            epochs=s.epochs,
            batch_size=s.batch_size,
            learning_rate=s.learning_rate,
        ),
        plan=AnnealPlan(
            betas=make_schedule(s.n_temperatures),
            n_inner=s.n_inner,
            step_size=s.step_size,
            clip_norm=s.clip_norm,
        ),
        warm_start=s.warm_start,
        init_epochs=s.init_epochs,
        seed=seed,
    )


def run_method(
    method: str, model: ModelSpec, run: ReferenceRun, cfg: ExperimentConfig, seed: int
) -> list[AssimilationRecord]:
    """Run one filtering method over a shared reference run."""
    if method == "ssls":
        return assimilate(model, run, build_ssls_config(cfg, seed))
    if method == "enkf":
        return baselines.run_enkf(model, run, cfg.ensemble_size, seed=seed)
    if method == "apf":
        return baselines.run_apf(model, run, cfg.ensemble_size, seed=seed)
    if method == "kalman":
        return baselines.run_kalman(baselines.LinearGaussianSpec(**LINEAR_GAUSSIAN), run)
    raise ConfigError(f"field 'method': unknown method {method!r}")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(path: Path, records: list[AssimilationRecord]) -> None:
    d = records[0].mean.shape[0]
    p = records[0].observation.shape[0]
    header = (
        ["step"]
        + [f"ref_{i}" for i in range(d)]
        + [f"obs_{i}" for i in range(p)]
        + [f"mean_{i}" for i in range(d)]
        + [f"std_{i}" for i in range(d)]
    )
    rows = [
        [r.step]
        + [_fmt(v) for v in r.reference]
        + [_fmt(v) for v in r.observation]
        + [_fmt(v) for v in r.mean]
        + [_fmt(v) for v in r.std]
        for r in records
    ]
    _write_csv(path, header, rows)


def write_metrics_csv(path: Path, records: list[AssimilationRecord]) -> None:
    header = ["step", "rmse", "spread", "coverage", "crps"]
    rows = [
        [r.step] + [_fmt(v) for v in (r.metrics.rmse, r.metrics.spread,
                                      r.metrics.coverage, r.metrics.crps)]
        for r in records
    ]
    _write_csv(path, header, rows)


def _time_averages(records: list[AssimilationRecord]) -> list[str]:
    return [
        _fmt(np.mean([getattr(r.metrics, metric) for r in records]))
        for metric in ("rmse", "spread", "coverage", "crps")
    ]


def write_summary_csv(path: Path, per_method: dict[str, list[AssimilationRecord]]) -> None:
    header = ["method", "rmse", "spread", "coverage", "crps"]
    rows = [[method] + _time_averages(records) for method, records in per_method.items()]
    _write_csv(path, header, rows)


def write_comparison_csv(path: Path, per_method: dict[str, list[AssimilationRecord]]) -> None:
    methods = list(per_method)
    first = next(iter(per_method.values()))
    d = first[0].mean.shape[0]
    header = ["step"] + [f"ref_{i}" for i in range(d)]
    for m in methods:
        header += [f"mean_{i}_{m}" for i in range(d)]
        header += [f"std_{i}_{m}" for i in range(d)]
        header += [f"rmse_{m}", f"spread_{m}", f"coverage_{m}", f"crps_{m}"]
    rows = []
    for step_idx in range(len(first)):
        row = [first[step_idx].step] + [_fmt(v) for v in first[step_idx].reference]
        for m in methods:
            r = per_method[m][step_idx]
            row += [_fmt(v) for v in r.mean]
            row += [_fmt(v) for v in r.std]
            row += [_fmt(v) for v in (r.metrics.rmse, r.metrics.spread,
                                      r.metrics.coverage, r.metrics.crps)]
        rows.append(row)
    _write_csv(path, header, rows)


def _prepare(config_path, seed, out, compare: bool):
    cfg = load_config(config_path, compare=compare)
    if seed is not None:
        cfg.seed = int(seed)
    if out is not None:
        cfg.out_dir = str(out)
    model = build_model(cfg)
    root = np.random.SeedSequence(cfg.seed)
    ref_child, method_root = root.spawn(2)
    run = simulate_reference(
        model,
        cfg.steps,
        mutation_period=cfg.mutation_period,
        rng=np.random.default_rng(ref_child),
    )
    method_seeds = [int(child.generate_state(1)[0]) for child in
                    method_root.spawn(len(cfg.methods))]
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, model, run, method_seeds, out_dir


def run_experiment(config_path, seed: int | None = None, out: str | None = None) -> Path:
    """Run one method per the config; write trajectory/metrics/summary CSVs.

    Returns the output directory.  Raises :class:`ConfigError` on invalid
    configuration.
    """
    cfg, model, run, method_seeds, out_dir = _prepare(config_path, seed, out, compare=False)
    method = cfg.methods[0]
    records = run_method(method, model, run, cfg, method_seeds[0])
    write_trajectory_csv(out_dir / "trajectory.csv", records)
    write_metrics_csv(out_dir / "metrics.csv", records)
    write_summary_csv(out_dir / "summary.csv", {method: records})
    return out_dir


def compare_methods(config_path, seed: int | None = None, out: str | None = None) -> Path:
    """Run every configured method on one shared reference trajectory.

    Writes ``metrics_<method>.csv`` per method and a joined
    ``comparison.csv`` keyed by time step.  Returns the output directory.
    """
    cfg, model, run, method_seeds, out_dir = _prepare(config_path, seed, out, compare=True)
    per_method: dict[str, list[AssimilationRecord]] = {}
    for method, method_seed in zip(cfg.methods, method_seeds):
        per_method[method] = run_method(method, model, run, cfg, method_seed)
    for method, records in per_method.items():
        write_metrics_csv(out_dir / f"metrics_{method}.csv", records)
    write_comparison_csv(out_dir / "comparison.csv", per_method)
    return out_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssls",
        description="Sequential Langevin data-assimilation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run a single method and write trajectory/metrics/summary CSVs"),
        ("compare", "run several methods on one shared reference trajectory"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            out_dir = run_experiment(args.config, seed=args.seed, out=args.out)
        else:
            out_dir = compare_methods(args.config, seed=args.seed, out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except AssimilationError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"wrote results to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
