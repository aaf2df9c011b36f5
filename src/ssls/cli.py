"""Experiment runner with a JSON config file and CSV outputs.

Two commands are exposed::

    ssls run <config.json> [--seed N] [--out DIR]
    ssls compare <config.json> [--seed N] [--out DIR]

``run`` executes one filtering method on one experiment and writes
``trajectory.csv`` (reference, observation, ensemble mean/std per step),
``metrics.csv`` (one row of RMSE/spread/coverage/CRPS per step) and
``summary.csv`` (time-averaged metrics).  ``compare`` runs several methods
against the *same* reference trajectory and writes one ``metrics_<m>.csv``
per method plus a joined ``comparison.csv`` keyed by time step.  Where the
``fork`` start method exists, ``compare`` runs every method after the first
in a forked worker process, at the same time as the first, and each worker
sends back its method's table or its ``AssimilationError`` as itself; the
files are the same bytes as when the methods run one after another.  Every
per-step CSV comes from :func:`write_csv`, which joins named column groups
of each method's table of arrays: ``mean``, ``std`` and ``metrics``, and the
reference run's ``reference`` and ``observation``.  A group written for
each method has the suffix ``_<method>``.

Config schema (JSON object; unknown keys are rejected)::

    {
      "experiment": "linear_gaussian" | "double_well_linear"
                  | "double_well_nonlinear" | "lorenz96",
      "method":  "ssls" | "enkf" | "apf" | "kalman",   # run only
      "methods": [ ... ],                               # compare only
      "ensemble_size": int,        # >= 2
      "steps": int,
      "seed": int,                 # >= 0
      "mutation_period": int|null, # sign flips of the reference state
      "out_dir": str,
      "model": {...},              # the model factory's arguments, see below
      "ssls": {                    # SslsConfig, its TrainConfig and AnnealPlan
        "smoothing": float, "epochs": int, "batch_size": int,
        "learning_rate": float, "n_temperatures": int, "n_inner": int,
        "step_size": float,
        "init_epochs": int|null    # epochs of the first, cold-started step
      }
    }

The ``model`` section takes only the arguments of ``make_linear_gaussian``,
``make_double_well`` or ``make_lorenz96`` that its experiment uses, and the
factory's defaults fill in the rest; ``init_prior_shift`` (float) moves the
guess prior of the ensemble methods::

    linear_gaussian        init_prior_shift
    double_well_linear     beta, dt, obs_noise_std, init_prior_shift
    double_well_nonlinear  beta, dt, obs_noise_std, gamma, init_prior_shift
    lorenz96               dim, forcing, dt, process_noise_std, obs_noise_std,
                           init_prior_shift

A field's kind, and whether it takes ``null``, is the annotation of the
library parameter it sets.  An ``int`` field takes only a JSON integer, a
``float`` field an integer or a finite real; JSON booleans are not numbers.
``null`` means no sign flips for ``mutation_period``, ``epochs`` for
``init_epochs``, and 0.1 (linear) or 0.2 (nonlinear) for the double wells'
``obs_noise_std``; no other field takes it.

``method: "kalman"`` is the exact-posterior oracle and is only valid for
the linear-Gaussian experiment; it always uses the true reference prior, so
``init_prior_shift`` affects only the ensemble methods.  Floats in the CSV
files carry 17 significant digits and round-trip exactly.

The exit status is 1 for an invalid config, found before any simulation: a
malformed file, an unknown or unused field, a value of the wrong kind, or
one that the model factory, ``TrainConfig``, ``AnnealPlan``,
``make_schedule`` or ``SslsConfig`` rejects.  It is also 1 when the
reference run that the config sets diverges (a state or observation is not
finite; the message names the first such step), found before the output
directory is made.  It is 2 when a filter run fails (SSLS, EnKF or APF):
every failure inside a step is a ``FloatingPointError``, and the run raises
it as one :class:`~ssls.assimilator.AssimilationError`, which pickles.  The
message on standard error names the failing step, and when several methods
fail it is that of the first of them in the config's order.
"""

import argparse
import csv
import dataclasses
import functools
import inspect
import json
import math
import sys
import typing
from dataclasses import dataclass
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
    shift_prior,
    simulate_reference,
)
from .sampler import AnnealPlan, make_schedule
from .score_net import TrainConfig

METHODS = ("ssls", "enkf", "apf", "kalman")
METRICS = ("rmse", "spread", "coverage", "crps")


class ConfigError(ValueError):
    """A config file is missing, malformed, or violates a constraint."""


# Each experiment's model factory and the parameters of it that the `model`
# section may set, besides `init_prior_shift`.
_MODELS = {
    "linear_gaussian": (make_linear_gaussian, ()),
    "double_well_linear": (
        functools.partial(make_double_well, measurement="linear"),
        ("beta", "dt", "obs_noise_std"),
    ),
    "double_well_nonlinear": (
        functools.partial(make_double_well, measurement="nonlinear"),
        ("beta", "dt", "obs_noise_std", "gamma"),
    ),
    "lorenz96": (make_lorenz96, ("dim", "forcing", "dt", "process_noise_std", "obs_noise_std")),
}
EXPERIMENTS = tuple(_MODELS)

# The `ssls` section's fields, keyed by the library callable whose parameter
# of the same name each one sets.
_SSLS_FIELDS = {
    TrainConfig: ("smoothing", "epochs", "batch_size", "learning_rate"),
    make_schedule: ("n_temperatures",),
    AnnealPlan: ("n_inner", "step_size"),
    SslsConfig: ("init_epochs",),
}

# The defaults that differ from the library's, per experiment.
_SSLS_DEFAULTS = {"epochs": 60, "init_epochs": 250}
_DOUBLE_WELL_DEFAULTS = {
    "steps": 100, "mutation_period": 20, "ssls": {**_SSLS_DEFAULTS, "step_size": 0.005}
}
_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "linear_gaussian": {"steps": 10, "ssls": _SSLS_DEFAULTS},
    "double_well_linear": _DOUBLE_WELL_DEFAULTS,
    "double_well_nonlinear": _DOUBLE_WELL_DEFAULTS,
    "lorenz96": {"steps": 50, "ssls": {**_SSLS_DEFAULTS, "epochs": 50, "batch_size": 100}},
}


@dataclass
class ExperimentConfig:
    """A fully validated experiment description, built by :func:`load_config`.

    ``model`` and ``ssls`` are built from their config sections, and every
    ensemble method takes ``ssls.ensemble_size``.  Each SSLS run replaces
    ``ssls.seed`` with its own seed.
    """

    experiment: str
    methods: list[str]
    model: ModelSpec
    ssls: SslsConfig
    steps: int
    seed: int = 0
    out_dir: str = "results"
    mutation_period: int | None = None

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"field 'method': unknown method {m!r}; choose one of {METHODS}")
            if m == "kalman" and self.experiment != "linear_gaussian":
                raise ConfigError(
                    "field 'method': 'kalman' is exact only for the linear_gaussian experiment"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("field 'methods': duplicate method names")
        if self.steps < 1:
            raise ConfigError("field 'steps': must be at least 1")
        if self.seed < 0:
            raise ConfigError("field 'seed': must be non-negative")
        if self.mutation_period is not None and self.mutation_period < 1:
            raise ConfigError("field 'mutation_period': must be at least 1")


@functools.cache
def _annotations(f) -> dict:
    """The evaluated annotations of ``f``'s parameters, by name."""
    return {n: p.annotation for n, p in inspect.signature(f, eval_str=True).parameters.items()}


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _typed(values: dict, kinds: dict, where: str) -> dict:
    """``values`` checked against the annotations ``kinds``.

    An annotation gives a field's kind (``int``, ``float`` or ``str``) and
    whether it may be ``null`` (``| None``).  A float field also takes an
    integer, but not an infinity or NaN; JSON booleans are not numbers.
    """
    typed = {}
    for key, value in values.items():
        kind, *rest = typing.get_args(kinds[key]) or (kinds[key],)
        if value is None and type(None) in rest:
            typed[key] = None
            continue
        accepted = (int, float) if kind is float else kind
        ok = isinstance(value, accepted) and not isinstance(value, bool)
        if not ok or (kind is float and not math.isfinite(value)):
            raise ConfigError(f"{where} field {key!r}: expected {kind.__name__}, got {value!r}")
        typed[key] = kind(value)
    return typed


def _section(raw: dict, name: str, fields: dict, defaults: dict) -> dict:
    """Section ``name`` of ``raw`` over ``defaults``, as keyword arguments.

    ``fields`` maps each callable to the parameters of it that the section
    may set; their annotations give the kinds.  The result maps each
    callable to the arguments that the section gives it.
    """
    kinds = {n: _annotations(f)[n] for f, names in fields.items() for n in names}
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"field {name!r}: must be an object")
    _check_keys(section, kinds, f"{name!r}")
    values = _typed({**defaults, **section}, kinds, f"{name!r}")
    return {f: {n: values[n] for n in names if n in values} for f, names in fields.items()}


def load_config(path, compare: bool = False) -> ExperimentConfig:
    """Parse and validate a JSON config file, and build its model and SSLS
    settings.

    ``compare=True`` requires a ``methods`` list with at least two entries
    and rejects ``method``; otherwise a single ``method`` is required and
    ``methods`` is rejected.
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
    _check_keys(raw, {*_annotations(ExperimentConfig), "method", "ensemble_size"}, str(path))

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
        if "method" in raw:
            raise ConfigError("field 'method': compare takes a methods list "
                              "(use the run command for a single method)")
        if "methods" not in raw or not isinstance(raw["methods"], list):
            raise ConfigError("field 'methods': compare needs a list of methods")
        methods = [str(m) for m in raw["methods"]]
        if len(methods) < 2:
            raise ConfigError("field 'methods': compare needs at least two methods")
    else:
        if "methods" in raw:
            raise ConfigError("field 'method': run takes a single method "
                              "(use the compare command for a methods list)")
        if "method" not in raw:
            raise ConfigError("field 'method' is required")
        methods = [str(raw["method"])]

    scalars = ("ensemble_size", "steps", "seed", "mutation_period", "out_dir")
    top = {k: v for k, v in {**defaults, **raw}.items() if k in scalars}
    # SslsConfig holds the ensemble size, its kind, and its default when none is given.
    top = _typed(top, _annotations(SslsConfig) | _annotations(ExperimentConfig), "top level")
    size = {"ensemble_size": top.pop("ensemble_size")} if "ensemble_size" in top else {}
    factory, names = _MODELS[experiment]
    model_args = _section(raw, "model", {factory: names, shift_prior: ["init_prior_shift"]}, {})
    args = _section(raw, "ssls", _SSLS_FIELDS, defaults["ssls"])
    try:  # the library's own checks are the range checks
        model = factory(**model_args[factory])
        if args[make_schedule]:
            args[AnnealPlan]["betas"] = make_schedule(**args[make_schedule])
        train, plan = TrainConfig(**args[TrainConfig]), AnnealPlan(**args[AnnealPlan])
        ssls = SslsConfig(train=train, plan=plan, **args[SslsConfig], **size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if model_args[shift_prior]:
        model = shift_prior(model, **model_args[shift_prior])
    return ExperimentConfig(experiment=experiment, methods=methods, model=model, ssls=ssls, **top)


def run_method(
    method: str, run: ReferenceRun, cfg: ExperimentConfig, seed: int
) -> list[AssimilationRecord]:
    """Run one filtering method over a shared reference run."""
    if method == "ssls":
        return assimilate(cfg.model, run, dataclasses.replace(cfg.ssls, seed=seed))
    if method == "enkf":
        return baselines.run_enkf(cfg.model, run, cfg.ssls.ensemble_size, seed=seed)
    if method == "apf":
        return baselines.run_apf(cfg.model, run, cfg.ssls.ensemble_size, seed=seed)
    return baselines.run_kalman(baselines.LinearGaussianSpec(**LINEAR_GAUSSIAN), run)


def _table(records: list[AssimilationRecord]) -> dict[str, np.ndarray]:
    """A method's records as arrays, a row per step: ``mean``, ``std`` and ``metrics``."""
    return {"mean": np.array([r.mean for r in records]),
            "std": np.array([r.std for r in records]),
            "metrics": np.array([[getattr(r.metrics, m) for m in METRICS] for r in records])}


def _run_methods(run: ReferenceRun, cfg: ExperimentConfig,
                 seeds: list[int]) -> dict[str, dict[str, np.ndarray]]:
    """Run each method of ``cfg`` with its seed over ``run``, in config order.

    With two or more methods, every method after the first runs in a
    forked worker process while the first runs here, so a ``compare`` round
    costs its slowest method, not the sum of all of them.  Where ``fork`` is
    not available the methods run here one after another.  Either way each
    method's :func:`_table` is the same, and so is the error raised: that
    of the first method in config order that fails.

    Fork hands the workers the model's closures and the reference run
    without pickling them.  OpenBLAS stops its thread pool when a process
    forks, so the workers may call BLAS; Python 3.12+ may still warn that
    forking a process that has threads (OpenBLAS's among them) can deadlock
    the child.  When any method fails, the workers still running are
    terminated; every worker is joined before this returns or raises.
    """
    jobs = list(zip(cfg.methods, seeds))
    fork = None
    if len(jobs) > 1:
        import multiprocessing  # here, so that `import ssls` does not pay for it

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
    here, forked = (jobs[:1], jobs[1:]) if fork else (jobs, [])
    workers = []
    try:
        for method, seed in forked:
            receive, send = fork.Pipe(duplex=False)
            worker = fork.Process(target=_work, args=(send, method, run, cfg, seed), daemon=True)
            # A child flushes the stream buffers that it inherits when it
            # exits; start() flushes sys.stdout and sys.stderr before it
            # forks, so no text is printed twice.
            worker.start()
            send.close()  # the worker holds the only write end, so its exit ends the pipe
            workers.append((method, worker, receive))
        tables = {method: _table(run_method(method, run, cfg, seed)) for method, seed in here}
        for method, worker, receive in workers:
            tables[method] = _receive(method, worker, receive)
    except BaseException:
        for _, worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for _, worker, receive in workers:
            worker.join()
            receive.close()
    return tables


def _work(send, method: str, run: ReferenceRun, cfg: ExperimentConfig, seed: int) -> None:
    """A worker's body: send back the method's :func:`_table`, or its ``AssimilationError``."""
    try:
        result = _table(run_method(method, run, cfg, seed))
    except AssimilationError as exc:
        result = exc
    send.send(result)
    send.close()


def _receive(method: str, worker, receive) -> dict[str, np.ndarray]:
    """The table that ``worker`` sends for ``method``; re-raises its ``AssimilationError``."""
    try:
        result = receive.recv()
    except EOFError:
        result = None
    worker.join()  # a worker that has reported exits by itself, and is never terminated
    if result is None:
        raise RuntimeError(f"the worker running {method!r} exited with code "
                           f"{worker.exitcode} before it sent its records")
    if isinstance(result, AssimilationError):
        raise result
    return result


def _fmt(x) -> str:
    return format(float(x), ".17g")


# Each column group's column-name stem, or for "metrics" the names themselves.
_STEMS = {"reference": "ref", "observation": "obs", "mean": "mean", "std": "std",
          "metrics": METRICS}


def write_csv(path: Path, tables: dict[str, dict[str, np.ndarray]], shared, each=()) -> None:
    """Write one row per step to ``path``: the step, the ``shared`` column
    groups of the first method's table, then each method's ``each`` groups
    with the suffix ``_<method>``.  The groups are ``reference``,
    ``observation``, ``mean``, ``std`` and ``metrics``.
    """
    first = next(iter(tables.values()))
    parts = [(first, shared, "")] + [(table, each, f"_{m}") for m, table in tables.items()]
    header, blocks = ["step"], []
    for table, groups, suffix in parts:
        for group in groups:
            stem, block = _STEMS[group], table[group]
            if isinstance(stem, str):
                stem = [f"{stem}_{i}" for i in range(block.shape[1])]
            header += [name + suffix for name in stem]
            blocks.append(block)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for step, row in enumerate(np.hstack(blocks), 1):
            writer.writerow([step, *map(_fmt, row.tolist())])


def write_summary_csv(path: Path, tables: dict[str, dict[str, np.ndarray]]) -> None:
    """Write each method's time-averaged metrics to ``path``, one row per method."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", *METRICS])
        for method, table in tables.items():
            # One column at a time: NumPy sums a 1-D array pairwise, but the
            # rows of a 2-D block one by one along axis 0.
            writer.writerow([method, *(_fmt(np.mean(column)) for column in table["metrics"].T)])


def _run(config_path, seed, out, compare: bool) -> Path:
    """Run every method of the config on one shared reference run, write the
    ``run`` or the ``compare`` files, and return the output directory."""
    cfg = load_config(config_path, compare=compare)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed))  # checks the seed again
    if out is not None:
        cfg.out_dir = str(out)
    ref_child, method_root = np.random.SeedSequence(cfg.seed).spawn(2)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run is reported below
        run = simulate_reference(cfg.model, cfg.steps, mutation_period=cfg.mutation_period,
                                 rng=np.random.default_rng(ref_child))
    finite = np.isfinite(run.states).all(axis=1) & np.isfinite(run.observations).all(axis=1)
    if not finite.all():
        raise ConfigError(f"the reference run diverges: step {np.argmin(finite) + 1} has a "
                          "state or observation that is not finite")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [int(child.generate_state(1)[0]) for child in method_root.spawn(len(cfg.methods))]
    tables = _run_methods(run, cfg, seeds)
    for table in tables.values():  # every table shares the reference run's own arrays
        table.update(reference=run.states, observation=run.observations)
    if compare:
        for method, table in tables.items():
            write_csv(out_dir / f"metrics_{method}.csv", {method: table}, ["metrics"])
        write_csv(out_dir / "comparison.csv", tables, ["reference"], ["mean", "std", "metrics"])
    else:
        write_csv(out_dir / "trajectory.csv", tables,
                  ["reference", "observation", "mean", "std"])
        write_csv(out_dir / "metrics.csv", tables, ["metrics"])
        write_summary_csv(out_dir / "summary.csv", tables)
    return out_dir


def run_experiment(config_path, seed: int | None = None, out: str | None = None) -> Path:
    """``ssls run``: write ``trajectory.csv``, ``metrics.csv`` and ``summary.csv``."""
    return _run(config_path, seed, out, compare=False)


def compare_methods(config_path, seed: int | None = None, out: str | None = None) -> Path:
    """``ssls compare``: write ``metrics_<method>.csv`` per method and ``comparison.csv``."""
    return _run(config_path, seed, out, compare=True)


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
