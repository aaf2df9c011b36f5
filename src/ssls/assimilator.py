"""Sequential score-based Langevin assimilation, and the filter loop it shares.

One assimilation step has three parts: propagate the posterior ensemble
through the dynamics model (prediction), fit a score network to the
predicted particles by denoising score matching, and run annealed Langevin
Monte Carlo with the fitted score plus the likelihood gradient of the new
observation (update).  The first observation is assimilated the same way,
with the guess prior ensemble standing in for the prediction.

Score networks are warm-started from the previous step by default, which
cuts training cost substantially; the first step always trains from
scratch.

:func:`run_filter` is the recursion that SSLS and the EnKF and APF
baselines share: seeding, the prior draw, one update per observation, the
records and their failure checks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.random import Generator

from .metrics import MetricRow, ensemble_metrics
from .models import ModelSpec, ReferenceRun
from .sampler import AnnealPlan, NonFiniteEnsembleError, almc_update
from .score_net import ScoreNetwork, TrainConfig, TrainingDivergedError, train_score

Array = np.ndarray


class AssimilationError(RuntimeError):
    """A filter run failed at one step: training or sampling diverged, or
    the posterior ensemble's mean, std or metrics are not finite."""

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"assimilation failed at step {step}: {message}")


@dataclass
class SslsConfig:
    """Settings for a sequential Langevin assimilation run.

    Attributes
    ----------
    ensemble_size : int
        Number of particles ``n >= 2``.
    train : TrainConfig
        Score-matching hyper-parameters, used at every step.
    plan : AnnealPlan
        Annealed Langevin settings, used at every update.
    warm_start : bool
        Initialize each step's score network from the previous step's
        weights.
    init_epochs : int, optional
        Epoch budget for the first step, which always trains from scratch
        and typically needs more passes than the warm-started steps.
        ``None`` uses ``train.epochs``.
    seed : int
        Master seed; fixing it makes the whole run bit-reproducible.
    store_ensembles : bool
        Keep the full posterior ensemble in every record (memory heavy for
        long runs).
    """

    ensemble_size: int = 500
    train: TrainConfig = field(default_factory=TrainConfig)
    plan: AnnealPlan = field(default_factory=AnnealPlan)
    warm_start: bool = True
    init_epochs: int | None = None
    seed: int = 0
    store_ensembles: bool = False

    def __post_init__(self):
        if self.ensemble_size < 2:
            raise ValueError("ensemble_size must be at least 2")
        if self.init_epochs is not None and self.init_epochs < 1:
            raise ValueError("init_epochs must be at least 1")


@dataclass
class AssimilationRecord:
    """Outputs of one assimilation step.

    ``mean`` and ``std`` are the per-dimension posterior ensemble statistics
    (unbiased std); ``metrics`` scores the ensemble against the reference
    state.  The ensemble snapshot is kept only when requested.
    """

    step: int
    mean: Array
    std: Array
    reference: Array
    observation: Array
    metrics: MetricRow
    ensemble: Array | None = None

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.std = np.atleast_1d(np.asarray(self.std, dtype=float))
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must have the same dimension")


def predict(posterior: Array, model: ModelSpec, rng: Generator) -> Array:
    """Propagate every particle one step with independent dynamics noise."""
    posterior = np.atleast_2d(np.asarray(posterior, dtype=float))
    noise = model.dynamics_noise_sampler(rng, posterior.shape[0])
    return model.dynamics(posterior, noise)


def run_filter(
    model: ModelSpec,
    run: ReferenceRun,
    init: Callable[[Array, ModelSpec, Array, Generator], Array],
    step: Callable[[Array, ModelSpec, Array, Generator], Array],
    ensemble_size: int,
    seed: int = 0,
    store_ensembles: bool = False,
) -> list[AssimilationRecord]:
    """Filter every observation of a reference run with one ensemble method.

    Draws ``ensemble_size`` particles from the model's guess prior and
    assimilates observation 1 with ``init(prior, model, y_1, rng)``, then
    each later observation with ``step(posterior, model, y_k, rng)``.  One
    generator seeded with ``seed`` feeds every draw, so a fixed seed
    reproduces the records bit for bit.  Record ``k`` holds the posterior
    ensemble statistics after the ``k``-th observation; the ensemble itself
    is kept only with ``store_ensembles``.

    Raises
    ------
    ValueError
        Before any work, when ``ensemble_size < 2``, the run's state or
        observation width differs from the model's, or an observation is
        not finite (the message names the first such step).
    AssimilationError
        When score training diverges, the ensemble becomes non-finite, or
        its mean, std or metrics are not finite; the failing step index is
        recorded on the exception.
    """
    _check_inputs(model, run, ensemble_size)
    rng = np.random.default_rng(seed)
    ensemble = model.initial_prior_sampler(rng, ensemble_size)
    records: list[AssimilationRecord] = []
    for k in range(1, len(run) + 1):
        update = init if k == 1 else step
        try:
            ensemble = update(ensemble, model, run.observations[k - 1], rng)
        except (TrainingDivergedError, NonFiniteEnsembleError) as exc:
            raise AssimilationError(k, str(exc)) from exc
        records.append(_record(k, ensemble, run, store_ensembles))
    return records


def _check_inputs(model: ModelSpec, run: ReferenceRun, ensemble_size: int) -> None:
    if ensemble_size < 2:
        raise ValueError("ensemble_size must be at least 2")
    for name, values, width in (
        ("state", run.states, model.state_dim),
        ("observation", run.observations, model.obs_dim),
    ):
        if values.shape[1] != width:
            raise ValueError(
                f"step 1: {name} width {values.shape[1]} does not match "
                f"the model's {name} dimension {width}"
            )
    bad = np.flatnonzero(~np.isfinite(run.observations).all(axis=1))
    if bad.size:
        raise ValueError(f"step {bad[0] + 1}: observation is not finite")


def _record(k: int, ensemble: Array, run: ReferenceRun, store: bool) -> AssimilationRecord:
    # A diverged ensemble can stay finite (particles near 1e199) while its
    # statistics or its error overflow; such a step failed.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ensemble.mean(axis=0)
        std = ensemble.std(axis=0, ddof=1)
        metrics = ensemble_metrics(k, ensemble, run.states[k - 1])
    scores = (metrics.rmse, metrics.spread, metrics.crps)
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and np.isfinite(scores).all()):
        raise AssimilationError(k, "posterior ensemble mean, std or metrics are not finite")
    return AssimilationRecord(
        step=k,
        mean=mean,
        std=std,
        reference=run.states[k - 1],
        observation=run.observations[k - 1],
        metrics=metrics,
        ensemble=ensemble.copy() if store else None,
    )


def _fit_and_update(
    samples: Array,
    model: ModelSpec,
    y: Array,
    train: TrainConfig,
    init: ScoreNetwork | None,
    plan: AnnealPlan,
    rng: Generator,
) -> tuple[Array, ScoreNetwork]:
    """Fit a score network to ``samples``, then Langevin-update them towards ``y``."""

    def grad_loglik(x):
        return model.log_likelihood_grad(x, y)

    net = train_score(samples, train, init=init, rng=rng)
    return almc_update(samples, net.forward, grad_loglik, plan, rng), net


def initial_update(
    prior_samples: Array,
    model: ModelSpec,
    y1: Array,
    cfg: SslsConfig,
    rng: Generator,
) -> tuple[Array, ScoreNetwork]:
    """Assimilate the first observation starting from guess-prior samples.

    Fits the initial prior score to ``prior_samples`` from scratch, with
    ``cfg.init_epochs`` epochs when set, and runs the annealed Langevin
    update with the likelihood gradient of ``y1``.  Returns the posterior
    ensemble together with the fitted network so that the next step can
    warm-start from it.
    """
    train = cfg.train
    if cfg.init_epochs is not None:
        train = dataclasses.replace(train, epochs=cfg.init_epochs)
    return _fit_and_update(prior_samples, model, y1, train, None, cfg.plan, rng)


def assimilate(
    model: ModelSpec, run: ReferenceRun, cfg: SslsConfig
) -> list[AssimilationRecord]:
    """Sequentially assimilate every observation of a reference run with SSLS.

    Step 1 is :func:`initial_update`; each later step predicts, fits a score
    network (warm-started from the previous step's when ``cfg.warm_start``)
    and runs the annealed Langevin update.  :func:`run_filter` drives the
    steps, so its input checks, records and errors apply.
    """
    net = None  # the previous step's network

    def init(prior, model, y, rng):
        nonlocal net
        posterior, net = initial_update(prior, model, y, cfg, rng)
        return posterior

    def step(ensemble, model, y, rng):
        nonlocal net
        predicted = predict(ensemble, model, rng)
        warm = net if cfg.warm_start else None
        posterior, net = _fit_and_update(predicted, model, y, cfg.train, warm, cfg.plan, rng)
        return posterior

    return run_filter(model, run, init, step, cfg.ensemble_size, cfg.seed, cfg.store_ensembles)
