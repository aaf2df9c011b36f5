"""Sequential score-based Langevin assimilation.

One assimilation step has three parts: propagate the posterior ensemble
through the dynamics model (prediction), fit a score network to the
predicted particles by denoising score matching, and run annealed Langevin
Monte Carlo with the fitted score plus the likelihood gradient of the new
observation (update).  The first observation is assimilated the same way,
with the guess prior ensemble standing in for the prediction.

Score networks are warm-started from the previous step by default, which
cuts training cost substantially; the first step always trains from
scratch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

from .metrics import MetricRow, ensemble_metrics
from .models import ModelSpec, ReferenceRun
from .sampler import AnnealPlan, NonFiniteEnsembleError, almc_update
from .score_net import ScoreNetwork, TrainConfig, TrainingDivergedError, train_score

Array = np.ndarray


class AssimilationError(RuntimeError):
    """Training or sampling failed during an assimilation run."""

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


def initial_update(
    prior_samples: Array,
    model: ModelSpec,
    y1: Array,
    cfg: SslsConfig,
    rng: Generator,
) -> tuple[Array, ScoreNetwork]:
    """Assimilate the first observation starting from guess-prior samples.

    Fits the initial prior score to ``prior_samples`` and runs the annealed
    Langevin update with the likelihood gradient of ``y1``.  Returns the
    posterior ensemble together with the fitted network so that the next
    step can warm-start from it.
    """
    prior_samples = np.atleast_2d(np.asarray(prior_samples, dtype=float))
    if prior_samples.shape[0] < 2:
        raise ValueError("initial update needs at least 2 prior samples")
    train_cfg = cfg.train
    if cfg.init_epochs is not None:
        train_cfg = dataclasses.replace(train_cfg, epochs=cfg.init_epochs)
    net = train_score(prior_samples, train_cfg, init=None, rng=rng)
    posterior = almc_update(
        prior_samples,
        net.forward,
        lambda x: model.log_likelihood_grad(x, y1),
        cfg.plan,
        rng,
    )
    return posterior, net


def assimilate(
    model: ModelSpec, run: ReferenceRun, cfg: SslsConfig
) -> list[AssimilationRecord]:
    """Sequentially assimilate every observation of a reference run.

    Record ``k`` holds the posterior ensemble statistics after assimilating
    the ``k``-th observation.  The ensemble size stays constant throughout;
    a fixed ``cfg.seed`` reproduces the records bit for bit.

    Raises
    ------
    AssimilationError
        When score training diverges, the ensemble becomes non-finite, or
        its mean or std is not finite; the failing step index is recorded
        on the exception.
    """
    rng = np.random.default_rng(cfg.seed)
    records: list[AssimilationRecord] = []

    prior = model.initial_prior_sampler(rng, cfg.ensemble_size)
    try:
        ensemble, net = initial_update(prior, model, run.observations[0], cfg, rng)
    except (TrainingDivergedError, NonFiniteEnsembleError) as exc:
        raise AssimilationError(1, str(exc)) from exc
    records.append(_record(1, ensemble, run, cfg))

    for k in range(2, len(run) + 1):
        y = run.observations[k - 1]
        try:
            predicted = predict(ensemble, model, rng)
            net = train_score(
                predicted, cfg.train, init=net if cfg.warm_start else None, rng=rng
            )
            ensemble = almc_update(
                predicted,
                net.forward,
                lambda x, y=y: model.log_likelihood_grad(x, y),
                cfg.plan,
                rng,
            )
        except (TrainingDivergedError, NonFiniteEnsembleError) as exc:
            raise AssimilationError(k, str(exc)) from exc
        records.append(_record(k, ensemble, run, cfg))
    return records


def _record(k: int, ensemble: Array, run: ReferenceRun, cfg: SslsConfig) -> AssimilationRecord:
    # A diverged ensemble can stay finite (particles near 1e199) while its
    # statistics overflow; such a step failed.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ensemble.mean(axis=0)
        std = ensemble.std(axis=0, ddof=1)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise AssimilationError(k, "posterior ensemble mean or std is not finite")
    return AssimilationRecord(
        step=k,
        mean=mean,
        std=std,
        reference=run.states[k - 1],
        observation=run.observations[k - 1],
        metrics=ensemble_metrics(k, ensemble, run.states[k - 1]),
        ensemble=ensemble.copy() if cfg.store_ensembles else None,
    )
