"""Reference filters: exact Kalman, stochastic EnKF, auxiliary particle filter.

The Kalman filter is the exact posterior oracle for linear-Gaussian models
and anchors most correctness tests.  The ensemble Kalman filter is the
stochastic (perturbed-observation) variant; the auxiliary particle filter
uses likelihoods at the deterministic one-step prediction as first-stage
weights and systematic resampling throughout.  The EnKF and the APF run
through :func:`ssls.assimilator.run_filter`, the loop SSLS uses, so they
share its input checks, records and failure rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .assimilator import AssimilationRecord, _check_run, predict, run_filter
# Unused here, but bench/tracing.py wraps baselines.ensemble_metrics.
from .metrics import ensemble_metrics, gaussian_metrics  # noqa: F401
from .models import ModelSpec, ReferenceRun

Array = np.ndarray

# Additive regularization of innovation covariances before inversion.
_INNOVATION_JITTER = 1e-10


@dataclass
class LinearGaussianSpec:
    """Matrices of a linear-Gaussian state-space model.

    ``x' = A x + v`` with ``v ~ N(0, Q)`` and ``y = H x + w`` with
    ``w ~ N(0, R)``; the initial state is ``N(m0, P0)``.  Every entry must
    be finite, and ``Q``, ``R`` and ``P0`` symmetric positive semi-definite.
    """

    A: Array
    Q: Array
    H: Array
    R: Array
    m0: Array
    P0: Array

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        self.m0 = np.atleast_1d(np.asarray(self.m0, dtype=float))
        self.P0 = np.atleast_2d(np.asarray(self.P0, dtype=float))
        d = self.A.shape[0]
        p = self.H.shape[0]
        if self.A.shape != (d, d) or self.Q.shape != (d, d) or self.P0.shape != (d, d):
            raise ValueError("A, Q, P0 must be square with matching state dimension")
        if self.H.shape != (p, d) or self.R.shape != (p, p):
            raise ValueError("H and R have inconsistent shapes")
        if self.m0.shape != (d,):
            raise ValueError("m0 has the wrong dimension")
        for name in ("A", "Q", "H", "R", "m0", "P0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        for name in ("Q", "R", "P0"):
            mat = getattr(self, name)
            if not np.allclose(mat, mat.T):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(mat).min() < -1e-10:
                raise ValueError(f"{name} must be positive semi-definite")

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]


def kalman_update(mean: Array, cov: Array, spec: LinearGaussianSpec, y: Array):
    """Measurement update of a Gaussian belief; returns ``(mean, cov)``."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h = spec.H
    innovation_cov = h @ cov @ h.T + spec.R
    innovation_cov = innovation_cov + _INNOVATION_JITTER * np.eye(innovation_cov.shape[0])
    gain = np.linalg.solve(innovation_cov.T, (cov @ h.T).T).T
    new_mean = mean + gain @ (y - h @ mean)
    new_cov = (np.eye(spec.state_dim) - gain @ h) @ cov
    new_cov = 0.5 * (new_cov + new_cov.T)
    return new_mean, new_cov


def kalman_step(mean: Array, cov: Array, spec: LinearGaussianSpec, y: Array):
    """One predict-then-update Kalman recursion; returns ``(mean, cov)``."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    pred_mean = spec.A @ mean
    pred_cov = spec.A @ cov @ spec.A.T + spec.Q
    return kalman_update(pred_mean, pred_cov, spec, y)


def kalman_filter(spec: LinearGaussianSpec, observations: Array):
    """Exact filtering distributions for a full observation sequence.

    The first observation measures the initial state directly, so step 1 is
    an update of ``(m0, P0)`` without a preceding prediction; every later
    step is a full predict-update recursion.

    Returns
    -------
    (means, covs)
        Arrays of shape ``(K, d)`` and ``(K, d, d)``.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    k_total = observations.shape[0]
    means = np.empty((k_total, spec.state_dim))
    covs = np.empty((k_total, spec.state_dim, spec.state_dim))
    mean, cov = kalman_update(spec.m0, spec.P0, spec, observations[0])
    means[0], covs[0] = mean, cov
    for k in range(1, k_total):
        mean, cov = kalman_step(mean, cov, spec, observations[k])
        means[k], covs[k] = mean, cov
    return means, covs


def enkf_update(ensemble: Array, model: ModelSpec, y: Array, rng: Generator) -> Array:
    """Stochastic EnKF measurement update with perturbed observations.

    Gains come from the unbiased sample cross-covariance between states and
    predicted observations; each particle assimilates its own perturbed copy
    ``y + eta_i`` with ``eta_i ~ N(0, R)``.
    """
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    n = ensemble.shape[0]
    if n < 2:
        raise ValueError("EnKF needs at least 2 particles")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    predicted_obs = np.atleast_2d(model.observation_mean(ensemble))
    obs_dim = predicted_obs.shape[1]

    state_anom = ensemble - ensemble.mean(axis=0)
    obs_anom = predicted_obs - predicted_obs.mean(axis=0)
    cross_cov = state_anom.T @ obs_anom / (n - 1)
    obs_cov = obs_anom.T @ obs_anom / (n - 1)
    r = model.obs_noise_std**2 * np.eye(obs_dim)
    innovation_cov = obs_cov + r + _INNOVATION_JITTER * np.eye(obs_dim)
    gain = np.linalg.solve(innovation_cov.T, cross_cov.T).T

    perturbed = y + model.obs_noise_std * rng.standard_normal((n, obs_dim))
    return ensemble + (perturbed - predicted_obs) @ gain.T


def enkf_step(ensemble: Array, model: ModelSpec, y: Array, rng: Generator) -> Array:
    """Propagate each particle with dynamics noise, then EnKF-update."""
    return enkf_update(predict(ensemble, model, rng), model, y, rng)


def systematic_resample(weights: Array, n: int, rng: Generator) -> Array:
    """Systematic resampling: ``n`` ancestor indices from one uniform offset.

    Positions ``(u + i) / n`` with ``u ~ U[0, 1)`` are inverted through the
    weight CDF, so the expected count of index ``i`` is ``n * w_i`` and
    counts at exact multiples of ``1/n`` are deterministic.
    """
    weights = np.asarray(weights, dtype=float)
    positions = (rng.random() + np.arange(n)) / n
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, positions, side="right")


def _weights(log_w: Array, stage: str) -> Array:
    """Normalized weights ``exp(log_w)``.

    Raises ``FloatingPointError`` when they cannot be normalized: every
    log-weight is -inf (no particle explains the observation), or one is
    NaN or +inf.
    """
    top = np.max(log_w)
    if not np.isfinite(top):
        raise FloatingPointError(f"APF {stage} weights are degenerate (max log-weight {top})")
    w = np.exp(log_w - top)
    return w / w.sum()


def apf_init(particles: Array, model: ModelSpec, y: Array, rng: Generator) -> Array:
    """Assimilate the first observation: weight prior particles, resample."""
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    weights = _weights(model.log_likelihood(particles, y), "initial")
    return particles[systematic_resample(weights, particles.shape[0], rng)]


def apf_step(particles: Array, model: ModelSpec, y_next: Array, rng: Generator) -> Array:
    """One auxiliary particle filter step targeting the next posterior.

    First-stage weights are likelihoods at the deterministic (zero-noise)
    one-step prediction of each particle; after auxiliary resampling and
    noisy propagation, second-stage weights correct for the look-ahead bias
    and a final systematic resample returns equally weighted particles.
    Either stage raises ``FloatingPointError`` when its weights are all
    zero.
    """
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    n = particles.shape[0]
    y_next = np.atleast_1d(np.asarray(y_next, dtype=float))

    predictive = model.dynamics(particles, np.zeros_like(particles))
    lookahead = model.log_likelihood(predictive, y_next)
    idx = systematic_resample(_weights(lookahead, "first-stage"), n, rng)

    # Resampling picks particles of positive weight, whose lookahead is finite.
    propagated = predict(particles[idx], model, rng)
    log_correction = model.log_likelihood(propagated, y_next) - lookahead[idx]
    final_idx = systematic_resample(_weights(log_correction, "second-stage"), n, rng)
    return propagated[final_idx]


def run_enkf(
    model: ModelSpec,
    run: ReferenceRun,
    ensemble_size: int,
    seed: int = 0,
    store_ensembles: bool = False,
) -> list[AssimilationRecord]:
    """Filter a full reference run with the stochastic EnKF."""
    return run_filter(model, run, enkf_update, enkf_step, ensemble_size, seed, store_ensembles)


def run_apf(
    model: ModelSpec,
    run: ReferenceRun,
    ensemble_size: int,
    seed: int = 0,
    store_ensembles: bool = False,
) -> list[AssimilationRecord]:
    """Filter a full reference run with the auxiliary particle filter."""
    return run_filter(model, run, apf_init, apf_step, ensemble_size, seed, store_ensembles)


def run_kalman(spec: LinearGaussianSpec, run: ReferenceRun) -> list[AssimilationRecord]:
    """Exact Gaussian filtering records for a linear-Gaussian reference run.

    The run is checked against ``A`` and ``H`` as :func:`run_filter` checks it.
    """
    _check_run(run, spec.state_dim, spec.H.shape[0])
    means, covs = kalman_filter(spec, run.observations)
    stds = np.sqrt(np.diagonal(covs, axis1=1, axis2=2))
    return [
        AssimilationRecord(step=k, mean=m, std=s, reference=x, observation=y,
                           metrics=gaussian_metrics(k, m, s, x))
        for k, (m, s, x, y) in enumerate(zip(means, stds, run.states, run.observations), 1)
    ]
