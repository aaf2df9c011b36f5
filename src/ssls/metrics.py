"""Ensemble verification metrics.

Four scores summarize how well a filtering ensemble matches the reference
state at one time step: RMSE of the ensemble mean, ensemble spread, coverage
of the central 95% marginal intervals, and the continuous ranked probability
score.  All functions are pure and permutation-invariant in the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)
# Central 95% interval bounds; quantiles use linear interpolation of order
# statistics (NumPy's default, the type-7 convention).
_COVERAGE_LO = 0.025
_COVERAGE_HI = 0.975
# The standard normal quantile at _COVERAGE_HI, as scipy.special.ndtri gives
# it; statistics.NormalDist().inv_cdf is one ulp off.
_Z_HI = 1.959963984540054
_SQRT_HALF = math.sqrt(0.5)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _norm_cdf(z: Array) -> Array:
    """Standard normal CDF ``Phi(z) = erfc(-z / sqrt(2)) / 2``, elementwise.

    ``erfc`` keeps its relative accuracy in the lower tail, where
    ``1 + erf(z / sqrt(2))`` would cancel.  Returns float64 of ``z``'s shape.
    """
    z = np.asarray(z, dtype=float)
    return 0.5 * np.asarray(_erfc(-z * _SQRT_HALF), dtype=float)


@dataclass(frozen=True)
class MetricRow:
    """Metric values for one assimilation step."""

    step: int
    rmse: float
    spread: float
    coverage: float
    crps: float

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")
        for name in ("rmse", "spread", "crps"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


def rmse(ensemble_mean: Array, truth: Array) -> float:
    """Root mean squared error of a point estimate across dimensions."""
    ensemble_mean = np.atleast_1d(np.asarray(ensemble_mean, dtype=float))
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if ensemble_mean.shape != truth.shape:
        raise ValueError(f"dimension mismatch: {ensemble_mean.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((ensemble_mean - truth) ** 2)))


def spread(ensemble: Array) -> float:
    """Root mean trace of the (unbiased) ensemble covariance matrix."""
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    if ensemble.shape[0] < 2:
        raise ValueError("spread needs at least 2 particles")
    return float(np.sqrt(np.mean(ensemble.var(axis=0, ddof=1))))


def coverage(ensemble: Array, truth: Array) -> float:
    """Fraction of dimensions whose central 95% interval contains the truth.

    Intervals are the empirical 2.5% and 97.5% quantiles of each marginal.
    """
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if ensemble.shape[0] < 2:
        raise ValueError("coverage needs at least 2 particles")
    if ensemble.shape[1] != truth.shape[0]:
        raise ValueError(f"dimension mismatch: {ensemble.shape[1]} vs {truth.shape[0]}")
    lo, hi = np.quantile(ensemble, [_COVERAGE_LO, _COVERAGE_HI], axis=0)
    return float(np.mean((truth >= lo) & (truth <= hi)))


def crps(samples: Array, truth: Array, unbiased: bool = False) -> float:
    """Continuous ranked probability score of an empirical forecast.

    Uses the energy form ``mean_i |x_i - y| - (1/(2 n^2)) sum_ij |x_i - x_j|``
    per dimension; multi-dimensional inputs return the average of the
    per-dimension scores.  With ``unbiased=True`` the pairwise term is
    divided by ``2 n (n - 1)`` instead.

    Parameters
    ----------
    samples : ndarray, shape (n,) or (n, d)
        Forecast ensemble.
    truth : float or ndarray of shape (d,)
        Verifying value.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n = samples.shape[0]
    if n < 1:
        raise ValueError("crps needs at least one sample")
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if samples.shape[1] != truth.shape[0]:
        raise ValueError(f"dimension mismatch: {samples.shape[1]} vs {truth.shape[0]}")
    if unbiased and n < 2:
        raise ValueError("the unbiased estimator needs at least 2 samples")

    abs_error = np.mean(np.abs(samples - truth), axis=0)
    # For sorted values, sum_ij |x_i - x_j| = 2 * sum_k (2k - n + 1) x_(k).
    sorted_samples = np.sort(samples, axis=0)
    ranks = 2.0 * np.arange(n) - n + 1.0
    pair_sum = 2.0 * np.sum(ranks[:, None] * sorted_samples, axis=0)
    denom = 2.0 * n * (n - 1) if unbiased else 2.0 * n * n
    return float(np.mean(abs_error - pair_sum / denom))


def crps_gaussian(mean: Array, std: Array, truth: Array) -> float:
    """Closed-form CRPS of a Gaussian forecast, averaged over dimensions.

    ``CRPS(N(m, s^2), y) = s * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi))``
    with ``z = (y - m) / s``.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    std = np.broadcast_to(np.asarray(std, dtype=float), mean.shape)
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if mean.shape != truth.shape:
        raise ValueError(f"dimension mismatch: {mean.shape} vs {truth.shape}")
    if np.any(std <= 0):
        raise ValueError("std must be positive")
    z = (truth - mean) / std
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z**2)
    return float(np.mean(std * (z * (2.0 * _norm_cdf(z) - 1.0) + 2.0 * phi - _INV_SQRT_PI)))


def ensemble_metrics(step: int, ensemble: Array, truth: Array) -> MetricRow:
    """All four metrics of an ensemble against a reference state."""
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    return MetricRow(
        step=step,
        rmse=rmse(ensemble.mean(axis=0), truth),
        spread=spread(ensemble),
        coverage=coverage(ensemble, truth),
        crps=crps(ensemble, truth),
    )


def gaussian_metrics(step: int, mean: Array, std: Array, truth: Array) -> MetricRow:
    """Metric row for an exact Gaussian posterior (e.g. the Kalman filter).

    Spread is the root mean of the marginal variances; coverage checks the
    exact central 95% interval ``mean ± 1.96 std`` per dimension.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    std = np.broadcast_to(np.asarray(std, dtype=float), mean.shape)
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    covered = np.mean(np.abs(truth - mean) <= _Z_HI * std)
    return MetricRow(
        step=step,
        rmse=rmse(mean, truth),
        spread=float(np.sqrt(np.mean(std**2))),
        coverage=float(covered),
        crps=crps_gaussian(mean, std, truth),
    )
