"""Ensemble verification metrics.

Four scores summarize how well a filtering ensemble matches the reference
state at one time step: RMSE of the ensemble mean, ensemble spread, coverage
of the central 95% marginal intervals, and the continuous ranked probability
score.  :func:`ensemble_metrics` and :func:`gaussian_metrics` give all four
as a :class:`MetricRow`; :func:`crps` scores an ensemble of any size.  All
are pure and permutation-invariant in the ensemble.  An ensemble is an
``(n, d)`` array of n particles, or a 1-D array of n samples of one dimension.
"""

from __future__ import annotations

import functools
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


def _norm_cdf(z: Array) -> Array:
    """Standard normal CDF ``Phi(z) = erfc(-z / sqrt(2)) / 2``, elementwise.

    ``erfc`` keeps its relative accuracy in the lower tail, where
    ``1 + erf(z / sqrt(2))`` would cancel.  Returns float64 of ``z``'s shape.
    """
    z = np.asarray(z, dtype=float)
    erfc = [math.erfc(v) for v in (-z * _SQRT_HALF).ravel().tolist()]
    return 0.5 * np.array(erfc).reshape(z.shape)


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


def _mean(values: Array) -> float:
    """``np.mean(values)`` as a float: the same sum and division."""
    return float(np.add.reduce(values) / values.size)


def _moments(ensemble: Array) -> tuple[Array, Array]:
    """Per-dimension mean and unbiased variance of an ``(n, d)`` ensemble, by
    the reductions of ``ndarray.mean`` and ``ndarray.var`` (bit-identical)."""
    n = ensemble.shape[0]
    mean = np.add.reduce(ensemble, axis=0) / n
    dev = ensemble - mean
    dev *= dev
    return mean, np.add.reduce(dev, axis=0) / (n - 1)


@functools.lru_cache(maxsize=8)
def _order_weights(n: int) -> tuple[tuple[tuple[int, float], ...], Array]:
    """Type-7 ``(index, fraction)`` of both coverage bounds among ``n`` sorted
    values (``np.quantile``'s virtual index ``(n - 1) q``), and CRPS weights:
    for sorted values ``sum_ij |x_i - x_j| = 2 sum_k (2k - n + 1) x_(k)``."""
    virtual = [(n - 1) * q for q in (_COVERAGE_LO, _COVERAGE_HI)]
    ranks = (2.0 * np.arange(n) - n + 1.0)[:, None]
    ranks.flags.writeable = False
    return tuple((math.floor(v), v - math.floor(v)) for v in virtual), ranks


def _checked(ensemble: Array, truth: Array, min_particles: int, name: str) -> tuple[Array, Array]:
    """``ensemble`` as a float ``(n, d)`` array, a 1-D array being n samples of
    one dimension, and ``truth`` as a float array of the shape of one row."""
    ensemble = np.asarray(ensemble, dtype=float)
    if ensemble.ndim == 1:
        ensemble = ensemble[:, None]
    if ensemble.ndim != 2:
        raise ValueError(f"an ensemble must be 1-D or 2-D, got {ensemble.ndim}-D")
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if ensemble.shape[0] < min_particles:
        raise ValueError(f"{name} needs at least {min_particles} particle(s)")
    if truth.shape != ensemble.shape[1:]:
        raise ValueError(f"dimension mismatch: {ensemble.shape[1:]} vs {truth.shape}")
    return ensemble, truth


def _lerp(a: Array, b: Array, t: float) -> Array:
    """``a + (b - a) t``, from ``t >= 0.5`` as ``b - (b - a)(1 - t)``, like ``np.quantile``."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _crps(samples: Array, ordered: Array, truth: Array) -> float:
    n = samples.shape[0]
    abs_error = np.add.reduce(np.abs(samples - truth), axis=0) / n
    pair_sum = 2.0 * np.add.reduce(_order_weights(n)[1] * ordered, axis=0)
    return _mean(abs_error - pair_sum / (2.0 * n * n))


def crps(samples: Array, truth: Array) -> float:
    """Continuous ranked probability score of an empirical forecast.

    Uses the energy form ``mean_i |x_i - y| - (1/(2 n^2)) sum_ij |x_i - x_j|``
    per dimension; multi-dimensional inputs return the average of the
    per-dimension scores.

    Parameters
    ----------
    samples : ndarray, shape (n,) or (n, d)
        Forecast ensemble.
    truth : float or ndarray of shape (d,)
        Verifying value.
    """
    samples, truth = _checked(samples, truth, 1, "crps")
    return _crps(samples, np.sort(samples, axis=0), truth)


def ensemble_metrics(step: int, ensemble: Array, truth: Array) -> MetricRow:
    """All four metrics of an ensemble against a reference state, from one
    check of the inputs, one mean and variance and one sort per column.

    Spread is the root mean trace of the unbiased ensemble covariance.
    Coverage is the fraction of dimensions whose central 95% interval, from
    the empirical 2.5% and 97.5% quantiles of each marginal, holds the truth.
    CRPS is that of :func:`crps`.
    """
    ensemble, truth = _checked(ensemble, truth, 2, "ensemble_metrics")
    mean, var = _moments(ensemble)
    ordered = np.sort(ensemble, axis=0)
    (i, t), (j, u) = _order_weights(ordered.shape[0])[0]
    covered = truth >= _lerp(ordered[i], ordered[i + 1], t)
    covered &= truth <= _lerp(ordered[j], ordered[j + 1], u)
    # NaNs sort last; np.quantile gives NaN bounds to any column that holds one.
    covered &= ~np.isnan(ordered[-1])
    return MetricRow(step, rmse=math.sqrt(_mean((mean - truth) ** 2)), spread=math.sqrt(_mean(var)),
                     coverage=_mean(covered), crps=_crps(ensemble, ordered, truth))


def gaussian_metrics(step: int, mean: Array, std: Array, truth: Array) -> MetricRow:
    """Metric row for an exact Gaussian posterior (e.g. the Kalman filter).

    Spread is the root mean of the marginal variances; coverage checks the
    exact central 95% interval ``mean ± 1.96 std`` per dimension.  CRPS is
    the closed form ``s (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi))`` with
    ``z = (y - m) / s``, averaged over dimensions.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    std = np.asarray(std, dtype=float)
    if std.shape != mean.shape:
        std = np.full(mean.shape, std)
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if mean.shape != truth.shape:
        raise ValueError(f"dimension mismatch: {mean.shape} vs {truth.shape}")
    if (std <= 0).any():
        raise ValueError("std must be positive")
    z = (truth - mean) / std
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z**2)
    return MetricRow(step, rmse=math.sqrt(_mean((mean - truth) ** 2)),
                     spread=math.sqrt(_mean(std**2)),
                     coverage=_mean(np.abs(truth - mean) <= _Z_HI * std),
                     crps=_mean(std * (z * (2.0 * _norm_cdf(z) - 1.0) + 2.0 * phi - _INV_SQRT_PI)))
