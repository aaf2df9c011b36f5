"""Reference computations and output checks, written apart from ``ssls``.

Nothing here imports the package under test: the Kalman recursion, the grid
filter, the CRPS formulas and the CSV parsing are this directory's own, so a
fault in the program cannot cancel out against the same fault in its check.
The per-observation checks return one boolean per step (``True`` =
accepted); the whole-run ones return a number or a boolean.
"""

from __future__ import annotations

import csv
import math

import numpy as np

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


# --------------------------------------------------------------------------
# Reference estimates
# --------------------------------------------------------------------------

def scalar_kalman(obs, q, r, m0, p0):
    """Exact filtering means and variances of ``x' = x + N(0, q)``, ``y = x + N(0, r)``.

    The first observation updates ``N(m0, p0)`` directly; every later one is
    a predict-then-update step.
    """
    means, variances = [], []
    m, p = m0, p0
    for k, y in enumerate(obs):
        if k:
            p = p + q
        gain = p / (p + r)
        m = m + gain * (y - m)
        p = (1.0 - gain) * p
        means.append(m)
        variances.append(p)
    return np.array(means), np.array(variances)


def gaussian_crps(mean, std, truth):
    """CRPS of ``N(mean, std^2)`` at ``truth`` (elementwise)."""
    z = (truth - mean) / std
    pdf = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    return std * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - _INV_SQRT_PI)


def double_well_grid_filter(obs, flips, beta, dt, gamma, obs_std, x0_mean, x0_std,
                            half_width=3.0, cells=601):
    """Exact Bayes filter of the 1-d double well on a regular grid.

    Transition ``x' ~ N(x - dt U'(x), beta^2 dt)`` with ``U = x^4 - 2x^2``,
    observation ``y ~ N(exp(x - gamma), obs_std^2)``.  ``flips`` holds the
    1-based steps after which the state was negated; the grid is symmetric,
    so a flip reverses the density.  Returns the posterior mean at each step
    and the grid with the posterior densities (one row per step).
    """
    grid = np.linspace(-half_width, half_width, cells)
    step = grid[1] - grid[0]
    drift = grid - dt * (4.0 * grid**3 - 4.0 * grid)
    trans_var = beta**2 * dt
    # kernel[i, j] = density of moving from grid[j] to grid[i].
    kernel = np.exp(-0.5 * (grid[:, None] - drift[None, :]) ** 2 / trans_var)
    kernel /= kernel.sum(axis=0, keepdims=True)
    density = np.exp(-0.5 * ((grid - x0_mean) / x0_std) ** 2)
    density /= density.sum()
    means, posteriors = [], []
    for k, y in enumerate(obs, start=1):
        if k > 1:
            density = kernel @ density
        log_lik = -0.5 * ((y - np.exp(grid - gamma)) / obs_std) ** 2
        density = density * np.exp(log_lik - log_lik.max())
        density /= density.sum()
        means.append(float(grid @ density))
        posteriors.append(density.copy())
        if k in flips:
            density = density[::-1].copy()
    return np.array(means), grid, np.array(posteriors), step


def grid_crps(grid, weights, step, truth):
    """CRPS of a distribution given by point masses on a regular grid."""
    cdf = np.cumsum(weights)
    heaviside = (grid >= truth).astype(float)
    return float(np.sum((cdf - heaviside) ** 2) * step)


# --------------------------------------------------------------------------
# Per-observation checks
# --------------------------------------------------------------------------

def kalman_tracking(means, variances, k_means, k_vars, n, var_from=3):
    """SSLS against the exact posterior: the acceptance criterion-1 bounds.

    Each step's mean lies within ``3 sqrt(P_k / n) + 0.1`` of the Kalman
    mean, and from step ``var_from`` on its variance lies within 30% of
    ``P_k``.
    """
    ok = []
    for k, (m, v, km, kv) in enumerate(zip(means, variances, k_means, k_vars), start=1):
        good = abs(m - km) <= 3.0 * math.sqrt(kv / n) + 0.1
        if k >= var_from:
            good = good and abs(v - kv) / kv <= 0.30
        ok.append(bool(good))
    return ok


def sign_test(means, states, flips, window):
    """The ensemble mean sits in the reference's well, outside the windows.

    Steps ``t+1 .. t+window`` after each flip at ``t`` are the stated
    recovery window and always pass.
    """
    skip = {t + j for t in flips for j in range(1, window + 1)}
    return [bool(k in skip or np.sign(m) == np.sign(s))
            for k, (m, s) in enumerate(zip(means, states), start=1)]


def within_posterior(means, k_means, k_vars, z=6.0):
    """Ensemble means within ``z`` exact posterior standard deviations.

    A gross-error band per step: a resampling filter whose ensemble has
    collapsed onto one particle still lands well inside it.
    """
    return [bool(abs(m - km) <= z * math.sqrt(kv))
            for m, km, kv in zip(means, k_means, k_vars)]


def median_standard_errors(means, k_means, k_vars, n):
    """Median over steps of ``|mean - exact mean|`` in Monte-Carlo standard errors."""
    z = np.abs(np.asarray(means) - k_means) / np.sqrt(np.asarray(k_vars) / n)
    return float(np.median(z)) if z.size else math.inf


def exact_match(values, reference, tol=1e-9):
    return [bool(abs(v - r) <= tol) for v, r in zip(values, reference)]


def finite_rows(means):
    return [bool(np.all(np.isfinite(m))) for m in means]


# --------------------------------------------------------------------------
# Whole-run checks and summaries
# --------------------------------------------------------------------------

def rmse_series(means, states):
    """Per-step RMSE over dimensions of ``means`` against ``states``."""
    diff = np.asarray(means, dtype=float) - np.asarray(states, dtype=float)
    return np.sqrt(np.mean(diff**2, axis=1))


def observation_rmse(observations, states):
    """Time-averaged RMSE of the raw observations as a state estimate."""
    return float(np.mean(rmse_series(observations, states)))


def read_csv(path):
    """Header and rows of a CSV file, with numbers parsed as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[float(v) for v in row] for row in body]
