"""Langevin Monte Carlo and its annealed variant.

The update stage of the assimilation loop moves a particle ensemble from the
prediction distribution to the posterior.  The drift of the underlying
Langevin diffusion is ``score(x) + grad_log_likelihood(x)``; annealing
replaces the likelihood term with ``beta_m * grad_log_likelihood`` for an
increasing ladder of inverse temperatures ending at 1, running a fixed
number of Euler-Maruyama steps at each temperature and chaining the final
particles into the next one.

Particles are updated as whole ``(n, d)`` arrays with one fresh Gaussian
draw per inner iteration, so a fixed generator seed reproduces the exact
ensemble regardless of how the vectorized arithmetic is scheduled.
:func:`almc_update` updates its particle array in place and reuses one
drift and one noise array across iterations.  The score function it is
given is called once per iteration; a :class:`~ssls.score_net.ScoreNetwork`
writes into its own workspace, so it must not be shared with a concurrent
update on another thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

from .models import _check_count, _check_real

Array = np.ndarray


def make_schedule(n_temperatures: int) -> Array:
    """Linear inverse-temperature ladder ``beta_m = m / M``, ending at exactly 1.

    A single temperature gives ``[1.0]``, i.e. vanilla (non-annealed)
    Langevin Monte Carlo.
    """
    _check_count("n_temperatures", n_temperatures)
    betas = np.arange(1, n_temperatures + 1) / n_temperatures
    betas[-1] = 1.0
    return betas


@dataclass
class AnnealPlan:
    """Settings for one annealed Langevin update.

    Attributes
    ----------
    betas : ndarray
        Strictly increasing inverse temperatures in ``(0, 1]`` with the last
        entry exactly 1.
    n_inner : int
        Langevin iterations ``K`` per temperature.
    step_size : float
        Euler-Maruyama step size ``h``.
    """

    betas: Array = field(default_factory=lambda: make_schedule(10))
    n_inner: int = 20
    step_size: float = 0.01

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=float)
        if self.betas.ndim != 1 or self.betas.size < 1:
            raise ValueError("betas must be a non-empty 1-d array")
        if not np.isfinite(self.betas).all():
            raise ValueError("betas must be finite")
        if np.any(np.diff(self.betas) <= 0):
            raise ValueError("betas must be strictly increasing")
        if self.betas[0] <= 0 or self.betas[-1] != 1.0:
            raise ValueError("betas must lie in (0, 1] and end at exactly 1")
        _check_count("n_inner", self.n_inner)
        _check_real("step_size", self.step_size)
        # A chained comparison is False for NaN, so it also rejects NaN.
        if not 0 < self.step_size < np.inf:
            raise ValueError("step_size must be positive and finite")

    @property
    def num_temperatures(self) -> int:
        return self.betas.size


# No sampler step calls this; the benchmark's tracer (bench/tracing.py) wraps it.
def clip_score(v: Array, max_norm: float) -> Array:
    """Rescale vectors whose L2 norm exceeds ``max_norm``; direction kept.

    Operates on the last axis, so an ``(n, d)`` array is clipped per row.
    When no row exceeds ``max_norm``, the float array ``v`` itself is
    returned; otherwise a clipped copy.  The input is never modified.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    v = np.asarray(v, dtype=float)
    # The same arithmetic as np.linalg.norm(v, axis=-1), so rows exactly at
    # the threshold are treated alike.
    norm = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    # Non-finite rows pass through unchanged so callers can detect them.
    needs_clip = norm > max_norm
    needs_clip &= np.isfinite(norm)
    if not needs_clip.any():
        return v
    factor = np.ones_like(norm)
    np.divide(max_norm, norm, out=factor, where=needs_clip)
    return v * factor


def almc_update(
    predicted: Array,
    score_fn,
    grad_loglik_fn,
    plan: AnnealPlan,
    rng: Generator,
) -> Array:
    """Annealed Langevin Monte Carlo update of a predicted ensemble.

    Starting from the predicted particles, runs ``plan.n_inner``
    Euler-Maruyama steps at each inverse temperature with drift
    ``beta_m * grad_loglik_fn(z) + score_fn(z)``, carrying the final
    particles of one temperature into the next.  Returns an ensemble of the
    same size approximating the posterior.

    Raises
    ------
    FloatingPointError
        If any particle becomes non-finite; the message names the
        temperature index (1-based) and inner iteration.
    """
    z = np.array(predicted, dtype=float)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("predicted ensemble must be a non-empty (n, d) array")
    h = plan.step_size
    root_2h = np.sqrt(2.0 * h)
    drift_buf = np.empty_like(z)
    noise = np.empty_like(z)
    for m, beta in enumerate(plan.betas, start=1):
        for ell in range(plan.n_inner):
            # z <- (z + h * drift) + sqrt(2h) * noise, drift = beta * grad + score
            np.multiply(grad_loglik_fn(z), beta, out=drift_buf)
            drift_buf += score_fn(z)
            drift_buf *= h
            z += drift_buf
            rng.standard_normal(out=noise)
            noise *= root_2h
            z += noise
            if not np.isfinite(z).all():
                raise FloatingPointError(
                    f"non-finite particle at temperature {m}, inner iteration {ell}"
                )
    return z
