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

Array = np.ndarray


class NonFiniteEnsembleError(RuntimeError):
    """A particle became NaN or infinite during Langevin updates."""

    def __init__(self, temperature_index: int, iteration: int):
        self.temperature_index = temperature_index
        self.iteration = iteration
        super().__init__(
            f"non-finite particle at temperature {temperature_index}, "
            f"inner iteration {iteration}"
        )


def make_schedule(num_temperatures: int) -> Array:
    """Linear inverse-temperature ladder ``beta_m = m / M``, ending at exactly 1.

    A single temperature gives ``[1.0]``, i.e. vanilla (non-annealed)
    Langevin Monte Carlo.
    """
    if num_temperatures < 1:
        raise ValueError("need at least one temperature")
    betas = np.arange(1, num_temperatures + 1) / num_temperatures
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
    clip_norm : float, optional
        Maximum L2 norm of the combined per-particle drift; ``None``
        disables clipping.
    """

    betas: Array = field(default_factory=lambda: make_schedule(10))
    n_inner: int = 20
    step_size: float = 0.01
    clip_norm: float | None = 100.0

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=float)
        if self.betas.ndim != 1 or self.betas.size < 1:
            raise ValueError("betas must be a non-empty 1-d array")
        if np.any(np.diff(self.betas) <= 0):
            raise ValueError("betas must be strictly increasing")
        if self.betas[0] <= 0 or self.betas[-1] != 1.0:
            raise ValueError("betas must lie in (0, 1] and end at exactly 1")
        if self.n_inner < 1:
            raise ValueError("n_inner must be at least 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")

    @property
    def num_temperatures(self) -> int:
        return self.betas.size


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
    ``beta_m * grad_loglik_fn(z) + score_fn(z)`` (clipped to
    ``plan.clip_norm`` when configured), carrying the final particles of one
    temperature into the next.  Returns an ensemble of the same size
    approximating the posterior.

    Raises
    ------
    NonFiniteEnsembleError
        If any particle becomes non-finite; the exception records the
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
            drift = drift_buf
            if plan.clip_norm is not None:
                # drift_buf itself unless some row was clipped.
                drift = clip_score(drift, plan.clip_norm)
            np.multiply(drift, h, out=drift_buf)
            z += drift_buf
            rng.standard_normal(out=noise)
            noise *= root_2h
            z += noise
            if not np.isfinite(z).all():
                raise NonFiniteEnsembleError(m, ell)
    return z
