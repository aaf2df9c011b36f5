"""State-space models and reference-trajectory simulation.

A state-space model couples a Markov dynamics model with a noisy measurement
model.  This module defines the :class:`ModelSpec` container used by every
filter in the package, together with three concrete testbeds:

* a one-dimensional linear-Gaussian random walk (exact posterior available
  through the Kalman filter),
* a Langevin diffusion in a double-well potential with either a linear or an
  exponential measurement operator,
* the Lorenz-96 system discretized with a classical fourth-order Runge-Kutta
  scheme.

All model callables broadcast over leading axes, so a single definition
serves both scalar states of shape ``(d,)`` and particle ensembles of shape
``(n, d)``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator

Array = np.ndarray


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_real(name: str, value, sign: str = "") -> float:
    """``value`` as a float; a ``ValueError`` naming ``name`` if it is invalid.

    ``value`` must be a Python or NumPy real number (a bool is not one: it
    would pass as 0 or 1) and finite (an integer beyond the float range is
    not), and of the sign ``"positive"`` or ``"non-negative"`` when given.
    """
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or (sign and (x < 0 or (x == 0 and sign == "positive"))):
        raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}finite")
    return x


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer of at least ``least``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


@dataclass
class ModelSpec:
    """A state-space model expressed as a bundle of callables.

    Attributes
    ----------
    state_dim : int
        Dimension ``d`` of the latent state.
    obs_dim : int
        Dimension of an observation vector.
    dynamics : callable
        ``(state, noise) -> state`` advancing one discrete time step.
        Broadcasts over leading axes.  A noise draw has the state's shape;
        with a zero draw the map is deterministic.
    dynamics_noise_sampler : callable
        ``(rng, n) -> (n, d)`` array of independent noise draws.
    log_likelihood : callable
        ``(state, observation) -> float`` log-density of the observation
        given the state, up to an additive constant.  For batched states of
        shape ``(n, d)`` returns shape ``(n,)``.
    log_likelihood_grad : callable
        ``(state, observation) -> (d,)`` gradient of ``log_likelihood`` with
        respect to the state.
    initial_prior_sampler : callable
        ``(rng, n) -> (n, d)`` samples from the assimilator's guess for the
        initial prior.
    reference_initial_sampler : callable
        ``(rng, n) -> (n, d)`` samples from the true initial law used to
        generate reference trajectories.  May differ from the guess prior.
    observation_mean : callable
        ``(state) -> (obs_dim,)`` the noise-free measurement operator.
    obs_noise_std : float
        Standard deviation of the additive Gaussian measurement noise.
    """

    state_dim: int
    obs_dim: int
    dynamics: Callable[[Array, Array], Array]
    dynamics_noise_sampler: Callable[[Generator, int], Array]
    log_likelihood: Callable[[Array, Array], Array]
    log_likelihood_grad: Callable[[Array, Array], Array]
    initial_prior_sampler: Callable[[Generator, int], Array]
    reference_initial_sampler: Callable[[Generator, int], Array]
    observation_mean: Callable[[Array], Array]
    obs_noise_std: float

    def sample_observation(self, rng: Generator, state: Array) -> Array:
        """Draw one noisy observation of ``state``."""
        mean = np.asarray(self.observation_mean(state), dtype=float)
        return mean + self.obs_noise_std * rng.standard_normal(mean.shape)

    def replace(self, **changes) -> "ModelSpec":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ReferenceRun:
    """A simulated reference trajectory with its observation sequence.

    Attributes
    ----------
    states : ndarray, shape (K, d)
        Reference states ``X_1 .. X_K``.
    observations : ndarray, shape (K, obs_dim)
        Observations ``Y_1 .. Y_K``, one per state.
    mutation_times : tuple of int
        Time indices (1-based) at which a sign-flip mutation was applied.
    """

    states: Array
    observations: Array
    mutation_times: tuple[int, ...] = ()

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        observations = np.atleast_2d(np.asarray(self.observations, dtype=float))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "mutation_times", tuple(int(t) for t in self.mutation_times))
        if len(self.states) != len(self.observations):
            raise ValueError(
                f"states ({len(self.states)}) and observations "
                f"({len(self.observations)}) must have equal length"
            )
        # np.atleast_2d makes an empty 1-D array one step of zero width.
        if self.states.size == 0:
            raise ValueError("a reference run needs at least one step")
        k = len(self.states)
        for t in self.mutation_times:
            if not 1 <= t <= k:
                raise ValueError(f"mutation time {t} outside [1, {k}]")

    def __len__(self) -> int:
        return len(self.states)


# make_linear_gaussian's constants, named as in LinearGaussianSpec:
# X_1 ~ N(m0, P0), X_{k+1} = A X_k + N(0, Q), Y_k = H X_k + N(0, R).
LINEAR_GAUSSIAN = {"A": 1.0, "Q": 5.0, "H": 1.0, "R": 0.2, "m0": 0.0, "P0": 1.0}


def _gaussian_observation(obs_var: float, measure=lambda x: x, slope=lambda h: 1.0) -> dict:
    """``ModelSpec`` callables for ``Y = h(X) + W`` with ``W ~ N(0, obs_var I)``.

    ``measure`` is the coordinate-wise operator ``h`` and ``slope(h(x))``
    its derivative at ``x``, written through ``h(x)``.  The defaults observe
    the state directly; multiplying by their slope 1.0 changes no bit.
    """

    def observation_mean(x):
        return measure(np.asarray(x, dtype=float))

    def log_likelihood(x, y):
        resid = np.asarray(y, dtype=float) - observation_mean(x)
        return -0.5 * np.sum(resid**2, axis=-1) / obs_var

    def log_likelihood_grad(x, y):
        h = observation_mean(x)
        return (np.asarray(y, dtype=float) - h) * slope(h) / obs_var

    return {f.__name__: f for f in (observation_mean, log_likelihood, log_likelihood_grad)}


def make_linear_gaussian() -> ModelSpec:
    """One-dimensional linear-Gaussian random walk.

    Dynamics ``X_{k+1} = X_k + V_k`` with ``V_k ~ N(0, 5)``; measurement
    ``Y_k = X_k + W_k`` with ``W_k ~ N(0, 0.2)``; the true initial law is
    ``X_1 ~ N(0, 1)``, and the guess prior is the true initial law (see
    :func:`shift_prior` to study initialization error).
    """
    process_var = LINEAR_GAUSSIAN["Q"]
    obs_var = LINEAR_GAUSSIAN["R"]

    def dynamics(x, v):
        return x + v

    def noise(rng, n):
        return np.sqrt(process_var) * rng.standard_normal((n, 1))

    def reference_prior(rng, n):
        return rng.standard_normal((n, 1))

    return ModelSpec(
        state_dim=1,
        obs_dim=1,
        dynamics=dynamics,
        dynamics_noise_sampler=noise,
        initial_prior_sampler=reference_prior,
        reference_initial_sampler=reference_prior,
        obs_noise_std=float(np.sqrt(obs_var)),
        **_gaussian_observation(obs_var),
    )


def shift_prior(model: ModelSpec, init_prior_shift: float) -> ModelSpec:
    """``model`` with its guess prior moved by ``init_prior_shift``; the true law stays."""
    init_prior_shift = _check_real("init_prior_shift", init_prior_shift)
    base = model.initial_prior_sampler
    return model.replace(initial_prior_sampler=lambda rng, n: base(rng, n) + init_prior_shift)


def double_well_potential_grad(x: Array) -> Array:
    """Gradient of the double-well potential ``U(x) = x^4 - 2 x^2``."""
    x = np.asarray(x, dtype=float)
    return 4.0 * x**3 - 4.0 * x


def make_double_well(
    beta: float = 0.3,
    dt: float = 0.1,
    measurement: str = "linear",
    obs_noise_std: float | None = None,
    gamma: float = 0.6,
) -> ModelSpec:
    """Langevin diffusion in a double-well potential.

    The dynamics are the Euler-Maruyama discretization
    ``X_{k+1} = X_k - dt * U'(X_k) + beta * sqrt(dt) * V_k`` with
    ``U(x) = x^4 - 2 x^2`` and ``V_k ~ N(0, 1)``.  Two measurement models are
    supported:

    * ``"linear"``: ``Y_k = X_k + obs_noise_std * W_k``,
    * ``"nonlinear"``: ``Y_k = exp(X_k - gamma) + obs_noise_std * W_k``.

    The initial law (both the guess prior and the reference initial law) is
    ``N(-1, 0.15^2)``, a particle resting in the left well.

    Parameters
    ----------
    beta : float
        Temperature of the diffusion; larger values cross wells more often.
    dt : float
        Time step of the discretization.
    measurement : {"linear", "nonlinear"}
        Which measurement operator to attach.
    obs_noise_std : float, optional
        Measurement noise level; defaults to 0.1 (linear) or 0.2 (nonlinear).
    gamma : float
        Offset of the exponential measurement operator.
    """
    beta = _check_real("beta", beta, "positive")
    dt = _check_real("dt", dt, "positive")
    gamma = _check_real("gamma", gamma)
    if measurement not in ("linear", "nonlinear"):
        raise ValueError(f"unknown measurement model {measurement!r}")
    if obs_noise_std is None:
        obs_noise_std = 0.1 if measurement == "linear" else 0.2
    obs_noise_std = _check_real("obs_noise_std", obs_noise_std, "positive")
    obs_var = obs_noise_std**2

    def dynamics(x, v):
        x = np.asarray(x, dtype=float)
        return x - dt * double_well_potential_grad(x) + beta * np.sqrt(dt) * v

    def noise(rng, n):
        return rng.standard_normal((n, 1))

    if measurement == "linear":
        observation = _gaussian_observation(obs_var)
    else:
        observation = _gaussian_observation(obs_var, lambda x: np.exp(x - gamma), lambda h: h)

    def initial(rng, n):
        return -1.0 + 0.15 * rng.standard_normal((n, 1))

    return ModelSpec(
        state_dim=1,
        obs_dim=1,
        dynamics=dynamics,
        dynamics_noise_sampler=noise,
        initial_prior_sampler=initial,
        reference_initial_sampler=initial,
        obs_noise_std=obs_noise_std,
        **observation,
    )


@functools.lru_cache(maxsize=None)
def _cyclic_neighbours(dim: int) -> tuple[Array, Array, Array]:
    """Read-only index arrays of ``i + 1``, ``i - 1`` and ``i - 2`` modulo ``dim``."""
    i = np.arange(dim)
    indices = ((i + 1) % dim, (i - 1) % dim, (i - 2) % dim)
    for idx in indices:
        idx.setflags(write=False)
    return indices


def lorenz96_rhs(z: Array, forcing: float) -> Array:
    """Right-hand side of the Lorenz-96 ODE with cyclic indexing.

    ``dZ_i/dt = (Z_{i+1} - Z_{i-2}) Z_{i-1} - Z_i + F`` along the last axis.
    The neighbours are gathered with cached index arrays, which costs far
    less than ``np.roll`` on the small states of interest.
    """
    z = np.asarray(z, dtype=float)
    p1, m1, m2 = _cyclic_neighbours(z.shape[-1])
    return (z[..., p1] - z[..., m2]) * z[..., m1] - z + forcing


def rk4_step(rhs: Callable[[Array], Array], z: Array, dt: float) -> Array:
    """One classical fourth-order Runge-Kutta step of ``z' = rhs(z)``."""
    dt = _check_real("dt", dt, "positive")
    k1 = rhs(z)
    k2 = rhs(z + 0.5 * dt * k1)
    k3 = rhs(z + 0.5 * dt * k2)
    k4 = rhs(z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def make_lorenz96(
    dim: int = 20,
    forcing: float = 8.0,
    dt: float = 0.05,
    process_noise_std: float = float(np.sqrt(0.1)),
    obs_noise_std: float = 0.5,
    spinup_steps: int = 300,
) -> ModelSpec:
    """Lorenz-96 system observed with additive Gaussian noise.

    One dynamics step applies an RK4 macro-step of length ``dt`` followed by
    an additive Gaussian stabilization noise with per-dimension standard
    deviation ``process_noise_std``.  The measurement model is
    ``Y_k = X_k + obs_noise_std * W_k`` with ``W_k ~ N(0, I)``.

    The guess prior is ``N(0, I)``.  Reference initial states are drawn from
    the attractor: a random perturbation of the ``Z = F`` equilibrium is
    integrated forward for ``spinup_steps`` noise-free RK4 steps, so the true
    initial law differs deliberately from the guess prior.

    Parameters
    ----------
    dim : int
        State dimension; the cyclic index scheme requires ``dim >= 4``.
    forcing : float
        Constant forcing ``F``; 8 gives fully chaotic dynamics.
    dt : float
        RK4 macro-step length.
    process_noise_std : float
        Stabilization noise level, applied once per macro-step.
    obs_noise_std : float
        Measurement noise level.
    spinup_steps : int
        Number of deterministic steps used to reach the attractor when
        sampling reference initial states.
    """
    _check_count("dim", dim, 4)  # for cyclic indexing
    _check_count("spinup_steps", spinup_steps, 0)
    forcing = _check_real("forcing", forcing)
    dt = _check_real("dt", dt, "positive")
    process_noise_std = _check_real("process_noise_std", process_noise_std, "non-negative")
    obs_noise_std = _check_real("obs_noise_std", obs_noise_std, "positive")
    obs_var = obs_noise_std**2

    def rhs(z):
        return lorenz96_rhs(z, forcing)

    def dynamics(x, v):
        return rk4_step(rhs, np.asarray(x, dtype=float), dt) + v

    def noise(rng, n):
        if process_noise_std == 0.0:
            return np.zeros((n, dim))
        return process_noise_std * rng.standard_normal((n, dim))

    def guess_prior(rng, n):
        return rng.standard_normal((n, dim))

    def reference_prior(rng, n):
        z = forcing + rng.standard_normal((n, dim))
        for _ in range(spinup_steps):
            z = rk4_step(rhs, z, dt)
        return z

    return ModelSpec(
        state_dim=dim,
        obs_dim=dim,
        dynamics=dynamics,
        dynamics_noise_sampler=noise,
        initial_prior_sampler=guess_prior,
        reference_initial_sampler=reference_prior,
        obs_noise_std=obs_noise_std,
        **_gaussian_observation(obs_var),
    )


def simulate_reference(
    model: ModelSpec,
    steps: int,
    mutation_period: int | None = None,
    rng: Generator | None = None,
) -> ReferenceRun:
    """Simulate a reference trajectory and its observations.

    The initial state is drawn from ``model.reference_initial_sampler``.  At
    every time index below ``steps`` that is a multiple of
    ``mutation_period`` the state is negated before the next dynamics step,
    producing the sign-flip mutations used by the double-well experiments.
    One observation is drawn at each of the ``steps`` stored states.

    Parameters
    ----------
    model : ModelSpec
        The generating state-space model.
    steps : int
        Number of time steps ``K >= 1``.
    mutation_period : int, optional
        Apply a sign flip every this many steps; ``None`` disables mutations.
    rng : numpy.random.Generator
        Source of randomness; a fixed seed makes the run bit-reproducible.
    """
    _check_count("steps", steps)
    if mutation_period is not None:
        _check_count("mutation_period", mutation_period)
    if rng is None:
        rng = np.random.default_rng()

    states = np.empty((steps, model.state_dim))
    observations = np.empty((steps, model.obs_dim))
    mutation_times: list[int] = []

    x = model.reference_initial_sampler(rng, 1)[0]
    for k in range(1, steps + 1):
        states[k - 1] = x
        observations[k - 1] = model.sample_observation(rng, x)
        if k < steps:
            # A flip after the last stored state would change nothing.
            if mutation_period is not None and k % mutation_period == 0:
                mutation_times.append(k)
                x = -x
            v = model.dynamics_noise_sampler(rng, 1)[0]
            x = model.dynamics(x, v)

    return ReferenceRun(
        states=states,
        observations=observations,
        mutation_times=tuple(mutation_times),
    )
