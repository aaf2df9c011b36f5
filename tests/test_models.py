"""Model definitions: hand-computed values, gradients, and simulation."""

import functools
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssls.assimilator import SslsConfig
from ssls.baselines import run_enkf
from ssls.models import (
    ReferenceRun,
    double_well_potential_grad,
    lorenz96_rhs,
    make_double_well,
    make_linear_gaussian,
    make_lorenz96,
    rk4_step,
    shift_prior,
    simulate_reference,
)
from ssls.sampler import AnnealPlan, make_schedule
from ssls.score_net import TrainConfig

ALL_MODELS = {
    "linear_gaussian": lambda: make_linear_gaussian(),
    "double_well_linear": lambda: make_double_well(measurement="linear"),
    "double_well_nonlinear": lambda: make_double_well(measurement="nonlinear"),
    "lorenz96": lambda: make_lorenz96(dim=6),
}


class TestLinearGaussian:
    def test_zero_noise_dynamics_is_identity(self):
        model = make_linear_gaussian()
        x = np.array([3.0])
        assert model.dynamics(x, np.zeros(1)) == pytest.approx(3.0)

    def test_loglik_grad_at_mode_is_zero(self):
        model = make_linear_gaussian()
        assert model.log_likelihood_grad(np.array([0.0]), np.array([0.0]))[0] == 0.0

    def test_loglik_grad_value(self):
        # (y - x) / sigma^2 with sigma^2 = 0.2
        model = make_linear_gaussian()
        g = model.log_likelihood_grad(np.array([0.0]), np.array([1.0]))
        assert g[0] == pytest.approx(5.0)

    def test_guess_prior_shift(self):
        model = shift_prior(make_linear_gaussian(), -10.0)
        samples = model.initial_prior_sampler(np.random.default_rng(0), 4000)
        assert samples.mean() == pytest.approx(-10.0, abs=0.1)
        reference = model.reference_initial_sampler(np.random.default_rng(0), 4000)
        assert reference.mean() == pytest.approx(0.0, abs=0.1)


class TestDoubleWell:
    def test_potential_grad_stationary_at_wells(self):
        assert double_well_potential_grad(1.0) == 0.0
        assert double_well_potential_grad(-1.0) == 0.0

    def test_zero_noise_dynamics_hand_value(self):
        # x - dt*(4x^3 - 4x) at x=0.5, dt=0.1: 0.5 + 0.1*1.5 = 0.65
        model = make_double_well(beta=0.3, dt=0.1)
        out = model.dynamics(np.array([0.5]), np.zeros(1))
        assert out[0] == pytest.approx(0.65)

    def test_nonlinear_grad_zero_at_matching_observation(self):
        # y = exp(gamma - gamma) = 1 gives zero residual
        model = make_double_well(measurement="nonlinear", gamma=0.6)
        g = model.log_likelihood_grad(np.array([0.6]), np.array([1.0]))
        assert g[0] == pytest.approx(0.0, abs=1e-12)

    def test_nonlinear_grad_formula(self):
        model = make_double_well(measurement="nonlinear", gamma=0.6, obs_noise_std=0.2)
        x, y = np.array([0.3]), np.array([0.9])
        h = np.exp(0.3 - 0.6)
        expected = (0.9 - h) * h / 0.04
        assert model.log_likelihood_grad(x, y)[0] == pytest.approx(expected)

    @pytest.mark.parametrize("kwargs", [{"beta": 0.0}, {"dt": -0.1}, {"obs_noise_std": 0.0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_double_well(**kwargs)

    def test_unknown_measurement_rejected(self):
        with pytest.raises(ValueError):
            make_double_well(measurement="quadratic")

    def test_default_noise_levels(self):
        assert make_double_well(measurement="linear").obs_noise_std == 0.1
        assert make_double_well(measurement="nonlinear").obs_noise_std == 0.2


class TestLorenz96:
    def test_constant_forcing_state_is_fixed_point(self):
        z = np.full(20, 8.0)
        assert np.allclose(lorenz96_rhs(z, 8.0), 0.0)

    def test_zero_state_feels_only_forcing(self):
        assert np.allclose(lorenz96_rhs(np.zeros(12), 8.0), 8.0)

    def test_cyclic_indexing_hand_value(self):
        # i=1 (0-based 0) of (1,2,3,4,5): (z_2 - z_4) * z_5 - z_1 = (2-4)*5 - 1
        z = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert lorenz96_rhs(z, 0.0)[0] == pytest.approx(-11.0)

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            make_lorenz96(dim=3)

    @settings(max_examples=200)
    @given(
        z=arrays(np.float64, st.one_of(
            st.tuples(st.integers(1, 40)),
            st.tuples(st.integers(1, 20), st.integers(1, 40)),
        ), elements=st.floats(-1e3, 1e3)),
        forcing=st.floats(-20.0, 20.0),
    )
    def test_matches_roll_formula_bit_for_bit(self, z, forcing):
        zp1 = np.roll(z, -1, axis=-1)
        zm1 = np.roll(z, 1, axis=-1)
        zm2 = np.roll(z, 2, axis=-1)
        want = (zp1 - zm2) * zm1 - z + forcing
        got = lorenz96_rhs(z, forcing)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_fixed_point_preserved_without_noise(self):
        model = make_lorenz96(dim=8, forcing=8.0, dt=0.05, process_noise_std=0.0)
        x = np.full(8, 8.0)
        for _ in range(50):
            x = model.dynamics(x, np.zeros(8))
            assert np.abs(x - 8.0).max() < 1e-12

    def test_zero_process_noise_draws_nothing(self):
        model = make_lorenz96(dim=8, process_noise_std=0.0)
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        noise = model.dynamics_noise_sampler(rng, 5)
        assert noise.shape == (5, 8)
        assert np.all(noise == 0.0)
        assert rng.bit_generator.state == before

    def test_negative_spinup_steps_rejected(self):
        with pytest.raises(ValueError, match="^spinup_steps must be at least 0$"):
            make_lorenz96(dim=8, spinup_steps=-3)

    def test_reference_initial_states_are_on_attractor(self):
        model = make_lorenz96(dim=8)
        z = model.reference_initial_sampler(np.random.default_rng(3), 2)
        # attractor states are bounded and far from both N(0, I) and the equilibrium
        assert np.all(np.abs(z) < 25.0)
        assert not np.allclose(z, 8.0, atol=1.0)


class TestRk4:
    def test_zero_field_keeps_state(self):
        z = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(rk4_step(lambda s: np.zeros_like(s), z, 0.3), z)

    def test_matches_degree_four_taylor_of_exp(self):
        # z' = z from 1 over dt=0.1: sum_{j<=4} 0.1^j / j!
        expected = sum(0.1**j / factorial(j) for j in range(5))
        out = rk4_step(lambda s: s, np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(expected, rel=1e-15)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            rk4_step(lambda s: s, np.array([1.0]), 0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            rk4_step(lambda s: s, np.array([1.0]), dt)


@pytest.mark.parametrize("name", list(ALL_MODELS))
def test_loglik_grad_matches_finite_differences(name):
    """Central differences of log_likelihood reproduce the stored gradient."""
    model = ALL_MODELS[name]()
    rng = np.random.default_rng(7)
    d = model.state_dim
    step = 1e-5
    for _ in range(100):
        x = rng.normal(scale=1.5, size=d)
        y = np.asarray(model.observation_mean(x), dtype=float) + rng.normal(scale=0.3, size=model.obs_dim)
        grad = np.asarray(model.log_likelihood_grad(x, y), dtype=float)
        fd = np.empty(d)
        for i in range(d):
            hi, lo = x.copy(), x.copy()
            hi[i] += step
            lo[i] -= step
            fd[i] = (model.log_likelihood(hi, y) - model.log_likelihood(lo, y)) / (2 * step)
        assert np.all(np.abs(grad - fd) <= 1e-4 * np.maximum(1.0, np.abs(fd)))


@pytest.mark.parametrize("name", list(ALL_MODELS))
def test_dynamics_deterministic_given_zero_noise(name):
    model = ALL_MODELS[name]()
    rng = np.random.default_rng(1)
    x = rng.normal(size=model.state_dim)
    a = model.dynamics(x, np.zeros_like(x))
    b = model.dynamics(x, np.zeros_like(x))
    assert np.array_equal(a, b)


@settings(max_examples=60)
@given(
    name=st.sampled_from(list(ALL_MODELS)),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_callables_treat_each_row_as_one_state(name, n, seed):
    """Every state callable gives on an ``(n, d)`` batch what it gives on
    each ``(d,)`` row; the observation is shared, as in the filters."""
    model = ALL_MODELS[name]()
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=1.5, size=(n, model.state_dim))
    v = rng.normal(size=x.shape)
    y = rng.normal(size=model.obs_dim)
    batched = {
        "dynamics": model.dynamics(x, v),
        "observation_mean": model.observation_mean(x),
        "log_likelihood": model.log_likelihood(x, y),
        "log_likelihood_grad": model.log_likelihood_grad(x, y),
    }
    for i in range(n):
        rows = {
            "dynamics": model.dynamics(x[i], v[i]),
            "observation_mean": model.observation_mean(x[i]),
            "log_likelihood": model.log_likelihood(x[i], y),
            "log_likelihood_grad": model.log_likelihood_grad(x[i], y),
        }
        for key, row in rows.items():
            assert np.shape(row) == np.shape(batched[key][i]), key
            assert np.array_equal(row, batched[key][i]), key


class TestSimulateReference:
    def test_single_step_base_case(self):
        run = simulate_reference(make_linear_gaussian(), 1, rng=np.random.default_rng(0))
        assert run.states.shape == (1, 1)
        assert run.observations.shape == (1, 1)
        assert run.mutation_times == ()

    def test_mutation_times_every_period(self):
        run = simulate_reference(
            make_double_well(), 60, mutation_period=20, rng=np.random.default_rng(0)
        )
        # no flip after the last stored state
        assert run.mutation_times == (20, 40)

    def test_mutation_flips_the_trajectory(self):
        run = simulate_reference(
            make_double_well(beta=0.05), 30, mutation_period=20, rng=np.random.default_rng(2)
        )
        # low temperature: the state sits in one well until the flip at k=20
        assert np.sign(run.states[19, 0]) == -np.sign(run.states[20, 0])

    def test_stationary_noiseless_limit(self):
        model = make_double_well(beta=1e-9, obs_noise_std=1e-12)
        model = model.replace(reference_initial_sampler=lambda rng, n: np.ones((n, 1)))
        run = simulate_reference(model, 10, rng=np.random.default_rng(0))
        assert np.allclose(run.states, 1.0, atol=1e-6)
        assert np.allclose(run.observations, 1.0, atol=1e-6)

    def test_fixed_seed_is_bit_identical(self):
        model = make_lorenz96(dim=5)
        a = simulate_reference(model, 7, mutation_period=3, rng=np.random.default_rng(42))
        b = simulate_reference(model, 7, mutation_period=3, rng=np.random.default_rng(42))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)
        assert a.mutation_times == b.mutation_times

    def test_invalid_arguments_rejected(self):
        model = make_linear_gaussian()
        with pytest.raises(ValueError):
            simulate_reference(model, 0)
        with pytest.raises(ValueError):
            simulate_reference(model, 5, mutation_period=0)


class TestReferenceRun:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReferenceRun(states=np.zeros((3, 1)), observations=np.zeros((2, 1)))

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 1))], ids=["1-d", "2-d"])
    def test_empty_run_rejected(self, empty):
        with pytest.raises(ValueError, match="a reference run needs at least one step"):
            ReferenceRun(states=empty, observations=empty)

    def test_mutation_time_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ReferenceRun(
                states=np.zeros((3, 1)),
                observations=np.zeros((3, 1)),
                mutation_times=(4,),
            )


# Each count of the library's settings, factories and runners, built from a
# keyword argument.
COUNTS = {
    "TrainConfig.epochs": (TrainConfig, "epochs"),
    "TrainConfig.batch_size": (TrainConfig, "batch_size"),
    "AnnealPlan.n_inner": (AnnealPlan, "n_inner"),
    "SslsConfig.ensemble_size": (SslsConfig, "ensemble_size"),
    "SslsConfig.init_epochs": (SslsConfig, "init_epochs"),
    "make_schedule.n_temperatures": (make_schedule, "n_temperatures"),
    "make_lorenz96.dim": (make_lorenz96, "dim"),
    "make_lorenz96.spinup_steps": (make_lorenz96, "spinup_steps"),
    "simulate_reference.steps": (
        functools.partial(simulate_reference, make_linear_gaussian()), "steps"),
    "simulate_reference.mutation_period": (
        functools.partial(simulate_reference, make_linear_gaussian(), 3), "mutation_period"),
    "run_enkf.ensemble_size": (
        functools.partial(run_enkf, make_linear_gaussian(),
                          simulate_reference(make_linear_gaussian(), 2)), "ensemble_size"),
}


@pytest.mark.parametrize("value", [2.5, 5.0, True, "5"])
@pytest.mark.parametrize("count", sorted(COUNTS))
def test_count_that_is_not_an_integer_rejected_where_built(count, value):
    build, name = COUNTS[count]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        build(**{name: value})


@pytest.mark.parametrize("count", sorted(COUNTS))
def test_numpy_integer_count_accepted(count):
    build, name = COUNTS[count]
    build(**{name: np.int64(5)})


@pytest.mark.parametrize("factory, kwargs", [
    (make_double_well, {"beta": np.nan}),
    (make_double_well, {"beta": np.inf}),
    (make_double_well, {"dt": np.inf}),
    (make_double_well, {"dt": np.nan}),
    (make_double_well, {"obs_noise_std": np.nan}),
    (make_double_well, {"obs_noise_std": np.inf}),
    (make_double_well, {"measurement": "nonlinear", "gamma": np.nan}),
    (make_double_well, {"measurement": "nonlinear", "gamma": -np.inf}),
    (make_lorenz96, {"dt": np.nan}),
    (make_lorenz96, {"forcing": np.inf}),
    (make_lorenz96, {"forcing": np.nan}),
    (make_lorenz96, {"process_noise_std": np.nan}),
    (make_lorenz96, {"process_noise_std": np.inf}),
    (make_lorenz96, {"obs_noise_std": np.nan}),
])
def test_non_finite_model_parameter_rejected_where_built(factory, kwargs):
    name = [k for k in kwargs if k != "measurement"][0]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        factory(**kwargs)
