"""Assimilation driver: prediction, initial update, full sequential runs."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssls import assimilator
from ssls.assimilator import (
    AssimilationError,
    SslsConfig,
    assimilate,
    initial_update,
    predict,
)
from ssls.baselines import LinearGaussianSpec, kalman_filter, run_apf, run_enkf
from ssls.metrics import ensemble_metrics
from ssls.models import (
    ReferenceRun,
    make_double_well,
    make_linear_gaussian,
    make_lorenz96,
    shift_prior,
    simulate_reference,
)
from ssls.sampler import AnnealPlan, make_schedule
from ssls.score_net import TrainConfig


def light_config(n=300, seed=0, **kwargs):
    """A config sized for fast, still-accurate 1-d runs."""
    defaults = dict(
        ensemble_size=n,
        train=TrainConfig(smoothing=0.1, epochs=50, batch_size=128),
        plan=AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=0.01),
        init_epochs=220,
        seed=seed,
    )
    defaults.update(kwargs)
    return SslsConfig(**defaults)


class TestPredict:
    def test_zero_noise_identity_dynamics(self):
        model = make_linear_gaussian().replace(
            dynamics_noise_sampler=lambda rng, n: np.zeros((n, 1))
        )
        ensemble = np.random.default_rng(0).standard_normal((40, 1))
        out = predict(ensemble, model, np.random.default_rng(1))
        assert np.array_equal(out, ensemble)

    def test_variance_grows_by_process_noise(self):
        model = make_linear_gaussian()
        rng = np.random.default_rng(2)
        ensemble = rng.standard_normal((20_000, 1))
        out = predict(ensemble, model, rng)
        assert out.var(ddof=1) == pytest.approx(ensemble.var(ddof=1) + 5.0, rel=0.05)

    def test_double_well_minimum_is_fixed_point(self):
        model = make_double_well(beta=1e-9)
        ensemble = np.ones((50, 1))
        out = predict(ensemble, model, np.random.default_rng(3))
        assert np.allclose(out, 1.0, atol=1e-6)

    def test_size_preserved(self):
        model = make_linear_gaussian()
        out = predict(np.zeros((7, 1)), model, np.random.default_rng(4))
        assert out.shape == (7, 1)


class TestInitialUpdate:
    def test_conjugate_gaussian_posterior(self):
        """Exact prior N(0,1) and y=0.8: posterior N(y*5/6, 1/6)."""
        model = make_linear_gaussian()
        cfg = light_config(n=800)
        rng = np.random.default_rng(5)
        prior = model.initial_prior_sampler(rng, 800)
        posterior, net = initial_update(prior, model, np.array([0.8]), cfg, rng)
        post_mean = 0.8 * 5 / 6
        post_var = 1 / 6
        assert abs(posterior.mean() - post_mean) < 0.06
        assert posterior.var(ddof=1) == pytest.approx(post_var, rel=0.25)
        assert all(np.isfinite(p).all() for p in net.weights + net.biases)

    def test_flat_likelihood_keeps_prior_law(self):
        model = make_linear_gaussian().replace(
            log_likelihood_grad=lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        )
        cfg = light_config(n=1500)
        rng = np.random.default_rng(6)
        prior = model.initial_prior_sampler(rng, 1500)
        posterior, _ = initial_update(prior, model, np.array([0.0]), cfg, rng)
        assert abs(posterior.mean()) < 0.1
        assert posterior.var(ddof=1) == pytest.approx(1.0, rel=0.2)

    def test_single_prior_sample_rejected(self):
        model = make_linear_gaussian()
        cfg = light_config()
        with pytest.raises(ValueError):
            initial_update(np.zeros((1, 1)), model, np.array([0.0]), cfg, np.random.default_rng(0))


class TestSslsConfig:
    def test_minimum_ensemble_size(self):
        with pytest.raises(ValueError):
            SslsConfig(ensemble_size=1)

    def test_invalid_init_epochs(self):
        with pytest.raises(ValueError):
            SslsConfig(init_epochs=0)


class TestAssimilate:
    def test_single_observation_equals_initial_update(self):
        model = make_linear_gaussian()
        run = simulate_reference(model, 1, rng=np.random.default_rng(7))
        cfg = light_config(n=100, seed=3)
        cfg.train = TrainConfig(smoothing=0.1, epochs=5, batch_size=32)
        cfg.init_epochs = 5
        records = assimilate(model, run, cfg)

        rng = np.random.default_rng(3)
        prior = model.initial_prior_sampler(rng, 100)
        posterior, _ = initial_update(prior, model, run.observations[0], cfg, rng)
        assert records[0].mean[0] == posterior.mean()
        assert len(records) == 1

    def test_fixed_seed_bit_identical(self):
        model = make_linear_gaussian()
        run = simulate_reference(model, 3, rng=np.random.default_rng(8))
        cfg = light_config(n=60, seed=9)
        cfg.train = TrainConfig(smoothing=0.1, epochs=4, batch_size=32)
        cfg.init_epochs = 8
        a = assimilate(model, run, cfg)
        b = assimilate(model, run, cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.mean, rb.mean)
            assert np.array_equal(ra.std, rb.std)
            assert ra.metrics == rb.metrics

    def test_ensemble_size_constant_and_snapshots_stored(self):
        model = make_linear_gaussian()
        run = simulate_reference(model, 3, rng=np.random.default_rng(10))
        cfg = light_config(n=40, seed=1, store_ensembles=True)
        cfg.train = TrainConfig(smoothing=0.1, epochs=3, batch_size=32)
        cfg.init_epochs = 3
        records = assimilate(model, run, cfg)
        assert all(r.ensemble.shape == (40, 1) for r in records)
        cfg2 = light_config(n=40, seed=1)
        cfg2.train = cfg.train
        cfg2.init_epochs = 3
        assert all(r.ensemble is None for r in assimilate(model, run, cfg2))

    def test_tracks_kalman_oracle(self):
        """Per-step ensemble mean stays within the Monte Carlo + bias band."""
        model = make_linear_gaussian()
        run = simulate_reference(model, 6, rng=np.random.default_rng(1234))
        spec = LinearGaussianSpec(A=1.0, Q=5.0, H=1.0, R=0.2, m0=0.0, P0=1.0)
        means, covs = kalman_filter(spec, run.observations)
        n = 300
        records = assimilate(model, run, light_config(n=n, seed=7))
        for r in records:
            bound = 3 * np.sqrt(covs[r.step - 1, 0, 0] / n) + 0.1
            assert abs(r.mean[0] - means[r.step - 1, 0]) <= bound

    def test_shifted_prior_recovers(self):
        """A N(-10,1) guess prior reconverges to the exact-prior Kalman mean."""
        model = shift_prior(make_linear_gaussian(), -10.0)
        run = simulate_reference(model, 6, rng=np.random.default_rng(1234))
        spec = LinearGaussianSpec(A=1.0, Q=5.0, H=1.0, R=0.2, m0=0.0, P0=1.0)
        means, _ = kalman_filter(spec, run.observations)
        records = assimilate(model, run, light_config(n=300, seed=7))
        for r in records[4:]:
            assert abs(r.mean[0] - means[r.step - 1, 0]) < 0.5

    def test_failure_reports_step_index(self):
        # The likelihood gradient of the second observation is NaN, so the
        # Langevin update fails there.  (A non-finite observation itself is
        # rejected before any work; see TestInputChecks.)
        base = make_linear_gaussian()
        model = base.replace(
            log_likelihood_grad=lambda x, y: (
                np.full_like(x, np.nan) if y[0] == 9.0 else base.log_likelihood_grad(x, y)
            )
        )
        observations = np.array([[0.1], [9.0], [0.3]])
        run = ReferenceRun(states=np.zeros((3, 1)), observations=observations)
        cfg = light_config(n=50, seed=0)
        cfg.train = TrainConfig(smoothing=0.1, epochs=3, batch_size=32)
        cfg.init_epochs = 3
        with pytest.raises(AssimilationError) as excinfo:
            assimilate(model, run, cfg)
        assert excinfo.value.step == 2

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_diverged_ensemble_with_finite_particles_fails(self, seed):
        # Step size 5: particles reach ~1e199, so none is
        # inf or NaN, but the ensemble std overflows.
        model = make_linear_gaussian()
        run = simulate_reference(model, 1, rng=np.random.default_rng(seed))
        cfg = light_config(n=50, seed=seed)
        cfg.train = TrainConfig(smoothing=0.1, epochs=4, batch_size=32)
        cfg.init_epochs = 6
        cfg.plan = AnnealPlan(step_size=5.0)
        with pytest.raises(AssimilationError, match="not finite") as excinfo:
            assimilate(model, run, cfg)
        assert excinfo.value.step == 1

    def test_error_pickles_as_itself(self):
        exc = AssimilationError(3, "boom")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is AssimilationError
        assert back.step == 3
        assert str(back) == str(exc) == "assimilation failed at step 3: boom"

    def test_warm_steps_start_from_the_previous_network(self, monkeypatch):
        """Each step after the first trains from the previous step's
        network; step 1 trains from scratch."""
        inits, nets = [], []

        def recording_train(samples, config, init=None, rng=None):
            inits.append(init)
            nets.append(real_train(samples, config, init=init, rng=rng))
            return nets[-1]

        real_train = assimilator.train_score
        monkeypatch.setattr(assimilator, "train_score", recording_train)
        model = make_linear_gaussian()
        run = simulate_reference(model, 3, rng=np.random.default_rng(11))
        cfg = light_config(n=40, seed=2)
        cfg.train = TrainConfig(smoothing=0.1, epochs=2, batch_size=32, hidden=(8,))
        cfg.init_epochs = 2
        assimilate(model, run, cfg)
        assert inits[0] is None
        assert inits[1] is nets[0] and inits[2] is nets[1]


def tiny_ssls(model, run, ensemble_size, seed=0):
    cfg = SslsConfig(
        ensemble_size=ensemble_size,
        train=TrainConfig(epochs=2, batch_size=32, hidden=(8,)),
        plan=AnnealPlan(betas=make_schedule(2), n_inner=2, step_size=0.01),
        seed=seed,
    )
    return assimilate(model, run, cfg)


FILTERS = {"ssls": tiny_ssls, "enkf": run_enkf, "apf": run_apf}


def no_prior(rng, n):
    raise AssertionError("the run was not checked before the prior draw")


class TestInputChecks:
    """``run_filter`` checks a run against the model before any work."""

    @pytest.mark.parametrize("name", ["state", "observation"])
    @pytest.mark.parametrize("method", sorted(FILTERS))
    def test_non_finite_observation_names_first_bad_step(self, method, name):
        model = make_linear_gaussian().replace(initial_prior_sampler=no_prior)
        arrays = {"states": np.zeros((4, 1)), "observations": np.zeros((4, 1))}
        arrays[name + "s"][:, 0] = [0.1, np.nan, 0.3, np.inf]
        run = ReferenceRun(**arrays)
        with pytest.raises(ValueError, match=f"step 2: {name} is not finite"):
            FILTERS[method](model, run, 20)

    @pytest.mark.parametrize("method", sorted(FILTERS))
    def test_run_of_the_wrong_width_rejected(self, method):
        model = make_lorenz96(dim=20).replace(initial_prior_sampler=no_prior)
        one_d = ReferenceRun(states=np.zeros((3, 1)), observations=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="state width 1 does not match .* 20"):
            FILTERS[method](model, one_d, 20)
        wide_states = ReferenceRun(states=np.zeros((3, 20)), observations=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="observation width 1 does not match .* 20"):
            FILTERS[method](model, wide_states, 20)

    @pytest.mark.parametrize("method", ["enkf", "apf"])
    def test_ensemble_of_one_rejected(self, method):
        model = make_linear_gaussian().replace(initial_prior_sampler=no_prior)
        run = ReferenceRun(states=np.zeros((2, 1)), observations=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="ensemble_size"):
            FILTERS[method](model, run, 1)


class TestRecord:
    @settings(max_examples=100)
    @given(
        n=st.integers(2, 600),
        d=st.sampled_from([1, 2, 20]),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_and_std_are_those_of_ndarray(self, n, d, scale, seed):
        """A record's mean and std carry the bytes of ``ensemble.mean(axis=0)``
        and ``ensemble.std(axis=0, ddof=1)``, and its metrics the row of
        :func:`ensemble_metrics`."""
        rng = np.random.default_rng(seed)
        ensemble = 3.0 + scale * rng.standard_normal((n, d))
        truth = rng.standard_normal((1, d))
        run = ReferenceRun(states=truth, observations=np.zeros((1, d)))
        record = assimilator._record(1, ensemble, run, False)
        assert record.mean.tobytes() == ensemble.mean(axis=0).tobytes()
        assert record.std.tobytes() == ensemble.std(axis=0, ddof=1).tobytes()
        assert record.metrics == ensemble_metrics(1, ensemble, truth[0])

    def test_mean_and_std_widths_must_match(self):
        run = ReferenceRun(states=np.zeros((1, 2)), observations=np.zeros((1, 2)))
        record = assimilator._record(1, np.eye(2), run, False)
        with pytest.raises(ValueError, match="mean and std must have the same dimension"):
            dataclasses.replace(record, std=np.ones(3))
