"""Baseline filters against the exact Kalman oracle and hand values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssls.assimilator import AssimilationError
from ssls.baselines import (
    LinearGaussianSpec,
    apf_init,
    apf_step,
    enkf_step,
    enkf_update,
    kalman_filter,
    kalman_step,
    kalman_update,
    run_apf,
    run_enkf,
    run_kalman,
    systematic_resample,
)
from ssls.models import ModelSpec, ReferenceRun, make_linear_gaussian, simulate_reference


def lg_spec():
    return LinearGaussianSpec(A=1.0, Q=5.0, H=1.0, R=0.2, m0=0.0, P0=1.0)


def flat_model(shift=0.0):
    """Deterministic-dynamics model with a completely flat likelihood."""
    return ModelSpec(
        state_dim=1,
        obs_dim=1,
        dynamics=lambda x, v: x + shift + v,
        dynamics_noise_sampler=lambda rng, n: np.zeros((n, 1)),
        log_likelihood=lambda x, y: np.zeros(np.atleast_2d(x).shape[0]),
        log_likelihood_grad=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        initial_prior_sampler=lambda rng, n: rng.standard_normal((n, 1)),
        reference_initial_sampler=lambda rng, n: rng.standard_normal((n, 1)),
        observation_mean=lambda x: np.asarray(x, dtype=float),
        obs_noise_std=1.0,
    )


class TestKalman:
    def test_hand_derived_step(self):
        """Predict (0,1) -> (0,6); gain 6/6.2; posterior (12/6.2, 1.2/6.2)."""
        mean, cov = kalman_step(np.array([0.0]), np.array([[1.0]]), lg_spec(), np.array([2.0]))
        assert abs(mean[0] - 12.0 / 6.2) < 1e-9
        assert abs(cov[0, 0] - 1.2 / 6.2) < 1e-9

    def test_uninformative_observation_keeps_prediction(self):
        spec = LinearGaussianSpec(A=1.0, Q=5.0, H=1.0, R=1e12, m0=0.0, P0=1.0)
        mean, cov = kalman_step(np.array([1.0]), np.array([[1.0]]), spec, np.array([100.0]))
        assert mean[0] == pytest.approx(1.0, abs=1e-6)
        assert cov[0, 0] == pytest.approx(6.0, rel=1e-6)

    def test_zero_innovation_keeps_mean(self):
        spec = LinearGaussianSpec(A=1.0, Q=0.0, H=1.0, R=0.2, m0=0.0, P0=1.0)
        mean, _ = kalman_step(np.array([3.0]), np.array([[1.0]]), spec, np.array([3.0]))
        assert mean[0] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"Q": np.eye(2)}, "A, Q, P0 must be square"),
            ({"H": [[1.0, 0.0]]}, "H and R have inconsistent shapes"),
            ({"R": np.eye(2)}, "H and R have inconsistent shapes"),
            ({"m0": [0.0, 0.0]}, "m0 has the wrong dimension"),
            ({"Q": [[1.0, 0.5], [0.0, 1.0]], "A": np.eye(2), "P0": np.eye(2),
              "H": [[1.0, 0.0]], "m0": [0.0, 0.0]}, "Q must be symmetric"),
            ({"R": -1.0}, "R must be positive semi-definite"),
        ],
        ids=["square", "H-width", "R-shape", "m0", "symmetric", "psd"],
    )
    def test_inconsistent_spec_rejected(self, changes, message):
        matrices = dict(A=1.0, Q=5.0, H=1.0, R=0.2, m0=0.0, P0=1.0) | changes
        with pytest.raises(ValueError, match=message):
            LinearGaussianSpec(**matrices)

    def test_covariance_stays_symmetric_psd(self):
        spec = LinearGaussianSpec(
            A=[[0.9, 0.1], [0.0, 0.8]],
            Q=0.5 * np.eye(2),
            H=[[1.0, 0.0]],
            R=[[0.3]],
            m0=np.zeros(2),
            P0=np.eye(2),
        )
        rng = np.random.default_rng(0)
        mean, cov = spec.m0, spec.P0
        for _ in range(50):
            mean, cov = kalman_step(mean, cov, spec, rng.normal(size=1))
            assert np.allclose(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_filter_first_step_is_update_only(self):
        spec = lg_spec()
        y1 = np.array([0.5])
        means, covs = kalman_filter(spec, y1[None, :])
        m_direct, p_direct = kalman_update(spec.m0, spec.P0, spec, y1)
        assert means[0, 0] == pytest.approx(m_direct[0])
        assert covs[0, 0, 0] == pytest.approx(p_direct[0, 0])
        # update-only: posterior of N(0,1) prior with R=0.2 has variance 1/6
        assert covs[0, 0, 0] == pytest.approx(1.0 / 6.0, rel=1e-6)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LinearGaussianSpec(A=1.0, Q=-1.0, H=1.0, R=0.2, m0=0.0, P0=1.0)
        with pytest.raises(ValueError):
            LinearGaussianSpec(
                A=np.eye(2), Q=np.eye(2), H=np.eye(2),
                R=[[1.0, 0.5], [0.4, 1.0]], m0=np.zeros(2), P0=np.eye(2),
            )


class TestEnkf:
    def test_zero_spread_ensemble_unchanged_by_update(self):
        model = make_linear_gaussian()
        ensemble = np.full((20, 1), 2.0)
        out = enkf_update(ensemble, model, np.array([5.0]), np.random.default_rng(0))
        assert np.allclose(out, 2.0)

    def test_huge_observation_noise_vanishing_update(self):
        model = make_linear_gaussian().replace(obs_noise_std=1e9)
        rng = np.random.default_rng(1)
        ensemble = rng.standard_normal((200, 1))
        out = enkf_update(ensemble, model, np.array([5.0]), rng)
        assert np.allclose(out, ensemble, atol=1e-6)

    def test_matches_kalman_update_at_large_n(self):
        model = make_linear_gaussian()
        y = np.array([0.5])
        km, kp = kalman_update(np.zeros(1), np.eye(1), lg_spec(), y)
        rng = np.random.default_rng(0)
        prior = rng.standard_normal((10_000, 1))
        out = enkf_update(prior, model, y, rng)
        se = np.sqrt(kp[0, 0] / 10_000)
        assert abs(out.mean() - km[0]) <= 3 * se
        assert out.var(ddof=1) == pytest.approx(kp[0, 0], rel=0.1)

    def test_error_decreases_with_ensemble_size(self):
        model = make_linear_gaussian()
        y = np.array([0.5])
        km, _ = kalman_update(np.zeros(1), np.eye(1), lg_spec(), y)
        errors = {}
        for n in (100, 10_000):
            errs = []
            for seed in range(5):
                rng = np.random.default_rng(100 + seed)
                errs.append(abs(enkf_update(rng.standard_normal((n, 1)), model, y, rng).mean() - km[0]))
            errors[n] = np.mean(errs)
        assert errors[10_000] < errors[100]

    def test_step_propagates_with_noise(self):
        model = make_linear_gaussian()
        rng = np.random.default_rng(2)
        ensemble = np.zeros((4000, 1))
        out = enkf_step(ensemble, model, np.array([0.0]), rng)
        # prediction variance Q=5 shrinks towards R under the update
        assert out.var(ddof=1) == pytest.approx(5 * 0.2 / 5.2, rel=0.15)

    def test_too_few_particles_rejected(self):
        with pytest.raises(ValueError):
            enkf_update(np.ones((1, 1)), make_linear_gaussian(), np.ones(1), np.random.default_rng(0))


class TestSystematicResample:
    def test_uniform_weights_identity_permutation(self):
        n = 12
        idx = systematic_resample(np.full(n, 1 / n), n, np.random.default_rng(0))
        assert np.array_equal(np.sort(idx), np.arange(n))

    def test_degenerate_mass_selects_single_index(self):
        idx = systematic_resample(np.array([1.0, 0.0, 0.0]), 5, np.random.default_rng(1))
        assert np.all(idx == 0)

    def test_exact_multiples_are_deterministic(self):
        idx = systematic_resample(np.array([0.5, 0.5]), 4, np.random.default_rng(2))
        assert np.array_equal(np.sort(idx), [0, 0, 1, 1])

    def test_counts_within_one_of_expectation(self):
        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.ones(30))
        n = 1000
        idx = systematic_resample(weights, n, rng)
        counts = np.bincount(idx, minlength=30)
        assert np.all(np.abs(counts - n * weights) <= 1.0 + 1e-9)

    @settings(max_examples=300)
    @given(
        raw=arrays(np.float64, st.integers(1, 40), elements=st.floats(0.0, 1.0)),
        n=st.integers(1, 500),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_are_floor_or_ceil_of_expectation(self, raw, n, seed):
        """Index i is drawn floor(n w_i) or ceil(n w_i) times, in order.  The
        weight CDF is a float cumulative sum, so a count may sit on the far
        side of an exact boundary by rounding; 1e-9 allows for that."""
        if raw.sum() == 0.0:
            raw = np.ones_like(raw)
        weights = raw / raw.sum()
        idx = systematic_resample(weights, n, np.random.default_rng(seed))
        assert idx.shape == (n,) and np.all(np.diff(idx) >= 0)
        assert 0 <= idx.min() and idx.max() < weights.size
        counts = np.bincount(idx, minlength=weights.size)
        assert counts.sum() == n
        expected = n * weights
        assert np.all(counts >= np.floor(expected - 1e-9))
        assert np.all(counts <= np.ceil(expected + 1e-9))

    def test_support_preserved(self):
        rng = np.random.default_rng(4)
        weights = rng.dirichlet(np.ones(8))
        idx = systematic_resample(weights, 100, rng)
        assert idx.min() >= 0 and idx.max() < 8


class TestApf:
    def test_flat_likelihood_returns_permutation(self):
        """Uniform weights + systematic resampling reproduce every particle
        exactly once; with deterministic dynamics the output is the input."""
        model = flat_model()
        particles = np.random.default_rng(5).standard_normal((16, 1))
        out = apf_step(particles, model, np.array([0.0]), np.random.default_rng(6))
        assert np.array_equal(np.sort(out, axis=0), np.sort(particles, axis=0))

    def test_single_particle_is_propagated(self):
        model = flat_model(shift=1.0)
        out = apf_step(np.array([[2.0]]), model, np.array([0.0]), np.random.default_rng(7))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(3.0)

    def test_init_matches_kalman_posterior_at_large_n(self):
        model = make_linear_gaussian()
        y = np.array([0.5])
        km, kp = kalman_update(np.zeros(1), np.eye(1), lg_spec(), y)
        rng = np.random.default_rng(0)
        prior = rng.standard_normal((10_000, 1))
        out = apf_init(prior, model, y, rng)
        se = np.sqrt(kp[0, 0] / 10_000)
        assert abs(out.mean() - km[0]) <= 3 * se

    def test_error_decreases_with_ensemble_size(self):
        model = make_linear_gaussian()
        y = np.array([0.5])
        km, _ = kalman_update(np.zeros(1), np.eye(1), lg_spec(), y)
        errors = {}
        for n in (100, 10_000):
            errs = []
            for seed in range(5):
                rng = np.random.default_rng(100 + seed)
                errs.append(abs(apf_init(rng.standard_normal((n, 1)), model, y, rng).mean() - km[0]))
            errors[n] = np.mean(errs)
        assert errors[10_000] < errors[100]

    def test_degenerate_weights_raise(self):
        model = flat_model().replace(
            log_likelihood=lambda x, y: np.full(np.atleast_2d(x).shape[0], -np.inf)
        )
        particles = np.random.default_rng(8).standard_normal((8, 1))
        with pytest.raises(FloatingPointError, match="first-stage weights are degenerate"):
            apf_step(particles, model, np.array([0.0]), np.random.default_rng(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_log_weights_that_cannot_be_normalized_raise(self, bad):
        """One NaN or +inf log-weight leaves no weights to use."""
        log_w = np.zeros(4)
        log_w[2] = bad
        model = flat_model().replace(log_likelihood=lambda x, y: log_w)
        with pytest.raises(FloatingPointError, match="initial weights are degenerate"):
            apf_init(np.zeros((4, 1)), model, np.array([0.0]), np.random.default_rng(0))

    def test_output_support_is_propagated_particles(self):
        model = make_linear_gaussian()
        rng = np.random.default_rng(10)
        particles = rng.standard_normal((50, 1))
        out = apf_step(particles, model, np.array([0.2]), rng)
        assert out.shape == (50, 1)
        assert np.isfinite(out).all()


class TestDrivers:
    def test_run_kalman_records(self):
        model = make_linear_gaussian()
        run = simulate_reference(model, 5, rng=np.random.default_rng(11))
        records = run_kalman(lg_spec(), run)
        assert [r.step for r in records] == [1, 2, 3, 4, 5]
        means, covs = kalman_filter(lg_spec(), run.observations)
        for r in records:
            assert r.mean[0] == pytest.approx(means[r.step - 1, 0])
            assert r.std.tobytes() == np.sqrt(np.diag(covs[r.step - 1])).tobytes()

    def test_run_kalman_checks_the_run(self):
        """A NaN observation at step 3 is rejected before any work, as the
        ensemble filters reject it, instead of giving NaN records from step 3 on."""
        run = simulate_reference(make_linear_gaussian(), 5, rng=np.random.default_rng(15))
        observations = run.observations.copy()
        observations[2] = np.nan
        with pytest.raises(ValueError, match="step 3: observation is not finite"):
            run_kalman(lg_spec(), ReferenceRun(states=run.states, observations=observations))
        one, two = np.zeros((3, 1)), np.zeros((3, 2))
        with pytest.raises(ValueError, match="state width 2 does not match .* 1"):
            run_kalman(lg_spec(), ReferenceRun(states=two, observations=one))
        with pytest.raises(ValueError, match="observation width 2 does not match .* 1"):
            run_kalman(lg_spec(), ReferenceRun(states=one, observations=two))

    def test_run_enkf_and_apf_shapes_and_determinism(self):
        model = make_linear_gaussian()
        run = simulate_reference(model, 4, rng=np.random.default_rng(12))
        for runner in (run_enkf, run_apf):
            a = runner(model, run, 64, seed=5)
            b = runner(model, run, 64, seed=5)
            assert len(a) == 4
            for ra, rb in zip(a, b):
                assert np.array_equal(ra.mean, rb.mean)
                assert np.array_equal(ra.std, rb.std)

    def test_store_ensembles_flag(self):
        model = make_linear_gaussian()
        run = simulate_reference(model, 2, rng=np.random.default_rng(13))
        records = run_enkf(model, run, 32, seed=1, store_ensembles=True)
        assert all(r.ensemble is not None and r.ensemble.shape == (32, 1) for r in records)
        records = run_enkf(model, run, 32, seed=1)
        assert all(r.ensemble is None for r in records)

    def test_diverged_enkf_run_fails_at_its_step(self):
        """A finite but huge observation makes the EnKF ensemble std overflow
        at step 2; the run fails there instead of recording inf and NaN."""
        model = make_linear_gaussian()
        with pytest.raises(AssimilationError, match="not finite") as excinfo:
            run_enkf(model, huge_second_observation(model), 64, seed=2)
        assert excinfo.value.step == 2

    def test_unexplained_observation_fails_apf_at_its_step(self):
        """No particle explains a step-2 observation of 1e300: the squared
        residual overflows, every look-ahead weight is zero, and the run
        fails at step 2 instead of going on with uniform weights."""
        model = make_linear_gaussian()
        with np.errstate(over="ignore"):
            with pytest.raises(AssimilationError, match="degenerate") as excinfo:
                run_apf(model, huge_second_observation(model), 64, seed=2)
        assert excinfo.value.step == 2


def huge_second_observation(model):
    """A four-step reference run whose second observation is 1e300."""
    run = simulate_reference(model, 4, rng=np.random.default_rng(14))
    observations = run.observations.copy()
    observations[1] = 1e300
    return ReferenceRun(states=run.states, observations=observations)
