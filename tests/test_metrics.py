"""Verification metrics against hand values and independent oracles."""

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from ssls.metrics import (
    _Z_HI,
    MetricRow,
    _norm_cdf,
    coverage,
    crps,
    crps_gaussian,
    ensemble_metrics,
    gaussian_metrics,
    rmse,
    spread,
)
from ssls.score_net import whiten


def crps_integral(samples, truth):
    """Exact integral-definition CRPS for an empirical forecast.

    The integrand (F(z) - 1{z >= y})^2 is piecewise constant between the
    knots given by the sorted samples and the truth, so the integral is an
    exact finite sum; this is independent of the pairwise energy form.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    knots = np.unique(np.append(samples, truth))
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (a + b)
        cdf = np.searchsorted(samples, mid, side="right") / samples.size
        heaviside = 1.0 if mid >= truth else 0.0
        total += (cdf - heaviside) ** 2 * (b - a)
    return total


class TestRmse:
    def test_zero_at_truth(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_one_dimensional_error(self):
        assert rmse(np.array([1.0]), np.array([0.0])) == 1.0

    def test_two_dimensional_hand_value(self):
        assert rmse(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.ones(2), np.ones(3))


class TestSpread:
    def test_constant_ensemble_has_zero_spread(self):
        assert spread(np.full((5, 2), 3.0)) == 0.0

    def test_two_point_hand_value(self):
        # unbiased variance of {-1, 1} is 2
        assert spread(np.array([[-1.0], [1.0]])) == pytest.approx(np.sqrt(2.0))

    def test_duplicated_coordinates_match_univariate(self):
        rng = np.random.default_rng(0)
        column = rng.normal(size=(40, 1))
        doubled = np.hstack([column, column])
        assert spread(doubled) == pytest.approx(spread(column))

    def test_whitened_ensemble_population_factor(self):
        """Population-whitened data has unbiased spread sqrt(n / (n - 1))."""
        rng = np.random.default_rng(1)
        for n in (5, 20, 117):
            whitened, _, _ = whiten(rng.normal(size=(n, 3)))
            assert spread(whitened) == pytest.approx(np.sqrt(n / (n - 1)))

    def test_too_few_particles_rejected(self):
        with pytest.raises(ValueError):
            spread(np.ones((1, 2)))


class TestCoverage:
    def test_truth_at_median_is_covered(self):
        ensemble = np.random.default_rng(2).normal(size=(200, 3))
        truth = np.median(ensemble, axis=0)
        assert coverage(ensemble, truth) == 1.0

    def test_truth_far_outside_is_uncovered(self):
        ensemble = np.random.default_rng(3).normal(size=(200, 2))
        assert coverage(ensemble, np.array([50.0, -50.0])) == 0.0

    def test_partial_coverage_counts_dimensions(self):
        ensemble = np.random.default_rng(4).normal(size=(200, 2))
        truth = np.array([0.0, 99.0])
        assert coverage(ensemble, truth) == 0.5

    def test_too_few_particles_rejected(self):
        with pytest.raises(ValueError):
            coverage(np.ones((1, 1)), np.ones(1))


class TestCrps:
    def test_single_sample_reduces_to_absolute_error(self):
        assert crps(np.array([2.0]), 0.5) == pytest.approx(1.5)

    def test_two_sample_hand_value(self):
        # (1/2)(1+1) - (1/8)(0+2+2+0) = 0.5
        assert crps(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5)

    def test_matches_integral_oracle(self):
        """Pairwise energy form equals the exact CDF integral to 1e-6."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            samples = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
            truth = rng.normal(scale=2.0)
            assert crps(samples, truth) == pytest.approx(
                crps_integral(samples, truth), abs=1e-6
            )

    def test_bounded_by_mean_absolute_error(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            samples = rng.normal(size=rng.integers(1, 30))
            truth = rng.normal()
            assert crps(samples, truth) <= np.abs(samples - truth).mean() + 1e-12

    def test_multidimensional_averages_over_dimensions(self):
        samples = np.array([[0.0, 0.0], [2.0, 2.0]])
        truth = np.array([1.0, 1.0])
        assert crps(samples, truth) == pytest.approx(0.5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(25, 2))
        truth = rng.normal(size=2)
        shuffled = samples[rng.permutation(25)]
        assert crps(shuffled, truth) == pytest.approx(crps(samples, truth))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crps(np.zeros((0,)), 0.0)


class TestCrpsGaussian:
    def test_frozen_value_at_the_mean(self):
        # sigma * (2 phi(0) - 1/sqrt(pi)) for sigma=1, y=mean
        expected = 2.0 / np.sqrt(2.0 * np.pi) - 1.0 / np.sqrt(np.pi)
        assert crps_gaussian(0.0, 1.0, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_large_ensemble_estimate(self):
        rng = np.random.default_rng(9)
        samples = 1.5 + 0.7 * rng.standard_normal(200_000)
        truth = 2.1
        assert crps_gaussian(1.5, 0.7, truth) == pytest.approx(
            crps(samples, truth), abs=3e-3
        )

    def test_invalid_std_rejected(self):
        with pytest.raises(ValueError):
            crps_gaussian(0.0, 0.0, 0.0)

    def test_matches_scipy_closed_form(self):
        rng = np.random.default_rng(11)
        mean = rng.normal(size=5)
        std = rng.uniform(0.1, 3.0, size=5)
        for truth in rng.normal(scale=4.0, size=(50, 5)):
            z = (truth - mean) / std
            phi = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
            want = np.mean(std * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * phi - 1.0 / np.sqrt(np.pi)))
            assert crps_gaussian(mean, std, truth) == pytest.approx(want, rel=3e-15, abs=0.0)


class TestNormalCdf:
    """The private CDF against scipy.special.ndtr as an independent oracle."""

    def test_coverage_quantile_is_scipy_value(self):
        assert _Z_HI == float(ndtri(0.975))

    def test_matches_scipy_on_the_bulk(self):
        z = np.linspace(-8.0, 8.0, 100_001)
        np.testing.assert_allclose(_norm_cdf(z), ndtr(z), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("shape", [(), (7,), (40, 3)])
    def test_keeps_shape(self, shape):
        z = np.random.default_rng(12).normal(scale=3.0, size=shape)
        got = _norm_cdf(z)
        assert np.shape(got) == shape
        np.testing.assert_allclose(got, ndtr(z), rtol=1e-14, atol=0.0)

    def test_python_float(self):
        assert _norm_cdf(-1.5) == pytest.approx(ndtr(-1.5), rel=1e-14, abs=0.0)

    def test_lower_tail_keeps_relative_accuracy(self):
        # 1 + erf(z / sqrt(2)) would lose every digit here; erfc keeps them.
        z = np.linspace(-37.5, -8.0, 10_001)
        assert np.all(_norm_cdf(z) > 0.0)
        np.testing.assert_allclose(_norm_cdf(z), ndtr(z), rtol=1e-13, atol=0.0)

    def test_upper_tail_reaches_one(self):
        z = np.linspace(8.0, 40.0, 1_001)
        np.testing.assert_allclose(_norm_cdf(z), ndtr(z), rtol=1e-15, atol=0.0)
        assert _norm_cdf(40.0) == 1.0


class TestMetricRows:
    def test_ensemble_metrics_fields(self):
        rng = np.random.default_rng(10)
        ensemble = rng.normal(size=(100, 2))
        truth = np.zeros(2)
        row = ensemble_metrics(3, ensemble, truth)
        assert row.step == 3
        assert row.rmse == pytest.approx(rmse(ensemble.mean(0), truth))
        assert row.spread == pytest.approx(spread(ensemble))
        assert row.coverage == pytest.approx(coverage(ensemble, truth))
        assert row.crps == pytest.approx(crps(ensemble, truth))

    def test_gaussian_metrics_coverage_indicator(self):
        inside = gaussian_metrics(1, np.zeros(1), np.ones(1), np.array([1.9]))
        outside = gaussian_metrics(1, np.zeros(1), np.ones(1), np.array([2.1]))
        assert inside.coverage == 1.0
        assert outside.coverage == 0.0

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            MetricRow(step=0, rmse=-1.0, spread=0.0, coverage=0.5, crps=0.0)
        with pytest.raises(ValueError):
            MetricRow(step=0, rmse=0.0, spread=0.0, coverage=1.5, crps=0.0)
