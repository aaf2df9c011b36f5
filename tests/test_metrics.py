"""Verification metrics against hand values and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr, ndtri

from ssls.metrics import _Z_HI, MetricRow, _norm_cdf, crps, ensemble_metrics, gaussian_metrics
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


# -- reference formulas: np.quantile, ndarray moments, a separate sort --------


def reference_ensemble_metrics(ensemble, truth):
    """``(rmse, spread, coverage, crps)`` from ``ndarray.mean``/``var(ddof=1)``,
    ``np.quantile`` and a separate sort."""
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    return (
        float(np.sqrt(np.mean((ensemble.mean(axis=0) - truth) ** 2))),
        float(np.sqrt(np.mean(ensemble.var(axis=0, ddof=1)))),
        reference_coverage(ensemble, truth),
        reference_crps(ensemble, truth),
    )


def reference_coverage(ensemble, truth):
    lo, hi = np.quantile(ensemble, [0.025, 0.975], axis=0)
    return float(np.mean((truth >= lo) & (truth <= hi)))


def reference_crps(samples, truth):
    samples = np.asarray(samples, dtype=float)
    samples = samples[:, None] if samples.ndim == 1 else samples
    n = samples.shape[0]
    abs_error = np.mean(np.abs(samples - truth), axis=0)
    ranks = 2.0 * np.arange(n) - n + 1.0
    pair_sum = 2.0 * np.sum(ranks[:, None] * np.sort(samples, axis=0), axis=0)
    return float(np.mean(abs_error - pair_sum / (2.0 * n * n)))


_REFERENCE_ERFC = np.frompyfunc(math.erfc, 1, 1)


def reference_gaussian_metrics(mean, std, truth):
    """``(rmse, spread, coverage, crps)`` of a Gaussian forecast, with
    ``np.broadcast_to`` and an object-array ``erfc``."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    std = np.broadcast_to(np.asarray(std, dtype=float), mean.shape)
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    z = (truth - mean) / std
    cdf = 0.5 * np.asarray(_REFERENCE_ERFC(-z * math.sqrt(0.5)), dtype=float)
    phi = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * z**2)
    crps_value = np.mean(std * (z * (2.0 * cdf - 1.0) + 2.0 * phi - 1.0 / np.sqrt(np.pi)))
    return (
        float(np.sqrt(np.mean((mean - truth) ** 2))),
        float(np.sqrt(np.mean(std**2))),
        float(np.mean(np.abs(truth - mean) <= _Z_HI * std)),
        float(crps_value),
    )


def as_bytes(values):
    return np.array(values, dtype=float).tobytes()


def row_values(row):
    return (row.rmse, row.spread, row.coverage, row.crps)


@st.composite
def ensembles(draw, n=st.integers(2, 1200)):
    """An ``(n, d)`` ensemble and a truth: scaled normal draws, sometimes
    rounded onto a grid (ties), with copied particles, and with the truth on a
    particle, on a coverage bound or near the mean."""
    n, d = draw(n), draw(st.sampled_from([1, 2, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    ensemble = draw(st.floats(-1e3, 1e3)) + scale * rng.standard_normal((n, d))
    if draw(st.booleans()):
        ensemble = np.round(ensemble / scale * 4.0) * scale / 4.0
    copies = draw(st.integers(0, n - 1))
    ensemble[rng.integers(n, size=copies)] = ensemble[rng.integers(n, size=copies)]
    where = draw(st.sampled_from(["particle", "bound", "near"]))
    if where == "particle":
        truth = ensemble[draw(st.integers(0, n - 1))].copy()
    elif where == "bound":
        truth = np.quantile(ensemble, draw(st.sampled_from([0.025, 0.975])), axis=0)
    else:
        truth = ensemble.mean(axis=0) + 2.0 * scale * rng.standard_normal(d)
    return ensemble, truth


class TestAgainstReferenceFormulas:
    """The one-sort metrics equal the reference formulas bit for bit."""

    @settings(max_examples=150)
    @given(case=ensembles())
    def test_ensemble_metrics_and_public_scores(self, case):
        ensemble, truth = case
        want = reference_ensemble_metrics(ensemble, truth)
        assert as_bytes(row_values(ensemble_metrics(4, ensemble, truth))) == as_bytes(want)
        assert as_bytes([crps(ensemble, truth)]) == as_bytes([want[3]])

    @settings(max_examples=60)
    @given(
        case=ensembles(n=st.just(1000)),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        row=st.integers(0, 999),
        column=st.integers(0, 19),
    )
    def test_one_non_finite_particle(self, case, bad, row, column):
        """At n=1000 the type-7 bounds read order statistics 24-25 and
        974-975, so they miss the slot a NaN or an infinity sorts to; a column
        holding a NaN still covers nothing, as with ``np.quantile``."""
        ensemble, truth = case
        ensemble[row, column % ensemble.shape[1]] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            want = reference_ensemble_metrics(ensemble, truth)
            got = ensemble_metrics(1, ensemble, truth)
            assert as_bytes(row_values(got)) == as_bytes(want)
            assert as_bytes([crps(ensemble, truth)]) == as_bytes([want[3]])

    def test_nan_column_covers_nothing_though_its_bounds_are_finite(self):
        ensemble = np.linspace(-1.0, 1.0, 1000)[:, None]
        ensemble[-1] = np.nan
        assert np.isfinite(np.sort(ensemble, axis=0)[[24, 25, 974, 975]]).all()
        assert ensemble_metrics(1, ensemble, np.zeros(1)).coverage == 0.0
        assert ensemble_metrics(1, ensemble[:-1], np.zeros(1)).coverage == 1.0

    @settings(max_examples=100)
    @given(
        samples=arrays(np.float64, st.integers(1, 50), elements=st.floats(-1e3, 1e3)),
        truth=st.floats(-1e3, 1e3),
    )
    def test_one_dimensional_crps(self, samples, truth):
        assert as_bytes([crps(samples, truth)]) == as_bytes([reference_crps(samples, truth)])

    @settings(max_examples=100)
    @given(case=ensembles(n=st.integers(2, 300)), seed=st.integers(0, 2**32 - 1))
    def test_metric_row_is_permutation_invariant(self, case, seed):
        """Coverage is exact; the sums behind the other scores may round
        differently in another order, by far less than the tolerance."""
        ensemble, truth = case
        shuffled = ensemble[np.random.default_rng(seed).permutation(len(ensemble))]
        a, b = ensemble_metrics(2, ensemble, truth), ensemble_metrics(2, shuffled, truth)
        assert (a.step, a.coverage) == (b.step, b.coverage)
        tol = 1e-11 * (1.0 + np.abs(ensemble).max() + np.abs(truth).max())
        for name in ("rmse", "spread", "crps"):
            assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-11, abs=tol)

    @settings(max_examples=150)
    @given(
        d=st.sampled_from([1, 3]),
        per_dimension=st.booleans(),
        data=st.data(),
    )
    def test_gaussian_metrics_and_crps(self, d, per_dimension, data):
        values = st.floats(-1e3, 1e3)
        mean = data.draw(arrays(np.float64, d, elements=values))
        truth = data.draw(arrays(np.float64, d, elements=values))
        std_values = st.floats(1e-3, 1e3)
        std = data.draw(arrays(np.float64, d, elements=std_values) if per_dimension
                        else std_values)
        want = reference_gaussian_metrics(mean, std, truth)
        got = gaussian_metrics(3, mean, std, truth)
        assert as_bytes(row_values(got)) == as_bytes(want)

    @pytest.mark.parametrize("std", [0.0, -1.0, [1.0, 0.0, 2.0]])
    def test_gaussian_std_must_be_positive(self, std):
        with pytest.raises(ValueError, match="std must be positive"):
            gaussian_metrics(1, np.zeros(3), std, np.zeros(3))


class TestEnsembleShapes:
    """Every ensemble metric reads a 1-D array as n samples of one dimension."""

    @pytest.mark.parametrize("truth", [0.3, np.array([0.3]), 5.0])
    def test_one_dimensional_array_is_one_column(self, truth):
        x = np.linspace(-1.0, 1.0, 10)
        column = x[:, None]
        assert crps(x, truth) == crps(column, truth)
        assert ensemble_metrics(1, x, truth) == ensemble_metrics(1, column, truth)
        assert ensemble_metrics(1, x, truth).spread == pytest.approx(np.std(x, ddof=1))

    @pytest.mark.parametrize(
        "metric",
        [lambda e: crps(e, np.zeros(1)), lambda e: ensemble_metrics(1, e, np.zeros(1))],
        ids=["crps", "ensemble_metrics"],
    )
    def test_three_dimensional_ensemble_rejected(self, metric):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            metric(np.zeros((4, 1, 1)))


def point(estimate):
    """A point estimate as an ensemble of two equal particles, whose mean is exact."""
    return np.array([estimate, estimate])


class TestRmse:
    def test_zero_at_truth(self):
        assert ensemble_metrics(1, point([1.0, 2.0]), np.array([1.0, 2.0])).rmse == 0.0

    def test_one_dimensional_error(self):
        assert ensemble_metrics(1, point([1.0]), np.array([0.0])).rmse == 1.0

    def test_two_dimensional_hand_value(self):
        assert ensemble_metrics(1, point([1.0, 1.0]), np.zeros(2)).rmse == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ensemble_metrics(1, point(np.ones(2)), np.ones(3))


class TestSpread:
    def test_constant_ensemble_has_zero_spread(self):
        assert ensemble_metrics(1, np.full((5, 2), 3.0), np.zeros(2)).spread == 0.0

    def test_two_point_hand_value(self):
        # unbiased variance of {-1, 1} is 2
        row = ensemble_metrics(1, np.array([[-1.0], [1.0]]), np.zeros(1))
        assert row.spread == pytest.approx(np.sqrt(2.0))

    def test_duplicated_coordinates_match_univariate(self):
        rng = np.random.default_rng(0)
        column = rng.normal(size=(40, 1))
        doubled = np.hstack([column, column])
        assert ensemble_metrics(1, doubled, np.zeros(2)).spread == pytest.approx(
            ensemble_metrics(1, column, np.zeros(1)).spread)

    def test_whitened_ensemble_population_factor(self):
        """Population-whitened data has unbiased spread sqrt(n / (n - 1))."""
        rng = np.random.default_rng(1)
        for n in (5, 20, 117):
            whitened, _, _ = whiten(rng.normal(size=(n, 3)))
            row = ensemble_metrics(1, whitened, np.zeros(3))
            assert row.spread == pytest.approx(np.sqrt(n / (n - 1)))

    def test_too_few_particles_rejected(self):
        with pytest.raises(ValueError):
            ensemble_metrics(1, np.ones((1, 2)), np.zeros(2))


class TestCoverage:
    def test_truth_at_median_is_covered(self):
        ensemble = np.random.default_rng(2).normal(size=(200, 3))
        truth = np.median(ensemble, axis=0)
        assert ensemble_metrics(1, ensemble, truth).coverage == 1.0

    def test_truth_far_outside_is_uncovered(self):
        ensemble = np.random.default_rng(3).normal(size=(200, 2))
        assert ensemble_metrics(1, ensemble, np.array([50.0, -50.0])).coverage == 0.0

    def test_partial_coverage_counts_dimensions(self):
        ensemble = np.random.default_rng(4).normal(size=(200, 2))
        truth = np.array([0.0, 99.0])
        assert ensemble_metrics(1, ensemble, truth).coverage == 0.5

    def test_too_few_particles_rejected(self):
        with pytest.raises(ValueError):
            ensemble_metrics(1, np.ones((1, 1)), np.ones(1))


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
        assert gaussian_metrics(1, 0.0, 1.0, 0.0).crps == pytest.approx(expected, abs=1e-12)

    def test_matches_large_ensemble_estimate(self):
        rng = np.random.default_rng(9)
        samples = 1.5 + 0.7 * rng.standard_normal(200_000)
        truth = 2.1
        assert gaussian_metrics(1, 1.5, 0.7, truth).crps == pytest.approx(
            crps(samples, truth), abs=3e-3
        )

    def test_invalid_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_metrics(1, 0.0, 0.0, 0.0)

    def test_matches_scipy_closed_form(self):
        rng = np.random.default_rng(11)
        mean = rng.normal(size=5)
        std = rng.uniform(0.1, 3.0, size=5)
        for truth in rng.normal(scale=4.0, size=(50, 5)):
            z = (truth - mean) / std
            phi = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
            want = np.mean(std * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * phi - 1.0 / np.sqrt(np.pi)))
            assert gaussian_metrics(1, mean, std, truth).crps == pytest.approx(
                want, rel=3e-15, abs=0.0)


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
        assert row.rmse == pytest.approx(np.sqrt(np.mean(ensemble.mean(0) ** 2)))
        assert row.spread == pytest.approx(np.sqrt(np.mean(ensemble.var(0, ddof=1))))
        assert row.coverage == pytest.approx(reference_coverage(ensemble, truth))
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
