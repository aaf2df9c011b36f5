"""Langevin sampler: schedules, clipping, and stationary-law oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssls.sampler import (
    AnnealPlan,
    almc_update,
    clip_score,
    make_schedule,
)


class TestMakeSchedule:
    def test_single_temperature_is_vanilla(self):
        assert np.array_equal(make_schedule(1), [1.0])

    def test_linear_spacing(self):
        assert np.allclose(make_schedule(4), [0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("m", [1, 2, 7, 33])
    def test_always_ends_at_exactly_one(self, m):
        assert make_schedule(m)[-1] == 1.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(0)


class TestAnnealPlan:
    def test_defaults_are_valid(self):
        plan = AnnealPlan()
        assert plan.num_temperatures == 10
        assert plan.betas[-1] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"betas": [0.5, 0.5, 1.0]},
            {"betas": [0.2, 0.8]},
            {"betas": [0.0, 1.0]},
            {"betas": [1.0], "n_inner": 0},
            {"betas": [1.0], "step_size": 0.0},
            {"betas": [1.0], "clip_norm": -1.0},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AnnealPlan(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name, make",
        [
            ("betas", lambda v: {"betas": [0.5, v, 1.0]}),
            ("betas", lambda v: {"betas": [v, 1.0]}),
            ("step_size", lambda v: {"step_size": v}),
            ("clip_norm", lambda v: {"clip_norm": v}),
        ],
        ids=["betas-middle", "betas-first", "step_size", "clip_norm"],
    )
    def test_non_finite_plans_rejected(self, name, make, value):
        # A NaN clip_norm would switch the drift clip off: no norm exceeds it.
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            AnnealPlan(**make(value))


class TestClipScore:
    def test_below_threshold_unchanged(self):
        v = np.array([3.0, 0.0])
        assert np.array_equal(clip_score(v, 5.0), v)

    def test_rescales_to_threshold(self):
        assert np.allclose(clip_score(np.array([10.0, 0.0]), 5.0), [5.0, 0.0])

    def test_zero_vector_unchanged(self):
        assert np.array_equal(clip_score(np.zeros(3), 1.0), np.zeros(3))

    def test_rowwise_on_batches(self):
        v = np.array([[10.0, 0.0], [1.0, 0.0]])
        out = clip_score(v, 5.0)
        assert np.allclose(out, [[5.0, 0.0], [1.0, 0.0]])

    def test_norm_bounded_and_idempotent(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(100, 4)) * 50
        once = clip_score(v, 3.0)
        assert np.all(np.linalg.norm(once, axis=1) <= 3.0 + 1e-12)
        assert np.allclose(clip_score(once, 3.0), once)

    def test_direction_preserved(self):
        v = np.array([6.0, 8.0])
        out = clip_score(v, 5.0)
        assert np.allclose(out / np.linalg.norm(out), v / np.linalg.norm(v))

    def test_non_finite_rows_pass_through(self):
        v = np.array([[np.inf, 0.0], [10.0, 0.0]])
        out = clip_score(v, 5.0)
        assert np.isinf(out[0, 0])
        assert np.allclose(out[1], [5.0, 0.0])

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            clip_score(np.ones(2), 0.0)


def ref_clip(v, max_norm):
    """The original formula: np.linalg.norm and two np.where passes."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    needs_clip = np.isfinite(norm) & (norm > max_norm)
    factor = np.where(needs_clip, max_norm / np.where(norm > 0, norm, 1.0), 1.0)
    return v * factor


# Rows of ordinary values, zeros, or values with an inf or a NaN, so that
# zero, infinite and NaN norms all occur.
CLIP_ELEMENTS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, np.inf, -np.inf, np.nan]),
)


@settings(max_examples=300)
@given(
    v=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 6)),
             elements=CLIP_ELEMENTS),
    zero_row=st.integers(0, 29),
    threshold=st.one_of(st.floats(1e-3, 2e3), st.sampled_from(["row", "max"])),
)
def test_clip_matches_reference_bit_for_bit(v, zero_row, threshold):
    v[zero_row % v.shape[0]] = 0.0
    norms = np.linalg.norm(v, axis=-1)
    finite = norms[np.isfinite(norms) & (norms > 0)]
    if threshold == "row":  # a threshold equal to some row's norm
        threshold = float(finite[0]) if finite.size else 1.0
    elif threshold == "max":  # no row is clipped
        threshold = float(finite.max()) if finite.size else 1.0
    kept = v.copy()
    got = clip_score(v, threshold)
    want = ref_clip(kept, threshold)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert v.tobytes() == kept.tobytes()
    if np.array_equal(want, kept, equal_nan=True):
        assert got is v


def zero(z):
    return np.zeros_like(z)


def one_step(particles, drift, step_size, rng):
    """One Euler-Maruyama step ``z + h * drift(z) + sqrt(2h) * xi`` through
    ``almc_update``: a single temperature and a single inner iteration."""
    plan = AnnealPlan(betas=make_schedule(1), n_inner=1, step_size=step_size, clip_norm=None)
    return almc_update(particles, drift, zero, plan, rng)


class TestAnnealedDrift:
    """``almc_update``'s drift at temperature ``beta`` is ``beta * grad + score``."""

    def test_unit_beta_gives_full_posterior_drift(self):
        pred = np.random.default_rng(0).normal(size=(6, 2))
        plan = AnnealPlan(betas=make_schedule(1), n_inner=1, step_size=0.1, clip_norm=None)
        out = almc_update(pred, lambda z: -z, lambda z: 2.0 - z, plan, np.random.default_rng(1))
        xi = np.random.default_rng(1).standard_normal(pred.shape)
        want = pred + 0.1 * ((2.0 - pred) + (-pred)) + np.sqrt(0.2) * xi
        assert np.allclose(out, want, rtol=1e-14, atol=1e-14)

    def test_half_beta_arithmetic(self):
        """At beta = 0.5 the first step takes half the likelihood gradient."""
        pred = np.zeros((4, 2))
        plan = AnnealPlan(betas=make_schedule(2), n_inner=1, step_size=0.1, clip_norm=None)
        out = almc_update(pred, lambda z: np.tile([0.0, 1.0], (len(z), 1)),
                          lambda z: np.tile([2.0, 0.0], (len(z), 1)), plan,
                          np.random.default_rng(2))
        rng = np.random.default_rng(2)
        z = pred + 0.1 * np.array([1.0, 1.0]) + np.sqrt(0.2) * rng.standard_normal(pred.shape)
        z = z + 0.1 * np.array([2.0, 1.0]) + np.sqrt(0.2) * rng.standard_normal(pred.shape)
        assert np.allclose(out, z, rtol=1e-14, atol=1e-14)


class TestLmcStep:
    """One Langevin step, run through ``almc_update``."""

    def test_pure_diffusion_reproduces_recorded_noise(self):
        particles = np.zeros((1, 1))
        h = 0.02
        out = one_step(particles, zero, h, np.random.default_rng(3))
        xi = np.random.default_rng(3).standard_normal((1, 1))
        assert np.array_equal(out, np.sqrt(2 * h) * xi)

    def test_particle_count_preserved(self):
        particles = np.random.default_rng(0).normal(size=(17, 3))
        out = one_step(particles, lambda z: -z, 0.01, np.random.default_rng(1))
        assert out.shape == (17, 3)

    def test_standard_gaussian_stationary_law(self):
        """Langevin with drift -z leaves N(0, 1) approximately invariant."""
        rng = np.random.default_rng(4)
        z = rng.standard_normal((2000, 1))
        plan = AnnealPlan(betas=make_schedule(1), n_inner=600, step_size=0.01, clip_norm=None)
        z = almc_update(z, lambda s: -s, zero, plan, rng)
        assert z.mean() == pytest.approx(0.0, abs=0.08)
        assert z.var(ddof=1) == pytest.approx(1.0, abs=0.12)

    def test_negative_step_size_rejected(self):
        with pytest.raises(ValueError):
            one_step(np.zeros((1, 1)), lambda z: z, -0.1, np.random.default_rng(0))


class TestAlmcUpdate:
    def test_ensemble_size_invariant(self):
        rng = np.random.default_rng(5)
        pred = rng.standard_normal((123, 2))
        plan = AnnealPlan(betas=make_schedule(3), n_inner=5, step_size=0.01)
        out = almc_update(pred, lambda z: -z, lambda z: np.zeros_like(z), plan, rng)
        assert out.shape == pred.shape

    def test_flat_likelihood_preserves_prior(self):
        """With zero likelihood gradient the target stays the prior N(0,1)."""
        rng = np.random.default_rng(6)
        pred = rng.standard_normal((4000, 1))
        plan = AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=0.01)
        out = almc_update(pred, lambda z: -z, lambda z: np.zeros_like(z), plan, rng)
        assert out.mean() == pytest.approx(0.0, abs=0.06)
        assert out.var(ddof=1) == pytest.approx(1.0, abs=0.09)

    def test_conjugate_gaussian_posterior(self):
        """Analytic prior score + Gaussian likelihood reproduce the closed-form
        posterior: mean (y/ov)/(1 + 1/ov), variance 1/(1 + 1/ov)."""
        rng = np.random.default_rng(7)
        n = 2000
        pred = rng.standard_normal((n, 1))
        y, obs_var = 0.5, 0.2
        plan = AnnealPlan(betas=make_schedule(10), n_inner=50, step_size=0.01)
        out = almc_update(pred, lambda z: -z, lambda z: (y - z) / obs_var, plan, rng)
        post_mean = (y / obs_var) / (1 + 1 / obs_var)
        post_var = 1 / (1 + 1 / obs_var)
        se = np.sqrt(post_var / n)
        assert abs(out.mean() - post_mean) <= 3 * se
        assert abs(out.var(ddof=1) - post_var) <= 0.15 * post_var

    def test_single_temperature_is_vanilla_lmc(self):
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        pred = np.random.default_rng(9).standard_normal((50, 1))
        plan = AnnealPlan(betas=make_schedule(1), n_inner=4, step_size=0.01)
        out = almc_update(pred, lambda z: -z, lambda z: 2 * z, plan, rng_a)
        manual = pred.copy()
        for _ in range(4):  # Euler-Maruyama: z + h * drift(z) + sqrt(2h) * xi
            xi = rng_b.standard_normal(manual.shape)
            manual = manual + 0.01 * (-manual + 2 * manual) + np.sqrt(2 * 0.01) * xi
        assert np.allclose(out, manual)

    def test_fixed_seed_bit_identical(self):
        pred = np.random.default_rng(10).standard_normal((64, 2))
        plan = AnnealPlan(betas=make_schedule(5), n_inner=10, step_size=0.01)
        a = almc_update(pred, lambda z: -z, lambda z: -z, plan, np.random.default_rng(11))
        b = almc_update(pred, lambda z: -z, lambda z: -z, plan, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_clipping_applies_to_combined_drift(self):
        rng = np.random.default_rng(12)
        pred = np.full((4, 1), 10.0)
        plan = AnnealPlan(betas=make_schedule(1), n_inner=1, step_size=1.0, clip_norm=1.0)
        out = almc_update(
            pred, lambda z: -100 * z, lambda z: np.zeros_like(z), plan, rng
        )
        xi = np.random.default_rng(12).standard_normal((4, 1))
        assert np.allclose(out, pred - 1.0 + np.sqrt(2.0) * xi)

    def test_non_finite_particles_abort_with_diagnostics(self):
        pred = np.zeros((3, 1))
        plan = AnnealPlan(betas=make_schedule(2), n_inner=3, step_size=0.01, clip_norm=None)
        with pytest.raises(
            FloatingPointError, match="^non-finite particle at temperature 1, inner iteration 0$"
        ):
            almc_update(
                pred,
                lambda z: np.full_like(z, np.nan),
                lambda z: np.zeros_like(z),
                plan,
                np.random.default_rng(0),
            )

    def test_empty_ensemble_rejected(self):
        plan = AnnealPlan(betas=make_schedule(2), n_inner=1, step_size=0.01)
        with pytest.raises(ValueError):
            almc_update(
                np.zeros((0, 1)),
                lambda z: z,
                lambda z: z,
                plan,
                np.random.default_rng(0),
            )
