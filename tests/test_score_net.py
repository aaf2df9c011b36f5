"""Score network: whitening, loss values, exact gradients, training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssls.score_net import (
    DEGENERATE_SCALE,
    ScoreNetwork,
    TrainConfig,
    dsm_loss_gradient,
    train_score,
    whiten,
)


def zero_network(d, hidden=(4,)):
    sizes = (d, *hidden, d)
    return ScoreNetwork(
        weights=[np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        biases=[np.zeros(o) for o in sizes[1:]],
        shift=np.zeros(d),
        scale=np.ones(d),
    )


def random_network(d, hidden, rng, scale=None, shift=None):
    sizes = (d, *hidden, d)
    return ScoreNetwork(
        weights=[rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        biases=[rng.normal(size=o) for o in sizes[1:]],
        shift=np.zeros(d) if shift is None else np.asarray(shift, dtype=float),
        scale=np.ones(d) if scale is None else np.asarray(scale, dtype=float),
    )


def unwhitened(net):
    """``net`` with identity whitening: its ``forward`` is the network in
    whitened coordinates."""
    return ScoreNetwork(net.weights, net.biases, np.zeros(net.dim), np.ones(net.dim))


def shifted_network(net, offset):
    """A new network whose parameters are ``net``'s plus ``offset``, laid out
    as every weight matrix, then every bias, in layer order."""
    params, pos = [], 0
    for arr in net.weights + net.biases:
        params.append(arr + offset[pos : pos + arr.size].reshape(arr.shape))
        pos += arr.size
    layers = len(net.weights)
    return ScoreNetwork(params[:layers], params[layers:], net.shift, net.scale)


def negation_network():
    """Exact s(z) = -z in one dimension: a single linear layer."""
    return ScoreNetwork(
        weights=[np.array([[-1.0]])],
        biases=[np.zeros(1)],
        shift=np.zeros(1),
        scale=np.ones(1),
    )


class TestParameterDtypes:
    @pytest.mark.parametrize(
        "weight_dtype, bias_dtype",
        [
            (np.float32, np.float64),
            (np.float64, np.float32),
            (np.float16, np.float16),
            (np.int64, np.int64),
        ],
    )
    def test_mixed_or_unsupported_dtypes_rejected(self, weight_dtype, bias_dtype):
        with pytest.raises(ValueError, match="float32 or all float64"):
            ScoreNetwork(
                weights=[np.zeros((4, 2), weight_dtype), np.zeros((2, 4), weight_dtype)],
                biases=[np.zeros(4, bias_dtype), np.zeros(2, bias_dtype)],
                shift=np.zeros(2),
                scale=np.ones(2),
            )

    @pytest.mark.parametrize("layer", [0, -1], ids=["input", "output"])
    def test_widths_must_equal_the_state_dimension(self, layer):
        net = zero_network(2, hidden=(4,))
        weights = list(net.weights)
        weights[layer] = np.zeros((4, 3)) if layer == 0 else np.zeros((3, 4))
        with pytest.raises(ValueError, match="widths must equal the state dimension"):
            ScoreNetwork(weights=weights, biases=net.biases, shift=net.shift, scale=net.scale)

    def test_one_mixed_layer_rejected(self):
        net = zero_network(2, hidden=(4, 4))
        with pytest.raises(ValueError, match="float32 or all float64"):
            ScoreNetwork(
                weights=net.weights[:-1] + [net.weights[-1].astype(np.float32)],
                biases=net.biases,
                shift=net.shift,
                scale=net.scale,
            )


class TestWhiten:
    def test_two_point_example(self):
        whitened, shift, scale = whiten(np.array([[1.0], [3.0]]))
        assert np.allclose(whitened, [[-1.0], [1.0]])
        assert shift[0] == 2.0
        assert scale[0] == 1.0

    def test_idempotent_on_whitened_data(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(200, 3))
        standardized = (raw - raw.mean(0)) / raw.std(0)
        whitened, shift, scale = whiten(standardized)
        assert np.allclose(whitened, standardized, atol=1e-12)
        assert np.allclose(shift, 0.0, atol=1e-12)
        assert np.allclose(scale, 1.0, atol=1e-12)

    def test_constant_dimension_uses_unit_scale(self):
        whitened, shift, scale = whiten(np.array([[5.0], [5.0], [5.0]]))
        assert np.allclose(whitened, 0.0)
        assert scale[0] == 1.0

    def test_constant_column_far_from_zero_uses_unit_scale(self):
        """With d > 1 the column mean sums the rows one by one, so a constant
        column's computed std is rounding error: 1.0012e-8 here, above
        ``DEGENERATE_SCALE``.  Equal values are degenerate all the same."""
        x = np.full((546, 3), 916706.2256204141)
        assert (x.std(axis=0) > DEGENERATE_SCALE).all()
        whitened, shift, scale = whiten(x)
        assert np.all(scale == 1.0)
        assert np.all(np.abs(whitened) <= 1e-6)

    def test_output_moments(self):
        rng = np.random.default_rng(1)
        whitened, _, _ = whiten(rng.normal(loc=3.0, scale=2.5, size=(500, 2)))
        assert np.allclose(whitened.mean(0), 0.0, atol=1e-12)
        assert np.allclose((whitened**2).mean(0), 1.0, atol=1e-12)

    def test_too_few_particles_rejected(self):
        with pytest.raises(ValueError):
            whiten(np.array([[1.0]]))

    @settings(max_examples=100)
    @given(
        n=st.integers(2, 600),
        # Per column: constant or not, log10 of its scale, and its offset.
        columns=st.sampled_from([1, 3, 20]).flatmap(lambda d: st.lists(
            st.tuples(st.booleans(), st.floats(-6.0, 6.0), st.floats(-1e6, 1e6)),
            min_size=d, max_size=d,
        )),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, n, columns, seed):
        """Columns of scale 1e-6 to 1e6, or constant, at offsets up to 1e6,
        each with the four round-trip properties."""
        constant = np.array([c for c, _, _ in columns])
        spread = np.where(constant, 0.0, 10.0 ** np.array([e for _, e, _ in columns]))
        loc = np.array([o for _, _, o in columns])
        x = loc + spread * np.random.default_rng(seed).standard_normal((n, len(columns)))
        z, shift, scale = whiten(x)
        eps = np.finfo(float).eps
        assert np.all(np.abs(z * scale + shift - x) <= 8 * eps * (np.abs(x) + np.abs(shift)))
        degenerate = constant | (x.std(axis=0) < DEGENERATE_SCALE)
        assert np.all(scale[degenerate] == 1.0)
        assert np.array_equal(z[:, degenerate], x[:, degenerate] - shift[degenerate])
        live = ~degenerate
        # Rounding of the shift is amplified by offset / scale.
        tol = 1e-12 * (1.0 + np.abs(x[:, live]).max(axis=0, initial=0.0) / scale[live])
        assert np.all(np.abs(z[:, live].mean(axis=0)) <= tol)
        assert np.all(np.abs(z[:, live].std(axis=0) - 1.0) <= tol)


class TestForward:
    def test_identity_whitening_is_the_plain_network(self):
        rng = np.random.default_rng(2)
        net = random_network(2, (5,), rng)
        x = rng.normal(size=(7, 2))
        (w0, w1), (b0, b1) = net.weights, net.biases
        hidden = 1.0 / (1.0 + np.exp(-(x @ w0.T + b0)))
        assert np.allclose(net.forward(x), hidden @ w1.T + b1)

    def test_scale_chain_rule(self):
        rng = np.random.default_rng(3)
        net = random_network(1, (5,), rng, scale=[2.0])
        x = np.array([[0.8]])
        z = x / 2.0
        assert np.allclose(net.forward(x), unwhitened(net).forward(z) / 2.0)

    def test_zero_network_returns_zero(self):
        net = zero_network(3)
        assert np.allclose(net.forward(np.ones(3)), 0.0)

    def test_whitening_round_trip_identity(self):
        rng = np.random.default_rng(4)
        net = random_network(2, (6,), rng, shift=[1.0, -2.0], scale=[0.5, 3.0])
        x = rng.normal(size=(10, 2))
        direct = net.forward(x)
        manual = unwhitened(net).forward((x - net.shift) / net.scale) / net.scale
        assert np.allclose(direct, manual, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        net = zero_network(3)
        with pytest.raises(ValueError):
            net.forward(np.ones(4))


class TestDsmLoss:
    def test_zero_network_single_sample(self):
        net = zero_network(2)
        loss = dsm_loss_gradient(net, np.zeros((1, 2)), 1.0, np.array([[1.0, -1.0]]))[0]
        assert loss == pytest.approx(2.0)

    def test_zero_network_batch_reduces_to_noise_norm(self):
        rng = np.random.default_rng(5)
        net = zero_network(3)
        noise = rng.normal(size=(40, 3))
        loss = dsm_loss_gradient(net, np.zeros((40, 3)), 0.7, noise)[0]
        assert loss == pytest.approx(np.mean(np.sum(noise**2, axis=1)))

    def test_exact_kernel_score_gives_zero_loss(self):
        # s(z) = -(z - z0) is the exact score of the Gaussian kernel around
        # a single sample; the residual cancels for every noise draw.
        net = negation_network()
        loss = dsm_loss_gradient(net, np.zeros((1, 1)), 1.0, np.array([[0.3]]))[0]
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_empty_batch_rejected(self):
        net = zero_network(1)
        with pytest.raises(ValueError):
            dsm_loss_gradient(net, np.zeros((0, 1)), 1.0, np.zeros((0, 1)))

    @pytest.mark.parametrize("smoothing", [0.0, -1.0])
    def test_non_positive_smoothing_rejected(self, smoothing):
        net = zero_network(1)
        with pytest.raises(ValueError, match="smoothing level must be positive"):
            dsm_loss_gradient(net, np.zeros((2, 1)), smoothing, np.zeros((2, 1)))

    def test_noise_shape_mismatch_rejected(self):
        net = zero_network(1)
        with pytest.raises(ValueError):
            dsm_loss_gradient(net, np.zeros((2, 1)), 1.0, np.zeros((3, 1)))


class TestDsmLossGradient:
    def test_finite_difference_oracle(self):
        """Directional derivatives match central differences to 1e-4."""
        rng = np.random.default_rng(7)
        h = 1e-5
        for trial in range(20):
            d = int(rng.integers(1, 4))
            hidden = tuple(rng.integers(1, 9, size=rng.integers(1, 3)))
            net = random_network(d, hidden, rng)
            batch = rng.normal(size=(int(rng.integers(1, 5)), d))
            noise = rng.normal(size=batch.shape)
            sigma = float(rng.uniform(0.2, 1.0))
            _, w_grads, b_grads = dsm_loss_gradient(net, batch, sigma, noise)
            flat_grad = np.concatenate([g.ravel() for g in w_grads + b_grads])

            direction = rng.normal(size=flat_grad.shape)
            direction /= np.linalg.norm(direction)

            def loss_at(offset):
                return dsm_loss_gradient(shifted_network(net, offset), batch, sigma, noise)[0]

            fd = (loss_at(h * direction) - loss_at(-h * direction)) / (2 * h)
            analytic = float(flat_grad @ direction)
            assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_single_linear_layer_closed_form(self):
        # s(x) = W x, one sample: d/dW ||sigma W u + eps||^2 = 2 sigma r u^T
        rng = np.random.default_rng(8)
        w = rng.normal(size=(2, 2))
        net = ScoreNetwork(
            weights=[w.copy()],
            biases=[np.zeros(2)],
            shift=np.zeros(2),
            scale=np.ones(2),
        )
        z = rng.normal(size=(1, 2))
        eps = rng.normal(size=(1, 2))
        sigma = 0.7
        u = z + sigma * eps
        resid = sigma * (u @ w.T) + eps
        expected = 2.0 * sigma * resid.T @ u
        _, w_grads, b_grads = dsm_loss_gradient(net, z, sigma, eps)
        assert np.allclose(w_grads[0], expected, atol=1e-12)
        assert np.allclose(b_grads[0], 2.0 * sigma * resid.ravel(), atol=1e-12)

    def test_symmetric_batch_cancels_gradients(self):
        net = zero_network(2, hidden=(4,))
        x = np.array([[0.3, -0.7]])
        eps = np.array([[0.5, 0.2]])
        batch = np.concatenate([x, -x])
        noise = np.concatenate([eps, -eps])
        _, w_grads, b_grads = dsm_loss_gradient(net, batch, 1.0, noise)
        assert np.allclose(b_grads[-1], 0.0, atol=1e-15)
        assert np.allclose(w_grads[-1], 0.0, atol=1e-15)


class TestTrainScore:
    def test_fixed_seed_bit_identical(self):
        rng_data = np.random.default_rng(9)
        ensemble = rng_data.normal(size=(64, 2))
        cfg = TrainConfig(smoothing=0.3, epochs=3, batch_size=16)
        a = train_score(ensemble, cfg, rng=np.random.default_rng(11))
        b = train_score(ensemble, cfg, rng=np.random.default_rng(11))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_weights_finite_after_training(self):
        ensemble = np.random.default_rng(10).normal(size=(50, 1))
        net = train_score(ensemble, TrainConfig(epochs=2), rng=np.random.default_rng(0))
        assert all(np.isfinite(p).all() for p in net.weights + net.biases)

    def test_gaussian_score_recovery(self):
        """Smoothed N(0,1) score is -x / (1 + sigma^2) near the bulk."""
        data = np.random.default_rng(12).standard_normal((4000, 1))
        cfg = TrainConfig(smoothing=0.5, epochs=80, batch_size=128, learning_rate=2e-3)
        net = train_score(data, cfg, rng=np.random.default_rng(13))
        xs = np.linspace(-1.5, 1.5, 31)[:, None]
        err = np.abs(net.forward(xs) + xs / 1.25)
        assert err.max() < 0.12

    def test_mixture_score_recovery(self):
        """Two wells at +/-1: the trained score matches the analytic smoothed
        mixture score with RMSE below 0.1 over the central data range."""
        rng = np.random.default_rng(42)
        n = 6000
        component = rng.integers(0, 2, n) * 2 - 1
        data = (component + 0.15 * rng.standard_normal(n))[:, None]
        cfg = TrainConfig(smoothing=0.5, epochs=160, batch_size=128, learning_rate=2e-3)
        net = train_score(data, cfg, rng=np.random.default_rng(5))

        kernel_var = 0.15**2 + (cfg.smoothing * data.std()) ** 2
        lo, hi = np.quantile(data, [0.05, 0.95])
        xs = np.linspace(lo, hi, 121)
        log_w = np.stack([-((xs - 1.0) ** 2), -((xs + 1.0) ** 2)]) / (2.0 * kernel_var)
        log_w -= log_w.max(axis=0)
        w = np.exp(log_w)
        w /= w.sum(axis=0)
        oracle = (w[0] * (1.0 - xs) + w[1] * (-1.0 - xs)) / kernel_var
        err = net.forward(xs[:, None]).ravel() - oracle
        assert np.sqrt(np.mean(err**2)) < 0.1

    def test_warm_start_reuses_weights_and_recomputes_whitening(self):
        rng = np.random.default_rng(14)
        first = train_score(rng.normal(size=(64, 1)), TrainConfig(epochs=2), rng=rng)
        shifted = 5.0 + rng.normal(size=(64, 1))
        cfg = TrainConfig(epochs=1, learning_rate=0.0)
        second = train_score(shifted, cfg, init=first, rng=rng)
        # zero learning rate: weights unchanged, whitening from the new data
        for wa, wb in zip(first.weights, second.weights):
            assert np.array_equal(wa, wb)
        assert second.shift[0] == pytest.approx(shifted.mean())

    def test_warm_start_disabled_reinitializes(self):
        # A cold start (init=None, as SSLS's first step passes it) draws
        # fresh weights: equal to an independent cold start on the same
        # generator state, not to the previous network.
        rng = np.random.default_rng(15)
        first = train_score(rng.normal(size=(64, 1)), TrainConfig(epochs=2), rng=rng)
        cfg = TrainConfig(epochs=1, learning_rate=0.0)
        data = rng.normal(size=(64, 1))
        state = rng.bit_generator.state
        second = train_score(data, cfg, init=None, rng=rng)
        rng.bit_generator.state = state
        fresh = train_score(data, cfg, rng=rng)
        assert not np.array_equal(first.weights[0], second.weights[0])
        assert np.array_equal(second.weights[0], fresh.weights[0])

    def test_mismatched_warm_start_rejected(self):
        rng = np.random.default_rng(16)
        first = train_score(rng.normal(size=(32, 1)), TrainConfig(epochs=1), rng=rng)
        with pytest.raises(ValueError):
            train_score(rng.normal(size=(32, 2)), TrainConfig(epochs=1), init=first, rng=rng)

    def test_non_finite_loss_raises(self):
        ensemble = np.random.default_rng(17).normal(size=(64, 1))
        corrupted = train_score(ensemble, TrainConfig(epochs=1), rng=np.random.default_rng(0))
        corrupted.weights[-1][:] = 1e30  # finite in float32; overflows the squared loss
        cfg = TrainConfig(epochs=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite loss"):
                train_score(ensemble, cfg, init=corrupted, rng=np.random.default_rng(0))

    def test_trained_network_is_float32_with_float64_scores(self):
        ensemble = np.random.default_rng(19).normal(size=(64, 2))
        net = train_score(ensemble, TrainConfig(epochs=1), rng=np.random.default_rng(0))
        assert all(p.dtype == np.float32 for p in net.weights + net.biases)
        assert net.shift.dtype == net.scale.dtype == np.float64
        assert net.forward(ensemble).dtype == np.float64
        assert unwhitened(net).forward(ensemble).dtype == np.float64

    def test_nan_ensemble_raises(self):
        ensemble = np.random.default_rng(17).normal(size=(64, 1))
        ensemble[3, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            train_score(ensemble, TrainConfig(epochs=1), rng=np.random.default_rng(0))

    def test_too_few_particles_rejected(self):
        with pytest.raises(ValueError):
            train_score(np.zeros((1, 1)), TrainConfig(epochs=1), rng=np.random.default_rng(0))

    def test_three_dimensional_ensemble_rejected(self):
        match = r"ensemble must be an \(n, d\) array, got shape \(4, 8, 1\)"
        with pytest.raises(ValueError, match=match):
            train_score(np.zeros((4, 8, 1)), TrainConfig(epochs=1), rng=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "d, hidden, sizes",
        [
            (1, None, (1, 64, 64, 1)),
            (2, None, (2, 128, 128, 2)),
            (20, None, (20, 128, 128, 20)),
            (1, (128, 128), (1, 128, 128, 1)),
            (3, (8,), (3, 8, 3)),
        ],
    )
    def test_default_width_follows_the_state_dimension(self, d, hidden, sizes):
        ensemble = np.random.default_rng(18).normal(size=(16, d))
        config = TrainConfig(epochs=1, hidden=hidden)
        net = train_score(ensemble, config, rng=np.random.default_rng(0))
        assert net.layer_sizes == sizes
        # A warm start rebuilds the same widths from the same rule.
        again = train_score(ensemble, config, init=net, rng=np.random.default_rng(1))
        assert again.layer_sizes == sizes


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"smoothing": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name", ["smoothing", "learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} .*finite"):
            TrainConfig(**{name: value})

    def test_zero_learning_rate_accepted(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize(
        "hidden", [(0,), (2.7,), (-3,), (16, 0), (True,), ("8",), 128, 64.0, np.int64(32)]
    )
    def test_hidden_widths_must_be_positive_integers(self, hidden):
        with pytest.raises(ValueError, match="hidden widths must be positive integers"):
            TrainConfig(hidden=hidden)

    def test_integer_hidden_widths_kept(self):
        assert TrainConfig(hidden=[np.int64(16), 8]).hidden == (16, 8)
        assert TrainConfig(hidden=()).hidden == ()

    def test_hidden_defaults_to_none(self):
        assert TrainConfig().hidden is None
        assert TrainConfig(hidden=None).hidden is None

    @pytest.mark.parametrize("name", ["smoothing", "learning_rate"])
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bools_are_not_real_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            TrainConfig(**{name: value})
