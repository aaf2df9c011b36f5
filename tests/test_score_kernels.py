"""Workspace kernels of the score network against a plain list-based reference.

The reference below is the straightforward implementation: a fresh array
for every intermediate, ``@`` for every product (including the k=1 ones the
kernels replace by broadcasts) and Adam as a loop over the parameter
arrays.  It casts its inputs to the parameter dtype and computes in that
dtype, as the kernels do.  Both use the same sigmoid, so the kernels must
match it bit for bit, in float32 and in float64.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from ssls.score_net import (
    PARAM_DTYPE,
    ScoreNetwork,
    TrainConfig,
    _init_layers,
    _sigmoid,
    dsm_loss,
    dsm_loss_gradient,
    train_score,
    whiten,
)

DIMS = st.sampled_from([1, 3, 20])
HIDDEN = st.sampled_from([(), (4,), (128, 128)])
ACTIVATION = st.sampled_from(["sigmoid", "relu"])
DTYPE = st.sampled_from([np.float64, np.float32])
ROWS = st.sampled_from([1, 116, 128, 500])
SEEDS = st.integers(0, 2**32 - 1)
KERNEL_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- reference implementation -------------------------------------------------


def ref_activate(t, activation):
    return _sigmoid(t.copy()) if activation == "sigmoid" else np.maximum(t, 0.0)


def ref_forward_cached(net, z):
    z = np.asarray(z, dtype=net.dtype)
    acts, pres = [z], []
    a = z
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = a @ w.T + b
        pres.append(pre)
        a = ref_activate(pre, net.activation)
        acts.append(a)
    return a @ net.weights[-1].T + net.biases[-1], pres, acts


def ref_forward(net, x):
    z = (x - net.shift) / net.scale
    return ref_forward_cached(net, z)[0] / net.scale


def ref_loss_gradient(net, batch, smoothing, noise):
    batch = np.asarray(batch, dtype=net.dtype)
    noise = np.asarray(noise, dtype=net.dtype)
    m = batch.shape[0]
    out, pres, acts = ref_forward_cached(net, batch + smoothing * noise)
    resid = smoothing * out + noise
    loss = float(np.mean(np.sum(resid**2, axis=1)))
    n_layers = len(net.weights)
    weight_grads = [None] * n_layers
    bias_grads = [None] * n_layers
    delta = (2.0 * smoothing / m) * resid
    for l in range(n_layers - 1, -1, -1):
        weight_grads[l] = delta.T @ acts[l]
        bias_grads[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l]
            if net.activation == "sigmoid":
                a = acts[l]
                delta = delta * a * (1.0 - a)
            else:
                delta = delta * (pres[l - 1] > 0.0)
    return loss, weight_grads, bias_grads


def ref_train(ensemble, config, init, rng):
    n, d = ensemble.shape
    whitened, shift, scale = whiten(ensemble)
    sizes = (d, *config.hidden, d)
    if init is not None:
        weights, biases = init.weights, init.biases
    else:
        weights, biases = _init_layers(sizes, rng)
    weights = [w.astype(PARAM_DTYPE) for w in weights]
    biases = [b.astype(PARAM_DTYPE) for b in biases]
    net = ScoreNetwork(weights, biases, config.activation, shift, scale)
    params = net.weights + net.biases
    first_moment = [np.zeros_like(p) for p in params]
    second_moment = [np.zeros_like(p) for p in params]
    t = 0
    b1, b2 = config.adam_beta1, config.adam_beta2
    for epoch in range(config.epochs):
        lr = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * epoch / config.epochs))
        noise = rng.standard_normal((n, d))
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, w_grads, b_grads = ref_loss_gradient(
                net, whitened[idx], config.smoothing, noise[idx]
            )
            t += 1
            correction = np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
            for p, g, m1, m2 in zip(params, w_grads + b_grads, first_moment, second_moment):
                m1 *= b1
                m1 += (1.0 - b1) * g
                m2 *= b2
                m2 += (1.0 - b2) * g**2
                # a Python float step size keeps the update in p's dtype
                p -= float(lr * correction) * m1 / (np.sqrt(m2) + config.adam_eps)
    return net


def random_network(d, hidden, activation, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    sizes = (d, *hidden, d)
    return ScoreNetwork(
        weights=[rng.normal(size=(o, i)).astype(dtype) for i, o in zip(sizes[:-1], sizes[1:])],
        biases=[rng.normal(size=o).astype(dtype) for o in sizes[1:]],
        activation=activation,
        shift=rng.normal(size=d),
        scale=rng.uniform(0.5, 2.0, size=d),
    )


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# -- kernels against the reference ---------------------------------------------


@KERNEL_SETTINGS
@given(d=DIMS, hidden=HIDDEN, activation=ACTIVATION, rows=ROWS, dtype=DTYPE, seed=SEEDS)
def test_forward_matches_reference(d, hidden, activation, rows, dtype, seed):
    net = random_network(d, hidden, activation, seed, dtype)
    x = np.random.default_rng(seed + 1).normal(size=(rows, d))
    y = net.forward(x)
    assert y.dtype == np.float64
    assert np.array_equal(y, ref_forward(net, x))
    z = (x - net.shift) / net.scale
    assert np.array_equal(net.raw(z), ref_forward_cached(net, z)[0])


@KERNEL_SETTINGS
@given(d=DIMS, hidden=HIDDEN, activation=ACTIVATION, rows=ROWS, dtype=DTYPE, seed=SEEDS)
def test_loss_gradient_matches_reference(d, hidden, activation, rows, dtype, seed):
    net = random_network(d, hidden, activation, seed, dtype)
    rng = np.random.default_rng(seed + 1)
    batch = rng.normal(size=(rows, d))
    noise = rng.normal(size=(rows, d))
    loss, w_grads, b_grads = dsm_loss_gradient(net, batch, 0.3, noise)
    ref_loss, ref_w, ref_b = ref_loss_gradient(net, batch, 0.3, noise)
    assert loss == ref_loss
    assert dsm_loss(net, batch, 0.3, noise) == ref_loss
    assert_all_equal(w_grads, ref_w)
    assert_all_equal(b_grads, ref_b)


def test_gradient_written_into_flat_out():
    net = random_network(3, (4,), "sigmoid", 0)
    rng = np.random.default_rng(1)
    batch, noise = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    out = np.full(sum(w.size + b.size for w, b in zip(net.weights, net.biases)), np.nan)
    _, w_grads, b_grads = dsm_loss_gradient(net, batch, 0.3, noise, out=out)
    _, ref_w, ref_b = ref_loss_gradient(net, batch, 0.3, noise)
    assert np.array_equal(out, np.concatenate([g.ravel() for g in ref_w + ref_b]))
    assert all(np.shares_memory(g, out) for g in w_grads + b_grads)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    d=DIMS,
    hidden=HIDDEN,
    activation=ACTIVATION,
    n=st.sampled_from([2, 116, 500]),
    warm=st.booleans(),
    seed=SEEDS,
)
def test_training_matches_reference(d, hidden, activation, n, warm, seed):
    config = TrainConfig(epochs=2, batch_size=128, hidden=hidden, activation=activation,
                         learning_rate=1e-2)
    ensemble = np.random.default_rng(seed).normal(size=(n, d))
    init = None
    if warm:
        init = train_score(ensemble, dataclasses.replace(config, epochs=1),
                           rng=np.random.default_rng(seed + 1))
        init_copy = init.copy()
    got = train_score(ensemble, config, init=init, rng=np.random.default_rng(seed + 2))
    want = ref_train(
        ensemble, config, init_copy if warm else None, np.random.default_rng(seed + 2)
    )
    assert_all_equal(got.weights, want.weights)
    assert_all_equal(got.biases, want.biases)
    assert np.array_equal(got.shift, want.shift)
    assert np.array_equal(got.scale, want.scale)


@pytest.mark.parametrize("activation", ["sigmoid", "relu"])
@pytest.mark.parametrize("d", [1, 3, 20])
def test_float32_agrees_with_float64(d, activation):
    """A trained float32 network and its float64 twin, same weights, agree
    within 1e-5 of the largest output, inside the ensemble and beyond it."""
    rng = np.random.default_rng(d)
    spread = rng.uniform(0.1, 10.0, size=d)
    ensemble = 5.0 * rng.normal(size=d) + spread * rng.normal(size=(500, d))
    net = train_score(ensemble, TrainConfig(epochs=20, activation=activation), rng=rng)
    assert net.dtype == np.float32
    twin = ScoreNetwork(
        weights=[w.astype(np.float64) for w in net.weights],
        biases=[b.astype(np.float64) for b in net.biases],
        activation=activation,
        shift=net.shift,
        scale=net.scale,
    )
    beyond = ensemble + 3.0 * ensemble.std(axis=0) * rng.normal(size=ensemble.shape)
    x = np.concatenate([ensemble, beyond])
    want = twin.forward(x)
    assert np.abs(net.forward(x) - want).max() <= 1e-5 * np.abs(want).max()


# -- the workspace --------------------------------------------------------------


def test_forward_results_do_not_alias():
    net = random_network(3, (4,), "sigmoid", 2)
    rng = np.random.default_rng(3)
    x1, x2 = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    first = net.forward(x1)
    kept = first.copy()
    second = net.forward(x2)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    raw1 = net.raw(x1)
    raw2 = net.raw(x2)
    assert not np.shares_memory(raw1, raw2)


def test_in_place_weight_change_is_seen():
    net = random_network(1, (4,), "sigmoid", 4)
    x = np.random.default_rng(5).normal(size=(6, 1))
    before = net.forward(x)
    net.weights[-1][:] *= 2.0
    net.biases[0][:] += 1.0
    after = net.forward(x)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, ref_forward(net, x))


def test_copy_gets_its_own_workspace():
    net = random_network(3, (4,), "sigmoid", 6)
    x = np.random.default_rng(7).normal(size=(9, 3))
    net.forward(x)
    twin = net.copy()
    twin.forward(x)
    assert twin._work is not net._work
    for a in net._work.values():
        for b in twin._work.values():
            assert not np.shares_memory(a, b)


def test_workspace_kept_out_of_repr_and_equality():
    field = {f.name: f for f in dataclasses.fields(ScoreNetwork)}["_work"]
    assert not field.repr and not field.compare and not field.init
    net = random_network(1, (), "relu", 8)
    net.forward(np.zeros((3, 1)))
    assert "_work" not in repr(net)


def test_warm_start_takes_over_the_workspace():
    rng = np.random.default_rng(9)
    ensemble = rng.normal(size=(64, 2))
    first = train_score(ensemble, TrainConfig(epochs=1, hidden=(8,)), rng=rng)
    first.forward(ensemble)
    work = first._work
    second = train_score(ensemble, TrainConfig(epochs=1, hidden=(8,)), init=first, rng=rng)
    assert second._work is work
    assert first._work == {}
    # the previous network still evaluates, on a new workspace
    assert np.array_equal(first.forward(ensemble), ref_forward(first, ensemble))


def test_warm_start_from_float64_network():
    rng = np.random.default_rng(12)
    ensemble = rng.normal(size=(64, 2))
    config = TrainConfig(epochs=1, hidden=(8,))
    init = random_network(2, (8,), "sigmoid", 13)
    init.forward(ensemble)
    work = init._work
    got = train_score(ensemble, config, init=init, rng=np.random.default_rng(14))
    assert init._work is work
    assert all(buf.dtype == np.float32 for buf in got._work.values())
    want = ref_train(ensemble, config, init, np.random.default_rng(14))
    assert_all_equal(got.weights, want.weights)
    assert_all_equal(got.biases, want.biases)


def test_single_point_forward_keeps_shape():
    net = random_network(3, (4,), "sigmoid", 10)
    x = np.random.default_rng(11).normal(size=3)
    y = net.forward(x)
    assert y.shape == (3,)
    assert np.array_equal(y, ref_forward(net, x[None, :])[0])


# -- the sigmoid ----------------------------------------------------------------


@given(arrays(np.float64, st.integers(1, 64),
              elements=st.floats(-745.0, 745.0, allow_nan=False)))
def test_sigmoid_matches_expit(t):
    np.testing.assert_allclose(_sigmoid(t.copy()), expit(t), rtol=1e-15, atol=0)


def test_sigmoid_matches_expit_on_a_dense_grid():
    t = np.concatenate(
        [np.linspace(-745.0, 745.0, 400_001), np.linspace(-40.0, 40.0, 400_001)]
    )
    np.testing.assert_allclose(_sigmoid(t.copy()), expit(t), rtol=1e-15, atol=0)


def test_sigmoid_saturates_exactly_without_warnings():
    for dtype in (np.float64, np.float32):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _sigmoid(np.array([800.0, -800.0], dtype=dtype))
        assert result[0] == 1.0
        assert result[1] == 0.0


def test_sigmoid_works_in_place():
    t = np.array([0.0, 2.0])
    assert _sigmoid(t) is t
    assert t[0] == 0.5

