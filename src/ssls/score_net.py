"""Feed-forward score networks trained by denoising score matching.

The score of a particle ensemble's underlying density is estimated by
perturbing the (whitened) particles with Gaussian noise of level ``sigma``
and regressing the scaled noise:

    loss(s) = (1/m) * sum_i || sigma * s(z_i + sigma * eps_i) + eps_i ||^2

The minimizer of the population version of this objective is the score of
the Gaussian-smoothed ensemble density.  Everything here is plain NumPy with
hand-written backpropagation; networks are small because the states of
interest have at most a few dozen dimensions.  By default they have two
hidden layers, 64 wide for one-dimensional states and 128 wide otherwise:
at d=1 the narrower network halves the cost of an assimilation step at the
same accuracy, while at d=20 it costs about 7% in RMSE (see
:func:`_layer_sizes`).

Ensembles are normalized to zero mean and unit per-dimension scale before
training.  The fitted network stores the affine transform and
:meth:`ScoreNetwork.forward` returns scores in the original coordinates, so
callers never deal with whitened quantities.  ``sigma`` is interpreted in
whitened units, keeping one smoothing level meaningful across problems of
different scales.

The forward and backward passes run on preallocated arrays.  Each network
owns a workspace of scratch arrays (layer outputs, input and backprop
deltas) sized by row count: a call on fewer rows uses their leading rows,
a call on more rows grows them.  The sigmoid is computed in place with
NumPy's ``exp``.  Adam keeps every parameter in one flat vector, and
``weights``/``biases`` are views into it.  Because of the workspace, one
network must not be evaluated from two threads at once; nothing in this
package does so.

The kernels compute in the dtype of the network's parameters, float32 or
float64.  :func:`train_score` returns float32 networks (``PARAM_DTYPE``):
their parameters, Adam moments, gradients and workspace are float32, which
halves the memory traffic of the element-wise passes and of ``exp`` that
bound the cost of a forward pass, while the network's own fitting error is
far larger than float32 rounding.  The whitening transform ``shift`` and
``scale`` stays float64, and so does everything outside the kernels:
:meth:`ScoreNetwork.forward` whitens in float64, casts once into the
network's dtype, and divides the output by the float64 ``scale``, so
callers always receive float64 scores and the particles and the sampler
stay float64.  Networks built by hand from float64 arrays run in float64
through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

from .models import _check_count, _check_real, _is_integer

Array = np.ndarray

# Per-dimension scales below this are treated as degenerate and left at 1.
DEGENERATE_SCALE = 1e-8

# Parameter dtype of the networks that train_score returns.
PARAM_DTYPE = np.dtype(np.float32)

_PARAM_DTYPES = frozenset([np.dtype(np.float32), np.dtype(np.float64)])

# Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _sigmoid(t: Array) -> Array:
    """Logistic function ``1 / (1 + exp(-t))``, computed in place on ``t``.

    For ``t`` below about -709.8 (-88.7 in float32), ``exp(-t)`` overflows
    to inf and the result is exactly 0, as ``scipy.special.expit`` gives
    there.
    """
    with np.errstate(over="ignore"):
        np.negative(t, out=t)
        np.exp(t, out=t)
        t += 1.0
        np.divide(1.0, t, out=t)
    return t


@dataclass
class TrainConfig:
    """Hyper-parameters for denoising score matching.

    Attributes
    ----------
    smoothing : float
        Noise level ``sigma`` of the Gaussian perturbation, in whitened
        units.
    epochs : int
        Number of passes over the ensemble.  Perturbation noise is resampled
        fresh at the start of every epoch.
    batch_size : int
        Minibatch size for Adam updates.
    learning_rate : float
        Adam's learning rate.  It decays to zero over the epochs on a cosine
        schedule, which removes the endpoint jitter of constant-rate Adam.
    hidden : tuple of int or None
        Widths of the sigmoid hidden layers.  An empty tuple gives a single
        linear layer.  ``None`` (the default) sizes them from the state
        dimension when :func:`train_score` builds the network: ``(64, 64)``
        for one-dimensional states and ``(128, 128)`` otherwise (see
        :func:`_layer_sizes` for the measurements behind the rule).
    """

    smoothing: float = 0.1
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-3
    hidden: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_real("smoothing", self.smoothing)
        _check_real("learning_rate", self.learning_rate)
        # Chained comparisons are False for NaN, so each also rejects NaN.
        if not 0 < self.smoothing < np.inf:
            raise ValueError("smoothing level must be positive and finite")
        _check_count("epochs", self.epochs)
        _check_count("batch_size", self.batch_size)
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be non-negative and finite")
        if self.hidden is not None:
            widths = tuple(self.hidden) if np.iterable(self.hidden) else None
            if widths is None or not all(_is_integer(w) and w > 0 for w in widths):
                raise ValueError(
                    f"hidden widths must be positive integers or None, got {self.hidden!r}"
                )
            self.hidden = tuple(int(w) for w in widths)


@dataclass
class ScoreNetwork:
    """A sigmoid MLP score estimator with its whitening transform.

    ``weights[l]`` has shape ``(out_l, in_l)`` and ``biases[l]`` shape
    ``(out_l,)``.  Input and output dimensions both equal the state
    dimension ``d``.  ``shift`` and ``scale`` are the per-dimension mean and
    standard deviation captured from the training ensemble.  Weights and
    biases must all be float32 or all float64; the network computes in
    that dtype (see the module docstring).

    The kernels write into a private workspace (see the module docstring),
    left out of ``repr`` and equality.
    """

    weights: list[Array]
    biases: list[Array]
    shift: Array
    scale: Array
    _work: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.shift = np.asarray(self.shift, dtype=float)
        self.scale = np.asarray(self.scale, dtype=float)
        if self.weights[0].shape[1] != self.dim or self.weights[-1].shape[0] != self.dim:
            raise ValueError("network input and output widths must equal the state dimension")
        dtypes = {p.dtype for p in self.weights + self.biases}
        if len(dtypes) != 1 or not dtypes <= _PARAM_DTYPES:
            raise ValueError(
                "weights and biases must be all float32 or all float64, "
                f"got {sorted(map(str, dtypes))}"
            )

    @property
    def dim(self) -> int:
        """State dimension ``d``."""
        return self.shift.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the parameters, in which the kernels compute."""
        return self.weights[0].dtype

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights) + (self.weights[-1].shape[0],)

    def _buffer(self, key, rows: int, cols: int) -> Array:
        """The leading ``rows`` of workspace array ``key``, grown when too short."""
        buf = self._work.get(key)
        if buf is None or buf.shape[0] < rows or buf.shape[1] != cols:
            buf = self._work[key] = np.empty((rows, cols), dtype=self.dtype)
        return buf[:rows]

    def _kernel(self, z: Array) -> list[Array]:
        """Forward pass of whitened ``(m, d)`` inputs through the workspace.

        Returns ``z`` followed by the output of every layer: the hidden
        activations, then the network output.  Those are workspace views,
        overwritten by the next call.
        """
        acts = [z]
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = acts[-1]
            out = self._buffer(l, a.shape[0], w.shape[0])
            if a.shape[1] == 1:  # a k=1 product is one exact multiply
                np.multiply(a, w.T, out=out)
            else:
                np.matmul(a, w.T, out=out)
            out += b
            if l < last:
                _sigmoid(out)
            acts.append(out)
        return acts

    def forward(self, x: Array) -> Array:
        """Score estimate at ``x`` in original coordinates.

        With ``z = (x - shift) / scale`` the density change of variables
        under the diagonal affine map gives ``score(x) = s(z) / scale``,
        where ``s`` is the network in whitened coordinates.
        Accepts shape ``(d,)`` or ``(n, d)``; returns float64.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected trailing dimension {self.dim}, got {x.shape[-1]}")
        rows = x.reshape(-1, self.dim)
        z = self._buffer("in", rows.shape[0], self.dim)
        # Whiten in float64 and round once into the network's dtype.  Particles
        # of a diverged ensemble can lie beyond float32's range: they become
        # inf, and the caller reports the non-finite result.
        with np.errstate(over="ignore"):
            np.divide(np.subtract(rows, self.shift), self.scale, out=z)
        return np.divide(self._kernel(z)[-1], self.scale).reshape(x.shape)


def whiten(ensemble: Array) -> tuple[Array, Array, Array]:
    """Normalize an ensemble to zero mean and unit per-dimension scale.

    Uses the population convention (denominator ``n``) for the standard
    deviation.  Dimensions whose values are all equal, or whose scale is
    below ``1e-8``, keep scale 1 so that constant coordinates pass through
    unchanged.

    Returns
    -------
    (whitened, shift, scale)
        The whitened ``(n, d)`` ensemble and the per-dimension mean and
        scale of the affine map ``z = (x - shift) / scale``.
    """
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    if ensemble.shape[0] < 2:
        raise ValueError("whitening needs at least 2 particles")
    shift = ensemble.mean(axis=0)
    scale = ensemble.std(axis=0)
    # A constant column's computed std is rounding error, which grows with
    # its offset, so equal values are degenerate whatever that std is.
    constant = (ensemble == ensemble[0]).all(axis=0)
    scale = np.where(constant | (scale < DEGENERATE_SCALE), 1.0, scale)
    return (ensemble - shift) / scale, shift, scale


def _param_count(sizes: tuple[int, ...]) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _param_views(flat: Array, sizes: tuple[int, ...]) -> tuple[list[Array], list[Array]]:
    """Per-layer views into a flat parameter vector: all weights, then all biases."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_out, fan_in))
        pos += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


def dsm_loss_gradient(
    net: ScoreNetwork, batch: Array, smoothing: float, noise: Array, out: Array | None = None
) -> tuple[float, list[Array], list[Array]]:
    """Denoising score-matching loss on a whitened batch and its exact gradient.

    The loss is ``(1/m) * sum_i || smoothing * s(z_i + smoothing * eps_i) + eps_i ||^2``
    over the ``m`` rows ``z_i`` of ``batch``, with one standard-normal draw
    ``eps_i`` per row in ``noise``; ``s`` is the network in whitened
    coordinates.  The gradient is taken with respect to every weight and
    bias.  ``out``, when given, is a flat vector with one entry per
    parameter that receives the gradient: every weight matrix, then every
    bias, in layer order.

    Returns
    -------
    (loss, weight_grads, bias_grads)
        Gradient arrays match the shapes of ``net.weights`` / ``net.biases``
        and are views into ``out``.
    """
    if smoothing <= 0:
        raise ValueError("smoothing level must be positive")
    batch = np.atleast_2d(np.asarray(batch, dtype=net.dtype))
    noise = np.atleast_2d(np.asarray(noise, dtype=net.dtype))
    if batch.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if noise.shape != batch.shape:
        raise ValueError("need exactly one noise draw per batch element")
    perturbed = net._buffer("in", *batch.shape)
    np.multiply(noise, smoothing, out=perturbed)
    perturbed += batch
    acts = net._kernel(perturbed)
    # The residual smoothing * s(z + smoothing * eps) + eps, in place.
    delta = acts[-1]
    delta *= smoothing
    delta += noise
    m = delta.shape[0]
    loss = float(np.mean(np.sum(delta**2, axis=1)))

    sizes = net.layer_sizes
    if out is None:
        out = np.empty(_param_count(sizes), dtype=net.dtype)
    weight_grads, bias_grads = _param_views(out, sizes)

    # d loss / d out, then walk the layers backwards.
    delta *= 2.0 * smoothing / m
    for l in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[l], out=weight_grads[l])
        np.sum(delta, axis=0, out=bias_grads[l])
        if l > 0:
            w, a = net.weights[l], acts[l]
            prev = net._buffer(("delta", l), m, w.shape[1])
            if w.shape[0] == 1:  # a k=1 product is one exact multiply
                np.multiply(delta, w, out=prev)
            else:
                np.matmul(delta, w, out=prev)
            # sigmoid' = a * (1 - a)
            prev *= a
            one_minus_a = net._buffer(("tmp", l), m, w.shape[1])
            np.subtract(1.0, a, out=one_minus_a)
            prev *= one_minus_a
            delta = prev
    return loss, weight_grads, bias_grads


def _init_layers(sizes: tuple[int, ...], rng: Generator) -> tuple[list[Array], list[Array]]:
    """Glorot-uniform weights, zero biases."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _layer_sizes(d: int, hidden: tuple[int, ...] | None) -> tuple[int, ...]:
    """Layer widths of the network that :func:`train_score` builds for ``d``-dimensional states.

    ``hidden=None`` gives two hidden layers of 64 for ``d = 1`` and of 128
    otherwise.  Measured with ``bench/run.py`` (n=500, float32, 10
    alternated pairs of runs on 2 shared vCPUs, medians):

    - d=1: ``(64, 64)`` took about half the step time of ``(128, 128)``,
      0.107 s against 0.202 s on ``dw_flip`` and 0.127 s against 0.227 s on
      ``lg_exact``, and its RMSE and CRPS ratios to the exact posterior
      stayed within 2% of those of ``(128, 128)`` (``dw_flip`` 1.003 and
      1.026 against 1.003 and 1.010; ``lg_exact`` 1.014 and 1.002 against
      1.019 and 1.020);
    - d=20 (``l96_d20``): ``(64, 64)`` was about 7% worse in RMSE and CRPS
      (RMSE ratio 0.906 against 0.847 over 4 seeds), so wider states keep
      ``(128, 128)``.
    """
    if hidden is None:
        hidden = (64, 64) if d == 1 else (128, 128)
    return (d, *hidden, d)


def train_score(
    ensemble: Array,
    config: TrainConfig,
    init: ScoreNetwork | None = None,
    rng: Generator | None = None,
) -> ScoreNetwork:
    """Fit a score network to an ensemble by denoising score matching.

    The ensemble is whitened and the affine transform is frozen into the
    returned network.  Training runs Adam over shuffled minibatches with
    perturbation noise redrawn every epoch.  When ``init`` is given,
    optimization starts from its weights (the whitening transform is still
    recomputed from the current ensemble) and the new network takes over
    ``init``'s workspace when their dtypes match; otherwise weights are
    freshly initialized.  The
    returned network's parameters are ``PARAM_DTYPE``; the perturbation
    noise is drawn in float64 and rounded, so the random stream does not
    depend on it.

    Raises
    ------
    FloatingPointError
        If the loss becomes non-finite at any minibatch.
    """
    if rng is None:
        rng = np.random.default_rng()
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    if ensemble.ndim != 2:
        raise ValueError(f"ensemble must be an (n, d) array, got shape {ensemble.shape}")
    n, d = ensemble.shape
    if n < 2:
        raise ValueError("training needs at least 2 particles")

    whitened, shift, scale = whiten(ensemble)
    whitened = whitened.astype(PARAM_DTYPE)
    sizes = _layer_sizes(d, config.hidden)
    warm = init is not None
    if warm and init.layer_sizes != sizes:
        raise ValueError(
            f"warm-start network has layer sizes {init.layer_sizes}, expected {sizes}"
        )
    # Adam runs on one flat vector; the network's weights and biases are
    # views into it.
    params = np.empty(_param_count(sizes), dtype=PARAM_DTYPE)
    weights, biases = _param_views(params, sizes)
    initial = (init.weights, init.biases) if warm else _init_layers(sizes, rng)
    for view, value in zip(weights + biases, initial[0] + initial[1]):
        view[...] = value
    net = ScoreNetwork(weights=weights, biases=biases, shift=shift, scale=scale)
    if warm and init.dtype == net.dtype:
        # One workspace alive at a time; init gets a new one if it is called.
        # A float64 init's workspace would not fit, so it keeps it.
        net._work, init._work = init._work, {}

    grad = np.empty_like(params)
    first_moment = np.zeros_like(params)
    second_moment = np.zeros_like(params)
    step = np.empty_like(params)
    denom = np.empty_like(params)
    t = 0
    b1, b2 = ADAM_BETA1, ADAM_BETA2

    for epoch in range(config.epochs):
        lr = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * epoch / config.epochs))
        noise = rng.standard_normal((n, d)).astype(PARAM_DTYPE)
        order = rng.permutation(n)
        # One gather per epoch; minibatches are contiguous slices of it.
        shuffled, noise = whitened[order], noise[order]
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            loss, _, _ = dsm_loss_gradient(
                net, shuffled[start:stop], config.smoothing, noise[start:stop], out=grad
            )
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch + 1}, batch offset {start}"
                )
            t += 1
            correction = np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
            # A Python float, so that it rounds to the parameters' dtype
            # instead of promoting the update to float64.
            step_size = float(lr * correction)
            # m1 = b1*m1 + (1-b1)*g;  m2 = b2*m2 + (1-b2)*g**2;
            # params -= step_size * m1 / (sqrt(m2) + eps)
            first_moment *= b1
            np.multiply(grad, 1.0 - b1, out=step)
            first_moment += step
            second_moment *= b2
            np.square(grad, out=step)
            step *= 1.0 - b2
            second_moment += step
            np.sqrt(second_moment, out=denom)
            denom += ADAM_EPS
            np.multiply(first_moment, step_size, out=step)
            step /= denom
            params -= step
    return net

