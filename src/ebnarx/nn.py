"""Dense feed-forward networks with exact reverse-mode gradients.

Networks are plain stacks of affine layers with elementwise activations and
optional additive skip connections.  ``backward`` returns gradients with
respect to every parameter *and* the network input, which is what lets the
rest of the package run gradient ascent over a scalar input coordinate.

All arithmetic is float64.  Forward accepts a single input vector or a batch
matrix (one row per sample); parameter gradients are summed over the batch.
"""

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "relu", "identity")


class TrainingError(RuntimeError):
    """Raised when optimization encounters non-finite numbers."""


def activate(name, z):
    """Apply the activation in place: ``z`` is overwritten and returned."""
    if name == "tanh":
        return np.tanh(z, out=z)
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    return z


def activation_grad(name, out):
    """Derivative of the activation at its output ``out``: each supported
    activation's slope is a function of its output alone (relu's
    ``out > 0`` is exactly ``z > 0``)."""
    if name == "tanh":
        return 1.0 - out * out
    if name == "relu":
        return (out > 0.0).astype(float)
    return np.ones_like(out)


class DenseLayer:
    """One affine layer ``act(W x + b)`` with weights of shape (out_dim, in_dim)."""

    def __init__(self, weights, biases, activation):
        weights = np.asarray(weights, dtype=float)
        biases = np.asarray(biases, dtype=float)
        if weights.ndim != 2:
            raise ValueError("weights must be a matrix")
        if biases.shape != (weights.shape[0],):
            raise ValueError(
                f"bias shape {biases.shape} does not match {weights.shape[0]} outputs"
            )
        if weights.shape[0] < 1 or weights.shape[1] < 1:
            raise ValueError("layer dimensions must be at least 1")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
            raise ValueError("layer parameters must be finite")
        self.weights = weights
        self.biases = biases
        self.activation = activation

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


class MlpNetwork:
    """Stack of dense layers with optional additive skip connections.

    A skip ``(a, b)`` adds the activation output of layer ``a`` to the input
    of layer ``b``; it requires ``a < b`` and matching dimensions.  Source
    ``a = -1`` stands for the network input.
    """

    def __init__(self, layers, skips=()):
        layers = list(layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].out_dim != layers[i + 1].in_dim:
                raise ValueError(
                    f"layer {i} outputs {layers[i].out_dim} values but layer "
                    f"{i + 1} expects {layers[i + 1].in_dim}"
                )
        skips = tuple(sorted((int(a), int(b)) for a, b in skips))
        for a, b in skips:
            if not (-1 <= a < b < len(layers)):
                raise ValueError(f"skip {(a, b)} out of range for {len(layers)} layers")
            src_dim = layers[a].out_dim if a >= 0 else layers[0].in_dim
            if src_dim != layers[b].in_dim:
                raise ValueError(
                    f"skip {(a, b)} joins dimension {src_dim} "
                    f"to dimension {layers[b].in_dim}"
                )
        self.layers = layers
        self.skips = skips

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    @property
    def output_dim(self):
        return self.layers[-1].out_dim

    def parameters(self):
        """Live parameter arrays, ordered [W0, b0, W1, b1, ...]."""
        params = []
        for layer in self.layers:
            params.append(layer.weights)
            params.append(layer.biases)
        return params

    def forward(self, x):
        """Evaluate the network.

        Parameters
        ----------
        x : array of shape (input_dim,) or (batch, input_dim)

        Returns
        -------
        output : array of shape (output_dim,) or (batch, output_dim)
        cache : ForwardCache
            Activation trace consumed by :meth:`backward`.
        """
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x2 = x[None, :] if squeeze else x
        if x2.ndim != 2 or x2.shape[1] != self.input_dim:
            raise ValueError(f"input must have {self.input_dim} columns, got shape {x.shape}")
        if not np.all(np.isfinite(x2)):
            raise ValueError("network input contains non-finite values")

        inputs, outputs = [], []
        cur = x2
        for i, layer in enumerate(self.layers):
            inp = cur
            for a, b in self.skips:
                if b == i:
                    inp = inp + (outputs[a] if a >= 0 else x2)
            z = inp @ layer.weights.T
            z += layer.biases
            out = activate(layer.activation, z)
            inputs.append(inp)
            outputs.append(out)
            cur = out
        cache = ForwardCache(self, inputs, outputs, squeeze)
        return (cur[0] if squeeze else cur), cache

    def backward(self, cache, output_gradient, with_params=True):
        """Exact reverse-mode gradients of ``sum(output * output_gradient)``.

        Returns
        -------
        param_grads : list of arrays matching :meth:`parameters` order, or
            None when ``with_params`` is false (only the input gradient is
            wanted, which skips one matrix product per layer)
        input_grad : array with the same shape as the forward input
        """
        if cache.net is not self:
            raise ValueError("cache was produced by a different network")
        g = np.asarray(output_gradient, dtype=float)
        g2 = g[None, :] if cache.squeeze else g
        if g2.shape != cache.outputs[-1].shape:
            raise ValueError(
                f"output gradient shape {g.shape} does not match forward output"
            )

        n = len(self.layers)
        # d_out[i + 1] is the gradient w.r.t. the output of layer i and
        # d_out[0] the one w.r.t. the network input
        d_out = [None] * (n + 1)
        d_out[n] = g2
        param_grads = [None] * (2 * n) if with_params else None
        for i in range(n - 1, -1, -1):
            layer = self.layers[i]
            dz = d_out[i + 1] * activation_grad(layer.activation, cache.outputs[i])
            if with_params:
                param_grads[2 * i] = dz.T @ cache.inputs[i]
                param_grads[2 * i + 1] = dz.sum(axis=0)
            d_in = dz @ layer.weights
            for a, b in self.skips:
                if b == i:
                    d_out[a + 1] = d_in if d_out[a + 1] is None else d_out[a + 1] + d_in
            d_out[i] = d_in if d_out[i] is None else d_out[i] + d_in
        input_grad = d_out[0]
        return param_grads, (input_grad[0] if cache.squeeze else input_grad)


@dataclass
class ForwardCache:
    net: MlpNetwork
    inputs: list
    outputs: list
    squeeze: bool


def init_network(sizes, activations, skips=(), seed=0):
    """Build a network with uniform Glorot weights and zero biases.

    Parameters
    ----------
    sizes : sequence of ints
        Layer widths including input and output, e.g. ``[3, 5, 1]``.
    activations : sequence of str
        One activation per layer, ``len(sizes) - 1`` entries.
    skips : iterable of (int, int)
        Additive skip connections.
    seed : int
        Weights are uniform on [-a, a] with ``a = sqrt(6 / (fan_in + fan_out))``,
        deterministic given the seed.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output size")
    if len(activations) != len(sizes) - 1:
        raise ValueError(
            f"{len(sizes) - 1} layers need {len(sizes) - 1} activations, "
            f"got {len(activations)}"
        )
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out), act))
    return MlpNetwork(layers, skips)


@dataclass
class AdamState:
    """Adam moments plus the current learning rate (decayed by the caller)."""

    m: list
    v: list
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    learning_rate: float = 1e-3


def init_adam(params, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        learning_rate=learning_rate,
    )


def adam_step(params, grads, state):
    """One in-place Adam update with bias correction.

    Raises
    ------
    TrainingError
        If any gradient or updated parameter is non-finite.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and moments must have matching lengths")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"gradient {i} has shape {g.shape}, expected {p.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {i} (shape {g.shape})")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"non-finite parameter {i} after update (shape {p.shape})")
    return params, state


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


def fit_minibatch(params, state, n_train, batch_fn, val_fn, *, batch_size,
                  max_epochs, patience, lr_decay, rng):
    """Generic minibatch loop with per-epoch lr decay and early stopping.

    ``batch_fn(indices)`` returns ``(loss, grads)`` for one minibatch;
    ``val_fn()`` returns the held-out loss.  Keeps the parameters achieving
    the best held-out loss and copies them back into ``params`` on exit.
    Returns the per-epoch training log.
    """
    base_lr = state.learning_rate
    log = []
    best_val = np.inf
    best_params = None
    stale = 0
    for epoch in range(max_epochs):
        state.learning_rate = base_lr * lr_decay**epoch
        order = rng.permutation(n_train)
        losses = []
        for start in range(0, n_train, batch_size):
            idx = order[start:start + batch_size]
            try:
                loss, grads = batch_fn(idx)
                adam_step(params, grads, state)
            except TrainingError as err:
                raise TrainingError(f"training diverged at epoch {epoch}: {err}") from err
            losses.append(loss)
        val_loss = val_fn()
        if not np.isfinite(val_loss):
            raise TrainingError(f"training diverged at epoch {epoch}: non-finite held-out loss")
        log.append(EpochStats(epoch, float(np.mean(losses)), float(val_loss), state.learning_rate))
        if val_loss < best_val:
            best_val = val_loss
            best_params = [p.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    if best_params is not None:
        for p, b in zip(params, best_params):
            p[...] = b
    return log


def training_log_to_csv(log, path):
    """Write a list of EpochStats as CSV (epoch, train_loss, val_loss, lr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss,lr\n")
        for rec in log:
            fh.write(f"{rec.epoch},{rec.train_loss!r},{rec.val_loss!r},{rec.lr!r}\n")


def network_to_dict(net):
    """JSON-ready dict: row-major weights at full float64 precision."""
    return {
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "biases": layer.biases.tolist(),
                "activation": layer.activation,
            }
            for layer in net.layers
        ],
        "skips": [list(s) for s in net.skips],
    }


def network_from_dict(doc):
    try:
        layers = [
            DenseLayer(entry["weights"], entry["biases"], entry["activation"])
            for entry in doc["layers"]
        ]
        return MlpNetwork(layers, [tuple(s) for s in doc.get("skips", [])])
    except KeyError as err:
        raise ValueError(f"network document is missing key {err.args[0]!r}") from err
    except (TypeError, AttributeError) as err:
        raise ValueError(f"network document is malformed: {err}") from err
