"""Dense feed-forward networks with exact reverse-mode gradients.

Networks are plain stacks of affine layers with elementwise activations and
optional additive skip connections.  ``backward`` returns gradients with
respect to every parameter *and* the network input, which is what lets the
rest of the package run gradient ascent over a scalar input coordinate.

:meth:`MlpNetwork.forward` and :meth:`MlpNetwork.backward` run in float64.
Forward takes a batch matrix only, one row per sample, and backward the
matching batch of output gradients; parameter gradients are summed over the
batch.  Their row kernels, ``_forward_rows`` and ``_backward_rows``, run in
the dtype of the arrays they are given: the energy model's NCE tiles pass
float32 copies of the weights and float32 buffers (``ebnarx.ebm``).

:func:`init_adam` copies the weights and biases of the layers being trained
into one float64 vector, in :meth:`MlpNetwork.parameters` order, and points
each layer at views of it, so that :func:`adam_step` updates them all in one
pass: it gathers the gradients into one flat array and checks them once,
runs each Adam operation once over flat moments in preallocated buffers, and
subtracts the step from the vector.  Every operation is elementwise, so the
parameters get the same bits as in a per-parameter update.  Both model
families train through :func:`fit_minibatch`, which builds that state from
the layers and runs the schedule of a ``TrainConfig``.

Every network pass runs unsplit on the calling thread, so its results do
not depend on the number of workers.  The energy model's grid and NCE
passes run in tiles of their own (``ebnarx.ebm``), which are the only work
spread over threads: :func:`run_parallel`, the one tile runner, hands the
tiles of a pass out from one queue to the calling thread and a
process-wide thread pool, created on first use, each worker scoring in
its own set of buffers.  A pass takes one worker per ``BLOCK_ROWS``
candidates (:func:`tile_workers`) up to the CPUs BLAS leaves free,
``max(1, cpus // blas_threads)`` (:func:`worker_count`):
with ``OPENBLAS_NUM_THREADS=1`` every CPU runs tiles, and with no BLAS
thread variable set BLAS takes every CPU and tiles run on the calling
thread alone.
"""

import base64
import contextvars
import os
import time
from collections import deque
from dataclasses import dataclass
from threading import Lock

import numpy as np

from .mathutil import is_integer, real_array

ACTIVATIONS = ("tanh", "relu", "identity")

# a tile pass takes one worker per this many rows; one of fewer than twice
# as many rows runs on the calling thread alone
BLOCK_ROWS = 1024

# the variables OpenBLAS reads its thread count from, first one first
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TrainingError(RuntimeError):
    """Raised when optimization encounters non-finite numbers."""


def worker_count(environ, cpus):
    """Threads that may run tiles at once: ``max(1, cpus // blas)``.

    ``blas`` is the thread count BLAS itself uses: the first of
    ``BLAS_THREAD_VARS`` in the mapping ``environ`` that holds a positive
    integer, else ``cpus`` (OpenBLAS's default, which leaves no CPU free).
    """
    blas = cpus
    for var in BLAS_THREAD_VARS:
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, cpus // blas)


_workers = None  # worker_count of this process, read on first use
_pool = None  # (pid, threads, executor) of the tile pool
_pool_lock = Lock()


def _worker_total():
    global _workers
    if _workers is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        _workers = worker_count(os.environ, cpus)
    return _workers


def _executor(threads):
    """The process's tile pool with at least ``threads`` threads; a forked
    child, which inherits no threads, gets a new one."""
    # imported here: a process that runs no tile on a pool thread (a short
    # CLI call, or BLAS left on every CPU) does not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < threads:
            if _pool is not None and _pool[0] == os.getpid():
                _pool[2].shutdown(wait=False)
            _pool = (os.getpid(), threads,
                     ThreadPoolExecutor(threads, thread_name_prefix="ebnarx-tiles"))
        return _pool[2]


def tile_workers(rows):
    """Workers for a tile pass of ``rows`` rows: one per ``BLOCK_ROWS``
    rows, at most the process's worker count, at least one."""
    return max(1, min(_worker_total(), rows // BLOCK_ROWS))


def run_parallel(fn, items, buffers):
    """Call ``fn(item, buffers[w])`` for every item and return once all
    calls returned; ``buffers`` holds one set of work buffers per worker.

    The calling thread, as worker 0, runs the first item; then it and pool
    threads, at most one per further buffer set and per worker in all, each
    take the next item left from one queue, so that a worker that starts
    late or is descheduled leaves its share to the others.  Where ``fn`` may
    run on a pool thread, it must write only into arrays the caller
    allocated and call no public function of the package (the benchmark's
    tracer keeps one span stack, that of the calling thread).  When calls
    raise, no further item is taken and, once every call has ended, the
    exception of the first failing item in ``items`` order reaches the
    caller: every earlier item has been taken by then, so it is the one the
    items would raise in turn on a single worker.
    """
    queue = deque(enumerate(items))
    failures = []  # (index, exception) of the items that raised

    def drain(bufs, taken=None):
        while True:
            try:
                index, item = taken or queue.popleft()
            except IndexError:
                return
            taken = None
            try:
                fn(item, bufs)
            except BaseException as err:
                failures.append((index, err))
                queue.clear()
                return

    first = queue.popleft()
    helpers = min(_worker_total() - 1, len(buffers) - 1, len(queue))
    futures = []
    if helpers > 0:
        pool = _executor(_worker_total() - 1)
        # each helper runs in a copy of the caller's context, so that numpy's
        # error state (np.errstate) is the caller's on every thread
        futures = [pool.submit(contextvars.copy_context().run, drain, bufs)
                   for bufs in buffers[1:helpers + 1]]
    try:
        drain(buffers[0], first)
    finally:
        # a helper that has not started yet would find no item left: the
        # caller does not wait for its thread to be scheduled
        for f in futures:
            if not f.cancel():
                f.result()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def activate(name, z):
    """Apply the activation in place: ``z`` is overwritten and returned."""
    if name == "tanh":
        return np.tanh(z, out=z)
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    return z


def activation_backward(name, out, d_out, dz=None):
    """``d_out`` times the activation's slope at its output ``out`` (each
    supported activation's slope is a function of its output alone), written
    into the buffer ``dz`` (allocated when None) and returned; identity
    returns ``d_out`` itself.  No other array is made."""
    if name == "identity":
        return d_out
    if name == "tanh":
        dz = np.multiply(out, out, out=dz)
        np.subtract(1.0, dz, out=dz)
    else:
        # relu's output is never negative: its sign is the slope, 0 at 0
        dz = np.sign(out, out=dz)
    dz *= d_out
    return dz


class DenseLayer:
    """One affine layer ``act(W x + b)`` with weights of shape (out_dim, in_dim)."""

    def __init__(self, weights, biases, activation):
        weights = real_array(weights, "weights")
        biases = real_array(biases, "biases")
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
        skips = [tuple(skip) for skip in skips]
        for skip in skips:
            if not (len(skip) == 2 and all(is_integer(i) for i in skip)):
                raise ValueError(f"skip {skip!r} must be a pair of integers")
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
        # per layer, the sources of the skips into it in the order they add
        self._skips_into = [[a for a, b in skips if b == i] for i in range(len(layers))]
        # for backward: _grad_terms[j] lists the layers whose input gradient
        # adds into the gradient w.r.t. the input of layer j (j = len(layers):
        # the output), in the order the sum adds them: skip targets from the
        # last layer down, then layer j itself
        self._grad_terms = [[] for _ in range(len(layers) + 1)]
        for i in range(len(layers) - 1, -1, -1):
            for a in self._skips_into[i]:
                self._grad_terms[a + 1].append(i)
            self._grad_terms[i].append(i)

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
        x : array of shape (batch, input_dim)

        Returns
        -------
        output : array of shape (batch, output_dim)
        cache : ForwardCache
            Activation trace consumed by :meth:`backward`.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"input must have shape (batch, {self.input_dim}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("network input contains non-finite values")

        inputs, outputs = [None] * len(self.layers), [None] * len(self.layers)
        self._forward_rows(x, inputs, outputs)
        return outputs[-1], ForwardCache(self, inputs, outputs)

    def _forward_rows(self, x, inputs, outputs, params=None):
        """Forward pass of the rows ``x``, into the given buffers or, where a
        buffer is None, into arrays it allocates and stores in the lists.
        ``params``, in :meth:`parameters` order, stands in for the layers'
        own weights and biases: with float32 copies, a float32 ``x`` and
        float32 buffers, the pass runs in float32."""
        params = self.parameters() if params is None else params
        for i, sources in enumerate(self._skips_into):
            inp = outputs[i - 1] if i else x
            for a in sources:
                inp = np.add(inp, outputs[a] if a >= 0 else x, out=inputs[i])
            inputs[i] = inp
            z = outputs[i] = np.matmul(inp, params[2 * i].T, out=outputs[i])
            z += params[2 * i + 1]
            activate(self.layers[i].activation, z)

    def backward(self, cache, output_gradient):
        """Exact reverse-mode gradients of ``sum(output * output_gradient)``.

        ``output_gradient`` has the (batch, output_dim) shape of the
        forward output.

        Returns
        -------
        param_grads : list of arrays matching :meth:`parameters` order
        input_grad : array of shape (batch, input_dim), as the forward input
        """
        if cache.net is not self:
            raise ValueError("cache was produced by a different network")
        # contiguous, as an identity layer's pre-activation gradient is g
        # itself and feeds a matrix product
        g = np.ascontiguousarray(output_gradient, dtype=float)
        if g.shape != cache.outputs[-1].shape:
            raise ValueError(f"output gradient must have the forward output's shape "
                             f"{cache.outputs[-1].shape}, got {g.shape}")

        n = len(self.layers)
        # d_ins[i] is the gradient w.r.t. the input of layer i through that
        # layer alone, d_out[i + 1] the whole gradient w.r.t. the output of
        # layer i and d_out[0] the one w.r.t. the network input; dzs[i] the
        # one w.r.t. the pre-activation of layer i
        d_ins, d_out, dzs = [None] * n, [None] * n + [g], [None] * n
        self._backward_rows(cache.outputs, d_ins, d_out, dzs)
        param_grads = []
        for dz, inp in zip(dzs, cache.inputs):
            param_grads += [np.matmul(dz.T, inp), np.add.reduce(dz, axis=0)]
        return param_grads, d_out[0]

    def _forward_buffers(self, rows, dtype=float):
        """``(inputs, outputs)`` buffers of :meth:`_forward_rows` for ``rows``
        rows of ``dtype``: an input buffer for each layer that skips add
        into (None for the others, whose input is the previous output) and
        every layer's output."""
        return ([np.empty((rows, layer.in_dim), dtype) if skips else None
                 for layer, skips in zip(self.layers, self._skips_into)],
                [np.empty((rows, layer.out_dim), dtype) for layer in self.layers])

    def _backward_buffers(self, rows, output_gradient):
        """``(d_ins, d_out, dzs)`` buffers of :meth:`_backward_rows` for
        ``rows`` rows whose output gradient is ``output_gradient``, of its
        dtype: a gradient of one term shares that term's buffer, and an
        identity layer's pre-activation gradient is its output gradient."""
        n = len(self.layers)
        d_ins = [np.empty((rows, layer.in_dim), output_gradient.dtype) for layer in self.layers]
        d_out = [d_ins[t[0]] if len(t) == 1 else np.empty_like(d_ins[j])
                 for j, t in enumerate(self._grad_terms[:n])] + [output_gradient]
        dzs = [d_out[i + 1] if layer.activation == "identity" else np.empty_like(d_out[i + 1])
               for i, layer in enumerate(self.layers)]
        return d_ins, d_out, dzs

    def _backward_rows(self, outputs, d_ins, d_out, dzs, params=None):
        """Row-wise half of :meth:`backward`: slopes, input gradients and
        their sums, into the given buffers or, where a buffer is None, into
        arrays it allocates and stores in the lists; ``params`` as in
        :meth:`_forward_rows`."""
        params = self.parameters() if params is None else params
        for i in range(len(self.layers), -1, -1):
            t = self._grad_terms[i]
            if len(t) > 1:
                d_out[i] = np.add(d_ins[t[0]], d_ins[t[1]], out=d_out[i])
                for k in t[2:]:
                    d_out[i] += d_ins[k]
            elif t:
                d_out[i] = d_ins[t[0]]
            if i == 0:
                return
            layer = self.layers[i - 1]
            dz = dzs[i - 1] = activation_backward(layer.activation, outputs[i - 1], d_out[i],
                                                  dzs[i - 1])
            weights = params[2 * i - 2]
            if layer.out_dim == 1:
                # an outer product: one multiplication per entry, as in the
                # K = 1 matrix product it replaces
                d_ins[i - 1] = np.multiply(dz, weights[0], out=d_ins[i - 1])
            else:
                d_ins[i - 1] = np.matmul(dz, weights, out=d_ins[i - 1])


@dataclass
class ForwardCache:
    net: MlpNetwork
    inputs: list
    outputs: list


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
        layers.append(DenseLayer(rng.uniform(-bound, bound, size=(fan_out, fan_in)),
                                 np.zeros(fan_out), act))
    return MlpNetwork(layers, skips)


# Adam's moment decay rates and denominator offset (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """The one trained vector, its Adam moments and the current learning rate
    (decayed by the caller); the decay rates and offset are the module
    constants ``BETA1``, ``BETA2`` and ``EPSILON``.

    ``params`` holds every trained weight and bias, in the order of the
    layers given to :func:`init_adam`, each layer's weights before its
    biases; those layers read theirs as views of it.  ``shapes`` lists the
    parameter shapes in that order, ``m`` and ``v`` are the moments, and
    ``grad``, ``step`` and ``scratch`` are work buffers as long as
    ``params``.
    """

    params: np.ndarray
    shapes: list
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    step: np.ndarray
    scratch: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3


def init_adam(layers, learning_rate=1e-3):
    """Adam state that trains the :class:`DenseLayer` objects ``layers``,
    starting at ``learning_rate``: their weights and biases are copied into
    one new vector, ``state.params``, and each layer's ``weights`` and
    ``biases`` become views of it, which every :func:`adam_step` on this
    state updates in place."""
    layers = list(layers)
    arrays = [a for layer in layers for a in (layer.weights, layer.biases)]
    params = np.concatenate(arrays, axis=None)
    bounds = np.cumsum([0] + [a.size for a in arrays])
    views = [params[a:b].reshape(x.shape) for x, a, b in zip(arrays, bounds, bounds[1:])]
    for layer, weights, biases in zip(layers, views[::2], views[1::2]):
        layer.weights, layer.biases = weights, biases
    m, v, grad, step, scratch = np.zeros((5, params.size))
    return AdamState(params, [a.shape for a in arrays], m, v, grad, step, scratch,
                     learning_rate=learning_rate)


def _parameter_of(flat, shapes):
    """Index of the parameter, of the given ``shapes`` laid out one after
    another in ``flat``, that holds the first non-finite value of ``flat``."""
    first = np.flatnonzero(~np.isfinite(flat))[0]
    ends = np.cumsum([np.prod(shape, dtype=int) for shape in shapes])
    return int(np.searchsorted(ends, first, side="right"))


def adam_step(grads, state):
    """One in-place Adam update with bias correction of ``state.params``;
    ``grads`` are its parameters' gradients, in order.

    The gradients are gathered into one flat array and each Adam operation
    runs once over all parameters; every operation is elementwise, so each
    value gets the same bits as in a per-parameter update.  A step whose
    gradient is rejected changes nothing.

    Raises
    ------
    TrainingError
        If any gradient or updated parameter is non-finite.
    """
    if len(grads) != len(state.shapes):
        raise ValueError(f"expected {len(state.shapes)} gradients, got {len(grads)}")
    for i, (shape, g) in enumerate(zip(state.shapes, grads)):
        if g.shape != shape:
            raise ValueError(f"gradient {i} has shape {g.shape}, expected {shape}")
    g = np.concatenate(grads, axis=None, out=state.grad)
    if not np.isfinite(g).all():
        i = _parameter_of(g, state.shapes)
        raise TrainingError(f"non-finite gradient for parameter {i} (shape {state.shapes[i]})")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    # in place, with the operations of m = b1 m + (1 - b1) g,
    # v = b2 v + (1 - b2) g g and p -= lr (m / c1) / (sqrt(v / c2) + eps)
    # in that order
    m, v, step, tmp = state.m, state.v, state.step, state.scratch
    m *= BETA1
    np.multiply(1.0 - BETA1, g, out=tmp)
    m += tmp
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, c1, out=step)
    step *= state.learning_rate
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += EPSILON
    step /= tmp
    state.params -= step
    if not np.isfinite(state.params).all():
        i = _parameter_of(state.params, state.shapes)
        raise TrainingError(
            f"non-finite parameter {i} after update (shape {state.shapes[i]})")


@dataclass
class EpochStats:
    """One epoch of a training log: its mean minibatch loss, its held-out
    loss, its learning rate, its wall time in seconds, from its first
    minibatch to the end of its held-out loss, and the mean over its
    minibatches of the global gradient norm, the 2-norm of every
    parameter's gradient at once."""

    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    wall_s: float
    grad_norm: float


def fit_minibatch(layers, tc, n_train, batch_fn, val_fn, rng):
    """Minibatch Adam on the :class:`DenseLayer` objects ``layers`` with the
    schedule of the ``TrainConfig`` ``tc``: per-epoch lr decay and early
    stopping.  ``batch_fn(indices)`` returns ``(loss, grads)`` for a
    minibatch of the ``n_train`` rows, which ``rng`` shuffles every epoch,
    the gradients in layer order; ``val_fn()`` returns the held-out loss.
    Keeps a copy of the parameters at the best held-out loss and copies it
    back on exit.  Returns the per-epoch training log.
    """
    state = init_adam(layers, tc.learning_rate)
    log = []
    best_val = np.inf
    best_params = None
    stale = 0
    for epoch in range(tc.max_epochs):
        start_s = time.perf_counter()
        state.learning_rate = tc.learning_rate * tc.lr_decay**epoch
        order = rng.permutation(n_train)
        losses, norms = [], []
        for start in range(0, n_train, tc.batch_size):
            idx = order[start:start + tc.batch_size]
            try:
                loss, grads = batch_fn(idx)
                adam_step(grads, state)
            except TrainingError as err:
                raise TrainingError(f"training diverged at epoch {epoch}: {err}") from err
            losses.append(loss)
            # adam_step gathered the step's gradients into state.grad
            norms.append(float(np.sqrt(state.grad @ state.grad)))
        val_loss = val_fn()
        if not np.isfinite(val_loss):
            raise TrainingError(f"training diverged at epoch {epoch}: non-finite held-out loss")
        log.append(EpochStats(epoch, float(np.mean(losses)), float(val_loss), state.learning_rate,
                              time.perf_counter() - start_s, float(np.mean(norms))))
        if val_loss < best_val:
            best_val = val_loss
            best_params = state.params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= tc.patience:
                break
    if best_params is not None:
        state.params[...] = best_params
    return log


def training_log_to_csv(log, path):
    """Write a list of EpochStats as CSV (epoch, train_loss, val_loss, lr,
    wall_s, grad_norm)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss,lr,wall_s,grad_norm\n")
        for rec in log:
            fh.write(f"{rec.epoch},{rec.train_loss!r},{rec.val_loss!r},{rec.lr!r},"
                     f"{rec.wall_s!r},{rec.grad_norm!r}\n")


def network_to_dict(net):
    """JSON-ready dict of the network.  Each layer's ``weights`` and
    ``biases`` are one string each: the standard base64 alphabet (RFC 4648)
    over the array's C-order little-endian float64 bytes, so a file keeps
    every bit and holds about half the bytes of decimal lists.  The weights
    string is read back as ``len(biases)`` rows."""
    return {
        "layers": [
            {
                "weights": _encode(layer.weights),
                "biases": _encode(layer.biases),
                "activation": layer.activation,
            }
            for layer in net.layers
        ],
        "skips": [list(s) for s in net.skips],
    }


def _encode(arr):
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _parameter(value, name, rows=None):
    """A layer array from its document form.  A string written by
    :func:`_encode` becomes a float64 array that owns its data: 1-D, or of
    ``rows`` rows.  Anything else goes through ``real_array``.  Raises
    ValueError naming ``name`` for a string with a character outside the
    alphabet, a byte count that is not a multiple of 8, no values, or a
    value count that is not a multiple of ``rows``."""
    if not isinstance(value, str):
        return real_array(value, name)
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{name} is not a base64 string: {err}") from None
    if len(raw) % 8:
        raise ValueError(f"{name} holds {len(raw)} bytes, not a whole number of "
                         "float64 values")
    values = np.frombuffer(raw, dtype="<f8")
    if values.size == 0:
        raise ValueError(f"{name} holds no values")
    if rows is None:
        return values.astype(float)
    if values.size % rows:
        raise ValueError(f"{name} holds {values.size} values, not a multiple of "
                         f"the {rows} biases")
    return values.reshape(rows, -1).astype(float)


def _layer_from_dict(entry):
    biases = _parameter(entry["biases"], "biases")
    # a weights string holds len(biases) rows; with no biases to count them
    # by, it stays flat and DenseLayer rejects it
    rows = len(biases) if biases.ndim == 1 and biases.size else None
    weights = _parameter(entry["weights"], "weights", rows)
    return DenseLayer(weights, biases, entry["activation"])


def network_from_dict(doc):
    """The network of a :func:`network_to_dict` document.  A layer's arrays
    may also be nested lists of numbers, the form files had before the
    base64 strings, so those files still load."""
    try:
        layers = [_layer_from_dict(entry) for entry in doc["layers"]]
        return MlpNetwork(layers, [tuple(s) for s in doc.get("skips", [])])
    except KeyError as err:
        raise ValueError(f"network document is missing key {err.args[0]!r}") from err
    except (TypeError, AttributeError) as err:
        raise ValueError(f"network document is malformed: {err}") from err
