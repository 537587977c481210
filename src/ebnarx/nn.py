"""Dense feed-forward networks with exact reverse-mode gradients.

Networks are plain stacks of affine layers with elementwise activations and
optional additive skip connections.  ``backward`` returns gradients with
respect to every parameter *and* the network input, which is what lets the
rest of the package run gradient ascent over a scalar input coordinate.

All arithmetic is float64.  Forward takes a batch matrix only, one row per
sample, and backward the matching batch of output gradients; parameter
gradients are summed over the batch.

:func:`init_network` lays a network's parameters out as consecutive views of
one array, in :meth:`MlpNetwork.parameters` order, so that
:func:`adam_step` updates a whole network in one pass: it gathers the
gradients into one flat array and checks them once, runs each Adam
operation once over flat moments in preallocated buffers, and subtracts the
step from each run of consecutive parameters.  Every operation is
elementwise, so the parameters get the same bits as in a per-parameter
update.

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

import contextvars
import os
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

    def _forward_rows(self, x, inputs, outputs):
        """Forward pass of the rows ``x``, into the given buffers or, where a
        buffer is None, into arrays it allocates and stores in the lists."""
        for i, (layer, sources) in enumerate(zip(self.layers, self._skips_into)):
            inp = outputs[i - 1] if i else x
            for a in sources:
                inp = np.add(inp, outputs[a] if a >= 0 else x, out=inputs[i])
            inputs[i] = inp
            z = outputs[i] = np.matmul(inp, layer.weights.T, out=outputs[i])
            z += layer.biases
            activate(layer.activation, z)

    def backward(self, cache, output_gradient, with_params=True):
        """Exact reverse-mode gradients of ``sum(output * output_gradient)``.

        ``output_gradient`` has the (batch, output_dim) shape of the
        forward output.

        Returns
        -------
        param_grads : list of arrays matching :meth:`parameters` order, or
            None when ``with_params`` is false (only the input gradient is
            wanted, which skips one matrix product per layer)
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
        if not with_params:
            return None, d_out[0]
        param_grads = []
        for dz, inp in zip(dzs, cache.inputs):
            param_grads += [np.matmul(dz.T, inp), np.add.reduce(dz, axis=0)]
        return param_grads, d_out[0]

    def _forward_buffers(self, rows):
        """``(inputs, outputs)`` buffers of :meth:`_forward_rows` for ``rows``
        rows: an input buffer for each layer that skips add into (None for
        the others, whose input is the previous output) and every layer's
        output."""
        return ([np.empty((rows, layer.in_dim)) if skips else None
                 for layer, skips in zip(self.layers, self._skips_into)],
                [np.empty((rows, layer.out_dim)) for layer in self.layers])

    def _backward_buffers(self, rows, output_gradient):
        """``(d_ins, d_out, dzs)`` buffers of :meth:`_backward_rows` for
        ``rows`` rows whose output gradient is ``output_gradient``: a
        gradient of one term shares that term's buffer, and an identity
        layer's pre-activation gradient is its output gradient."""
        n = len(self.layers)
        d_ins = [np.empty((rows, layer.in_dim)) for layer in self.layers]
        d_out = [d_ins[t[0]] if len(t) == 1 else np.empty_like(d_ins[j])
                 for j, t in enumerate(self._grad_terms[:n])] + [output_gradient]
        dzs = [d_out[i + 1] if layer.activation == "identity" else np.empty_like(d_out[i + 1])
               for i, layer in enumerate(self.layers)]
        return d_ins, d_out, dzs

    def _backward_rows(self, outputs, d_ins, d_out, dzs):
        """Row-wise half of :meth:`backward`: slopes, input gradients and
        their sums, into the given buffers or, where a buffer is None, into
        arrays it allocates and stores in the lists."""
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
            if layer.out_dim == 1:
                # an outer product: one multiplication per entry, as in the
                # K = 1 matrix product it replaces
                d_ins[i - 1] = np.multiply(dz, layer.weights[0], out=d_ins[i - 1])
            else:
                d_ins[i - 1] = np.matmul(dz, layer.weights, out=d_ins[i - 1])


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
    # every weight and bias is a view of one array, in parameters() order,
    # so that adam_step updates the whole network as one run
    flat = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:])))
    layers, start = [], 0
    for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights = flat[start:start + fan_out * fan_in].reshape(fan_out, fan_in)
        weights[...] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        start += fan_out * fan_in
        layers.append(DenseLayer(weights, flat[start:start + fan_out], act))
        start += fan_out
    return MlpNetwork(layers, skips)


# Adam's moment decay rates and denominator offset (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moments plus the current learning rate (decayed by the caller);
    the decay rates and offset are the module constants ``BETA1``,
    ``BETA2`` and ``EPSILON``.

    The moments of all parameters lie in two flat arrays, ``m_flat`` and
    ``v_flat``, in parameter order.  ``runs`` lists ``(first, stop, flat,
    step)`` for each group of parameters ``first`` to ``stop - 1`` that lie
    one after another in one array: ``flat`` is the 1-D view of them all
    and ``step`` its part of the ``step`` buffer.  ``grad``, ``step`` and
    ``scratch`` are work buffers as long as the moments.
    """

    params: list
    runs: list
    m_flat: np.ndarray
    v_flat: np.ndarray
    grad: np.ndarray
    step: np.ndarray
    scratch: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3


def _param_runs(params):
    """``[(first, stop, flat), ...]``: the parameters split into runs of
    arrays that lie one after another in one 1-D array (as
    :func:`init_network` lays a network out), ``flat`` being the view of a
    run's values; any other array is a run of its own."""
    runs = []  # [first, stop, root, start, end], root None for a lone array
    for i, p in enumerate(params):
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64 and p.flags.c_contiguous):
            raise ValueError(f"parameter {i} must be a C-contiguous float64 array")
        root = p.base
        if not (isinstance(root, np.ndarray) and root.ndim == 1
                and root.dtype == np.float64 and root.flags.c_contiguous):
            runs.append([i, i + 1, None, 0, p.size])
            continue
        start = (p.ctypes.data - root.ctypes.data) // root.itemsize
        if runs and runs[-1][2] is root and runs[-1][4] == start:
            runs[-1][1] = i + 1
            runs[-1][4] = start + p.size
        else:
            runs.append([i, i + 1, root, start, start + p.size])
    return [(first, stop, params[first].reshape(-1) if root is None else root[start:end])
            for first, stop, root, start, end in runs]


def init_adam(params, learning_rate=1e-3):
    """Adam state for ``params``, the arrays every :func:`adam_step` on this
    state updates in place: C-contiguous float64 arrays, updated in runs
    (see :class:`AdamState`), starting at ``learning_rate``."""
    params = list(params)
    runs = _param_runs(params)
    bounds = np.cumsum([0] + [p.size for p in params])
    m_flat, v_flat, grad, step, scratch = np.zeros((5, bounds[-1]))
    return AdamState(
        params=params,
        runs=[(first, stop, flat, step[bounds[first]:bounds[stop]])
              for first, stop, flat in runs],
        m_flat=m_flat, v_flat=v_flat, grad=grad, step=step, scratch=scratch,
        learning_rate=learning_rate,
    )


def adam_step(params, grads, state):
    """One in-place Adam update with bias correction.

    The gradients are gathered into one flat array and each Adam operation
    runs once over all parameters; every operation is elementwise, so each
    value gets the same bits as in a per-parameter update.  A step whose
    gradient is rejected changes nothing.

    Raises
    ------
    TrainingError
        If any gradient or updated parameter is non-finite.
    """
    if len(params) != len(grads) or len(params) != len(state.params):
        raise ValueError("params, grads and moments must have matching lengths")
    if any(p is not q for p, q in zip(params, state.params)):
        raise ValueError("params are not the arrays the Adam state was made for")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"gradient {i} has shape {g.shape}, expected {p.shape}")
    g = np.concatenate(grads, axis=None, out=state.grad)
    if not np.isfinite(g).all():
        i = next(i for i, gi in enumerate(grads) if not np.isfinite(gi).all())
        raise TrainingError(f"non-finite gradient for parameter {i} (shape {grads[i].shape})")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    # in place, with the operations of m = b1 m + (1 - b1) g,
    # v = b2 v + (1 - b2) g g and p -= lr (m / c1) / (sqrt(v / c2) + eps)
    # in that order
    m, v, step, tmp = state.m_flat, state.v_flat, state.step, state.scratch
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
    for first, stop, flat, run_step in state.runs:
        flat -= run_step
        if not np.isfinite(flat).all():
            i = next(i for i in range(first, stop) if not np.isfinite(params[i]).all())
            raise TrainingError(
                f"non-finite parameter {i} after update (shape {params[i].shape})")
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
