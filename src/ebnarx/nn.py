"""Dense feed-forward networks with exact reverse-mode gradients.

Networks are plain stacks of affine layers with elementwise activations and
optional additive skip connections.  ``backward`` returns gradients with
respect to every parameter *and* the network input, which is what lets the
rest of the package run gradient ascent over a scalar input coordinate.

All arithmetic is float64.  Forward accepts a single input vector or a batch
matrix (one row per sample); parameter gradients are summed over the batch.

Large passes run in row blocks at the same time.  Rows are independent, so
forward and the row-wise half of backward (activation slopes, input
gradients, skip sums) split a pass into contiguous blocks of at least
``BLOCK_ROWS`` rows, one per worker; the calling thread runs one block and a
process-wide thread pool, created on first use, runs the others.  Each
layer's parameter gradient stays one matrix product over all rows, and the
layers' products are spread over the same workers, so results are bitwise
the same whatever the number of workers.  The number of workers is the CPUs
BLAS leaves free, ``max(1, cpus // blas_threads)`` (:func:`worker_count`):
with ``OPENBLAS_NUM_THREADS=1`` every CPU runs blocks, and with no BLAS
thread variable set BLAS takes every CPU and passes run on the calling
thread alone.
"""

import os
from collections import deque
from dataclasses import dataclass
from threading import Lock

import numpy as np

ACTIVATIONS = ("tanh", "relu", "identity")

# rows of the smallest block a pass is split into; a pass of fewer than twice
# as many rows runs as one block on the calling thread
BLOCK_ROWS = 1024
# blocks start at multiples of this many rows: BLAS kernels take rows in
# small groups (OpenBLAS's dgemv in fours) and add a group's products in
# another order than a leftover row's, so only a block start that is a
# group boundary of the unsplit pass keeps every row's result bitwise the same
BLOCK_ALIGN = 64

# the variables OpenBLAS reads its thread count from, first one first
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TrainingError(RuntimeError):
    """Raised when optimization encounters non-finite numbers."""


def worker_count(environ, cpus):
    """Threads that may run row blocks at once: ``max(1, cpus // blas)``.

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
_pool = None  # (pid, threads, executor) of the block pool
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
    """The process's block pool with at least ``threads`` threads; a forked
    child, which inherits no threads, gets a new one."""
    # imported here: a process that never splits a pass (a short CLI call,
    # or BLAS left on every CPU) does not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < threads:
            if _pool is not None and _pool[0] == os.getpid():
                _pool[2].shutdown(wait=False)
            _pool = (os.getpid(), threads,
                     ThreadPoolExecutor(threads, thread_name_prefix="ebnarx-rows"))
        return _pool[2]


def row_blocks(rows):
    """Contiguous slices that split ``range(rows)`` into one block per
    worker, each of at least ``BLOCK_ROWS`` rows and starting at a multiple
    of ``BLOCK_ALIGN``; a single slice when the pass is smaller or there is
    one worker."""
    count = rows // BLOCK_ROWS
    if count > 1:
        count = min(count, _worker_total())
    if count < 2:
        return [slice(0, rows)]
    bounds = [rows * j // count // BLOCK_ALIGN * BLOCK_ALIGN for j in range(count)] + [rows]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def run_blocks(fn, blocks, *args):
    """Call ``fn(*args)`` once per row block in ``blocks`` (see
    :func:`row_blocks`), all at once through :func:`run_parallel`, each call
    seeing its block's rows of every argument: ``arg[rs]`` for an array (or
    a ``range`` of row positions), and that of each item for a list.  A
    single block is one call with the arguments as given."""
    if len(blocks) == 1:
        fn(*args)
        return
    parts = [[[a[rs] for a in arg] if isinstance(arg, list) else arg[rs] for arg in args]
             for rs in blocks]
    run_parallel(lambda part: fn(*part), parts)


def run_parallel(fn, items, threads=None):
    """Call ``fn(item)`` for every item and return once all calls returned.

    The calling thread runs the first item, then it and pool threads, at
    most ``threads`` threads in all (default: every worker), take the
    remaining items in turn.  Where ``fn`` may run on a pool thread, it must
    write only into arrays the caller allocated and call no public function
    of the package (the benchmark's tracer keeps one span stack, that of the
    calling thread).  An exception raised by any call reaches the caller,
    after every call has ended.
    """
    helpers = min(_worker_total(), threads or len(items), len(items)) - 1
    if helpers < 1:
        for item in items:
            fn(item)
        return
    items = deque(items)

    def drain():
        while True:
            try:
                item = items.popleft()
            except IndexError:
                return
            fn(item)

    first = items.popleft()
    pool = _executor(_worker_total() - 1)
    futures = [pool.submit(drain) for _ in range(helpers)]
    try:
        fn(first)
        drain()
    finally:
        # a helper that has not started yet would find no item left: the
        # caller does not wait for its thread to be scheduled
        for f in futures:
            f.cancel()
        errors = [f.exception() for f in futures if not f.cancelled()]
    for err in errors:
        if err is not None:
            raise err


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
        if not np.isfinite(x2).all():
            raise ValueError("network input contains non-finite values")

        n, rows = len(self.layers), len(x2)
        blocks = row_blocks(rows)
        # None buffers are allocated by the one block that fills them
        inputs, outputs = [None] * n, [None] * n
        if len(blocks) > 1:
            for i, layer in enumerate(self.layers):
                inputs[i] = np.empty((rows, layer.in_dim)) if self._skips_into[i] else (
                    outputs[i - 1] if i else x2)
                outputs[i] = np.empty((rows, layer.out_dim))
        run_blocks(self._forward_rows, blocks, x2, inputs, outputs)
        cache = ForwardCache(self, inputs, outputs, squeeze)
        out = outputs[-1]
        return (out[0] if squeeze else out), cache

    def _forward_rows(self, x, inputs, outputs):
        """Forward pass of one row block, into the given buffers or, where a
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

        Returns
        -------
        param_grads : list of arrays matching :meth:`parameters` order, or
            None when ``with_params`` is false (only the input gradient is
            wanted, which skips one matrix product per layer)
        input_grad : array with the same shape as the forward input
        """
        if cache.net is not self:
            raise ValueError("cache was produced by a different network")
        # contiguous, as an identity layer's pre-activation gradient is g
        # itself and feeds a matrix product
        g = np.ascontiguousarray(output_gradient, dtype=float)
        g2 = g[None, :] if cache.squeeze else g
        if g2.shape != cache.outputs[-1].shape:
            raise ValueError(
                f"output gradient shape {g.shape} does not match forward output"
            )

        n, rows = len(self.layers), len(g2)
        blocks = row_blocks(rows)
        # d_ins[i] is the gradient w.r.t. the input of layer i through that
        # layer alone, d_out[i + 1] the whole gradient w.r.t. the output of
        # layer i and d_out[0] the one w.r.t. the network input; dzs[i] the
        # one w.r.t. the pre-activation of layer i.  As in forward, None
        # buffers are allocated by the one block that fills them.
        d_ins, d_out, dzs = [None] * n, [None] * n + [g2], [None] * n
        if len(blocks) > 1:
            for i, layer in enumerate(self.layers):
                d_ins[i] = np.empty((rows, layer.in_dim))
            for j, t in enumerate(self._grad_terms[:n]):
                d_out[j] = d_ins[t[0]] if len(t) == 1 else np.empty_like(d_ins[j])
            for i, layer in enumerate(self.layers):
                identity = layer.activation == "identity"
                dzs[i] = d_out[i + 1] if identity else np.empty_like(d_out[i + 1])
        run_blocks(self._backward_rows, blocks, cache.outputs, d_ins, d_out, dzs)
        input_grad = d_out[0][0] if cache.squeeze else d_out[0]
        if not with_params:
            return None, input_grad

        param_grads = [None] * (2 * n)
        if len(blocks) > 1:
            param_grads = [np.empty_like(p) for p in self.parameters()]

        def layer_grads(i):
            dz = dzs[i]
            param_grads[2 * i] = np.matmul(dz.T, cache.inputs[i], out=param_grads[2 * i])
            param_grads[2 * i + 1] = np.add.reduce(dz, axis=0, out=param_grads[2 * i + 1])

        # small passes keep their small products on the calling thread
        run_parallel(layer_grads, range(n), threads=len(blocks))
        return param_grads, input_grad

    def _backward_rows(self, outputs, d_ins, d_out, dzs):
        """Row-wise half of :meth:`backward` for one row block: slopes,
        input gradients and their sums, into the given buffers or, where a
        buffer is None, into arrays it allocates and stores in the lists."""
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
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {i} (shape {g.shape})")
        # in place, with the operations of m = b1 m + (1 - b1) g,
        # v = b2 v + (1 - b2) g g and p -= lr (m / c1) / (sqrt(v / c2) + eps)
        # in that order
        m, v = state.m[i], state.v[i]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        step = m / c1
        step *= state.learning_rate
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        step /= denom
        p -= step
        if not np.isfinite(p).all():
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
