"""Energy-based NARX model and its noise-contrastive training procedure.

The model assigns a scalar energy to every (regressor, output) pair through
two networks: a feature net embeds the regressor once, and a predictor net
scores candidate outputs against that embedding.  Exponentiating and
normalizing the energy over a grid of outputs yields the predictive density;
training maximizes a multi-class classification objective that discriminates
the observed output from samples of a known Gaussian-mixture noise
distribution centered on it.

All energies are evaluated in standardized coordinates internally; public
entry points accept raw units and the stored standardizer keeps a trained
model self-contained.
"""

import json
from dataclasses import dataclass

import numpy as np

from .data import fit_standardizer, Standardizer, WindowConfig
from .inference import GridTooNarrowError, grid_energies, log_partitions
from .mathutil import is_finite_real, is_integer, logsumexp, normal_log_pdf
from .nn import (
    MlpNetwork,
    TrainingError,
    activate,
    activation_backward,
    fit_minibatch,
    init_network,
    network_from_dict,
    network_to_dict,
    run_parallel,
    tile_workers,
)

# candidates a tile holds: a grid pass scores TILE candidates at a time
# (the last tile takes the remainder) and NCE training whole targets, about
# 2 * TILE candidates, so that a tile's activations (a few TILE x width
# floats per layer) stay in cache from the first layer to the energy and
# back, and the working set does not grow with the pass.  A multiple of 64,
# so that grid tiles start where an unsplit pass's BLAS row groups do (a
# group's products add in another order than a leftover row's).
TILE = 256

# hidden width of both model families' networks
WIDTH = 100

# NCE tiles a group holds: an NCE step runs its tiles in groups of this
# many, and once a group is done the calling thread adds the group's
# gradient partials into the total in tile order, so that the partials
# take one fixed (NCE_GROUP, P) array whatever the batch.  A minibatch of
# the CLI defaults (64 targets of 257 candidates, 2 a tile) is one group.
NCE_GROUP = 32


@dataclass(frozen=True)
class NceConfig:
    """Noise distribution settings: ``n_noise`` samples per target drawn from
    an equal-weight Gaussian mixture with the given standard deviations
    (standardized output units), centered at the target."""

    n_noise: int = 256
    sigmas: tuple = (0.1, 0.8)
    seed: int = 0

    def __post_init__(self):
        sigmas = tuple(self.sigmas)
        if not is_integer(self.n_noise):
            raise ValueError(f"n_noise must be an integer, got {self.n_noise!r}")
        if self.n_noise < 1:
            raise ValueError("n_noise must be at least 1")
        if not sigmas or not all(is_finite_real(s) and s > 0.0 for s in sigmas):
            raise ValueError(f"sigmas must be non-empty, positive and finite, got {sigmas!r}")
        object.__setattr__(self, "sigmas", tuple(float(s) for s in sigmas))
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"noise seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Minibatch Adam schedule shared by the energy model and the baseline."""

    batch_size: int = 64
    max_epochs: int = 300
    patience: int = 20
    learning_rate: float = 1e-3
    lr_decay: float = 0.99
    val_fraction: float = 0.1

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if min(self.batch_size, self.max_epochs, self.patience) < 1:
            raise ValueError("batch_size, max_epochs and patience must be positive")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")
        if not (is_finite_real(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(
                f"learning_rate must be a positive finite number, got {self.learning_rate!r}")
        if not (is_finite_real(self.lr_decay) and 0.0 < self.lr_decay <= 1.0):
            raise ValueError(f"lr_decay must be a number in (0, 1], got {self.lr_decay!r}")
        if not (is_finite_real(self.val_fraction) and 0.0 < self.val_fraction < 1.0):
            raise ValueError(f"val_fraction must be a number in (0, 1), got {self.val_fraction!r}")


def training_split(dataset, tc, seed):
    """Set-up shared by both trainers, seeded by ``seed``: returns
    ``(standardizer, model_seed, shuffle_rng, train_idx, val_idx)`` with a
    random ``tc.val_fraction`` of the rows held out for early stopping.  A
    random slice is used because neighbouring rows of an autocorrelated
    series are nearly redundant, which would make a chronological tail useless
    for ranking."""
    if len(dataset) < tc.batch_size:
        raise ValueError(
            f"dataset has {len(dataset)} rows, need at least batch_size={tc.batch_size}"
        )
    s_model, s_shuffle, s_split = np.random.SeedSequence(seed).spawn(3)
    n_val = max(1, int(round(len(dataset) * tc.val_fraction)))
    n_train = len(dataset) - n_val
    if n_train < 1:
        raise ValueError(f"val_fraction={tc.val_fraction!r} holds out {n_val} of the "
                         f"dataset's {len(dataset)} rows, leaving no training rows")
    perm = np.random.default_rng(s_split).permutation(len(dataset))
    return (fit_standardizer(dataset), s_model, np.random.default_rng(s_shuffle),
            perm[:n_train], perm[n_train:])


class EbNarxModel:
    """Feature net + predictor net + standardizer over a lag window.

    The predictor's first layer splits as
    ``W0 @ [feat; y] = (W0f @ feat + b0) + w0y * y``: the regressor half is
    computed once per regressor (:meth:`project`) and broadcast over every
    candidate output, so the rest of the predictor (``_tail``, which shares
    the predictor's layers) is all that runs per candidate.
    """

    def __init__(self, feature_net, predictor_net, standardizer, window_cfg, nce=None):
        if predictor_net.output_dim != 1:
            raise ValueError("predictor net must output a scalar energy")
        if predictor_net.input_dim != feature_net.output_dim + 1:
            raise ValueError(
                f"predictor input dim {predictor_net.input_dim} must equal "
                f"feature dim {feature_net.output_dim} + 1"
            )
        if feature_net.input_dim != window_cfg.dim:
            raise ValueError(
                f"feature net expects {feature_net.input_dim} inputs but the "
                f"window produces {window_cfg.dim}"
            )
        if len(predictor_net.layers) < 2:
            raise ValueError("predictor net needs at least two layers")
        standardizer.check_window(window_cfg)
        self.feature_net = feature_net
        self.predictor_net = predictor_net
        self.standardizer = standardizer
        self.window_cfg = window_cfg
        self.nce = nce
        # skips from the first layer's output become skips from the tail's input
        self._tail = MlpNetwork(predictor_net.layers[1:],
                                [(a - 1, b - 1) for a, b in predictor_net.skips])

    @property
    def input_dim(self):
        return self.feature_net.input_dim

    def project(self, x_rows):
        """The (n, width) array ``W0f @ feat + b0`` of raw-unit regressors of
        shape (n, input_dim); pass it to :meth:`energies` to score the same
        rows repeatedly without rerunning the feature net."""
        return self._features(x_rows)[2]

    def _features(self, x_rows):
        """``(feats, feature-net cache, project array)`` of regressors."""
        x = np.asarray(x_rows, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"regressors must have shape (n, {self.input_dim}), got {x.shape}")
        feats, cache = self.feature_net.forward(self.standardizer.apply_x(x))
        layer0 = self.predictor_net.layers[0]
        return feats, cache, feats @ layer0.weights[:, :-1].T + layer0.biases

    def energies(self, rows, ys, ygrad=False):
        """Energies of raw-unit candidate outputs for the (n, width)
        :meth:`project` array ``rows``.

        ``ys`` is one (k,) vector shared by every row or an (n, k) matrix.
        Returns the (n, k) energies; when ``ygrad`` is true, ``(g, slope)``,
        with ``slope`` their (n, k) derivatives with respect to the raw
        outputs (:meth:`_ygrad_pass`).  Without ``ygrad`` the candidates run
        through the whole predictor in tiles of ``TILE`` (see
        :meth:`_score_tiles`), so the working set is the same whatever the
        number of rows.
        """
        ys_std = self.standardizer.apply_y(ys)
        if ys_std.ndim not in (1, 2):
            raise ValueError(f"candidate outputs must have shape (k,) or ({len(rows)}, k), "
                             f"got {ys_std.shape}")
        ys_std = np.broadcast_to(ys_std, (len(rows), ys_std.shape[-1]))
        if ygrad:
            return self._ygrad_pass(rows, ys_std)
        g = np.empty(ys_std.shape)
        self._score_tiles(rows, ys_std, g.reshape(-1))
        return g

    def _ygrad_pass(self, proj, ys_std):
        """``(g, slope)``: the (n, k) energies ``g`` of the (n, k)
        standardized candidates ``ys_std`` for the (n, width) :meth:`project`
        array ``proj``, and their (n, k) derivatives ``slope`` with respect
        to the raw outputs.

        The first layer is built by :meth:`_first_layer`, then the tail's
        forward pass and the row-wise half of its backward pass (no
        parameter gradients) run over all n * k candidates at once, on the
        calling thread.  Every candidate takes the operations it takes in a
        grid pass (:meth:`_score_tiles`), so the energies are bitwise those
        of one.
        """
        n, k = ys_std.shape
        layer0 = self.predictor_net.layers[0]
        h = np.empty((n * k, layer0.out_dim))
        self._first_layer(proj, ys_std, range(n * k), h)
        out, cache = self._tail.forward(h)
        # the output gradient, ones, takes the derivatives down to h
        layers = len(self._tail.layers)
        d_out = [None] * layers + [np.ones((n * k, 1))]
        self._tail._backward_rows(cache.outputs, [None] * layers, d_out, [None] * layers)
        slope = activation_backward(layer0.activation, h, d_out[0]) @ layer0.weights[:, -1]
        return out.reshape(n, k), (slope / self.standardizer.std_y).reshape(n, k)

    def _score_tiles(self, proj, ys_std, out):
        """The energies of the (n, k) standardized candidates ``ys_std`` for
        the (n, width) :meth:`project` array ``proj``, written into the
        flat (n * k,) array ``out``.  The n * k candidates run from the
        first layer to the energy in tiles of ``TILE`` candidates, the last
        tile taking the pass's remainder, through :func:`run_parallel` with
        one set of buffers per worker (:func:`tile_workers` of a pass of
        n * k rows).  Tiles start at multiples of ``TILE`` and no tile is
        shorter than ``TILE`` unless the pass is (BLAS takes another kernel
        for a product of a few rows), so every candidate takes the
        operations it takes in one unsplit pass, whichever worker scores
        it.  Raises ValueError, as a network pass does, when a tile's input
        to the predictor's tail is not finite."""
        tiles = _tiles(out.size)
        rows = tiles[-1].stop - tiles[-1].start  # the longest tile

        def score_tile(tile, buffers):
            h_buf, in_bufs, out_bufs = buffers
            h = h_buf[:tile.stop - tile.start]
            self._first_layer(proj, ys_std, range(tile.start, tile.stop), h)
            _check_input(h)
            # the last layer writes the energies straight into out
            self._tail._forward_rows(h, _heads(in_bufs, len(h)),
                                     _heads(out_bufs[:-1], len(h)) + [out[tile, None]])

        width = self.predictor_net.layers[0].out_dim
        run_parallel(score_tile, tiles, [(np.empty((rows, width)),)
                                         + self._tail._forward_buffers(rows)
                                         for _ in range(tile_workers(out.size))])

    def _nce_tiles(self, x_rows, ys_std, log_q):
        """``(loss, grads)`` of :func:`nce_loss` for the (n, k) standardized
        candidates ``ys_std`` of the raw-unit regressors ``x_rows``, observed
        outputs in column 0, whose noise log densities are ``log_q``.

        After one feature-net pass (:meth:`_features`), the candidates run
        in tiles of whole rows, ``ceil(2 * TILE / k)`` rows each, through
        the first layer, the tail's forward pass, the row softmax, the loss
        and its residual ``(softmax - onehot) / n``, the tail's backward
        pass and the tile's partial of every weight and bias gradient, in
        one set of buffers per worker, so that a tile's activations stay in
        cache.  The tiles run in groups of ``NCE_GROUP``, each group through
        :func:`run_parallel`, whose workers take the next tile left, as in
        :meth:`_score_tiles`.  Each tile of a group writes its partials (the
        tail's parameter gradients, then the first layer's y column) into
        its own row of one (NCE_GROUP, P) array, P the number of values in
        one set of partials, and once the group is done the calling thread
        adds its rows in tile order into a total that starts at zeros, so
        loss and gradients are bitwise the same for any number of workers.
        Each row's first-layer gradient, summed over its candidates, is
        written straight into one (n, width) array, from which the feature
        net's gradients follow, through the kept forward cache, on the
        calling thread.

        Raises ValueError when a tile's input to the tail is not finite and
        TrainingError naming the first batch element whose logits are not;
        when several tiles fail, the error of the first one."""
        n, k = ys_std.shape
        feats, feat_cache, proj = self._features(x_rows)
        layer0 = self.predictor_net.layers[0]
        tail = self._tail
        per_tile = min(n, -(-2 * TILE // k))
        tiles = range(-(-n // per_tile))
        # one row of partials per tile of a group: the tail's parameter
        # gradients, then the first layer's y column
        shapes = [p.shape for p in tail.parameters()] + [(layer0.out_dim,)]
        bounds = np.cumsum([0] + [np.prod(shape, dtype=int) for shape in shapes])
        partial_rows = np.empty((min(len(tiles), NCE_GROUP), bounds[-1]))

        def split(flat):
            return [flat[a:b].reshape(shape) for shape, a, b in zip(shapes, bounds, bounds[1:])]

        dz_rows = np.empty((n, layer0.out_dim))
        row_losses = np.empty(n)

        def score_tile(tile, buffers):
            h_buf, in_bufs, out_bufs, resid_buf, d_bufs = buffers
            rs = slice(tile * per_tile, min((tile + 1) * per_tile, n))
            partials = split(partial_rows[tile % NCE_GROUP])
            size = (rs.stop - rs.start) * k
            h = h_buf[:size]
            self._first_layer(proj, ys_std, range(rs.start * k, rs.stop * k), h)
            _check_input(h)
            inputs, outputs = _heads(in_bufs, size), _heads(out_bufs, size)
            tail._forward_rows(h, inputs, outputs)
            logits = resid_buf[:size].reshape(-1, k)
            np.subtract(outputs[-1].reshape(-1, k), log_q[rs], out=logits)
            _check_logits(logits, rs.start)
            row_losses[rs], norm = _softmax_rows(logits)
            # d loss / d energy = (softmax - onehot_0) / n, in place
            logits /= norm
            logits[:, 0] -= 1.0
            logits /= n
            d_ins, d_out, dzs = (_heads(b, size) for b in d_bufs)
            tail._backward_rows(outputs, d_ins, d_out, dzs)
            for i, (inp, dz) in enumerate(zip(inputs, dzs)):
                np.matmul(dz.T, inp, out=partials[2 * i])
                np.add.reduce(dz, axis=0, out=partials[2 * i + 1])
            # h, the tail's input, is not read again: it takes dz0
            dz0 = activation_backward(layer0.activation, h, d_out[0], h)
            np.sum(dz0.reshape(-1, k, dz0.shape[1]), axis=1, out=dz_rows[rs])
            np.matmul(ys_std[rs].reshape(-1), dz0, out=partials[-1])

        def buffers():
            size = per_tile * k
            resid = np.empty((size, 1))
            return ((np.empty((size, layer0.out_dim)),) + tail._forward_buffers(size)
                    + (resid, tail._backward_buffers(size, resid)))

        worker_buffers = [buffers() for _ in range(min(len(tiles), tile_workers(n * k)))]
        total = np.zeros(bounds[-1])
        for start in range(0, len(tiles), NCE_GROUP):
            group = tiles[start:start + NCE_GROUP]
            run_parallel(score_tile, group, worker_buffers)
            for row in partial_rows[:len(group)]:
                total += row
        sums = split(total)
        d_w0 = np.empty_like(layer0.weights)
        d_w0[:, :-1] = dz_rows.T @ feats
        d_w0[:, -1] = sums[-1]
        feat_grads, _ = self.feature_net.backward(feat_cache,
                                                  dz_rows @ layer0.weights[:, :-1])
        grads = feat_grads + [d_w0, dz_rows.sum(axis=0)] + sums[:-1]
        return float(row_losses.mean()), grads

    def _first_layer(self, proj, ys_std, positions, h):
        """Activations of the predictor's first layer, written into ``h``,
        for the candidates at the ``range`` ``positions`` of the row-major
        flattened (n, k) ``ys_std``: ``w0y * y`` of each candidate, taken
        from the rows the range spans, plus its row of ``proj``, the
        regressor halves, gathered by flat position // k."""
        layer0 = self.predictor_net.layers[0]
        k = ys_std.shape[1]
        first = positions.start // k
        ys = ys_std[first:-(-positions.stop // k)].reshape(-1)
        ys = ys[positions.start - first * k:positions.stop - first * k]
        np.multiply(ys[:, None], layer0.weights[:, -1], out=h)
        h += proj[np.arange(positions.start, positions.stop) // k]
        activate(layer0.activation, h)

    def energy(self, x, y):
        """Scalar energy of one raw-unit (regressor, output) pair."""
        if not np.isfinite(y):
            raise ValueError("output value must be finite")
        return float(self.energies(self.project([x]), [y])[0, 0])

    def energy_grid(self, x, ys):
        """Energies over many candidate outputs for one regressor."""
        return self.energies(self.project([x]), np.ravel(ys))[0]

    def energy_and_ygrad(self, x, y):
        """Energy and its derivative with respect to the raw output value."""
        g, slope = self.energies(self.project([x]), [y], ygrad=True)
        return float(g[0, 0]), float(slope[0, 0])

    def to_dict(self):
        """JSON-ready form tagged ``"kind": "ebnarx"``; see :func:`model_from_dict`."""
        doc = {
            "kind": "ebnarx",
            "feature_net": network_to_dict(self.feature_net),
            "predictor_net": network_to_dict(self.predictor_net),
            "standardizer": self.standardizer.to_dict(),
            "window": {"y_lags": self.window_cfg.y_lags, "u_lags": self.window_cfg.u_lags},
        }
        if self.nce is not None:
            doc["nce"] = {
                "n_noise": self.nce.n_noise,
                "sigmas": list(self.nce.sigmas),
                "seed": self.nce.seed,
            }
        return doc


def _tiles(size):
    """Slices of ``TILE`` positions that cover ``range(size)``, the last one
    taking the remainder: one slice when ``size`` is shorter."""
    count = max(1, size // TILE)
    bounds = [j * TILE for j in range(count)] + [size]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _check_input(h):
    """Raises ValueError, as a network pass does, when a tile's input to the
    predictor's tail is not finite."""
    if not np.isfinite(h).all():
        raise ValueError("network input contains non-finite values")


def _heads(buffers, rows):
    """The first ``rows`` rows of each buffer in the list (None stays None)."""
    return [b if b is None else b[:rows] for b in buffers]


def build_ebnarx(window_cfg, width=WIDTH, seed=0, standardizer=None, nce=None):
    """Fresh model: 2-layer relu feature net and a 4-layer tanh predictor net
    with residual skips spanning two layers each."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    s_feat, s_pred = ss.spawn(2)
    feature = init_network(
        [window_cfg.dim, width, width], ["relu", "relu"], seed=s_feat
    )
    predictor = init_network(
        [width + 1, width, width, width, 1],
        ["tanh", "tanh", "tanh", "identity"],
        skips=[(0, 2), (1, 3)],
        seed=s_pred,
    )
    if standardizer is None:
        dim = window_cfg.dim
        standardizer = Standardizer(np.zeros(dim), np.ones(dim), 0.0, 1.0, -1.0, 1.0)
    return EbNarxModel(feature, predictor, standardizer, window_cfg, nce)


def mixture_log_pdf(y, center, sigmas):
    """Exact log density of the equal-weight Gaussian mixture noise."""
    sigmas = np.asarray(sigmas, dtype=float)
    per_comp = normal_log_pdf(
        np.asarray(y, dtype=float)[..., None], np.asarray(center, dtype=float)[..., None], sigmas
    )
    return logsumexp(per_comp, axis=-1) - np.log(sigmas.size)


def sample_noise(centers, cfg, rng):
    """Draw ``cfg.n_noise`` noise outputs around each of the (n,) ``centers``.

    Returns ``(samples, log_q)``, both of shape ``(n, n_noise)``; ``log_q``
    is the exact mixture log density at each sample.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 1:
        raise ValueError(f"noise centers must have shape (n,), got {centers.shape}")
    sigmas = np.asarray(cfg.sigmas)
    comp = rng.integers(0, sigmas.size, size=(centers.size, cfg.n_noise))
    z = rng.standard_normal((centers.size, cfg.n_noise))
    samples = centers[:, None] + sigmas[comp] * z
    log_q = mixture_log_pdf(samples, centers[:, None], sigmas)
    return samples, log_q


def nce_loss_value(energies, log_q):
    """Noise-contrastive loss from precomputed energies and noise log densities.

    Both arguments have shape (batch, 1 + n_noise) with the observed output in
    column 0.  The loss is the mean cross-entropy of picking column 0 among
    the candidates, with logits ``energy - log_q``; it is invariant to adding
    a constant to all energies and bounded below by zero.
    """
    logits = np.asarray(energies, dtype=float) - np.asarray(log_q, dtype=float)
    return float(_softmax_rows(logits)[0].mean())


def _softmax_rows(logits):
    """``(losses, norms)`` of the row softmax of the (rows, k) ``logits``:
    each row's cross-entropy of column 0 and the sum of its exponentials.
    ``logits`` is overwritten with ``exp(logits - row max)``."""
    top = logits.max(axis=1, keepdims=True)
    first = logits[:, 0] - top[:, 0]
    logits -= top
    np.exp(logits, out=logits)
    norm = logits.sum(axis=1, keepdims=True)
    return -(first - np.log(norm[:, 0])), norm


def _check_logits(logits, first_row=0):
    """Raises TrainingError naming the first row of ``logits`` (batch element
    ``first_row`` + its index) that holds a non-finite value."""
    finite_rows = np.isfinite(logits).all(axis=1)
    if not finite_rows.all():
        bad = first_row + int(np.flatnonzero(~finite_rows)[0])
        raise TrainingError(f"non-finite NCE logits for batch element {bad}")


def nce_loss(model, x_batch, y_batch, cfg, rng, compute_grads=True):
    """Noise-contrastive loss of a raw-unit minibatch, with exact gradients.

    For every target, ``cfg.n_noise`` fresh noise samples are drawn around the
    standardized target.  Gradients are exact for the sampled noise set and
    ordered like the feature net's ``parameters()`` followed by the
    predictor net's; they run in tiles of whole targets
    on the one tile runner in groups of ``NCE_GROUP`` tiles, each tile's
    partials in a row of their own that the calling thread adds in tile
    order once its group is done (see ``EbNarxModel._nce_tiles``),
    so they are the same bits for any number of workers.  The loss without
    gradients comes from a forward-only grid pass over the plain
    ``model.project`` array.

    Returns ``(loss, grads)``; ``grads`` is None when ``compute_grads`` is
    false (cheap held-out evaluation).
    """
    x_batch = np.asarray(x_batch, dtype=float)
    y_batch = np.asarray(y_batch, dtype=float)
    if y_batch.ndim != 1:
        raise ValueError(f"y batch must have shape (n,), got {y_batch.shape}")
    n = len(y_batch)
    if n == 0:
        raise ValueError("batch must be non-empty")
    if x_batch.shape != (n, model.input_dim):
        raise ValueError(f"x batch must have shape ({n}, {model.input_dim}), got {x_batch.shape}")

    ys = model.standardizer.apply_y(y_batch)
    noise, noise_log_q = sample_noise(ys, cfg, rng)
    candidates = np.concatenate([ys[:, None], noise], axis=1)
    log_q_center = float(mixture_log_pdf(0.0, 0.0, cfg.sigmas))
    log_q = np.concatenate([np.full((n, 1), log_q_center), noise_log_q], axis=1)
    if compute_grads:
        return model._nce_tiles(x_batch, candidates, log_q)
    energies = np.empty(candidates.shape)
    model._score_tiles(model.project(x_batch), candidates, energies.reshape(-1))
    _check_logits(energies - log_q)
    return nce_loss_value(energies, log_q), None


def train_ebnarx(dataset, nce=None, tc=None, width=WIDTH, seed=0):
    """Fit an energy-based NARX model on a window dataset.

    The rows held out by :func:`training_split` drive early stopping:
    training stops once the held-out loss has not improved for
    ``tc.patience`` epochs and the best parameters are restored.  Fresh noise
    is drawn every epoch for the training rows; the held-out rows reuse one
    frozen noise set so the stopping signal is comparable across epochs.

    Returns ``(model, log)`` where ``log`` is a list of per-epoch statistics.
    """
    nce = nce or NceConfig()
    tc = tc or TrainConfig()
    std, s_model, shuffle_rng, train_idx, val_idx = training_split(dataset, tc, seed)
    x_train, y_train = dataset.x[train_idx], dataset.y[train_idx]
    x_val, y_val = dataset.x[val_idx], dataset.y[val_idx]
    model = build_ebnarx(dataset.cfg, width=width, seed=s_model, standardizer=std, nce=nce)

    noise_ss = np.random.SeedSequence(nce.seed)
    train_noise_ss, val_noise_ss = noise_ss.spawn(2)
    train_noise_rng = np.random.default_rng(train_noise_ss)

    def batch_fn(idx):
        return nce_loss(model, x_train[idx], y_train[idx], nce, train_noise_rng)

    def val_fn():
        loss, _ = nce_loss(
            model, x_val, y_val, nce, np.random.default_rng(val_noise_ss), compute_grads=False
        )
        return loss

    log = fit_minibatch(model.feature_net.layers + model.predictor_net.layers, tc,
                        len(train_idx), batch_fn, val_fn, shuffle_rng)
    return model, log


def log_likelihood(model, dataset, grid):
    """Mean log predictive density over a dataset, normalized by quadrature.

    The normalizing integral is evaluated on the raw-unit grid with
    log-sum-exp-stabilized trapezoidal quadrature, so the result is the mean
    log density in raw output units.  Its grid energies come from
    ``inference.grid_energies``; the targets' energies are scored exactly.

    Raises ValueError on an empty dataset, and GridTooNarrowError when a
    target lies outside the grid, whose energy there would be extrapolated,
    or when any row leaves more than 1e-3 density mass at a grid boundary.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty: its mean log likelihood is undefined")
    off_grid = np.flatnonzero((dataset.y < grid.lo) | (dataset.y > grid.hi))
    if off_grid.size:
        row = int(off_grid[0])
        raise GridTooNarrowError(
            f"target {float(dataset.y[row])!r} of row {row} lies outside the grid "
            f"[{grid.lo}, {grid.hi}]; widen the grid"
        )
    total = 0.0
    for chunk in grid.row_chunks(len(dataset)):
        rows = model.project(dataset.x[chunk])
        log_z = log_partitions(grid_energies(model, rows, grid), grid, chunk.start)
        g_target = model.energies(rows, dataset.y[chunk, None])[:, 0]
        total += float((g_target - log_z).sum())
    return total / len(dataset)


def document_part(doc, kind, key, parse):
    """``parse(doc[key])`` for one part of a ``kind`` model document.

    Raises ValueError naming the missing key, or naming the part when its
    value has the wrong type or is rejected by ``parse``.
    """
    try:
        return parse(doc[key])
    except KeyError as err:
        raise ValueError(f"{kind} model document is missing key {err.args[0]!r}") from err
    except (TypeError, AttributeError, ValueError) as err:
        raise ValueError(f"malformed {key!r} in the {kind} model document: {err}") from err


def model_from_dict(doc):
    """Energy model from its document, whose kind ``harness.load_model`` checks."""
    nce = None
    if "nce" in doc:
        nce = document_part(doc, "ebnarx", "nce", lambda d: NceConfig(
            d["n_noise"], tuple(d["sigmas"]), d["seed"]))
    return EbNarxModel(
        document_part(doc, "ebnarx", "feature_net", network_from_dict),
        document_part(doc, "ebnarx", "predictor_net", network_from_dict),
        document_part(doc, "ebnarx", "standardizer", Standardizer.from_dict),
        document_part(doc, "ebnarx", "window",
                      lambda d: WindowConfig(d["y_lags"], d["u_lags"])),
        nce,
    )


def save_model(model, path):
    """Write a model of either family as JSON; ``harness.load_model`` reads it
    back."""
    # json.dumps runs the C encoder; json.dump always runs the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model.to_dict()))
