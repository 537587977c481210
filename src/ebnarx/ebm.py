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
from .inference import GridTooNarrowError, log_partitions
from .mathutil import logsumexp, normal_log_pdf
from .nn import (
    ForwardCache,
    MlpNetwork,
    TrainingError,
    activate,
    activation_grad,
    fit_minibatch,
    init_adam,
    init_network,
    network_from_dict,
    network_to_dict,
)

# candidates one forward-only network pass may score: grid passes run in
# slices of rows, so their working set stays the same whatever the row count
PASS_CANDIDATES = 8192


@dataclass(frozen=True)
class NceConfig:
    """Noise distribution settings: ``n_noise`` samples per target drawn from
    an equal-weight Gaussian mixture with the given standard deviations
    (standardized output units), centered at the target."""

    n_noise: int = 256
    sigmas: tuple = (0.1, 0.8)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if self.n_noise < 1:
            raise ValueError("n_noise must be at least 1")
        if not self.sigmas or any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be positive and non-empty")


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
        if min(self.batch_size, self.max_epochs, self.patience) < 1:
            raise ValueError("batch_size, max_epochs and patience must be positive")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")


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
    perm = np.random.default_rng(s_split).permutation(len(dataset))
    return (fit_standardizer(dataset), s_model, np.random.default_rng(s_shuffle),
            perm[:n_train], perm[n_train:])


@dataclass(frozen=True)
class RowBatch:
    """The work a batch of regressors shares across all its candidate
    outputs: the feature-net pass and ``W0f @ feat + b0``, the regressor half
    of the predictor's first layer (standardized units)."""

    feats: np.ndarray
    feat_cache: ForwardCache
    proj: np.ndarray

    def __len__(self):
        return len(self.proj)


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

    def parameters(self):
        return self.feature_net.parameters() + self.predictor_net.parameters()

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"regressor must have shape ({self.input_dim},), got {x.shape}")
        return x

    def project(self, x_rows):
        """Per-regressor half of the energy for raw-unit regressors of shape
        (n, input_dim); pass the result to :meth:`energies` to score the same
        rows repeatedly without rerunning the feature net."""
        x = np.asarray(x_rows, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"regressors must have shape (n, {self.input_dim}), got {x.shape}")
        feats, cache = self.feature_net.forward(self.standardizer.apply_x(x))
        layer0 = self.predictor_net.layers[0]
        return RowBatch(feats, cache, feats @ layer0.weights[:, :-1].T + layer0.biases)

    def energies(self, x_rows, ys, ygrad=False):
        """Energies of raw-unit candidate outputs for a batch of regressors.

        ``x_rows`` is an (n, input_dim) array of regressors or their
        :meth:`project` result; ``ys`` is one (k,) vector shared by every row
        or an (n, k) matrix.  Returns the (n, k) energies and, when ``ygrad``
        is true, also their derivatives with respect to the raw outputs.
        Without ``ygrad`` the rows are scored in slices, so that no network
        pass scores more than ``PASS_CANDIDATES`` candidates (or one row).
        """
        rows = x_rows if isinstance(x_rows, RowBatch) else self.project(x_rows)
        ys_std = np.atleast_1d(self.standardizer.apply_y(np.asarray(ys, dtype=float)))
        ys_std = np.broadcast_to(ys_std, (len(rows), ys_std.shape[-1]))
        if ygrad:
            g, trace = self._score(rows.proj, ys_std)
            _, d_ys = self._score_grads(rows, trace, np.ones_like(g), with_params=False)
            return g, d_ys / self.standardizer.std_y
        per_pass = max(1, PASS_CANDIDATES // ys_std.shape[1])
        g = np.empty(ys_std.shape)
        for start in range(0, len(rows), per_pass):
            part = slice(start, start + per_pass)
            g[part] = self._score(rows.proj[part], ys_std[part])[0]
        return g

    def _score(self, proj, ys_std):
        """Energies of the (n, k) standardized outputs ``ys_std`` for the
        :meth:`project` rows whose first-layer halves are ``proj``; returns
        ``(g, trace)`` where ``trace`` feeds :meth:`_score_grads`."""
        layer0 = self.predictor_net.layers[0]
        z0 = ys_std[:, :, None] * layer0.weights[:, -1]
        z0 += proj[:, None, :]
        h0 = activate(layer0.activation, z0.reshape(-1, z0.shape[-1]))
        out, cache = self._tail.forward(h0)
        return out.reshape(ys_std.shape), (ys_std, h0, cache)

    def _score_grads(self, rows, trace, d_g, with_params=True):
        """Gradients of ``sum(g * d_g)`` for the energies ``g`` of
        :meth:`_score`: ``(param_grads, d_ys)`` with the parameter gradients
        ordered like :meth:`parameters` (None without ``with_params``) and
        ``d_ys`` with respect to the standardized outputs."""
        ys_std, h0, cache = trace
        layer0 = self.predictor_net.layers[0]
        tail_grads, d_h0 = self._tail.backward(cache, d_g.reshape(-1, 1), with_params)
        dz0 = d_h0 * activation_grad(layer0.activation, h0)
        d_ys = (dz0 @ layer0.weights[:, -1]).reshape(ys_std.shape)
        if not with_params:
            return None, d_ys
        # every candidate of a row shares feat: sum over candidates first
        dz_rows = dz0.reshape(*ys_std.shape, -1).sum(axis=1)
        d_w0 = np.empty_like(layer0.weights)
        d_w0[:, :-1] = dz_rows.T @ rows.feats
        d_w0[:, -1] = ys_std.reshape(-1) @ dz0
        feat_grads, _ = self.feature_net.backward(rows.feat_cache,
                                                  dz_rows @ layer0.weights[:, :-1])
        return feat_grads + [d_w0, dz_rows.sum(axis=0)] + tail_grads, d_ys

    def energy(self, x, y):
        """Scalar energy of one raw-unit (regressor, output) pair."""
        x = self._check_x(x)
        if not np.isfinite(y):
            raise ValueError("output value must be finite")
        return float(self.energies(x[None, :], [y])[0, 0])

    def energy_grid(self, x, ys):
        """Energies over many candidate outputs for one regressor."""
        return self.energies(self._check_x(x)[None, :], np.ravel(ys))[0]

    def energy_and_ygrad(self, x, y):
        """Energy and its derivative with respect to the raw output value."""
        g, d_y = self.energies(self._check_x(x)[None, :], [y], ygrad=True)
        return float(g[0, 0]), float(d_y[0, 0])

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


def build_ebnarx(window_cfg, width=100, seed=0, standardizer=None, nce=None):
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


def sample_noise(y_center, cfg, rng):
    """Draw noise outputs around one or many centers.

    Returns ``(samples, log_q)``: for a scalar center both have shape
    ``(n_noise,)``, for a vector of centers ``(len(centers), n_noise)``.
    ``log_q`` is the exact mixture log density at each sample.
    """
    centers = np.atleast_1d(np.asarray(y_center, dtype=float))
    sigmas = np.asarray(cfg.sigmas)
    comp = rng.integers(0, sigmas.size, size=(centers.size, cfg.n_noise))
    z = rng.standard_normal((centers.size, cfg.n_noise))
    samples = centers[:, None] + sigmas[comp] * z
    log_q = mixture_log_pdf(samples, centers[:, None], sigmas)
    if np.isscalar(y_center) or np.ndim(y_center) == 0:
        return samples[0], log_q[0]
    return samples, log_q


def nce_loss_value(energies, log_q):
    """Noise-contrastive loss from precomputed energies and noise log densities.

    Both arguments have shape (batch, 1 + n_noise) with the observed output in
    column 0.  The loss is the mean cross-entropy of picking column 0 among
    the candidates, with logits ``energy - log_q``; it is invariant to adding
    a constant to all energies and bounded below by zero.
    """
    logits = np.asarray(energies, dtype=float) - np.asarray(log_q, dtype=float)
    m = logits.max(axis=1, keepdims=True)
    log_norm = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return float(-(logits[:, 0] - log_norm).mean())


def nce_loss(model, x_batch, y_batch, cfg, rng, compute_grads=True):
    """Noise-contrastive loss of a raw-unit minibatch, with exact gradients.

    For every target, ``cfg.n_noise`` fresh noise samples are drawn around the
    standardized target.  Gradients are exact for the sampled noise set and
    ordered like ``model.parameters()``.

    Returns ``(loss, grads)``; ``grads`` is None when ``compute_grads`` is
    false (cheap held-out evaluation).
    """
    x_batch = np.atleast_2d(np.asarray(x_batch, dtype=float))
    y_batch = np.atleast_1d(np.asarray(y_batch, dtype=float))
    n = len(y_batch)
    if n == 0:
        raise ValueError("batch must be non-empty")
    if x_batch.shape != (n, model.input_dim):
        raise ValueError(f"x batch must have shape ({n}, {model.input_dim})")

    rows = model.project(x_batch)
    ys = model.standardizer.apply_y(y_batch)
    noise, noise_log_q = sample_noise(ys, cfg, rng)
    candidates = np.concatenate([ys[:, None], noise], axis=1)
    sigmas = np.asarray(cfg.sigmas)
    log_q_center = float(logsumexp(normal_log_pdf(0.0, 0.0, sigmas)) - np.log(sigmas.size))
    log_q = np.concatenate([np.full((n, 1), log_q_center), noise_log_q], axis=1)

    energies, trace = model._score(rows.proj, candidates)
    logits = energies - log_q
    finite_rows = np.isfinite(logits).all(axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0])
        raise TrainingError(f"non-finite NCE logits for batch element {bad}")
    m = logits.max(axis=1, keepdims=True)
    exps = np.exp(logits - m)
    norm = exps.sum(axis=1, keepdims=True)
    loss = float(-(logits[:, 0] - m[:, 0] - np.log(norm[:, 0])).mean())
    if not compute_grads:
        return loss, None

    # d loss / d energy = (softmax - onehot_0) / batch
    resid = exps / norm
    resid[:, 0] -= 1.0
    grads, _ = model._score_grads(rows, trace, resid / n)
    return loss, grads


def train_ebnarx(dataset, nce=None, tc=None, width=100, seed=0):
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
    params = model.parameters()
    state = init_adam(params, learning_rate=tc.learning_rate)

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

    log = fit_minibatch(
        params, state, len(train_idx), batch_fn, val_fn,
        batch_size=tc.batch_size, max_epochs=tc.max_epochs,
        patience=tc.patience, lr_decay=tc.lr_decay, rng=shuffle_rng,
    )
    return model, log


def log_likelihood(model, dataset, grid):
    """Mean log predictive density over a dataset, normalized by quadrature.

    The normalizing integral is evaluated on the raw-unit grid with
    log-sum-exp-stabilized trapezoidal quadrature, so the result is the mean
    log density in raw output units.

    Raises GridTooNarrowError when a target lies outside the grid, whose
    energy there would be extrapolated, or when any row leaves more than 1e-3
    density mass at a grid boundary.
    """
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
        log_z = log_partitions(model.energies(rows, grid.ys), grid, chunk.start)
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
    if doc.get("kind") != "ebnarx":
        raise ValueError(f"expected an ebnarx model document, got kind {doc.get('kind')!r}")
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh)
