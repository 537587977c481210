"""Least-squares fully-connected baseline with an implicit Gaussian density.

The network predicts the conditional mean; the predictive distribution is a
Gaussian around it whose variance is the sample variance of the training
residuals, constant across regressors.  Optimizer and stopping mirror the
energy model so comparisons are fair.
"""

import json
from dataclasses import dataclass

import numpy as np

from .data import fit_standardizer, Standardizer, WindowConfig
from .ebm import TrainConfig
from .inference import DensityGrid, Prediction, hdr_intervals, log_partitions
from .mathutil import normal_log_pdf
from .nn import (
    fit_minibatch,
    init_adam,
    init_network,
    network_from_dict,
    network_to_dict,
)


@dataclass
class FcnModel:
    """Point-prediction network plus a constant residual variance (raw units)."""

    net: object
    standardizer: Standardizer
    residual_variance: float
    window_cfg: WindowConfig


def build_fcn(window_cfg, width=100, n_layers=3, activation="relu", seed=0):
    """Dense network with ``n_layers`` affine layers (last one linear)."""
    if n_layers < 2:
        raise ValueError("need at least 2 layers")
    sizes = [window_cfg.dim] + [width] * (n_layers - 1) + [1]
    activations = [activation] * (n_layers - 1) + ["identity"]
    return init_network(sizes, activations, seed=seed)


def train_fcn(dataset, tc=None, width=100, n_layers=3, activation="relu", seed=0):
    """Fit the baseline by minibatch Adam on the mean squared error.

    Same split, schedule and early stopping as the energy model.  The
    residual variance is the population variance of raw-unit residuals over
    the full provided training split, computed after training.

    Returns ``(model, log)``.
    """
    tc = tc or TrainConfig()
    if len(dataset) < tc.batch_size:
        raise ValueError(
            f"dataset has {len(dataset)} rows, need at least batch_size={tc.batch_size}"
        )
    std = fit_standardizer(dataset)
    ss = np.random.SeedSequence(seed)
    s_net, s_shuffle, s_split = ss.spawn(3)
    n_val = max(1, int(round(len(dataset) * tc.val_fraction)))
    n_train = len(dataset) - n_val
    # random held-out rows: a chronological tail of an autocorrelated series
    # is nearly redundant and cannot rank candidate models
    perm = np.random.default_rng(s_split).permutation(len(dataset))
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    xs = std.apply_x(dataset.x)
    ys = std.apply_y(dataset.y)
    x_train, y_train = xs[train_idx], ys[train_idx]
    x_val, y_val = xs[val_idx], ys[val_idx]

    net = build_fcn(dataset.cfg, width=width, n_layers=n_layers, activation=activation,
                    seed=s_net)
    params = net.parameters()
    state = init_adam(params, learning_rate=tc.learning_rate)

    def batch_fn(idx):
        out, cache = net.forward(x_train[idx])
        err = out[:, 0] - y_train[idx]
        loss = float((err * err).mean())
        grads, _ = net.backward(cache, (2.0 * err / len(idx))[:, None])
        return loss, grads

    def val_fn():
        out, _ = net.forward(x_val)
        err = out[:, 0] - y_val
        return float((err * err).mean())

    log = fit_minibatch(
        params, state, n_train, batch_fn, val_fn,
        batch_size=tc.batch_size, max_epochs=tc.max_epochs,
        patience=tc.patience, lr_decay=tc.lr_decay,
        rng=np.random.default_rng(s_shuffle),
    )
    out, _ = net.forward(xs)
    residuals = dataset.y - std.invert_y(out[:, 0])
    model = FcnModel(net, std, float(np.var(residuals)), dataset.cfg)
    return model, log


def fcn_predict(model, x):
    """Predictive mean and (constant) variance in raw units.

    Accepts a single regressor or a batch; returns scalars or arrays
    accordingly.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if x.shape[-1] != model.net.input_dim:
        raise ValueError(f"regressor must have {model.net.input_dim} entries")
    out, _ = model.net.forward(model.standardizer.apply_x(x))
    mean = model.standardizer.invert_y(out[0] if single else out[:, 0])
    if single:
        return float(mean), model.residual_variance
    return mean, np.full(len(mean), model.residual_variance)


def predictive_density(model, x, grid):
    """The implied Gaussian predictive density, normalized on the grid."""
    mean, var = fcn_predict(model, np.asarray(x, dtype=float))
    log_pdf = normal_log_pdf(grid.ys, mean, np.sqrt(var))
    log_z = float(log_partitions(log_pdf[None, :], grid)[0])
    return DensityGrid(grid.ys, np.exp(log_pdf - log_z), log_z)


def prediction(model, x, grid, levels=(0.65, 0.95, 0.99)):
    """Full prediction for one regressor: the predicted mean as the MAP
    point, and the implied Gaussian's density and intervals."""
    dens = predictive_density(model, x, grid)
    mean, _ = fcn_predict(model, x)
    return Prediction(mean, hdr_intervals(dens, levels), dens)


def log_likelihood(model, dataset):
    """Mean log density of the targets under the implied Gaussian."""
    mean, var = fcn_predict(model, dataset.x)
    return float(normal_log_pdf(dataset.y, mean, np.sqrt(var)).mean())


def model_to_dict(model):
    return {
        "kind": "fcn",
        "net": network_to_dict(model.net),
        "standardizer": model.standardizer.to_dict(),
        "residual_variance": model.residual_variance,
        "window": {"y_lags": model.window_cfg.y_lags, "u_lags": model.window_cfg.u_lags},
    }


def model_from_dict(doc):
    if doc.get("kind") != "fcn":
        raise ValueError(f"expected an fcn model document, got kind {doc.get('kind')!r}")
    try:
        return FcnModel(
            network_from_dict(doc["net"]),
            Standardizer.from_dict(doc["standardizer"]),
            float(doc["residual_variance"]),
            WindowConfig(doc["window"]["y_lags"], doc["window"]["u_lags"]),
        )
    except KeyError as err:
        raise ValueError(f"fcn model document is missing key {err.args[0]!r}") from err


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
