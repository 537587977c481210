"""Least-squares fully-connected baseline with an implicit Gaussian density.

The network predicts the conditional mean; the predictive distribution is a
Gaussian around it whose variance is the sample variance of the training
residuals, constant across regressors.  Optimizer and stopping mirror the
energy model so comparisons are fair.
"""

from dataclasses import dataclass

import numpy as np

from .data import Standardizer, WindowConfig
from .ebm import TrainConfig, document_kind, document_part, training_split
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
    """Point-prediction network plus a constant residual variance (raw units).

    Implements the batched energy interface of :mod:`ebnarx.inference` with
    the implied Gaussian's log density as the energy,
    ``g(y, x) = log N(y; mean(x), residual_variance)``.
    """

    net: object
    standardizer: Standardizer
    residual_variance: float
    window_cfg: WindowConfig

    def __post_init__(self):
        if not 0.0 < self.residual_variance < np.inf:
            raise ValueError(f"residual_variance must be positive and finite, "
                             f"got {self.residual_variance!r}")
        self.standardizer.check_window(self.window_cfg)

    def project(self, x_rows):
        """Raw-unit predicted means of (n, input_dim) regressors, shape (n, 1)."""
        x = np.asarray(x_rows, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"regressors must have shape (n, {self.net.input_dim}), got {x.shape}")
        mean, _ = fcn_predict(self, x)
        return mean[:, None]

    def energies(self, means, ys, ygrad=False):
        """Gaussian log densities of raw-unit candidate outputs around the
        :meth:`project` means; ``ys`` is a (k,) vector or an (n, k) matrix.
        With ``ygrad``, also returns their derivatives in ``y``."""
        ys = np.asarray(ys, dtype=float)
        g = normal_log_pdf(ys, means, np.sqrt(self.residual_variance))
        if not ygrad:
            return g
        return g, (means - ys) / self.residual_variance

    def to_dict(self):
        """JSON-ready form tagged ``"kind": "fcn"``; see :func:`model_from_dict`."""
        return {
            "kind": "fcn",
            "net": network_to_dict(self.net),
            "standardizer": self.standardizer.to_dict(),
            "residual_variance": self.residual_variance,
            "window": {"y_lags": self.window_cfg.y_lags, "u_lags": self.window_cfg.u_lags},
        }


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
    std, s_net, shuffle_rng, train_idx, val_idx = training_split(dataset, tc, seed)
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
        params, state, len(train_idx), batch_fn, val_fn,
        batch_size=tc.batch_size, max_epochs=tc.max_epochs,
        patience=tc.patience, lr_decay=tc.lr_decay, rng=shuffle_rng,
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


def log_likelihood(model, dataset):
    """Mean log density of the targets under the implied Gaussian."""
    mean, var = fcn_predict(model, dataset.x)
    return float(normal_log_pdf(dataset.y, mean, np.sqrt(var)).mean())


def model_from_dict(doc):
    kind = document_kind(doc)
    if kind != "fcn":
        raise ValueError(f"expected an fcn model document, got kind {kind!r}")
    return FcnModel(
        document_part(doc, "fcn", "net", network_from_dict),
        document_part(doc, "fcn", "standardizer", Standardizer.from_dict),
        document_part(doc, "fcn", "residual_variance", float),
        document_part(doc, "fcn", "window", lambda d: WindowConfig(d["y_lags"], d["u_lags"])),
    )

