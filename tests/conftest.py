"""Shared test helpers: finite-difference oracles, grid metrics, stub models."""

import numpy as np
import pytest

from ebnarx.data import WindowConfig, make_windows, simulate_ar
from ebnarx.ebm import NceConfig, TrainConfig, train_ebnarx


@pytest.fixture(scope="session")
def ar_gaussian_model():
    """Small model trained on first-order Gaussian AR data, shared by modules.

    Returns (model, log, dataset).
    """
    dataset = make_windows(simulate_ar("gaussian", 1000, seed=11), WindowConfig(1, 0))
    nce = NceConfig(32, (0.1, 0.8), seed=0)
    tc = TrainConfig(batch_size=64, max_epochs=60, patience=10)
    model, log = train_ebnarx(dataset, nce, tc, width=32, seed=0)
    return model, log, dataset


def max_param_grad_rel_err(net, x, out_grad, eps=1e-5):
    """Worst relative error between backward() and central finite differences,
    over every parameter entry and every input entry."""
    out_grad = np.asarray(out_grad, dtype=float)
    _, cache = net.forward(x)
    grads, input_grad = net.backward(cache, out_grad)

    def directional(xv):
        out, _ = net.forward(xv)
        return float(np.sum(out * out_grad))

    worst = 0.0
    for pi, p in enumerate(net.parameters()):
        flat = p.ravel()
        gflat = grads[pi].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = directional(x)
            flat[k] = orig - eps
            lo = directional(x)
            flat[k] = orig
            fd = (hi - lo) / (2.0 * eps)
            worst = max(worst, _rel(fd, gflat[k]))
    xflat = np.asarray(x, dtype=float).ravel()
    iflat = np.asarray(input_grad).ravel()
    for k in range(xflat.size):
        bumped = xflat.copy()
        bumped[k] += eps
        hi = directional(bumped.reshape(np.shape(x)))
        bumped[k] -= 2.0 * eps
        lo = directional(bumped.reshape(np.shape(x)))
        fd = (hi - lo) / (2.0 * eps)
        worst = max(worst, _rel(fd, iflat[k]))
    return worst


def _rel(a, b):
    return abs(a - b) / (max(abs(a), abs(b)) + 1e-8)


def tv_on_grid(p, q, ys):
    """Total variation distance between two grid densities."""
    return 0.5 * float(np.trapezoid(np.abs(np.asarray(p) - np.asarray(q)), ys))


def kl_on_grid(p, q, ys):
    """KL(p || q) between two grid densities, clipping zeros."""
    p = np.clip(np.asarray(p, dtype=float), 1e-300, None)
    q = np.clip(np.asarray(q, dtype=float), 1e-300, None)
    return float(np.trapezoid(p * np.log(p / q), ys))


def normalize_pdf_on_grid(pdf_values, ys):
    """Renormalize pointwise density values to integrate to one on the grid."""
    pdf_values = np.asarray(pdf_values, dtype=float)
    return pdf_values / np.trapezoid(pdf_values, ys)


class StubEnergyModel:
    """Closed-form energy stand-in satisfying the inference model interface.

    The energy depends on the output only, so every regressor row scores the
    same; ``grad_fn`` defaults to a central difference of ``fn``."""

    def __init__(self, fn, grad_fn=None):
        self.fn = fn
        self.grad_fn = grad_fn

    def project(self, x_rows):
        return x_rows

    def energies(self, x_rows, ys, ygrad=False):
        ys = np.asarray(ys, dtype=float)
        if ys.ndim == 1:
            ys = np.tile(ys, (len(x_rows), 1))
        g = self.fn(ys)
        if not ygrad:
            return g
        if self.grad_fn is None:
            eps = 1e-7
            slope = (self.fn(ys + eps) - self.fn(ys - eps)) / (2 * eps)
        else:
            slope = self.grad_fn(ys)
        return g, np.broadcast_to(slope, g.shape)
