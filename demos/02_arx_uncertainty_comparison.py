#!/usr/bin/env python3
"""Uncertainty quality on a linear ARX system with mixture noise.

Data come from y_t = 1.5 y_{t-1} - 0.7 y_{t-2} + u_{t-1} + 0.5 u_{t-2} + e_t
with e_t ~ 0.6 N(0, 0.1^2) + 0.4 N(0, 0.3^2): a sharp core with wide
shoulders.  Both models see the same training windows.  The least-squares
baseline is forced to summarize the noise with a single variance; the energy
model can match the mixture shape.  The comparison metric is total variation
distance to the true conditional density on a grid.
"""

import numpy as np

from ebnarx import (
    NceConfig,
    TrainConfig,
    WindowConfig,
    default_grid,
    density,
    make_windows,
    simulate_arx,
    split_windows,
    train_ebnarx,
    train_fcn,
)
from ebnarx.mathutil import normal_log_pdf

window = WindowConfig(y_lags=2, u_lags=2)
full = make_windows(simulate_arx(1202, seed=0), window)
train_ds, val_ds = split_windows(full, 1000 / len(full))
print(f"{len(train_ds)} training windows, {len(val_ds)} validation windows")

tc = TrainConfig(batch_size=64, max_epochs=150, patience=149)
print("training the energy model...")
eb_model, _ = train_ebnarx(
    train_ds, NceConfig(n_noise=96, sigmas=(0.02, 0.1, 0.8), seed=0), tc,
    width=80, seed=0,
)
print("training the least-squares baseline...")
fcn_model, _ = train_fcn(train_ds, tc, width=80, seed=0)

grid = default_grid(eb_model.standardizer, 4096)


def true_density(x):
    mean = 1.5 * x[0] - 0.7 * x[1] + x[2] + 0.5 * x[3]
    p = (0.6 * np.exp(normal_log_pdf(grid.ys, mean, 0.1))
         + 0.4 * np.exp(normal_log_pdf(grid.ys, mean, 0.3)))
    return p / np.trapezoid(p, grid.ys)


def tv(p, q):
    return 0.5 * float(np.trapezoid(np.abs(p - q), grid.ys))


eb_tvs, fcn_tvs = [], []
for i in range(0, len(val_ds), 4):
    truth = true_density(val_ds.x[i])
    eb_tvs.append(tv(density(eb_model, val_ds.x[i], grid).density, truth))
    fcn_tvs.append(tv(density(fcn_model, val_ds.x[i], grid).density, truth))

print(f"\nmean TV to the true mixture over {len(eb_tvs)} validation points:")
print(f"  energy model    {np.mean(eb_tvs):.3f}")
print(f"  least squares   {np.mean(fcn_tvs):.3f}")
print("\nthe baseline's single implied Gaussian cannot be simultaneously as")
print("sharp as the core and as wide as the shoulders, so its distance stays")
print("higher no matter how well its mean fits")
