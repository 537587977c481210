"""Predictive densities, MAP point predictions and highest-density regions.

Works with any model exposing the batched energy interface, in raw output
units: ``project(x_rows)`` prepares a batch of regressors once, and
``energies(rows, ys, ygrad=False)`` scores candidate outputs against the
prepared rows, with ``ys`` one (k,) vector shared by all rows or an (n, k)
matrix.  It returns the (n, k) energies; with ``ygrad``, ``(g, slope)``,
with ``slope`` their (n, k) derivatives in ``y``.  The MAP ascent updates
the arrays it receives in place, so they must be the caller's to change.
Both model families implement it: the energy model (``EbNarxModel``) with
its networks, the least-squares baseline (``FcnModel``) with the log
density of its implied Gaussian.  Closed-form stand-ins implement the same
two methods, which keeps these routines testable.

Rows are handled in chunks of at most 131072 grid candidates, which bounds
the (rows x grid) energy matrix, the densities and the batch of one MAP
ascent.  Each chunk takes one grid pass; its energies give both the
densities and the starting points of a MAP ascent that runs on all rows of
the chunk at once.  The energy model runs that grid pass in tiles of
``ebm.TILE`` candidates, each from the first layer to the energy.  The
ascent takes safeguarded Newton steps on the energy's slope, with the
grid's second difference as the first curvature, and each row stops once
its next step's predicted gain rounds away (:func:`_ascend`).  Each
candidate is one y-gradient pass over the chunk's rows, one candidate a
row, on the calling thread: for the energy model, one forward and one
backward pass of the predictor below its first layer.  On the benchmark's
Chen model (2/2 lags, width 100, 2 epochs, 128 validation rows) a row
takes a median of 3 passes, its start included, on the default 2048-point
grid (at most 4) and 4 on a 64-point grid.  A one-row ascent then takes
about 0.3 ms, against about 3.3 ms for the row's grid pass, and a 64-row
ascent about 1.1-1.6 ms (2-vCPU x86-64 host shared with other work,
OpenBLAS 0.3.31 on one thread, numpy 2.4.6).
Densities are normalized by trapezoidal quadrature with log-sum-exp
stabilization.
"""

from dataclasses import dataclass

import numpy as np

from .mathutil import is_finite_real, is_integer, logsumexp, trapezoid_weights

# largest density mass a boundary grid cell may hold before the grid counts
# as clipping the distribution
BOUNDARY_MASS = 1e-3


class GridTooNarrowError(ValueError):
    """The grid leaves too much density mass at its boundary."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid over raw output values."""

    lo: float
    hi: float
    n_points: int = 2048

    def __post_init__(self):
        for name, value in (("lo", self.lo), ("hi", self.hi)):
            if not is_finite_real(value):
                raise ValueError(f"grid {name} must be a finite number, got {value!r}")
        if not self.lo < self.hi:
            raise ValueError("grid needs lo < hi")
        if not is_integer(self.n_points):
            raise ValueError(f"grid n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 16:
            raise ValueError("grid needs at least 16 points")

    @property
    def h(self):
        return (self.hi - self.lo) / (self.n_points - 1)

    @property
    def ys(self):
        return np.linspace(self.lo, self.hi, self.n_points)

    def row_chunks(self, n_rows):
        """Slices of consecutive rows with at most 131072 grid candidates,
        which bounds the (rows x grid) energy matrix, the densities and one
        row-batched MAP ascent.  The energy model's working set inside a
        chunk's grid pass is bounded separately, by its tiles of
        ``ebm.TILE`` candidates."""
        size = max(1, 131072 // self.n_points)
        return [slice(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


def default_grid(standardizer, n_points=2048):
    """Grid spanning the training target range padded by three target stds."""
    pad = 3.0 * standardizer.std_y
    return GridSpec(standardizer.y_min - pad, standardizer.y_max + pad, n_points)


@dataclass
class DensityGrid:
    """Normalized predictive density over a grid, in raw output units."""

    ys: np.ndarray
    density: np.ndarray
    log_partition: float


def log_partitions(g, grid, first_row=0):
    """Log normalizers of the rows of (rows x grid) log energies ``g``.

    Raises
    ------
    GridTooNarrowError
        If a row puts more than 1e-3 probability mass in a boundary cell,
        meaning the grid clips the distribution; the message names the first
        such row, counting from ``first_row``.
    """
    log_z = logsumexp(g + np.log(trapezoid_weights(grid.ys)), axis=1)
    edge = np.maximum(g[:, 0], g[:, -1]) - log_z + np.log(grid.h)
    bad = np.flatnonzero(edge > np.log(BOUNDARY_MASS))
    if bad.size:
        raise GridTooNarrowError(
            f"density mass at the boundary of [{grid.lo}, {grid.hi}] exceeds "
            f"{BOUNDARY_MASS:g} for row {first_row + int(bad[0])}; widen the grid"
        )
    return log_z


def _densities(g, grid, first_row=0):
    log_z = log_partitions(g, grid, first_row)
    ys = grid.ys
    return [DensityGrid(ys, dens, float(lz)) for dens, lz in zip(np.exp(g - log_z[:, None]), log_z)]


def density(model, x, grid):
    """Normalized predictive density of the output given one regressor.

    Raises
    ------
    GridTooNarrowError
        If more than 1e-3 probability mass sits in a boundary cell, meaning
        the grid clips the distribution.
    """
    return _densities(model.energies(model.project([x]), grid.ys), grid)[0]


@dataclass(frozen=True)
class AscentConfig:
    """MAP refinement: ``iters`` caps the candidates each row evaluates.
    A row stops earlier, once its next step's predicted energy gain is
    below float64 rounding (see :func:`_ascend`)."""

    iters: int = 50

    def __post_init__(self):
        if not is_integer(self.iters):
            raise ValueError(f"iters must be an integer, got {self.iters!r}")
        if self.iters < 0:
            raise ValueError("iters must be non-negative")


def _ascend(model, rows, grid, g, ascent):
    """Grid argmax of every row of the grid energies ``g``, refined by
    safeguarded Newton steps on the energy's slope, on all rows at once.

    A row's step is ``slope / bend``, where ``bend`` is minus the energy's
    curvature: at first the second difference of ``g`` at the argmax
    (one-sided at the grid's boundary), then the secant of the slopes at
    the row's last two points, wherever that is finite and positive.  Where
    the bend is not positive, or the Newton step is longer than the grid
    spacing h, the step is h uphill.  The step is multiplied by the row's
    scale, which halves after a refused candidate and resets to 1 after an
    accepted one, and the candidate is clamped to the grid.  A row takes a
    candidate only when it raises its energy.  After its first candidate,
    a row stops once the predicted gain of its next move, ``|slope * move|``,
    is at most ``eps * max(1, |energy|)`` (a move that rounds away included);
    a stopped row's candidate is its point, so the batch keeps its shape,
    and the loop ends once every row has stopped or after ``ascent.iters``
    candidates.  Each candidate is one y-gradient pass over the rows' (n, 1)
    candidates; the state is held in (n, 1) arrays updated in place."""
    h, eps = grid.h, np.finfo(float).eps
    best = np.argmax(g, axis=1)
    y = grid.ys[best, None]
    mid = np.minimum(np.maximum(best, 1), g.shape[1] - 2)
    left, centre, right = g[np.arange(len(g)), mid + [[-1], [0], [1]]]
    bend = ((2.0 * centre - left - right) / (h * h))[:, None]
    g_y, slope = model.energies(rows, y, ygrad=True)
    scale = np.ones_like(y)
    step, cand = np.empty_like(y), np.empty_like(y)
    for i in range(ascent.iters):
        np.multiply(np.sign(slope), h, out=step)
        np.divide(slope, bend, out=step, where=np.abs(slope) < h * bend)
        step *= scale
        np.add(y, step, out=cand)
        np.maximum(cand, grid.lo, out=cand)
        np.minimum(cand, grid.hi, out=cand)
        if i:
            moving = np.abs(slope * (cand - y)) > eps * np.maximum(1.0, np.abs(g_y))
            if not moving.any():
                break
            np.copyto(cand, y, where=~moving)
        g_cand, slope_cand = model.energies(rows, cand, ygrad=True)
        # a row whose candidate is its point has no secant: 0 / 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = (slope - slope_cand) / (cand - y)
        np.copyto(bend, secant, where=np.isfinite(secant) & (secant > 0))
        better = g_cand > g_y
        np.copyto(y, cand, where=better)
        np.copyto(g_y, g_cand, where=better)
        np.copyto(slope, slope_cand, where=better)
        scale = np.where(better, 1.0, 0.5 * scale)
    return y[:, 0]


def map_estimate(model, x, grid, ascent=None):
    """Most likely output value: grid argmax refined by Newton steps.

    The refined value never has lower energy than the best grid point and is
    clamped to the grid bounds.
    """
    rows = model.project([x])
    g = model.energies(rows, grid.ys)
    return float(_ascend(model, rows, grid, g, ascent or AscentConfig())[0])


def check_levels(levels):
    """Raises ValueError unless every probability level is a finite real
    number in (0, 1); bools and strings are rejected."""
    if not all(is_finite_real(level) and 0.0 < level < 1.0 for level in levels):
        raise ValueError(f"levels must be finite numbers in (0, 1), got {levels!r}")


def hdr_intervals(grid, levels):
    """Highest-density regions of a DensityGrid for each probability level.

    Grid cells are ranked by density and accumulated until each level's mass
    is reached, then merged into maximal contiguous intervals; multimodal
    densities yield several disjoint intervals.  Regions of higher levels
    contain those of lower levels.

    Returns a dict mapping level -> list of (lo, hi) tuples; raises
    ValueError for levels that :func:`check_levels` rejects.
    """
    check_levels(levels)
    dens = grid.density
    mass = dens * trapezoid_weights(grid.ys)
    total = mass.sum()
    order = np.argsort(-dens, kind="stable")
    cum = np.cumsum(mass[order])
    out = {}
    for level in levels:
        k = int(np.searchsorted(cum, level * total))
        k = min(k, len(cum) - 1)
        selected = np.zeros(len(dens), dtype=bool)
        selected[order[:k + 1]] = True
        out[level] = _runs_to_intervals(selected, grid.ys)
    return out


def _runs_to_intervals(selected, ys):
    """(first, last) grid values of every maximal run of true flags."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], selected, [False]))))
    return [(float(ys[a]), float(ys[b - 1])) for a, b in zip(edges[::2], edges[1::2])]


@dataclass
class Prediction:
    """MAP point, highest-density intervals per level, and the full density."""

    map: float
    intervals: dict
    grid: DensityGrid


def predictions(model, x_rows, grid, ascent=None, levels=(0.65, 0.95, 0.99)):
    """Yield the full prediction of every regressor row in order.

    Per chunk of rows, one grid pass gives both the densities and the
    starting points of the MAP ascent.
    """
    ascent = ascent or AscentConfig()
    for chunk in grid.row_chunks(len(x_rows)):
        rows = model.project(x_rows[chunk])
        g = model.energies(rows, grid.ys)
        dens = _densities(g, grid, chunk.start)
        for map_point, dens_row in zip(_ascend(model, rows, grid, g, ascent), dens):
            yield Prediction(float(map_point), hdr_intervals(dens_row, levels), dens_row)


def predict(model, x, grid, ascent=None, levels=(0.65, 0.95, 0.99)):
    """Full prediction for one regressor: density, MAP point and intervals."""
    return next(predictions(model, [x], grid, ascent, levels))


def prediction_to_dict(pred):
    """JSON-ready form: ``{"map": ..., "intervals": {"0.65": [[a, b], ...]}}``."""
    return {
        "map": pred.map,
        "intervals": {
            f"{level:g}": [[a, b] for a, b in ivals]
            for level, ivals in pred.intervals.items()
        },
    }


def density_to_csv(grid, path):
    """Export one density as CSV with columns y,density."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,density\n")
        for y_val, d_val in zip(grid.ys, grid.density):
            fh.write(f"{float(y_val)!r},{float(d_val)!r}\n")
