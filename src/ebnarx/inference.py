"""Predictive densities, MAP point predictions and highest-density regions.

Works with any model exposing the batched energy interface, in raw output
units: ``project(x_rows)`` prepares an (n, input_dim) batch of regressors
once and returns a plain (n, d) array, and ``energies(rows, ys,
ygrad=False)`` scores candidate outputs against that array, with ``ys`` one
(k,) vector shared by all rows or an (n, k) matrix.  It returns the (n, k)
energies; with ``ygrad``, ``(g, slope)``, with ``slope`` their (n, k)
derivatives in ``y``.  These routines only read the arrays a model
returns, which may be shared or read-only.  Both model families
implement it: the energy model (``EbNarxModel``) with its networks, its
``project`` array the (n, width) regressor half of the predictor's first
layer, and the least-squares baseline (``FcnModel``) with the log density
of its implied Gaussian, its ``project`` array the (n, 1) predicted means.
Closed-form stand-ins implement the same two methods, which keeps these
routines testable.

Rows are handled in chunks of at most 131072 grid candidates, which bounds
the (rows x grid) energy matrix, the densities and the batch of one MAP
ascent.  Each chunk's grid energies come from :func:`grid_energies`; they
give both the densities and the starting points of a MAP ascent that runs
on all rows of the chunk at once.  :func:`grid_energies` scores the rows
at 257 Chebyshev nodes on the grid's span, and at 513 nested ones while
some row's Chebyshev coefficients have not decayed below ``TAIL_TOL``;
one product with a barycentric matrix, cached per level, then maps the
node energies onto the grid.  A chunk that has not converged at 513 nodes,
and every chunk of a grid of at most 514 points, takes the direct pass
over every grid point instead.  The energy model scores nodes and grid
points alike in tiles of ``ebm.TILE`` candidates, each from the first layer to
the energy.  The ascent takes safeguarded Newton steps on the energy's
slope, with the grid's second difference as the first curvature, and each
row stops once its next step's predicted gain rounds away
(:func:`_ascend`).  Each candidate is one y-gradient pass over the chunk's
rows, one candidate a row, on the calling thread: for the energy model,
one forward and one backward pass of the predictor below its first layer.
README gives, per model, how many rows take each level, and the measured
costs of both passes and of the ascent.  Densities are normalized by
trapezoidal quadrature with log-sum-exp stabilization.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .mathutil import is_finite_real, is_integer, logsumexp, trapezoid_weights

# largest density mass a boundary grid cell may hold before the grid counts
# as clipping the distribution
BOUNDARY_MASS = 1e-3

# the default probability levels of the highest-density intervals
LEVELS = (0.65, 0.95, 0.99)

# the spectral grid pass (:func:`grid_energies`): the Chebyshev nodes of
# its first and last levels, the last coefficients of each level it reads,
# and the bound every row's last coefficients must fall below, in energy
# units (nats).  The first level is not a coarser one that some trained
# models pass and others do not: a 129-node start made the nodes a row
# scores depend on the model (129 or 257).
NODES_START = 257
NODES_MAX = 513
TAIL_COEFFS = 8
TAIL_TOL = 1e-12


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

    @cached_property
    def ys(self):
        """The grid points, built once and read-only, since every density
        on this grid shares them."""
        ys = np.linspace(self.lo, self.hi, self.n_points)
        ys.flags.writeable = False
        return ys

    def row_chunks(self, n_rows):
        """Slices of consecutive rows with at most 131072 grid candidates,
        which bounds the (rows x grid) energy matrix, the densities and one
        row-batched MAP ascent.  A chunk's grid energies
        (:func:`grid_energies`) score 257 Chebyshev nodes a row on smooth
        models, 513 where 257 have not converged, or every grid point
        where it falls back; the energy model's
        working set inside either pass is bounded separately, by its tiles
        of ``ebm.TILE`` candidates."""
        size = max(1, 131072 // self.n_points)
        return [slice(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


def default_grid(standardizer, n_points=GridSpec.n_points):
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


def grid_energies(model, rows, grid):
    """The (n, n_points) energies of ``grid.ys`` for the ``project`` array
    ``rows``, from a Chebyshev interpolant where it has converged.

    The energies are scored at ``NODES_START`` second-kind Chebyshev points
    on ``[grid.lo, grid.hi]``, by the model's own ``energies`` pass.  While
    any row's last ``TAIL_COEFFS`` Chebyshev coefficients are not all below
    ``TAIL_TOL``, the nodes double through nested points (257, 513), so
    that only the new ones are scored.  Once every row's tail is below it,
    one matrix product maps the node energies onto the grid by the
    barycentric formula (:func:`_interpolate`).  A level is scored only
    while it passes neither ``NODES_MAX`` nodes nor half the grid's points:
    a grid of at most ``2 * NODES_START`` points, any chunk whose next
    level would not be scored, and any chunk with a non-finite node energy
    take the direct ``energies(rows, grid.ys)`` pass and its bits instead:
    sharp models, such as bimodal noise, fall back."""
    if 2 * NODES_START >= grid.n_points:
        return model.energies(rows, grid.ys)
    g = model.energies(rows, _node_ys(grid, _cheb_points(NODES_START)))
    while np.isfinite(g).all():
        if np.all(_coefficient_tails(g) <= TAIL_TOL):
            return _interpolate(g, grid.n_points)
        m = 2 * g.shape[1] - 1
        if m > NODES_MAX or 2 * m >= grid.n_points:
            break
        g = _refine(g, lambda x: model.energies(rows, _node_ys(grid, x)))
    return model.energies(rows, grid.ys)


def _cheb_points(m):
    """The m second-kind Chebyshev points on [-1, 1], ascending, as sines:
    odd in the midpoint, with the points of m at the even indices of those
    of 2m - 1, bit for bit."""
    return np.sin(np.pi * (2 * np.arange(m) - (m - 1)) / (2 * (m - 1)))


def _node_ys(grid, x):
    """Raw-unit outputs of the points ``x`` of [-1, 1] on the grid's span."""
    return 0.5 * (grid.lo + grid.hi) + 0.5 * (grid.hi - grid.lo) * x


def _refine(g, values):
    """The energies at the 2m - 1 nested nodes that follow the m of the
    (n, m) node energies ``g``: ``g`` at the even indices, and the (n, m - 1)
    ``values(x)`` of the new points ``x`` at the odd ones."""
    m = 2 * g.shape[1] - 1
    finer = np.empty((len(g), m))
    finer[:, ::2] = g
    finer[:, 1::2] = values(_cheb_points(m)[1::2])
    return finer


def _coefficient_tails(g):
    """Largest magnitude of the last ``TAIL_COEFFS`` Chebyshev coefficients
    of each row's interpolant through the finite (n, m) node energies
    ``g``: the discrete cosine sums of the points, whose ends, and the last
    coefficient, are halved."""
    m = g.shape[1]
    return np.abs(g @ _tail_basis(m).T).max(axis=1) * (2.0 / (m - 1))


# one basis per node level, 257 and 513
@lru_cache(maxsize=2)
def _tail_basis(m):
    """The (TAIL_COEFFS, m) cosine sums of :func:`_coefficient_tails` at the
    m second-kind Chebyshev points, read-only."""
    k = np.arange(m - TAIL_COEFFS, m)
    # k * j modulo a period of the cosine keeps its arguments small
    basis = np.cos(np.pi / (m - 1) * (np.outer(k, np.arange(m)) % (2 * (m - 1))))
    basis[:, [0, -1]] *= 0.5
    basis[-1] *= 0.5
    basis.flags.writeable = False
    return basis


def _interpolate(g, n_points):
    """The (n, m) node energies ``g`` on the n_points-point grid.  The
    uniform points and the Chebyshev points are both mirror-symmetric about
    the midpoint, so the barycentric matrix of the grid's first half maps
    ``g`` onto the first half and ``g`` reversed onto the second, reversed.
    Both go through one BLAS product: ``[g; g[:, ::-1]]``, stacked into one
    contiguous (2n, m) array, times the (m, ceil(n_points / 2)) matrix,
    which is read once.  (``g[:, ::-1]`` on its own has a negative stride,
    and numpy multiplies such an operand in its own loop, not in BLAS.)"""
    half = _half_matrix(n_points, g.shape[1])
    n, mid = len(g), half.shape[1]
    both = np.empty((2 * n, g.shape[1]))
    both[:n] = g
    both[n:] = g[:, ::-1]
    prod = both @ half
    out = np.empty((n, n_points))
    out[:, :mid] = prod[:n]
    out[:, mid:] = prod[n:, :n_points - mid][:, ::-1]
    return out


# one matrix per node level, 257 and 513, of the grid in use
@lru_cache(maxsize=2)
def _half_matrix(n_points, m):
    """The C-contiguous, read-only (m, ceil(n_points / 2)) matrix that maps
    a row of values at the m second-kind Chebyshev points, multiplied from
    the left, to their interpolant at the first half of n_points uniform
    points on [-1, 1], by the barycentric formula (Berrut & Trefethen
    2004)."""
    t = np.linspace(-1.0, 1.0, n_points)[:(n_points + 1) // 2]
    x = _cheb_points(m)
    w = np.where(np.arange(m) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    b = t[:, None] - x
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, b, out=b)
        sums = b.sum(axis=1, keepdims=True)
        b /= sums
    # only a point on a node has an infinite sum: it takes the node's value
    on = np.flatnonzero(~np.isfinite(sums[:, 0]))
    b[on] = t[on, None] == x
    b = np.ascontiguousarray(b.T)
    b.flags.writeable = False
    return b


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
    return _densities(grid_energies(model, model.project([x]), grid), grid)[0]


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
    candidates; the state is (n, 1) arrays, rebuilt by ``np.where`` each
    pass, and no array the model returns is written."""
    h, eps = grid.h, np.finfo(float).eps
    best = np.argmax(g, axis=1)
    y = grid.ys[best, None]
    mid = np.minimum(np.maximum(best, 1), g.shape[1] - 2)
    left, centre, right = g[np.arange(len(g)), mid + [[-1], [0], [1]]]
    bend = ((2.0 * centre - left - right) / (h * h))[:, None]
    g_y, slope = model.energies(rows, y, ygrad=True)
    scale = np.ones_like(y)
    for i in range(ascent.iters):
        newton = np.abs(slope) < h * bend
        step = np.where(newton, slope / np.where(newton, bend, 1.0), np.sign(slope) * h)
        cand = np.minimum(np.maximum(y + step * scale, grid.lo), grid.hi)
        if i:
            moving = np.abs(slope * (cand - y)) > eps * np.maximum(1.0, np.abs(g_y))
            if not moving.any():
                break
            cand = np.where(moving, cand, y)
        g_cand, slope_cand = model.energies(rows, cand, ygrad=True)
        # a row whose candidate is its point has no secant: 0 / 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = (slope - slope_cand) / (cand - y)
        bend = np.where(np.isfinite(secant) & (secant > 0), secant, bend)
        better = g_cand > g_y
        y = np.where(better, cand, y)
        g_y = np.where(better, g_cand, g_y)
        slope = np.where(better, slope_cand, slope)
        scale = np.where(better, 1.0, 0.5 * scale)
    return y[:, 0]


def map_estimate(model, x, grid, ascent=None):
    """Most likely output value: grid argmax refined by Newton steps.

    The refined value never has lower energy than the best grid point and is
    clamped to the grid bounds.
    """
    rows = model.project([x])
    g = grid_energies(model, rows, grid)
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


def predictions(model, x_rows, grid, ascent=None, levels=LEVELS):
    """Yield the full prediction of every regressor row in order.

    Per chunk of rows, one set of grid energies (:func:`grid_energies`)
    gives both the densities and the starting points of the MAP ascent.
    """
    ascent = ascent or AscentConfig()
    for chunk in grid.row_chunks(len(x_rows)):
        rows = model.project(x_rows[chunk])
        g = grid_energies(model, rows, grid)
        dens = _densities(g, grid, chunk.start)
        for map_point, dens_row in zip(_ascend(model, rows, grid, g, ascent), dens):
            yield Prediction(float(map_point), hdr_intervals(dens_row, levels), dens_row)


def predict(model, x, grid, ascent=None, levels=LEVELS):
    """Full prediction for one regressor: density, MAP point and intervals."""
    return next(predictions(model, [x], grid, ascent, levels))


def prediction_to_dict(pred):
    """JSON-ready form: ``{"map": ..., "intervals": {"0.65": [[a, b], ...]}}``.
    Each level is keyed by ``repr(float(level))``, which ``float`` reads back
    as the level itself, so distinct levels never share a key."""
    return {
        "map": pred.map,
        "intervals": {
            repr(float(level)): [[a, b] for a, b in ivals]
            for level, ivals in pred.intervals.items()
        },
    }


def density_to_csv(grid, path):
    """Export one density as CSV with columns y,density."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,density\n")
        for y_val, d_val in zip(grid.ys, grid.density):
            fh.write(f"{float(y_val)!r},{float(d_val)!r}\n")
