"""Density normalization, MAP search and highest-density regions."""

import math

import numpy as np
import pytest

from ebnarx.data import WindowConfig, make_windows, simulate_ar
from ebnarx.ebm import NceConfig, TrainConfig, train_ebnarx
from ebnarx.inference import (
    AscentConfig,
    GridSpec,
    GridTooNarrowError,
    _ascend,
    _runs_to_intervals,
    default_grid,
    density,
    density_to_csv,
    hdr_intervals,
    log_partitions,
    map_estimate,
    predict,
    prediction_to_dict,
    predictions,
)
from ebnarx.mathutil import normal_log_pdf

from conftest import StubEnergyModel, normalize_pdf_on_grid


def _gaussian_stub(mean, var):
    return StubEnergyModel(
        lambda ys: -((ys - mean) ** 2) / (2.0 * var),
        lambda y: -(y - mean) / var,
    )


def _scalar_map(model, x, grid, ascent):
    """The MAP of one regressor, one candidate at a time in Python floats:
    safeguarded Newton steps from the grid argmax."""
    h, eps = grid.h, float(np.finfo(float).eps)
    g = [float(v) for v in model.energy_grid(x, grid.ys)]
    best = int(np.argmax(g))
    y = float(grid.ys[best])
    mid = min(max(best, 1), len(g) - 2)
    bend = (2.0 * g[mid] - g[mid - 1] - g[mid + 1]) / (h * h)
    g_y, slope = model.energy_and_ygrad(x, y)
    scale = 1.0
    for i in range(ascent.iters):
        if abs(slope) < h * bend:
            step = slope / bend
        else:
            step = h if slope > 0 else -h if slope < 0 else 0.0
        cand = min(max(y + step * scale, grid.lo), grid.hi)
        if i and not abs(slope * (cand - y)) > eps * max(1.0, abs(g_y)):
            break
        g_cand, slope_cand = model.energy_and_ygrad(x, cand)
        if cand != y:
            secant = (slope - slope_cand) / (cand - y)
            if math.isfinite(secant) and secant > 0:
                bend = secant
        if g_cand > g_y:
            y, g_y, slope, scale = cand, g_cand, slope_cand, 1.0
        else:
            scale *= 0.5
    return y


def _eager_ascend(model, rows, grid, g, ascent):
    """The row-batched Newton ascent with its state rebuilt by np.where: the
    reference the in-place loop must equal bit for bit."""
    h, eps = grid.h, np.finfo(float).eps
    best = np.argmax(g, axis=1)
    y = grid.ys[best, None]
    mid = np.clip(best, 1, g.shape[1] - 2)
    at = np.arange(len(g))
    bend = ((2.0 * g[at, mid] - g[at, mid - 1] - g[at, mid + 1]) / (h * h))[:, None]
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
        moved = cand != y
        secant = (slope - slope_cand) / np.where(moved, cand - y, 1.0)
        bend = np.where(moved & np.isfinite(secant) & (secant > 0), secant, bend)
        better = g_cand > g_y
        y = np.where(better, cand, y)
        g_y = np.where(better, g_cand, g_y)
        slope = np.where(better, slope_cand, slope)
        scale = np.where(better, 1.0, 0.5 * scale)
    return y[:, 0]


def _doubling_ascend(model, rows, grid, g, ascent):
    """The former ascent, kept as a quality reference: from the grid argmax,
    a step of ``h / 10`` times the slope that doubles after a step that
    raises the energy and halves after one that would lower it, for all
    ``ascent.iters`` steps."""
    y = grid.ys[np.argmax(g, axis=1), None]
    step = np.full(y.shape, grid.h / 10.0)
    g_y, slope = model.energies(rows, y, ygrad=True)
    for _ in range(ascent.iters):
        cand = np.minimum(np.maximum(y + step * slope, grid.lo), grid.hi)
        g_cand, slope_cand = model.energies(rows, cand, ygrad=True)
        better = g_cand > g_y
        y = np.where(better, cand, y)
        g_y = np.where(better, g_cand, g_y)
        slope = np.where(better, slope_cand, slope)
        step *= np.where(better, 2.0, 0.5)
    return y[:, 0]


class CountingModel:
    """Wraps a model and counts its y-gradient passes."""

    def __init__(self, model):
        self.model = model
        self.passes = 0

    def project(self, x_rows):
        return self.model.project(x_rows)

    def energies(self, rows, ys, ygrad=False):
        self.passes += ygrad
        return self.model.energies(rows, ys, ygrad)


class _KinkStub:
    """Energy ``-sqrt(1e-12 + (y - x0)^2)``, peaked at each row's first
    regressor entry ``x0``, with slope close to -1 or 1 off the peak."""

    def project(self, x_rows):
        return np.asarray(x_rows, dtype=float)

    def energies(self, rows, ys, ygrad=False):
        diff = np.asarray(ys, dtype=float) - rows[:, :1]
        root = np.sqrt(1e-12 + diff ** 2)
        return (-root, -diff / root) if ygrad else -root


@pytest.fixture(scope="module")
def wide_ar_model():
    """A width-100 model, the benchmark's width, briefly trained on
    first-order Gaussian AR data: (model, log, dataset)."""
    dataset = make_windows(simulate_ar("gaussian", 400, seed=5), WindowConfig(1, 0))
    model, log = train_ebnarx(dataset, NceConfig(32, (0.1, 0.8), seed=0),
                              TrainConfig(batch_size=64, max_epochs=4, patience=3),
                              width=100, seed=1)
    return model, log, dataset


def _contains(outer_intervals, inner, tol):
    return any(a - tol <= inner[0] and inner[1] <= b + tol for a, b in outer_intervals)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 100)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 8)

    @pytest.mark.parametrize("lo, hi, field", [
        (-np.inf, 1.0, "lo"), (np.nan, 1.0, "lo"), ("0", 1.0, "lo"), (None, 1.0, "lo"),
        (0.0, np.inf, "hi"), (0.0, np.nan, "hi"), (-np.inf, np.inf, "lo"),
        (False, 1.0, "lo"), (0.0, True, "hi"),
    ])
    def test_non_finite_bound_rejected(self, lo, hi, field):
        with pytest.raises(ValueError, match=f"grid {field} must be a finite number"):
            GridSpec(lo, hi, 64)

    @pytest.mark.parametrize("n_points", [16.5, 64.0, "64", True, None])
    def test_non_integer_point_count_rejected(self, n_points):
        with pytest.raises(ValueError, match="grid n_points must be an integer"):
            GridSpec(0.0, 1.0, n_points)

    def test_numpy_scalars_accepted(self):
        grid = GridSpec(np.float64(-1.0), np.int64(2), np.int64(64))
        assert len(grid.ys) == 64 and grid.h == pytest.approx(3.0 / 63)

    def test_spacing(self):
        grid = GridSpec(0.0, 2.0, 1001)
        assert grid.h == pytest.approx(0.002)
        assert len(grid.ys) == 1001

    def test_default_grid_policy(self):
        class FakeStd:
            std_y, y_min, y_max = 0.5, -1.0, 3.0

        grid = default_grid(FakeStd(), 512)
        assert grid.lo == pytest.approx(-1.0 - 1.5)
        assert grid.hi == pytest.approx(3.0 + 1.5)
        assert grid.n_points == 512


class TestDensity:
    def test_constant_energy_is_uniform(self):
        stub = StubEnergyModel(lambda ys: np.full_like(ys, 3.7))
        grid = GridSpec(0.0, 2.0, 1001)
        dens = density(stub, None, grid)
        np.testing.assert_allclose(dens.density, 0.5, rtol=1e-12)
        assert np.trapezoid(dens.density, dens.ys) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_energy_matches_normal(self):
        stub = _gaussian_stub(1.0, 0.25)
        grid = GridSpec(-3.0, 5.0, 2001)
        dens = density(stub, None, grid)
        expected = np.exp(normal_log_pdf(grid.ys, 1.0, 0.5))
        assert np.max(np.abs(dens.density - expected)) < 1e-4

    def test_halving_h_is_stable(self):
        stub = _gaussian_stub(0.0, 1.0)
        coarse = density(stub, None, GridSpec(-6.0, 6.0, 1025))
        fine = density(stub, None, GridSpec(-6.0, 6.0, 2049))
        np.testing.assert_allclose(coarse.density, fine.density[::2], atol=1e-4)

    def test_narrow_grid_raises(self):
        stub = _gaussian_stub(0.0, 1.0)
        with pytest.raises(GridTooNarrowError):
            density(stub, None, GridSpec(-1.0, 1.0, 128))

    def test_boundary_check_names_the_row(self):
        grid = GridSpec(-6.0, 6.0, 64)
        g = -0.5 * np.tile(grid.ys, (3, 1)) ** 2
        g[1] = 0.0  # uniform: a boundary cell holds h / 12 > 1e-3 of the mass
        with pytest.raises(GridTooNarrowError, match="row 1;"):
            log_partitions(g, grid)
        with pytest.raises(GridTooNarrowError, match="row 11;"):
            log_partitions(g, grid, first_row=10)
        np.testing.assert_allclose(log_partitions(g[[0, 2]], grid),
                                   0.5 * np.log(2 * np.pi), rtol=1e-6)

    def test_normalization_across_stubs(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            mean = rng.uniform(-1, 1)
            var = rng.uniform(0.2, 2.0)
            dens = density(_gaussian_stub(mean, var), None, GridSpec(-12, 12, 1537))
            assert abs(np.trapezoid(dens.density, dens.ys) - 1.0) < 1e-6

    def test_moments_match_the_gaussian(self):
        dens = density(_gaussian_stub(0.7, 0.36), None, GridSpec(-6, 8, 4097))
        ys, p = dens.ys, dens.density
        mean = np.trapezoid(ys * p, ys)
        assert mean == pytest.approx(0.7, abs=1e-6)
        assert np.sqrt(np.trapezoid((ys - mean) ** 2 * p, ys)) == pytest.approx(0.6, abs=1e-5)
        assert ys[np.argmax(p)] == pytest.approx(0.7, abs=2 * (ys[1] - ys[0]))


class TestMapEstimate:
    def test_quadratic_peak(self):
        stub = StubEnergyModel(lambda ys: -((ys - 2.0) ** 2), lambda y: -2.0 * (y - 2.0))
        grid = GridSpec(-5.0, 5.0, 256)
        assert map_estimate(stub, None, grid) == pytest.approx(2.0, abs=1e-6)

    def test_bimodal_picks_global_mode(self):
        def energy(ys):
            return (1.0 * np.exp(-((ys - 1.0) ** 2) / 0.02)
                    + 0.9 * np.exp(-((ys + 1.0) ** 2) / 0.02))

        stub = StubEnergyModel(energy)
        grid = GridSpec(-3.0, 3.0, 512)
        result = map_estimate(stub, None, grid)
        assert abs(result - 1.0) < 0.05
        assert result > 0

    def test_refinement_dominates_grid(self, ar_gaussian_model):
        model, _, dataset = ar_gaussian_model
        rng = np.random.default_rng(1)
        rows = rng.choice(len(dataset), size=100, replace=False)
        std = model.standardizer
        coarse = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 256)
        dense = GridSpec(coarse.lo, coarse.hi, 2560)
        for i in rows:
            x = dataset.x[i]
            refined = map_estimate(model, x, coarse)
            g_refined = model.energy(x, refined)
            g_coarse = model.energy_grid(x, coarse.ys).max()
            g_dense = model.energy_grid(x, dense.ys).max()
            assert g_refined >= g_coarse - 1e-12
            assert g_refined >= g_dense - 5e-3

    def test_row_batched_ascent_matches_scalar_reference(self, ar_gaussian_model):
        model, _, dataset = ar_gaussian_model
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 256)
        rows = np.random.default_rng(2).choice(len(dataset), size=30, replace=False)
        ascent = AscentConfig(iters=30)
        batched = [p.map for p in predictions(model, dataset.x[rows], grid, ascent)]
        for x, y_map in zip(dataset.x[rows], batched):
            g_map = model.energy(x, y_map)
            assert g_map >= model.energy_grid(x, grid.ys).max() - 1e-12
            assert g_map >= model.energy(x, _scalar_map(model, x, grid, ascent)) - 1e-10

    @pytest.mark.parametrize("width", [32, 100])
    def test_map_estimate_is_bitwise_the_scalar_reference(self, ar_gaussian_model,
                                                          wide_ar_model, width):
        # one row's MAP takes the operations of the one-row loop, candidate
        # by candidate: equal, not merely close
        model, _, dataset = ar_gaussian_model if width == 32 else wide_ar_model
        assert model.predictor_net.layers[0].out_dim == width
        std = model.standardizer
        wide = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 2048)
        coarse = GridSpec(std.y_min - std.std_y, std.y_max + std.std_y, 64)
        ascent = AscentConfig()
        rows = np.random.default_rng(4).choice(len(dataset), size=6, replace=False)
        for grid in (wide, coarse):
            for x in dataset.x[rows]:
                assert map_estimate(model, x, grid, ascent) == _scalar_map(model, x, grid, ascent)

    @pytest.mark.parametrize("n_rows, total", [(1, 30), (5, 40), (60, 120)])
    def test_ascent_stops_after_a_few_passes(self, wide_ar_model, n_rows, total):
        # every batch evaluates at least one candidate after its start; one
        # row takes a median of at most 4 passes, the start included
        model, _, dataset = wide_ar_model
        std = model.standardizer
        for grid in (default_grid(std),
                     GridSpec(std.y_min - std.std_y, std.y_max + std.std_y, 64)):
            passes = []
            for start in range(0, total, n_rows):
                counting = CountingModel(model)
                rows = counting.project(dataset.x[start:start + n_rows])
                _ascend(counting, rows, grid, counting.energies(rows, grid.ys), AscentConfig())
                assert 2 <= counting.passes <= 51
                passes.append(counting.passes)
            if n_rows == 1:
                assert np.median(passes) <= 4

    def test_flat_energy_stays_at_the_grid_start(self):
        # a flat energy: no candidate is strictly better than the start, and
        # every refusal halves the step until its predicted gain rounds away
        counting = CountingModel(StubEnergyModel(np.zeros_like, np.ones_like))
        grid = GridSpec(-1.0, 1.0, 64)
        assert map_estimate(counting, None, grid) == grid.lo
        assert 2 <= counting.passes <= 51

    @pytest.mark.parametrize("iters", [0, 1, 2])
    def test_iters_caps_the_candidates(self, wide_ar_model, iters):
        model, _, dataset = wide_ar_model
        counting = CountingModel(model)
        grid = default_grid(model.standardizer)
        rows = counting.project(dataset.x[:3])
        g = counting.energies(rows, grid.ys)
        y_map = _ascend(counting, rows, grid, g, AscentConfig(iters))
        assert counting.passes == 1 + iters
        if iters == 0:
            np.testing.assert_array_equal(y_map, grid.ys[np.argmax(g, axis=1)])

    def test_a_row_at_its_peak_still_evaluates_a_candidate(self):
        # the grid point 0 is the exact peak: its slope is 0, so its first
        # candidate is its point, and the stop rule runs only after it
        counting = CountingModel(_gaussian_stub(0.0, 1.0))
        assert map_estimate(counting, None, GridSpec(-1.0, 1.0, 65)) == 0.0
        assert counting.passes == 2

    def test_refused_steps_halve_and_accepted_ones_reset(self):
        # a smoothed |y - peak| per row has an almost constant slope, so
        # Newton steps overshoot the peak and are refused, and the steps
        # after an accepted one start at full scale again
        rng = np.random.default_rng(6)
        model = _KinkStub()
        grid = GridSpec(-1.0, 1.0, 64)
        rows = model.project(rng.uniform(-0.8, 0.8, size=(40, 1)))
        g = model.energies(rows, grid.ys)
        y_map = _ascend(model, rows, grid, g, AscentConfig())
        assert y_map.tobytes() == _eager_ascend(model, rows, grid, g, AscentConfig()).tobytes()
        assert np.all(np.abs(y_map - rows[:, 0]) < 1e-3 * grid.h)

    @pytest.mark.parametrize("which", ["ar_gaussian_model", "wide_ar_model"])
    def test_map_not_below_the_doubling_ascent(self, request, which):
        # the Newton MAP's energy is at least that of the former 50-step
        # doubling/halving ascent, up to rounding
        model, _, dataset = request.getfixturevalue(which)
        std = model.standardizer
        ascent = AscentConfig()
        for grid in (default_grid(std),
                     GridSpec(std.y_min - std.std_y, std.y_max + std.std_y, 64)):
            for start in range(0, 60, 20):
                rows = model.project(dataset.x[start:start + 20])
                g = model.energies(rows, grid.ys)
                g_new = model.energies(rows, _ascend(model, rows, grid, g, ascent)[:, None])
                g_old = model.energies(rows, _doubling_ascend(model, rows, grid, g, ascent)[:, None])
                assert np.all(g_new >= g_old - 1e-12 * np.maximum(1.0, np.abs(g_old)))

    @pytest.mark.parametrize("n_rows, total", [(5, 40), (60, 120)])
    def test_ascent_is_bitwise_the_eager_loop(self, wide_ar_model, n_rows, total):
        model, _, dataset = wide_ar_model
        std = model.standardizer
        ascent = AscentConfig()
        for grid in (default_grid(std),
                     GridSpec(std.y_min - std.std_y, std.y_max + std.std_y, 64)):
            for start in range(0, total, n_rows):
                rows = model.project(dataset.x[start:start + n_rows])
                g = model.energies(rows, grid.ys)
                in_place = _ascend(model, rows, grid, g, ascent)
                assert in_place.tobytes() == _eager_ascend(model, rows, grid, g, ascent).tobytes()

    def test_clamped_to_grid(self):
        stub = StubEnergyModel(lambda ys: np.asarray(ys, dtype=float), lambda y: 1.0)
        grid = GridSpec(-1.0, 1.0, 64)
        assert map_estimate(stub, None, grid) <= 1.0


class TestHdrIntervals:
    def test_gaussian_95(self):
        grid = GridSpec(-6.0, 6.0, 4097)
        dens = density(_gaussian_stub(0.0, 1.0), None, grid)
        intervals = hdr_intervals(dens, [0.95])[0.95]
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == pytest.approx(-1.96, abs=2 * grid.h)
        assert hi == pytest.approx(1.96, abs=2 * grid.h)

    def test_uniform_mass(self):
        grid = GridSpec(0.0, 2.0, 1001)
        dens = density(StubEnergyModel(lambda ys: np.zeros_like(ys)), None, grid)
        intervals = hdr_intervals(dens, [0.5])[0.5]
        mass = sum(
            np.trapezoid(dens.density[(dens.ys >= a) & (dens.ys <= b)],
                         dens.ys[(dens.ys >= a) & (dens.ys <= b)])
            for a, b in intervals
        )
        assert abs(mass - 0.5) <= grid.h * dens.density.max() + 1e-9

    def test_bimodal_gives_two_intervals(self):
        def log_mix(ys):
            return np.log(0.5 * np.exp(normal_log_pdf(ys, -2.0, 0.3))
                          + 0.5 * np.exp(normal_log_pdf(ys, 2.0, 0.3)))

        dens = density(StubEnergyModel(log_mix), None, GridSpec(-6.0, 6.0, 2049))
        intervals = hdr_intervals(dens, [0.65])[0.65]
        assert len(intervals) == 2
        assert intervals[0][1] < 0 < intervals[1][0]

    def test_mass_tolerance_and_nesting(self):
        rng = np.random.default_rng(7)
        levels = (0.65, 0.95, 0.99)
        grid = GridSpec(-10.0, 10.0, 2048)
        for _ in range(10):
            means = rng.uniform(-4, 4, size=2)
            stds = rng.uniform(0.3, 1.5, size=2)
            wgt = rng.uniform(0.2, 0.8)

            def log_mix(ys, m=means, s=stds, w=wgt):
                return np.log(w * np.exp(normal_log_pdf(ys, m[0], s[0]))
                              + (1 - w) * np.exp(normal_log_pdf(ys, m[1], s[1])))

            dens = density(StubEnergyModel(log_mix), None, grid)
            result = hdr_intervals(dens, levels)
            weights = np.full(grid.n_points, grid.h)
            weights[0] = weights[-1] = grid.h / 2
            for level in levels:
                mask = np.zeros(grid.n_points, dtype=bool)
                for a, b in result[level]:
                    mask |= (dens.ys >= a - 1e-12) & (dens.ys <= b + 1e-12)
                mass = float((dens.density * weights)[mask].sum())
                assert abs(mass - level) <= 2 * grid.h * dens.density.max()
            for inner, outer in zip(levels[:-1], levels[1:]):
                for ival in result[inner]:
                    assert _contains(result[outer], ival, tol=1e-12)

    def test_bad_level_rejected(self):
        dens = density(_gaussian_stub(0.0, 1.0), None, GridSpec(-6, 6, 512))
        with pytest.raises(ValueError):
            hdr_intervals(dens, [1.5])

    @pytest.mark.parametrize("level", [np.nan, 1.0, "0.9", True])
    def test_levels_follow_the_spec_rule(self, level):
        # one rule for sweep specs, exports and intervals: finite reals in
        # (0, 1), bools and strings rejected
        dens = density(_gaussian_stub(0.0, 1.0), None, GridSpec(-6, 6, 512))
        with pytest.raises(ValueError, match=r"levels must be finite numbers in \(0, 1\)"):
            hdr_intervals(dens, [0.5, level])


class TestPredict:
    def test_gaussian_symmetry(self):
        stub = _gaussian_stub(1.5, 0.25)
        grid = GridSpec(-4.0, 7.0, 2048)
        pred = predict(stub, None, grid)
        assert pred.map == pytest.approx(1.5, abs=1e-6)
        lo, hi = pred.intervals[0.95][0]
        assert (lo + hi) / 2 == pytest.approx(pred.map, abs=2 * grid.h)

    def test_prediction_dict_shape(self):
        stub = _gaussian_stub(0.0, 1.0)
        pred = predict(stub, None, GridSpec(-6, 6, 1024), levels=(0.65, 0.95))
        doc = prediction_to_dict(pred)
        assert set(doc) == {"map", "intervals"}
        assert set(doc["intervals"]) == {"0.65", "0.95"}
        assert all(len(pair) == 2 for pair in doc["intervals"]["0.95"])

    def test_matches_density_and_map_estimate(self, ar_gaussian_model):
        model, _, dataset = ar_gaussian_model
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 512)
        for x in dataset.x[:5]:
            pred = predict(model, x, grid)
            dens = density(model, x, grid)
            np.testing.assert_array_equal(pred.grid.density, dens.density)
            assert pred.grid.log_partition == dens.log_partition
            assert pred.map == map_estimate(model, x, grid)

    def test_nesting_on_trained_model(self, ar_gaussian_model):
        model, _, dataset = ar_gaussian_model
        rng = np.random.default_rng(3)
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 1024)
        for i in rng.choice(len(dataset), size=20, replace=False):
            pred = predict(model, dataset.x[i], grid)
            for inner, outer in ((0.65, 0.95), (0.95, 0.99)):
                for ival in pred.intervals[inner]:
                    assert _contains(pred.intervals[outer], ival, tol=1e-12)


class TestRunsToIntervals:
    @staticmethod
    def _reference(selected, ys):
        intervals = []
        start = None
        for i, flag in enumerate(selected):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                intervals.append((float(ys[start]), float(ys[i - 1])))
                start = None
        if start is not None:
            intervals.append((float(ys[start]), float(ys[-1])))
        return intervals

    def test_matches_loop(self):
        rng = np.random.default_rng(8)
        ys = np.linspace(-1.0, 1.0, 40)
        masks = [np.ones(40, bool), np.zeros(40, bool),
                 np.r_[True, np.zeros(38, bool), True], np.r_[np.ones(5, bool), np.zeros(35, bool)],
                 np.r_[np.zeros(35, bool), np.ones(5, bool)]]
        masks += [rng.random(40) < p for p in (0.1, 0.5, 0.9) for _ in range(20)]
        for mask in masks:
            assert _runs_to_intervals(mask, ys) == self._reference(mask, ys)


class TestExports:
    def test_density_csv(self, tmp_path):
        dens = density(_gaussian_stub(0.0, 1.0), None, GridSpec(-6, 6, 101))
        path = tmp_path / "density.csv"
        density_to_csv(dens, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "y,density"
        assert len(lines) == 102

    def test_ascent_config_validation(self):
        with pytest.raises(ValueError):
            AscentConfig(iters=-1)

    @pytest.mark.parametrize("iters", [2.5, 3.0, "3", None])
    def test_ascent_iters_must_be_an_integer(self, iters):
        with pytest.raises(ValueError, match="iters must be an integer"):
            AscentConfig(iters=iters)

    def test_ascent_config_accepts_numpy_scalars(self):
        stub = StubEnergyModel(lambda ys: -((ys - 0.25) ** 2), lambda y: -2.0 * (y - 0.25))
        ascent = AscentConfig(iters=np.int64(30))
        # the grid's best point lies 0.016 below the peak; Newton steps
        # reach it within the 30 candidates
        assert map_estimate(stub, None, GridSpec(-1.0, 1.0, 48), ascent) == pytest.approx(
            0.25, abs=1e-6)
