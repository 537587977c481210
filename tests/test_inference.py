"""Density normalization, MAP search and highest-density regions."""

import math
import tracemalloc

import numpy as np
import pytest

from ebnarx import inference
from ebnarx.data import (
    WindowConfig,
    WindowDataset,
    make_windows,
    simulate_ar,
    simulate_arx,
    simulate_chen,
)
from ebnarx.ebm import NceConfig, TrainConfig, log_likelihood, train_ebnarx
from ebnarx.inference import (
    LEVELS,
    AscentConfig,
    GridSpec,
    GridTooNarrowError,
    _ascend,
    _densities,
    _runs_to_intervals,
    default_grid,
    density,
    density_to_csv,
    grid_energies,
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
    safeguarded Newton steps from the argmax of its grid energies, which
    come from the one source of grid energies, ``grid_energies``.  Each
    candidate is one call of the model interface, ``energies(...,
    ygrad=True)``, on one row and one output."""
    h, eps = grid.h, float(np.finfo(float).eps)
    rows = model.project([x])

    def energy_and_ygrad(y):
        g_y, slope = model.energies(rows, [[y]], ygrad=True)
        return float(g_y[0, 0]), float(slope[0, 0])

    g = [float(v) for v in grid_energies(model, rows, grid)[0]]
    best = int(np.argmax(g))
    y = float(grid.ys[best])
    mid = min(max(best, 1), len(g) - 2)
    bend = (2.0 * g[mid] - g[mid - 1] - g[mid + 1]) / (h * h)
    g_y, slope = energy_and_ygrad(y)
    scale = 1.0
    for i in range(ascent.iters):
        if abs(slope) < h * bend:
            step = slope / bend
        else:
            step = h if slope > 0 else -h if slope < 0 else 0.0
        cand = min(max(y + step * scale, grid.lo), grid.hi)
        if i and not abs(slope * (cand - y)) > eps * max(1.0, abs(g_y)):
            break
        g_cand, slope_cand = energy_and_ygrad(cand)
        if cand != y:
            secant = (slope - slope_cand) / (cand - y)
            if math.isfinite(secant) and secant > 0:
                bend = secant
        if g_cand > g_y:
            y, g_y, slope, scale = cand, g_cand, slope_cand, 1.0
        else:
            scale *= 0.5
    return y


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
    """Wraps a model, counts its y-gradient passes and records in ``sizes``
    how many candidates a row each of its other passes scores."""

    def __init__(self, model):
        self.model = model
        self.passes = 0
        self.sizes = []

    def project(self, x_rows):
        return self.model.project(x_rows)

    def energies(self, rows, ys, ygrad=False):
        self.passes += ygrad
        if not ygrad:
            self.sizes.append(np.shape(ys)[-1])
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


class _ReadOnlyModel:
    """Wraps a model and returns its energies as read-only arrays and its
    slopes as broadcast views, which are read-only too."""

    def __init__(self, model):
        self.model = model

    def project(self, x_rows):
        return self.model.project(x_rows)

    def energies(self, rows, ys, ygrad=False):
        if not ygrad:
            return _read_only(self.model.energies(rows, ys))
        g, slope = self.model.energies(rows, ys, ygrad=True)
        return _read_only(g), np.broadcast_to(slope, g.shape)


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


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

    def test_points_built_once_and_read_only(self):
        # every density on a grid shares its points, so none may change them
        grid = GridSpec(-1.0, 2.0, 64)
        assert grid.ys is grid.ys
        assert not grid.ys.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid.ys[0] = 0.0
        np.testing.assert_array_equal(grid.ys, np.linspace(-1.0, 2.0, 64))
        assert grid == GridSpec(-1.0, 2.0, 64)

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


def _trained(series, cfg, epochs, width, n_noise=64, batch_size=64):
    """(model, the last 64 windows) of a model trained on the other windows."""
    windows = make_windows(series, cfg)
    cut = len(windows) - 64
    train = WindowDataset(windows.x[:cut], windows.y[:cut], windows.t0, windows.cfg)
    held = WindowDataset(windows.x[cut:], windows.y[cut:], windows.t0 + cut, windows.cfg)
    model, _ = train_ebnarx(train, NceConfig(n_noise, (0.1, 0.8), seed=0),
                            TrainConfig(batch_size, epochs, epochs - 1), width=width, seed=0)
    return model, held


@pytest.fixture(scope="module")
def spectral_models():
    """Trained models by name: the benchmark's Chen model (width 100, 128
    noise samples, batch 32) after 2 and 8 epochs, and width-32 models of
    the ARX, state-dependent AR and bimodal AR systems."""
    chen = simulate_chen(562, 0.3, 0.3, seed=0)
    return {
        "chen-2": _trained(chen, WindowConfig(2, 2), 2, 100, 128, 32),
        "chen-8": _trained(chen, WindowConfig(2, 2), 8, 100, 128, 32),
        "arx": _trained(simulate_arx(600, seed=3), WindowConfig(2, 2), 20, 32),
        "state-dependent": _trained(simulate_ar("state_dependent", 600, seed=3),
                                    WindowConfig(1, 0), 20, 32),
        "bimodal": _trained(simulate_ar("bimodal", 600, seed=3), WindowConfig(1, 0), 20, 32),
    }


class TestGridEnergies:
    @pytest.mark.parametrize("name", ["chen-2", "chen-8", "arx", "state-dependent"])
    def test_matches_the_direct_pass(self, spectral_models, name):
        # against the 2048-point pass: densities within 1e-10 of the peak,
        # log likelihood within 1e-10, equal HDRs, and MAPs no lower
        model, held = spectral_models[name]
        grid = default_grid(model.standardizer)
        rows = model.project(held.x)
        direct = model.energies(rows, grid.ys)
        counting = CountingModel(model)
        got = list(predictions(counting, held.x, grid))
        expected = _densities(direct, grid)
        for pred, dens in zip(got, expected):
            assert np.max(np.abs(pred.grid.density - dens.density)) <= 1e-10 * dens.density.max()
            assert pred.intervals == hdr_intervals(dens, LEVELS)
        g_new = model.energies(rows, np.array([[p.map] for p in got]))
        g_old = model.energies(rows, _ascend(model, rows, grid, direct, AscentConfig())[:, None])
        assert np.all(g_new >= g_old - 1e-12 * np.maximum(1.0, np.abs(g_old)))
        g_target = model.energies(rows, held.y[:, None])[:, 0]
        expected_ll = float(np.mean(g_target - log_partitions(direct, grid)))
        assert log_likelihood(model, held, grid) == pytest.approx(expected_ll, rel=0, abs=1e-10)
        if name.startswith("chen"):
            # the benchmark's models converge: no pass scores the whole grid
            assert max(counting.sizes) < grid.n_points

    def test_bimodal_model_converges_or_falls_back(self, spectral_models):
        model, held = spectral_models["bimodal"]
        grid = default_grid(model.standardizer)
        rows = model.project(held.x)
        counting = CountingModel(model)
        got = grid_energies(counting, rows, grid)
        direct = model.energies(rows, grid.ys)
        if counting.sizes[-1] == grid.n_points:
            assert np.array_equal(got, direct)
        else:
            peak = direct.max(axis=1, keepdims=True)
            assert np.max(np.abs(np.exp(got - peak) - np.exp(direct - peak))) <= 1e-10

    @pytest.mark.parametrize("n_points", [2048, 8192])
    def test_sharp_energy_falls_back_to_the_direct_pass(self, n_points):
        # 513 nodes at most, however many points the grid holds
        stub = _KinkStub()
        rows = np.array([[0.3], [-1.2]])
        grid = GridSpec(-4.0, 4.0, n_points)
        counting = CountingModel(stub)
        got = grid_energies(counting, rows, grid)
        assert counting.sizes == [257, 256, n_points]
        assert np.array_equal(got, stub.energies(rows, grid.ys))

    def test_non_finite_energy_falls_back_at_once(self):
        stub = StubEnergyModel(lambda ys: np.where(ys > 0.0, -ys ** 2, -np.inf))
        grid = GridSpec(-3.0, 3.0, 2048)
        counting = CountingModel(stub)
        got = grid_energies(counting, [None], grid)
        assert counting.sizes == [257, 2048]
        assert np.array_equal(got, stub.energies([None], grid.ys))

    @pytest.mark.parametrize("n_points", [16, 64, 2 * 257])
    def test_small_grid_is_bitwise_the_direct_pass(self, wide_ar_model, n_points):
        model, _, dataset = wide_ar_model
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, n_points)
        rows = model.project(dataset.x[:20])
        counting = CountingModel(model)
        got = grid_energies(counting, rows, grid)
        assert counting.sizes == [n_points]
        assert np.array_equal(got, model.energies(rows, grid.ys))

    @pytest.mark.parametrize("n_points", [2 * 257 + 1, 1001, 2047, 2048])
    def test_interpolant_on_odd_and_even_grids(self, n_points):
        # a smooth energy on grids of either parity: the grid's midpoint
        # (odd counts) and both ends lie on nodes. Both grid halves come
        # from one product over all rows, so one row and many are checked
        stub = StubEnergyModel(lambda ys: -0.5 * ys ** 2 + np.tanh(3.0 * ys - 0.4))
        grid = GridSpec(-2.5, 3.5, n_points)
        ends = [0, n_points // 2, -1] if n_points % 2 else [0, -1]
        for n_rows in (1, 2, 64):
            counting = CountingModel(stub)
            got = grid_energies(counting, [None] * n_rows, grid)
            assert max(counting.sizes) < n_points
            direct = stub.energies([None] * n_rows, grid.ys)
            assert np.max(np.abs(got - direct)) < 1e-12
            np.testing.assert_allclose(got[:, ends], direct[:, ends], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m", [257, 513])
    def test_cached_tail_basis_is_the_inline_formula(self, m):
        g = np.random.default_rng(m).normal(size=(5, m))
        k = np.arange(m - inference.TAIL_COEFFS, m)
        basis = np.cos(np.pi / (m - 1) * (np.outer(k, np.arange(m)) % (2 * (m - 1))))
        basis[:, [0, -1]] *= 0.5
        basis[-1] *= 0.5
        inline = np.abs(g @ basis.T).max(axis=1) * (2.0 / (m - 1))
        inference._tail_basis.cache_clear()
        for _ in range(2):
            assert np.array_equal(inference._coefficient_tails(g), inline)
        assert inference._tail_basis.cache_info().misses == 1

    def test_cache_holds_half_a_matrix(self):
        # Runge's function converges at the first level, 257 nodes: the
        # cache keeps one (257, 1024) half matrix, 2.0 MiB
        stub = StubEnergyModel(lambda ys: 1.0 / (1.0 + 25.0 * ys ** 2))
        grid = GridSpec(-1.0, 1.0, 2048)
        counting = CountingModel(stub)
        inference._half_matrix.cache_clear()
        tracemalloc.start()
        try:
            got = grid_energies(counting, [None], grid)
            del got
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counting.sizes == [257]
        assert inference._half_matrix.cache_info().currsize == 1
        assert inference._half_matrix(2048, 257).shape == (257, 1024)
        assert retained < 2.1 * 2 ** 20

    def test_second_level_converges_and_both_matrices_stay_cached(self):
        # a narrower Runge function: its coefficient tail is about 3e-10 at
        # 257 nodes and 3e-17 at 513, so it converges at the second level
        narrow = StubEnergyModel(lambda ys: 1.0 / (1.0 + 150.0 * ys ** 2))
        wide = StubEnergyModel(lambda ys: 1.0 / (1.0 + 25.0 * ys ** 2))
        grid = GridSpec(-1.0, 1.0, 2048)
        inference._half_matrix.cache_clear()
        grid_energies(wide, [None], grid)
        counting = CountingModel(narrow)
        got = grid_energies(counting, [None, None], grid)
        assert counting.sizes == [257, 256]
        assert np.max(np.abs(got - narrow.energies([None, None], grid.ys))) < 1e-12
        # one matrix per level: neither call builds one again
        grid_energies(narrow, [None], grid)
        grid_energies(wide, [None], grid)
        info = inference._half_matrix.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 2)


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
        x_rows = rng.uniform(-0.8, 0.8, size=(40, 1))
        rows = model.project(x_rows)
        y_map = _ascend(model, rows, grid, model.energies(rows, grid.ys), AscentConfig())
        # each row of the batch takes the one-row loop's operations
        scalar = np.array([_scalar_map(model, x, grid, AscentConfig()) for x in x_rows])
        assert y_map.tobytes() == scalar.tobytes()
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

    @pytest.mark.parametrize("n_points", [512, 2048])
    def test_read_only_model_arrays_are_only_read(self, ar_gaussian_model, n_points):
        # the MAP ascent and the densities write into no array the model
        # returns: read-only ones give the bits of writeable ones, on the
        # direct grid pass (512 points) and the spectral one (2048)
        model, _, dataset = ar_gaussian_model
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, n_points)
        x_rows = dataset.x[:10]
        for wrapped in (model, _gaussian_stub(0.3, 0.5)):
            read_only = _ReadOnlyModel(wrapped)
            got = list(predictions(read_only, x_rows, grid))
            want = list(predictions(wrapped, x_rows, grid))
            assert [p.map for p in got] == [p.map for p in want]
            for p, q in zip(got, want):
                assert p.grid.density.tobytes() == q.grid.density.tobytes()
                assert p.intervals == q.intervals
            x = x_rows[0]
            assert map_estimate(read_only, x, grid) == map_estimate(wrapped, x, grid)

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

    def test_prediction_dict_keys_read_back_as_the_levels(self):
        # levels that agree to 6 significant digits keep keys of their own
        levels = (0.95, 0.9500001, 0.1234567)
        pred = predict(_gaussian_stub(0.0, 1.0), None, GridSpec(-6, 6, 1024), levels=levels)
        doc = prediction_to_dict(pred)
        assert [float(key) for key in doc["intervals"]] == list(levels)
        for level in levels:
            assert doc["intervals"][repr(level)] == [list(pair) for pair in pred.intervals[level]]

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
