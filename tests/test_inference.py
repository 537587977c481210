"""Density normalization, MAP search and highest-density regions."""

import numpy as np
import pytest

from ebnarx.inference import (
    AscentConfig,
    GridSpec,
    GridTooNarrowError,
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


def _contains(outer_intervals, inner, tol):
    return any(a - tol <= inner[0] and inner[1] <= b + tol for a, b in outer_intervals)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 100)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 8)

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
        assert dens.integral() == pytest.approx(1.0, abs=1e-9)

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
            assert abs(dens.integral() - 1.0) < 1e-6

    def test_moment_helpers(self):
        dens = density(_gaussian_stub(0.7, 0.36), None, GridSpec(-6, 8, 4097))
        assert dens.mean() == pytest.approx(0.7, abs=1e-6)
        assert dens.std() == pytest.approx(0.6, abs=1e-5)
        assert dens.mode() == pytest.approx(0.7, abs=2 * dens.ys[1] - 2 * dens.ys[0])


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
        def reference_map(x, grid, ascent):
            # one row at a time, as before the row-batched ascent
            ys = grid.ys
            y = float(ys[int(np.argmax(model.energy_grid(x, ys)))])
            step = grid.h / 10.0
            g_y, slope = model.energy_and_ygrad(x, y)
            for _ in range(ascent.iters):
                cand = min(max(y + step * slope, grid.lo), grid.hi)
                g_cand, slope_cand = model.energy_and_ygrad(x, cand)
                if g_cand > g_y:
                    y, g_y, slope = cand, g_cand, slope_cand
                    step *= 2.0
                else:
                    step *= 0.5
            return y

        model, _, dataset = ar_gaussian_model
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 256)
        rows = np.random.default_rng(2).choice(len(dataset), size=30, replace=False)
        ascent = AscentConfig(iters=30)
        batched = [p.map for p in predictions(model, dataset.x[rows], grid, ascent)]
        for x, y_map in zip(dataset.x[rows], batched):
            g_map = model.energy(x, y_map)
            assert g_map >= model.energy_grid(x, grid.ys).max() - 1e-12
            assert g_map >= model.energy(x, reference_map(x, grid, ascent)) - 1e-10

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
            AscentConfig(step=-0.1)
        with pytest.raises(ValueError):
            AscentConfig(iters=-1)
