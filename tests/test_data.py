"""Generators, CSV ingestion, windowing and standardization."""

import numpy as np
import pytest

from ebnarx.data import (
    IoSeries,
    WindowConfig,
    chen_step,
    fit_standardizer,
    load_csv,
    make_windows,
    save_csv,
    simulate_ar,
    simulate_arx,
    simulate_chen,
    split_windows,
)


class TestSimulateAr:
    def test_zero_noise_recursion(self):
        # a unit impulse at step 1, then no noise: the state decays by 0.95
        series = simulate_ar("gaussian", 4, seed=0, noise=[0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(series.y, [0.0, 1.0, 0.95, 0.9025], rtol=1e-15)

    def test_input_channel_is_zero(self):
        series = simulate_ar("gaussian", 50, seed=1)
        np.testing.assert_array_equal(series.u, np.zeros(50))

    def test_deterministic(self):
        a = simulate_ar("bimodal", 200, seed=3)
        b = simulate_ar("bimodal", 200, seed=3)
        np.testing.assert_array_equal(a.y, b.y)

    def test_bimodal_moments_and_modes(self):
        series = simulate_ar("bimodal", 100_000, seed=7)
        e = series.y[1:] - 0.95 * series.y[:-1]
        assert abs(e.mean()) < 0.02
        # two histogram peaks near +-0.4
        counts, edges = np.histogram(e, bins=np.arange(-0.8, 0.85, 0.05))
        centers = 0.5 * (edges[:-1] + edges[1:])
        pos = centers[centers > 0][np.argmax(counts[centers > 0])]
        neg = centers[centers < 0][np.argmax(counts[centers < 0])]
        assert abs(pos - 0.4) < 0.075
        assert abs(neg + 0.4) < 0.075

    def test_state_dependent_conditional_stds(self):
        series = simulate_ar("state_dependent", 100_000, seed=11)
        prev = series.y[:-1]
        resid = series.y[1:] - 0.95 * prev
        inner = resid[np.abs(prev) < 0.5]
        outer = resid[np.abs(prev) >= 0.5]
        assert inner.size > 100 and outer.size > 100
        np.testing.assert_allclose(inner.std(), 0.3, rtol=0.1)
        np.testing.assert_allclose(outer.std(), 0.05, rtol=0.1)

    def test_cauchy_is_finite(self):
        series = simulate_ar("cauchy", 50_000, seed=2)
        assert np.all(np.isfinite(series.y))

    def test_errors(self):
        with pytest.raises(ValueError):
            simulate_ar("gaussian", 1, seed=0)
        with pytest.raises(ValueError):
            simulate_ar("laplace", 100, seed=0)


class TestSimulateArx:
    def test_coefficients(self):
        # a unit noise impulse at step 2 and no input: y_3 = 1.5 y_2 and
        # y_4 = 1.5 y_3 - 0.7 y_2
        series = simulate_arx(5, seed=0, u=np.zeros(5), noise=[0.0, 0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(series.y, [0.0, 0.0, 1.0, 1.5, 1.5 * 1.5 - 0.7], rtol=1e-15)

    def test_impulse_response_matches_hand_iteration(self):
        n = 12
        u = np.zeros(n)
        u[1] = 1.0
        series = simulate_arx(n, seed=0, u=u, noise=np.zeros(n))
        expected = np.zeros(n)
        for t in range(2, n):
            expected[t] = (1.5 * expected[t - 1] - 0.7 * expected[t - 2]
                           + u[t - 1] + 0.5 * u[t - 2])
        np.testing.assert_allclose(series.y, expected, rtol=1e-14, atol=1e-14)

    def test_noise_mixture_variance(self):
        # var = 0.6 * 0.1^2 + 0.4 * 0.3^2 = 0.042
        series = simulate_arx(100_000, seed=5)
        e = (series.y[2:] - 1.5 * series.y[1:-1] + 0.7 * series.y[:-2]
             - series.u[1:-1] - 0.5 * series.u[:-2])
        np.testing.assert_allclose(e.var(), 0.042, rtol=0.05)

    def test_too_short(self):
        with pytest.raises(ValueError):
            simulate_arx(2, seed=0)


class TestSimulateChen:
    def test_zero_everything_stays_zero(self):
        series = simulate_chen(50, 0.0, 0.0, seed=0, u=np.zeros(50))
        np.testing.assert_array_equal(series.y, np.zeros(50))

    def test_single_step_value(self):
        # direct evaluation with y_{t-1}=1, y_{t-2}=0, no input
        expected = 0.8 - 0.5 * np.exp(-1.0)
        assert chen_step(1.0, 0.0, 0.0, 0.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.61606, abs=5e-6)

    def test_measurement_noise_variance(self):
        # without process noise the latent sequence follows chen_step alone
        n = 100_000
        u = np.random.default_rng(9).normal(size=n)
        series = simulate_chen(n, 0.0, 0.3, seed=9, u=u)
        latent = np.zeros(n)
        for t in range(2, n):
            latent[t] = chen_step(latent[t - 1], latent[t - 2], u[t - 1], u[t - 2])
        np.testing.assert_allclose(np.var(series.y - latent), 0.09, rtol=0.05)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            simulate_chen(100, -0.1, 0.3, seed=0)

    @pytest.mark.parametrize("sigma_v, sigma_w", [
        (np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1), (0.1, -np.inf),
    ], ids=["nan-v", "nan-w", "inf-v", "minus-inf-w"])
    def test_non_finite_sigma_rejected(self, sigma_v, sigma_w):
        # a NaN std fails every comparison, so it must not pass for "no noise"
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            simulate_chen(100, sigma_v, sigma_w, seed=0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("u,y\n0.0,1.0\n1.0,2.0\n")
        series = load_csv(path)
        np.testing.assert_array_equal(series.u, [0.0, 1.0])
        np.testing.assert_array_equal(series.y, [1.0, 2.0])

    def test_save_load_exact(self, tmp_path):
        original = simulate_arx(100, seed=4)
        path = tmp_path / "series.csv"
        save_csv(original, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.u, original.u)
        np.testing.assert_array_equal(back.y, original.y)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("u,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_nan_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,y\n0.0,1.0\n1.0,nan\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,y\n0.0,1.0\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot open"):
            load_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)


class TestWindows:
    def test_tiny_example(self):
        series = IoSeries(np.array([4.0, 5.0, 6.0]), np.array([1.0, 2.0, 3.0]))
        ds = make_windows(series, WindowConfig(1, 1))
        np.testing.assert_array_equal(ds.x, [[1.0, 4.0], [2.0, 5.0]])
        np.testing.assert_array_equal(ds.y, [2.0, 3.0])
        assert ds.t0 == 1

    def test_row_count(self):
        series = IoSeries(np.arange(5.0), np.arange(5.0) + 10)
        ds = make_windows(series, WindowConfig(2, 1))
        assert len(ds) == 3  # 5 - max(2, 1)

    def test_reconstruction(self):
        # scattering rows back into lag positions reproduces the series slice
        series = simulate_arx(60, seed=8)
        cfg = WindowConfig(3, 2)
        ds = make_windows(series, cfg)
        for i in range(len(ds)):
            t = ds.t0 + i
            expected = ([series.y[t - j] for j in range(1, cfg.y_lags + 1)]
                        + [series.u[t - j] for j in range(1, cfg.u_lags + 1)])
            np.testing.assert_array_equal(ds.x[i], expected)
            assert ds.y[i] == series.y[t]

    def test_no_future_leak(self):
        # changing y[t] must not change regressor row for time t
        series = simulate_ar("gaussian", 30, seed=1)
        ds = make_windows(series, WindowConfig(2, 0))
        bumped = IoSeries(series.u.copy(), series.y.copy())
        idx = 10
        bumped.y[ds.t0 + idx] += 100.0
        ds2 = make_windows(bumped, WindowConfig(2, 0))
        np.testing.assert_array_equal(ds.x[idx], ds2.x[idx])

    def test_too_short(self):
        series = IoSeries(np.zeros(3), np.arange(3.0))
        with pytest.raises(ValueError):
            make_windows(series, WindowConfig(3, 0))

    @pytest.mark.parametrize("y_lags, u_lags", [
        (1.5, 0), (2.0, 1), (1, 0.5), (True, 0), (1, False), ("2", 0),
    ], ids=["fractional-y", "float-y", "fractional-u", "bool-y", "bool-u", "string-y"])
    def test_non_integer_lags_rejected(self, y_lags, u_lags):
        with pytest.raises(ValueError, match="lag counts must be integers"):
            WindowConfig(y_lags, u_lags)

    def test_numpy_integer_lags_accepted(self):
        assert WindowConfig(np.int64(2), np.int32(1)).dim == 3

    def test_split_is_chronological(self):
        series = simulate_arx(30, seed=0)
        ds = make_windows(series, WindowConfig(1, 1))
        head, tail = split_windows(ds, 0.6)
        assert len(head) + len(tail) == len(ds)
        np.testing.assert_array_equal(np.r_[head.y, tail.y], ds.y)
        assert tail.t0 == head.t0 + len(head)


class TestStandardizer:
    def test_population_convention(self):
        series = IoSeries(np.zeros(4), np.array([1.0, 0.0, 2.0, 0.0]))
        ds = make_windows(series, WindowConfig(1, 0))
        std = fit_standardizer(ds)
        # targets are [0, 2, 0]; divisor-N convention
        assert std.mean_y == pytest.approx(2.0 / 3.0)
        assert std.std_y == pytest.approx(np.std([0.0, 2.0, 0.0]))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        series = simulate_arx(200, seed=3)
        ds = make_windows(series, WindowConfig(2, 2))
        std = fit_standardizer(ds)
        y = rng.normal(size=10)
        np.testing.assert_allclose(std.invert_y(std.apply_y(y)), y, atol=1e-12)

    def test_standardized_moments(self):
        series = simulate_arx(500, seed=6)
        ds = make_windows(series, WindowConfig(2, 2))
        std = fit_standardizer(ds)
        x_std, y_std = std.apply_x(ds.x), std.apply_y(ds.y)
        assert abs(y_std.mean()) < 1e-12
        assert abs(y_std.var() - 1.0) < 1e-12
        np.testing.assert_allclose(x_std.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(x_std.var(axis=0), 1.0, atol=1e-12)

    def test_constant_column_named(self):
        series = IoSeries(np.zeros(10), np.arange(10.0))
        ds = make_windows(series, WindowConfig(1, 1))
        with pytest.raises(ValueError, match="column 2"):
            fit_standardizer(ds)

    def test_records_target_range(self):
        series = simulate_arx(100, seed=1)
        ds = make_windows(series, WindowConfig(1, 1))
        std = fit_standardizer(ds)
        assert std.y_min == ds.y.min()
        assert std.y_max == ds.y.max()
