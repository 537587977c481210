"""Least-squares baseline: training, prediction, implied Gaussian density."""

import numpy as np
import pytest

from ebnarx.data import (
    IoSeries,
    WindowConfig,
    fit_standardizer,
    make_windows,
    simulate_ar,
)
from ebnarx.ebm import NceConfig, TrainConfig, build_ebnarx, save_model
from ebnarx.fcn import FcnModel, build_fcn, fcn_predict, train_fcn
from ebnarx.harness import load_model
from ebnarx.inference import GridSpec, default_grid, density, map_estimate, predict, predictions
from ebnarx.mathutil import normal_log_pdf


@pytest.fixture(scope="module")
def ar_gaussian_fcn():
    dataset = make_windows(simulate_ar("gaussian", 1000, seed=11), WindowConfig(1, 0))
    tc = TrainConfig(batch_size=64, max_epochs=80, patience=10)
    model, log = train_fcn(dataset, tc, width=32, seed=0)
    return model, log, dataset


def _driven_linear_series(n, seed):
    # y_t = 0.5 y_{t-1} + u_{t-1}, zero noise: exactly representable
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.5 * y[t - 1] + u[t - 1]
    return IoSeries(u, y)


class TestTrainFcn:
    def test_noiseless_linear_system(self):
        train = make_windows(_driven_linear_series(600, 1), WindowConfig(1, 1))
        val = make_windows(_driven_linear_series(400, 2), WindowConfig(1, 1))
        tc = TrainConfig(batch_size=32, max_epochs=300, patience=40)
        model, _ = train_fcn(train, tc, width=32, activation="relu", seed=0)
        preds, _ = fcn_predict(model, val.x)
        mse = float(((val.y - preds) ** 2).mean())
        assert mse < 1e-3

    def test_residual_variance_near_noise_variance(self, ar_gaussian_fcn):
        model, _, _ = ar_gaussian_fcn
        assert model.residual_variance == pytest.approx(0.04, rel=0.15)

    def test_mean_tracks_conditional_mean(self, ar_gaussian_fcn):
        # regression of predictions on y_{t-1} recovers the 0.95 slope
        model, _, dataset = ar_gaussian_fcn
        preds, _ = fcn_predict(model, dataset.x)
        slope = np.polyfit(dataset.x[:, 0], preds, 1)[0]
        assert slope == pytest.approx(0.95, rel=0.15)

    def test_nearly_constant_targets(self):
        rng = np.random.default_rng(0)
        y = 5.0 + 1e-6 * rng.normal(size=200)
        series = IoSeries(rng.normal(size=200), y)
        dataset = make_windows(series, WindowConfig(1, 1))
        tc = TrainConfig(batch_size=32, max_epochs=30, patience=5)
        model, _ = train_fcn(dataset, tc, width=8, seed=1)
        mean, _ = fcn_predict(model, dataset.x[:1])
        assert mean[0] == pytest.approx(5.0, abs=1e-3)
        assert model.residual_variance < 1e-6

    def test_deterministic(self):
        dataset = make_windows(simulate_ar("gaussian", 200, seed=3), WindowConfig(1, 0))
        tc = TrainConfig(batch_size=32, max_epochs=5, patience=3)
        _, log_a = train_fcn(dataset, tc, width=8, seed=2)
        _, log_b = train_fcn(dataset, tc, width=8, seed=2)
        assert [(r.train_loss, r.val_loss) for r in log_a] == \
               [(r.train_loss, r.val_loss) for r in log_b]

    def test_too_small_dataset(self):
        dataset = make_windows(simulate_ar("gaussian", 20, seed=3), WindowConfig(1, 0))
        with pytest.raises(ValueError, match="batch_size"):
            train_fcn(dataset, TrainConfig(batch_size=64, max_epochs=5, patience=2))

    def test_hold_out_leaving_no_training_rows_rejected(self):
        # 10 rows, of which round(9.5) = 10 are held out
        dataset = make_windows(simulate_ar("gaussian", 11, seed=3), WindowConfig(1, 0))
        with pytest.raises(ValueError, match=r"val_fraction=0\.95 holds out 10 of the "
                                             r"dataset's 10 rows, leaving no training rows"):
            train_fcn(dataset, TrainConfig(batch_size=4, max_epochs=5, patience=2,
                                           val_fraction=0.95))


class TestFcnPredict:
    def test_zero_net_predicts_target_mean(self):
        dataset = make_windows(simulate_ar("gaussian", 100, seed=5), WindowConfig(1, 0))
        std = fit_standardizer(dataset)
        net = build_fcn(WindowConfig(1, 0), width=4, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        model = FcnModel(net, std, 0.25, WindowConfig(1, 0))
        mean, var = fcn_predict(model, dataset.x[7:8])
        assert mean[0] == pytest.approx(std.mean_y, rel=1e-12)
        assert var[0] == 0.25

    def test_variance_is_x_independent(self, ar_gaussian_fcn):
        model, _, dataset = ar_gaussian_fcn
        _, var = fcn_predict(model, dataset.x[[0, 123]])
        assert var[0] == var[1]

    def test_dimension_mismatch(self, ar_gaussian_fcn):
        model, _, _ = ar_gaussian_fcn
        with pytest.raises(ValueError):
            fcn_predict(model, np.zeros((1, 3)))

    @pytest.mark.parametrize("x", [np.zeros(1), np.zeros((1, 1, 1)), np.float64(0.0)],
                             ids=["vector", "rank-3", "scalar"])
    def test_regressors_of_another_rank_rejected(self, ar_gaussian_fcn, x):
        # one regressor is a one-row batch; fcn_predict is also project's check
        model, _, _ = ar_gaussian_fcn
        for predict_means in (lambda rows: fcn_predict(model, rows), model.project):
            with pytest.raises(ValueError, match=r"shape \(n, 1\)"):
                predict_means(x)

    def test_gaussian_density_integrates_to_one(self, ar_gaussian_fcn):
        # quadrature of the raw Gaussian pdf on a wide grid
        model, _, dataset = ar_gaussian_fcn
        (mean,), (var,) = fcn_predict(model, dataset.x[11:12])
        grid = GridSpec(mean - 8 * np.sqrt(var), mean + 8 * np.sqrt(var), 2048)
        raw = np.exp(normal_log_pdf(grid.ys, mean, np.sqrt(var)))
        assert np.trapezoid(raw, grid.ys) == pytest.approx(1.0, abs=1e-3)
        dens = density(model, dataset.x[11], grid)
        assert np.trapezoid(dens.density, dens.ys) == pytest.approx(1.0, abs=1e-6)


class TestEnergyInterface:
    def test_density_is_gaussian_normalized_on_grid(self, ar_gaussian_fcn):
        model, _, dataset = ar_gaussian_fcn
        (mean,), (var,) = fcn_predict(model, dataset.x[11:12])
        grid = default_grid(model.standardizer)
        pdf = np.exp(normal_log_pdf(grid.ys, mean, np.sqrt(var)))
        dens = density(model, dataset.x[11], grid)
        np.testing.assert_allclose(dens.density, pdf / np.trapezoid(pdf, grid.ys),
                                   rtol=1e-12, atol=0)

    def test_batched_ygrad_matches_finite_differences(self, ar_gaussian_fcn):
        model, _, dataset = ar_gaussian_fcn
        means = model.project(dataset.x[:5])
        ys = means + np.linspace(-0.6, 0.6, 7)
        g, slope = model.energies(means, ys, ygrad=True)
        assert g.shape == slope.shape == (5, 7)
        eps = 1e-6
        fd = (model.energies(means, ys + eps) - model.energies(means, ys - eps)) / (2 * eps)
        np.testing.assert_allclose(slope, fd, rtol=1e-6, atol=1e-6)

    def test_map_is_the_predicted_mean(self, ar_gaussian_fcn):
        model, _, dataset = ar_gaussian_fcn
        grid = default_grid(model.standardizer)
        rows = dataset.x[:20]
        means, _ = fcn_predict(model, rows)
        tol = 1e-5 * np.sqrt(model.residual_variance)
        maps = [pred.map for pred in predictions(model, rows, grid)]
        np.testing.assert_allclose(maps, means, rtol=0, atol=tol)
        assert predict(model, rows[3], grid).map == pytest.approx(means[3], abs=tol)
        assert map_estimate(model, rows[3], grid) == pytest.approx(means[3], abs=tol)


@pytest.mark.parametrize("kind", ["ebnarx", "fcn"])
def test_save_load_save_is_byte_identical(tmp_path, ar_gaussian_fcn, kind):
    fcn_model, _, dataset = ar_gaussian_fcn
    if kind == "fcn":
        model = fcn_model
    else:
        model = build_ebnarx(dataset.cfg, width=8, seed=3, standardizer=fcn_model.standardizer,
                             nce=NceConfig(16, (0.1, 0.8), seed=4))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()
    assert load_model(first).to_dict()["kind"] == kind


class TestSerialization:
    def test_round_trip(self, tmp_path, ar_gaussian_fcn):
        model, _, dataset = ar_gaussian_fcn
        path = tmp_path / "fcn.json"
        save_model(model, path)
        back = load_model(path)
        mean_a, var_a = fcn_predict(model, dataset.x[3:4])
        mean_b, var_b = fcn_predict(back, dataset.x[3:4])
        assert (mean_a.tobytes(), var_a.tobytes()) == (mean_b.tobytes(), var_b.tobytes())
        assert back.window_cfg == model.window_cfg
