"""Experiment orchestration: evaluation, sweeps and exports."""

import json
import re

import numpy as np
import pytest

import ebnarx.harness as harness
from ebnarx import ebm, fcn
from ebnarx.data import (Standardizer, WindowConfig, WindowDataset, fit_standardizer, make_windows,
                         save_csv, simulate_ar, split_windows)
from ebnarx.ebm import build_ebnarx
from ebnarx.ebm import save_model as save_ebm
from ebnarx.fcn import FcnModel, build_fcn
from ebnarx.harness import (
    ExperimentSpec,
    evaluate_log_likelihood,
    evaluate_mse,
    export_density_sequence,
    load_model,
    make_series,
    run_sweep,
)
from ebnarx.inference import GridSpec, GridTooNarrowError, predictions
from ebnarx.nn import DenseLayer, MlpNetwork


class TargetTrackingStub:
    """Energy peaked at the first regressor entry: MAP equals x[0]."""

    def project(self, x_rows):
        return np.asarray(x_rows, dtype=float)

    def energies(self, x_rows, ys, ygrad=False):
        diff = np.asarray(ys, dtype=float) - x_rows[:, :1]
        return (-(diff ** 2), -2.0 * diff) if ygrad else -(diff ** 2)


def _tiny_spec(**overrides):
    # fcn by default: sweep mechanics do not depend on the model family and
    # a 6-epoch baseline is already usable
    base = dict(
        window=WindowConfig(1, 0),
        model_kind="fcn",
        generator={"name": "ar", "noise_kind": "gaussian", "n_samples": 160, "seed": 5},
        widths=(8,),
        batch_sizes=(16,),
        seeds=(0,),
        split_fraction=0.5,
        train={"max_epochs": 6, "patience": 2},
        grid_points=1536,
        ascent_iters=10,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _ebm_spec():
    # an energy model needs enough training that its density concentrates,
    # otherwise the boundary-mass check correctly rejects the trial
    return ExperimentSpec(
        window=WindowConfig(1, 0),
        model_kind="ebm",
        generator={"name": "ar", "noise_kind": "gaussian", "n_samples": 400, "seed": 5},
        widths=(16,),
        batch_sizes=(32,),
        seeds=(0,),
        split_fraction=0.5,
        train={"max_epochs": 40, "patience": 8},
        nce={"n_noise": 16, "sigmas": [0.1, 0.8]},
        ascent_iters=20,
    )


class TestEvaluateMse:
    def test_perfect_predictions_give_zero(self):
        series = simulate_ar("gaussian", 50, seed=1)
        ds = make_windows(series, WindowConfig(1, 0))
        # targets equal to the tracked regressor entry -> error is zero
        ds.y[:] = ds.x[:, 0]
        grid = GridSpec(ds.y.min() - 1.0, ds.y.max() + 1.0, 512)
        mse = evaluate_mse(TargetTrackingStub(), ds, grid)
        assert mse < 1e-12

    def test_constant_predictor_scores_target_variance(self):
        series = simulate_ar("gaussian", 300, seed=2)
        ds = make_windows(series, WindowConfig(1, 0))
        std = fit_standardizer(ds)
        # normalize targets so their variance is one, then predict their mean
        ds_norm = WindowDataset(std.apply_x(ds.x), std.apply_y(ds.y), ds.t0, ds.cfg)
        std_norm = fit_standardizer(ds_norm)
        net = build_fcn(WindowConfig(1, 0), width=4, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        model = FcnModel(net, std_norm, 1.0, WindowConfig(1, 0))
        assert evaluate_mse(model, ds_norm) == pytest.approx(1.0, rel=1e-6)

    def test_empty_dataset_rejected(self):
        series = simulate_ar("gaussian", 50, seed=1)
        ds = make_windows(series, WindowConfig(1, 0))
        empty = type(ds)(ds.x[:0], ds.y[:0], ds.t0, ds.cfg)
        with pytest.raises(ValueError, match="dataset is empty"):
            evaluate_mse(TargetTrackingStub(), empty, GridSpec(-1, 1, 64))

    @pytest.mark.parametrize("kind", ["ebm", "fcn"])
    def test_empty_dataset_log_likelihood_rejected(self, kind):
        # for either family, the family's own error: not a division by
        # zero or a nan mean
        model, empty = _untrained_model_and_empty_set(kind)
        with pytest.raises(ValueError, match="dataset is empty"):
            evaluate_log_likelihood(model, empty, GridSpec(-1, 1, 64))

    @pytest.mark.parametrize("kind", ["ebm", "fcn"])
    def test_family_log_likelihood_rejects_an_empty_dataset(self, kind):
        # each family's own log likelihood, called directly, names the empty
        # set: not a ZeroDivisionError (ebm) or a nan mean with a warning (fcn)
        model, empty = _untrained_model_and_empty_set(kind)
        with pytest.raises(ValueError, match="dataset is empty"):
            if kind == "ebm":
                ebm.log_likelihood(model, empty, GridSpec(-1, 1, 64))
            else:
                fcn.log_likelihood(model, empty)


def _untrained_model_and_empty_set(kind):
    """An untrained model of the family ``kind`` and an empty dataset of its
    window."""
    series = simulate_ar("gaussian", 50, seed=1)
    ds = make_windows(series, WindowConfig(1, 0))
    std = fit_standardizer(ds)
    if kind == "ebm":
        model = build_ebnarx(ds.cfg, width=4, seed=0, standardizer=std)
    else:
        model = FcnModel(build_fcn(ds.cfg, width=4, seed=0), std, 1.0, ds.cfg)
    return model, type(ds)(ds.x[:0], ds.y[:0], ds.t0, ds.cfg)


class TestMakeSeries:
    def test_generator_dispatch(self):
        series = make_series({"name": "chen", "n_samples": 50, "sigma_v": 0.1,
                              "sigma_w": 0.1, "seed": 1})
        assert len(series) == 50

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            make_series(None, None)
        with pytest.raises(ValueError):
            make_series({"name": "arx", "n_samples": 10, "seed": 0}, "also.csv")

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            make_series({"name": "lorenz", "n_samples": 10, "seed": 0})

    @pytest.mark.parametrize("generator, key", [
        ({"name": "ar", "n_samples": 160, "seed": 5}, "noise_kind"),
        ({"name": "arx", "seed": 5}, "n_samples"),
        ({"name": "chen", "n_samples": 160, "sigma_v": 0.1, "seed": 5}, "sigma_w"),
    ], ids=["ar", "arx", "chen"])
    def test_missing_generator_key_named(self, generator, key):
        with pytest.raises(ValueError,
                           match=f"{generator['name']} generator settings are missing key '{key}'"):
            make_series(generator)

    @pytest.mark.parametrize("generator", [
        {"name": "ar", "noise_kind": "gaussian", "n_samples": 160.5, "seed": 5},
        {"name": "arx", "n_samples": 160.0, "seed": 5},
        {"name": "chen", "n_samples": "160", "sigma_v": 0.1, "sigma_w": 0.1, "seed": 5},
    ], ids=["ar", "arx", "chen"])
    def test_non_integer_sample_count_rejected(self, generator):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            make_series(generator)


class TestRunSweep:
    def test_single_ebm_trial_matches_direct_run(self):
        spec = _ebm_spec()
        records, best = run_sweep(spec)
        assert len(records) == 1
        assert best is records[0]

        # the same pipeline run by hand gives the same number
        from ebnarx.ebm import NceConfig, TrainConfig, train_ebnarx
        from ebnarx.harness import evaluate_mse as ev
        from ebnarx.inference import AscentConfig, default_grid

        series = make_series(spec.generator)
        ds = make_windows(series, spec.window)
        train_ds, val_ds = split_windows(ds, spec.split_fraction)
        model, _ = train_ebnarx(train_ds, NceConfig(16, (0.1, 0.8), seed=0),
                                TrainConfig(batch_size=32, max_epochs=40, patience=8),
                                width=16, seed=0)
        grid = default_grid(model.standardizer, spec.grid_points)
        direct = ev(model, val_ds, grid, AscentConfig(iters=20))
        assert best.mse == pytest.approx(direct, rel=1e-12)

    def test_best_is_minimum_and_records_persist(self, tmp_path):
        spec = _tiny_spec(seeds=(0, 1, 2))
        records_path = tmp_path / "records.ndjson"
        model_path = tmp_path / "best.json"
        records, best = run_sweep(spec, records_path, model_path)
        assert len(records) == 3
        assert best.mse == min(r.mse for r in records)
        assert best.model_path == str(model_path)
        loaded = [json.loads(line) for line in records_path.read_text().splitlines()]
        assert len(loaded) == 3
        assert all(r["spec_hash"] == spec.spec_hash() for r in loaded)
        assert load_model(model_path).window_cfg == spec.window

    def test_failed_trials_are_skipped(self):
        # batch size larger than the dataset fails that trial only
        spec = _tiny_spec(batch_sizes=(16, 50_000))
        records, best = run_sweep(spec)
        assert len(records) == 1
        assert best.batch_size == 16

    def test_programming_errors_propagate(self, monkeypatch):
        def broken_trial(*args):
            raise TypeError("bug in trial code")

        monkeypatch.setattr(harness, "_train_trial", broken_trial)
        with pytest.raises(TypeError, match="bug in trial code"):
            run_sweep(_tiny_spec())

    def test_all_failures_raise(self):
        spec = _tiny_spec(batch_sizes=(50_000,))
        with pytest.raises(RuntimeError, match="all sweep trials failed"):
            run_sweep(spec)

    @pytest.mark.parametrize("kind", ["fcn", "ebm"])
    def test_csv_data_path_matches_its_generator(self, tmp_path, kind):
        # a CSV keeps every bit of the series it was written from, so a
        # sweep over it scores as the generator's sweep does
        spec = _tiny_spec(model_kind=kind, nce={"n_noise": 16})
        path = tmp_path / "series.csv"
        save_csv(make_series(spec.generator), path)
        on_csv = _tiny_spec(model_kind=kind, nce={"n_noise": 16}, generator=None,
                            data_path=str(path))
        (a,), _ = run_sweep(spec)
        (b,), _ = run_sweep(on_csv)
        assert (a.mse, a.log_likelihood) == (b.mse, b.log_likelihood)

    def test_reproducible(self):
        a = run_sweep(_tiny_spec())[1]
        b = run_sweep(_tiny_spec())[1]
        assert a.mse == b.mse and a.log_likelihood == b.log_likelihood


class TestSpec:
    def test_round_trip_and_hash(self):
        spec = _tiny_spec()
        doc = json.loads(json.dumps(spec.to_dict()))
        back = ExperimentSpec.from_dict(doc)
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()

    def test_levels_key_is_ignored(self):
        # a sweep evaluates MSE and log likelihood only, so older specs that
        # still carry "levels" load as the same spec, with the same hash
        spec = _tiny_spec()
        doc = {**spec.to_dict(), "levels": [0.5, 0.9]}
        assert "levels" not in spec.to_dict()
        back = ExperimentSpec.from_dict(doc)
        assert back == spec and back.spec_hash() == spec.spec_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            _tiny_spec(model_kind="gp")
        with pytest.raises(ValueError):
            _tiny_spec(split_fraction=1.2)
        with pytest.raises(ValueError):
            _tiny_spec(widths=())

    @pytest.mark.parametrize("key, value, message", [
        ("ascent_iters", 50.0, "iters must be an integer"),
        ("grid_points", 2048.0, "grid n_points must be an integer"),
        ("grid_points", 8, "at least 16 points"),
    ])
    def test_bad_evaluation_settings_fail_before_training(self, key, value, message):
        # a sweep would otherwise train every trial and log each failure
        doc = json.loads(json.dumps(_tiny_spec().to_dict()))
        doc[key] = value
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("model_kind, key, settings, message", [
        ("ebm", "nce", {"n_noise": 8.5}, "n_noise must be an integer"),
        ("ebm", "nce", {"sigmas": [0.1, float("nan")]}, "sigmas must be non-empty"),
        ("ebm", "nce", {"sigmas": [True, 0.8]}, "sigmas must be non-empty"),
        ("ebm", "nce", {"sigmas": ["0.1", 0.8]}, "sigmas must be non-empty"),
        ("fcn", "train", {"learning_rate": True}, "learning_rate must be a positive finite"),
        ("fcn", "train", {"lr_decay": "0.9"}, "lr_decay must be a number in"),
        ("fcn", "train", {"val_fraction": "0.1"}, "val_fraction must be a number in"),
        ("ebm", "nce", {"n_noise": 8, "bogus": 1}, "unexpected keyword argument 'bogus'"),
        ("ebm", "train", {"max_epochs": 2.0, "patience": 1}, "max_epochs must be an integer"),
        ("fcn", "train", {"max_epochs": 6, "patience": 2, "batch_size": 8},
         "malformed 'train' or 'nce' settings"),
        ("fcn", "seeds", [0, 1.5], "seeds must be non-negative integers"),
        ("fcn", "widths", [8.5], "widths must be positive integers"),
        ("fcn", "widths", [8, True], "widths must be positive integers"),
        ("ebm", "widths", [0], "widths must be positive integers"),
        ("fcn", "widths", ["8"], "widths must be positive integers"),
        ("fcn", "widths", 8, "'widths' must be a list, got 8"),
        ("fcn", "split_fraction", "0.5", "split fraction must be in"),
        ("fcn", "fcn_layers", 2.5, "fcn_layers must be an integer of at least 2"),
        ("fcn", "fcn_layers", 1, "fcn_layers must be an integer of at least 2"),
        ("fcn", "fcn_activation", "sigmoid", "fcn_activation must be 'relu' or 'tanh'"),
    ], ids=["fractional-n_noise", "nan-sigma", "bool-sigma", "string-sigma",
            "bool-learning_rate", "string-lr_decay", "string-val_fraction", "unknown-nce-key",
            "fractional-max_epochs",
            "batch_size-in-train", "fractional-seed", "fractional-width", "bool-width",
            "zero-width", "string-width", "scalar-widths", "string-split_fraction",
            "fractional-fcn_layers", "one-fcn_layer", "unknown-fcn_activation"])
    def test_bad_training_settings_fail_when_built(self, model_kind, key, settings, message):
        # run_sweep would otherwise raise TypeError in its first trial, or
        # train nothing and log every trial's failure
        doc = _tiny_spec(model_kind=model_kind).to_dict()
        doc[key] = settings
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("generator, message", [
        ([1, 2], "generator must be an object of settings, got \\[1, 2\\]"),
        ("ar", "generator must be an object of settings, got 'ar'"),
        ({"seed": 1.5}, "generator seed must be a non-negative integer, got 1.5"),
        ({"seed": True}, "generator seed must be a non-negative integer, got True"),
        ({"seed": -1}, "generator seed must be a non-negative integer, got -1"),
        ({"seed": "5"}, "generator seed must be a non-negative integer, got '5'"),
    ], ids=["list", "string", "fractional-seed", "bool-seed", "negative-seed", "string-seed"])
    def test_malformed_generator_rejected(self, generator, message):
        # named when the spec is built, and by make_series for any caller
        if isinstance(generator, dict):
            generator = {"name": "ar", "noise_kind": "gaussian", "n_samples": 160, **generator}
        doc = json.loads(json.dumps(_tiny_spec().to_dict()))
        doc["generator"] = generator
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(doc)
        with pytest.raises(ValueError, match=message):
            make_series(generator)

    @pytest.mark.parametrize("data_path", [1, True, 0, 2.5, ["a.csv"]],
                             ids=["one", "true", "zero", "float", "list"])
    def test_non_string_data_path_rejected(self, data_path):
        # open() would take 1, True or 0 for a file descriptor: stdout or
        # stdin; named when the spec is built, and by make_series
        doc = json.loads(json.dumps(_tiny_spec().to_dict()))
        doc["generator"] = None
        doc["data_path"] = data_path
        message = f"data_path must be a CSV path string, got {re.escape(repr(data_path))}"
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(doc)
        with pytest.raises(ValueError, match=message):
            make_series(None, data_path)

    @pytest.mark.parametrize("drop, value, message", [
        ("window", None, "sweep spec is missing key 'window'"),
        ("model", None, "sweep spec is missing key 'model'"),
        ("window", {"y_lags": 1}, "sweep spec is missing key 'u_lags'"),
        ("window", [1, 0], "malformed 'window' in the sweep spec"),
    ], ids=["no-window", "no-model", "no-u_lags", "window-list"])
    def test_missing_or_malformed_key_named(self, drop, value, message):
        doc = _tiny_spec().to_dict()
        del doc[drop]
        if value is not None:
            doc[drop] = value
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(doc)

    def test_non_object_spec_rejected(self):
        with pytest.raises(ValueError, match="sweep spec must be a JSON object"):
            ExperimentSpec.from_dict([_tiny_spec().to_dict()])


class TestExportDensitySequence:
    def test_row_counts_and_reintegration(self, tmp_path, ar_gaussian_model):
        model, _, dataset = ar_gaussian_model
        small = type(dataset)(dataset.x[:3], dataset.y[:3], dataset.t0, dataset.cfg)
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 101)
        csv_path, json_path = export_density_sequence(
            model, small, str(tmp_path / "seq"), grid
        )
        with open(csv_path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "t,y,density"
        assert len(lines) == 3 * 101 + 1
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        for t in range(3):
            sel = rows[rows[:, 0] == t]
            assert np.trapezoid(sel[:, 2], sel[:, 1]) == pytest.approx(1.0, abs=1e-6)
        with open(json_path) as fh:
            summaries = json.load(fh)
        assert [s["t"] for s in summaries] == [0, 1, 2]
        assert all("0.65" in s["intervals"] for s in summaries)

    def test_reexport_is_byte_identical(self, tmp_path, ar_gaussian_model):
        model, _, dataset = ar_gaussian_model
        small = type(dataset)(dataset.x[:2], dataset.y[:2], dataset.t0, dataset.cfg)
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 64)
        a = export_density_sequence(model, small, str(tmp_path / "a"), grid)
        b = export_density_sequence(model, small, str(tmp_path / "b"), grid)
        for path_a, path_b in zip(a, b):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                assert fa.read() == fb.read()

    def test_grid_columns_formatted_once_per_grid(self, tmp_path, ar_gaussian_model):
        # exports on equal grids share one tuple of ",y," columns
        model, _, dataset = ar_gaussian_model
        small = type(dataset)(dataset.x[:2], dataset.y[:2], dataset.t0, dataset.cfg)
        std = model.standardizer
        lo, hi = std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y
        harness._y_columns.cache_clear()
        for name in ("a", "b"):
            export_density_sequence(model, small, str(tmp_path / name), GridSpec(lo, hi, 64))
        info = harness._y_columns.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        columns = harness._y_columns(GridSpec(lo, hi, 64))
        assert isinstance(columns, tuple) and len(columns) == 64
        assert columns[0] == f",{lo!r},"

    def test_csv_matches_per_line_formatting(self, tmp_path, ar_gaussian_model):
        # the reference formats every line whole, as t, the grid value and
        # the density, each float by repr; 12 rows give two-digit t values
        model, _, dataset = ar_gaussian_model
        small = type(dataset)(dataset.x[:12], dataset.y[:12], dataset.t0, dataset.cfg)
        std = model.standardizer
        grid = GridSpec(std.y_min - 3 * std.std_y, std.y_max + 3 * std.std_y, 77)
        csv_path, _ = export_density_sequence(model, small, str(tmp_path / "seq"), grid)
        expected = "t,y,density\n" + "".join(
            f"{t},{y_val!r},{d_val!r}\n"
            for t, pred in enumerate(predictions(model, small.x, grid))
            for y_val, d_val in zip(pred.grid.ys.tolist(), pred.grid.density.tolist())
        )
        with open(csv_path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")

    @pytest.mark.parametrize("levels", [(1.5,), (0.65, 0.0), (float("nan"),), ("0.9",), (True,)],
                             ids=["above-one", "zero", "nan", "string", "bool"])
    def test_bad_level_writes_no_file(self, tmp_path, ar_gaussian_model, levels):
        model, _, dataset = ar_gaussian_model
        small = type(dataset)(dataset.x[:2], dataset.y[:2], dataset.t0, dataset.cfg)
        with pytest.raises(ValueError, match=r"levels must be finite numbers in \(0, 1\)"):
            export_density_sequence(model, small, str(tmp_path / "seq"), levels=levels)
        assert list(tmp_path.iterdir()) == []

    def test_empty_dataset_writes_no_file(self, tmp_path, ar_gaussian_model):
        model, _, dataset = ar_gaussian_model
        empty = type(dataset)(dataset.x[:0], dataset.y[:0], dataset.t0, dataset.cfg)
        with pytest.raises(ValueError, match="dataset is empty"):
            export_density_sequence(model, empty, str(tmp_path / "seq"))
        assert list(tmp_path.iterdir()) == []

    def test_prefix_in_a_missing_directory_names_the_prefix(self, tmp_path, ar_gaussian_model):
        model, _, dataset = ar_gaussian_model
        small = type(dataset)(dataset.x[:2], dataset.y[:2], dataset.t0, dataset.cfg)
        prefix = str(tmp_path / "missing" / "seq")
        message = re.escape(f"could not write export files at {prefix!r}")
        with pytest.raises(RuntimeError, match=message):
            export_density_sequence(model, small, prefix)
        assert list(tmp_path.rglob("*")) == []

    def test_failed_export_keeps_the_earlier_one(self, tmp_path):
        # a baseline whose mean is its regressor, raw and standardized:
        # row 70, in the second 64-row chunk of a 2048-point grid, has its
        # mean at the grid's edge, so the export fails after the first
        # chunk's rows are written
        net = MlpNetwork([DenseLayer([[1.0]], [0.0], "identity")])
        std = Standardizer(np.zeros(1), np.ones(1), 0.0, 1.0, -1.0, 1.0)
        model = FcnModel(net, std, 0.01, WindowConfig(1, 0))
        x = np.zeros((80, 1))
        x[70] = 3.0
        grid = GridSpec(-3.0, 3.0, 2048)
        prefix = str(tmp_path / "seq")
        good = WindowDataset(x[:10], np.zeros(10), 1, WindowConfig(1, 0))
        export_density_sequence(model, good, prefix, grid)
        files = sorted(tmp_path.iterdir())
        before = [f.read_bytes() for f in files]
        with pytest.raises(GridTooNarrowError, match="row 70"):
            export_density_sequence(model, WindowDataset(x, np.zeros(80), 1, WindowConfig(1, 0)),
                                    prefix, grid)
        assert sorted(tmp_path.iterdir()) == files
        assert [f.read_bytes() for f in files] == before


class TestLoadModel:
    def test_dispatch(self, tmp_path, ar_gaussian_model):
        from ebnarx.ebm import EbNarxModel

        model, _, _ = ar_gaussian_model
        path = tmp_path / "m.json"
        save_ebm(model, path)
        assert isinstance(load_model(path), EbNarxModel)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(ValueError, match="unknown model kind"):
            load_model(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="model document must be a JSON object"):
            load_model(path)
