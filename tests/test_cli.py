"""End-to-end runs of every CLI subcommand."""

import json

import numpy as np
import pytest

from ebnarx import ebm
from ebnarx.cli import _build_parser, main
from ebnarx.data import WindowConfig, load_csv
from ebnarx.ebm import NceConfig, TrainConfig
from ebnarx.harness import load_model
from ebnarx.inference import LEVELS, AscentConfig, GridSpec, default_grid
from ebnarx.nn import network_from_dict


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated data plus one trained model per family."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    assert main(["generate", "--system", "ar-gaussian", "--length", "400",
                 "--seed", "3", "--out", str(data)]) == 0
    ebm_model = root / "ebm.json"
    assert main(["train", "--data", str(data), "--kind", "ebm",
                 "--y-lags", "1", "--u-lags", "0", "--width", "16",
                 "--batch-size", "32", "--max-epochs", "40", "--patience", "8",
                 "--noise-count", "16", "--seed", "0",
                 "--log-csv", str(root / "log.csv"), "--out", str(ebm_model)]) == 0
    fcn_model = root / "fcn.json"
    assert main(["train", "--data", str(data), "--kind", "fcn",
                 "--y-lags", "1", "--u-lags", "0", "--width", "16",
                 "--batch-size", "32", "--max-epochs", "20", "--patience", "5",
                 "--seed", "0", "--out", str(fcn_model)]) == 0
    return root, data, ebm_model, fcn_model


class TestGenerate:
    def test_systems_roundtrip(self, tmp_path):
        for system in ["ar-bimodal", "arx", "chen"]:
            out = tmp_path / f"{system}.csv"
            code = main(["generate", "--system", system, "--length", "50",
                         "--seed", "1", "--out", str(out)])
            assert code == 0
            assert len(load_csv(out)) == 50

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--system", "arx", "--length", "30", "--seed", "7", "--out", str(a)])
        main(["generate", "--system", "arx", "--length", "30", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--sigma-v", "nan"), ("--sigma-w", "inf")])
    def test_non_finite_chen_noise_exits_nonzero(self, tmp_path, capsys, flag, value):
        out = tmp_path / "chen.csv"
        assert main(["generate", "--system", "chen", "--length", "50", flag, value,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite and non-negative" in err
        assert not out.exists()

    def test_negative_seed_exits_nonzero(self, tmp_path, capsys):
        # every system goes through harness.make_series, whose seed check
        # names the generator seed
        out = tmp_path / "arx.csv"
        assert main(["generate", "--system", "arx", "--length", "50", "--seed", "-1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "generator seed must be a non-negative integer, got -1" in err
        assert not out.exists()


class TestTrain:
    def test_artifacts_written(self, workdir):
        root, _, ebm_model, fcn_model = workdir
        assert json.loads(ebm_model.read_text())["kind"] == "ebnarx"
        assert json.loads(fcn_model.read_text())["kind"] == "fcn"
        log_lines = (root / "log.csv").read_text().strip().split("\n")
        assert log_lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(log_lines) > 1


class TestPredict:
    def test_prediction_json(self, workdir, capsys):
        _, _, ebm_model, _ = workdir
        assert main(["predict", "--model", str(ebm_model),
                     "--regressor", "0.2", "--grid-points", "1024"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"map", "intervals"}
        assert set(doc["intervals"]) == {"0.65", "0.95", "0.99"}

    def test_density_csv_export(self, workdir, tmp_path):
        _, _, ebm_model, _ = workdir
        out = tmp_path / "pred.json"
        dens = tmp_path / "dens.csv"
        assert main(["predict", "--model", str(ebm_model), "--regressor", "0.2",
                     "--grid-points", "1024", "--out", str(out),
                     "--density-csv", str(dens)]) == 0
        doc = json.loads(out.read_text())
        assert "map" in doc
        rows = np.loadtxt(dens, delimiter=",", skiprows=1)
        assert np.trapezoid(rows[:, 1], rows[:, 0]) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("bound", ["--grid-lo", "--grid-hi"])
    def test_lone_grid_bound_keeps_default_other_side(self, workdir, tmp_path, bound):
        _, _, ebm_model, _ = workdir
        # a bound half a unit beyond the default's widens the grid on one side
        default = default_grid(load_model(ebm_model).standardizer, 1024)
        given = default.lo - 0.5 if bound == "--grid-lo" else default.hi + 0.5
        dens = tmp_path / "dens.csv"
        assert main(["predict", "--model", str(ebm_model), "--regressor", "0.2",
                     "--grid-points", "1024", bound, repr(given), "--out",
                     str(tmp_path / "pred.json"), "--density-csv", str(dens)]) == 0
        ys = np.loadtxt(dens, delimiter=",", skiprows=1)[:, 0]
        if bound == "--grid-lo":
            assert (ys[0], ys[-1]) == (given, default.hi)
        else:
            assert (ys[0], ys[-1]) == (default.lo, given)

    def test_lone_grid_bound_beyond_other_side_exits_nonzero(self, workdir, capsys):
        _, _, ebm_model, _ = workdir
        high = default_grid(load_model(ebm_model).standardizer).hi + 1.0
        assert main(["predict", "--model", str(ebm_model), "--regressor", "0.2",
                     "--grid-lo", repr(high)]) == 1
        assert "lo < hi" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["--grid-lo", "--grid-hi"])
    @pytest.mark.parametrize("value", ["-inf", "inf", "nan"])
    def test_non_finite_grid_bound_exits_nonzero(self, workdir, capsys, bound, value):
        # rejected before any grid is built: no RuntimeWarning (an error
        # under pytest) and no "non-finite network input"
        _, _, ebm_model, _ = workdir
        assert main(["predict", "--model", str(ebm_model), "--regressor", "0.2",
                     f"{bound}={value}"]) == 1
        err = capsys.readouterr().err
        assert f"grid {bound[7:]} must be a finite number, got {float(value)!r}" in err

    def test_fcn_predict(self, workdir, capsys):
        _, _, _, fcn_model = workdir
        assert main(["predict", "--model", str(fcn_model), "--regressor", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["intervals"]["0.95"]) == 1


class TestEvaluate:
    def test_metrics_json(self, workdir, capsys, tmp_path):
        _, _, ebm_model, fcn_model = workdir
        val = tmp_path / "val.csv"
        main(["generate", "--system", "ar-gaussian", "--length", "150",
              "--seed", "77", "--out", str(val)])
        capsys.readouterr()
        for model in (ebm_model, fcn_model):
            assert main(["evaluate", "--model", str(model), "--data", str(val)]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["rows"] == 149
            assert doc["mse"] >= 0
            assert np.isfinite(doc["log_likelihood"])


class TestSweep:
    def test_spec_file_run(self, tmp_path, capsys):
        spec = {
            "window": {"y_lags": 1, "u_lags": 0},
            "model": "fcn",
            "generator": {"name": "ar", "noise_kind": "gaussian",
                          "n_samples": 160, "seed": 5},
            "widths": [8], "batch_sizes": [16], "seeds": [0, 1],
            "split_fraction": 0.5,
            "train": {"max_epochs": 6, "patience": 2},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        records = tmp_path / "records.ndjson"
        assert main(["sweep", "--spec", str(spec_path), "--records", str(records)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 2
        assert len(records.read_text().splitlines()) == 2


class TestExportDensity:
    def test_files_written(self, workdir, tmp_path):
        _, data, ebm_model, _ = workdir
        prefix = tmp_path / "seq"
        assert main(["export-density", "--model", str(ebm_model), "--data", str(data),
                     "--out-prefix", str(prefix), "--grid-points", "1024",
                     "--max-rows", "2"]) == 0
        csv_lines = (tmp_path / "seq_density.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 2 * 1024 + 1
        summaries = json.loads((tmp_path / "seq_predictions.json").read_text())
        assert len(summaries) == 2


    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_max_rows_below_one_exits_nonzero(self, workdir, tmp_path, capsys, count):
        _, data, ebm_model, _ = workdir
        prefix = tmp_path / "seq"
        assert main(["export-density", "--model", str(ebm_model), "--data", str(data),
                     "--out-prefix", str(prefix), "--max-rows", count]) == 1
        assert f"--max-rows must be at least 1, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "seq_density.csv").exists()

    def test_bad_level_exits_nonzero_before_writing(self, workdir, tmp_path, capsys):
        _, data, ebm_model, _ = workdir
        assert main(["export-density", "--model", str(ebm_model), "--data", str(data),
                     "--out-prefix", str(tmp_path / "seq"), "--levels", "0.65,1.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "levels must be finite numbers in (0, 1)" in err
        assert list(tmp_path.iterdir()) == []


class TestDefaults:
    def test_parsed_defaults_are_the_library_defaults(self):
        parser = _build_parser()
        args = parser.parse_args(["train", "--data", "d.csv", "--y-lags", "1", "--u-lags", "0",
                                  "--out", "m.json"])
        assert TrainConfig(args.batch_size, args.max_epochs, args.patience, args.learning_rate,
                           args.lr_decay, args.val_fraction) == TrainConfig()
        assert NceConfig(args.noise_count, args.noise_sigmas) == NceConfig()
        predict = parser.parse_args(["predict", "--model", "m.json", "--regressor", "0.1"])
        evaluate = parser.parse_args(["evaluate", "--model", "m.json", "--data", "d.csv"])
        export = parser.parse_args(["export-density", "--model", "m.json", "--data", "d.csv",
                                    "--out-prefix", "p"])
        assert (predict.grid_points == evaluate.grid_points == export.grid_points
                == GridSpec(0.0, 1.0).n_points)
        assert predict.ascent_iters == evaluate.ascent_iters == AscentConfig().iters
        assert predict.levels == export.levels == LEVELS


class TestErrors:
    def test_missing_file_exits_nonzero(self, capsys):
        assert main(["evaluate", "--model", "missing.json", "--data", "missing.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"kind": "ebnarx"}, "feature_net"),
        ({"kind": "fcn"}, "net"),
        ({"kind": "fcn", "net": {"layers": [{"weights": [[1.0]], "biases": [0.0]}]}},
         "activation"),
    ])
    def test_malformed_model_exits_nonzero(self, tmp_path, capsys, doc, key):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(path), "--regressor", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("doc", [[1, 2], "model", 3])
    def test_non_object_model_exits_nonzero(self, tmp_path, capsys, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(path), "--regressor", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "model document must be a JSON object" in err

    @pytest.mark.parametrize("key, value", [("feature_net", [1.0, 2.0]), ("window", "2,0")])
    def test_wrong_value_type_exits_nonzero(self, workdir, tmp_path, capsys, key, value):
        _, _, ebm_model, _ = workdir
        doc = json.loads(ebm_model.read_text())
        doc[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(path), "--regressor", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("field, value, message", [
        ("std_y", -1.0, "standardizer std_y must be positive and finite"),
        ("std_y", 0.0, "standardizer std_y must be positive and finite"),
        ("y_min", 9.0, "standardizer y_min 9.0 exceeds y_max"),
        ("std_y", "2.0", "standardizer std_y must be a finite number, got '2.0'"),
        ("mean_y", True, "standardizer mean_y must be a finite number, got True"),
        ("y_min", "-3", "standardizer y_min must be a finite number, got '-3'"),
        ("y_max", False, "standardizer y_max must be a finite number, got False"),
    ], ids=["negative-std_y", "zero-std_y", "swapped-y-range", "string-std_y", "bool-mean_y",
            "string-y_min", "bool-y_max"])
    def test_bad_standardizer_exits_nonzero(self, workdir, tmp_path, capsys, field, value,
                                            message):
        _, _, ebm_model, _ = workdir
        doc = json.loads(ebm_model.read_text())
        doc["standardizer"][field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(path), "--regressor", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_standardizer_of_another_window_exits_nonzero(self, tmp_path, capsys):
        # a 4-lag window whose standardizer has 3 entries
        path = tmp_path / "model.json"
        ebm.save_model(ebm.build_ebnarx(WindowConfig(2, 2), width=4), path)
        doc = json.loads(path.read_text())
        for field in ("mean_x", "std_x"):
            doc["standardizer"][field] = doc["standardizer"][field][:3]
        path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(path), "--regressor", "0.1,0.2,0.3,0.4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "standardizer mean_x and std_x have 3 entries, but the window has 4" in err

    @staticmethod
    def _predict_width_4_model(tmp_path, tamper):
        """Exit code and stderr of ``predict`` on a width-4 model file that
        ``tamper`` edited in its JSON form."""
        path = tmp_path / "model.json"
        ebm.save_model(ebm.build_ebnarx(WindowConfig(1, 0), width=4), path)
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        return main(["predict", "--model", str(path), "--regressor", "0.2"])

    def test_bool_standardizer_entry_exits_nonzero(self, tmp_path, capsys):
        # read as a float array, [true] would load as [1.0]
        code = self._predict_width_4_model(
            tmp_path, lambda doc: doc["standardizer"].update(std_x=[True]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'standardizer'" in err
        assert "standardizer std_x must hold only numbers, got an entry of type bool" in err

    def test_string_biases_exit_nonzero(self, tmp_path, capsys):
        # read as a float array, list-form biases ["0.0", ...] would load as
        # zeros
        def tamper(doc):
            biases = network_from_dict(doc["predictor_net"]).layers[0].biases
            doc["predictor_net"]["layers"][0]["biases"] = [str(b) for b in biases.tolist()]

        assert self._predict_width_4_model(tmp_path, tamper) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'predictor_net'" in err
        assert "biases must hold only numbers, got an entry of type str" in err

    def test_truncated_weights_exit_nonzero(self, tmp_path, capsys):
        def tamper(doc):
            layer = doc["feature_net"]["layers"][0]
            layer["weights"] = layer["weights"][:-5]

        assert self._predict_width_4_model(tmp_path, tamper) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed 'feature_net'" in err
        assert "weights" in err and "Traceback" not in err

    @pytest.mark.parametrize("skips, bad", [
        ([[0.5, 2], [1, 3]], "(0.5, 2)"),
        ([[0, 2], ["1", 3]], "('1', 3)"),
        ([[0, 2], [True, 3]], "(True, 3)"),
    ], ids=["fractional", "string", "bool"])
    def test_non_integer_skip_exits_nonzero(self, tmp_path, capsys, skips, bad):
        # read through int(), each of these skips would load as (0, 2), (1, 3)
        code = self._predict_width_4_model(
            tmp_path, lambda doc: doc["predictor_net"].update(skips=skips))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'predictor_net'" in err
        assert f"skip {bad} must be a pair of integers" in err

    @pytest.mark.parametrize("variance", [0.0, -0.5, True, "0.04"])
    def test_bad_residual_variance_exits_nonzero(self, workdir, tmp_path, capsys, variance):
        _, _, _, fcn_model = workdir
        doc = json.loads(fcn_model.read_text())
        doc["residual_variance"] = variance
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(path), "--regressor", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"residual_variance must be positive and finite, got {variance!r}" in err

    @pytest.mark.parametrize("fraction", ["1.5", "0", "-0.1", "nan"])
    def test_train_fraction_outside_range_exits_nonzero(self, workdir, tmp_path, capsys,
                                                        fraction):
        _, data, _, _ = workdir
        out = tmp_path / "never.json"
        assert main(["train", "--data", str(data), "--kind", "fcn",
                     "--y-lags", "1", "--u-lags", "0", "--train-fraction", fraction,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--train-fraction must be in (0, 1]" in err
        assert not out.exists()

    def test_bad_sweep_spec_exits_nonzero(self, tmp_path, capsys):
        spec = {"window": {"y_lags": 1, "u_lags": 0}, "model": "ebm",
                "generator": {"name": "ar", "noise_kind": "gaussian", "n_samples": 120,
                              "seed": 0},
                "widths": [8], "batch_sizes": [16], "seeds": [0],
                "nce": {"n_noise": 8.5}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_noise must be an integer, got 8.5" in err

    @pytest.mark.parametrize("generator, message", [
        ({"name": "ar", "noise_kind": "gaussian", "n_samples": 160, "seed": 1.5},
         "generator seed must be a non-negative integer, got 1.5"),
        ([1, 2], "generator must be an object of settings, got [1, 2]"),
        ("ar", "generator must be an object of settings, got 'ar'"),
    ], ids=["fractional-seed", "list", "string"])
    def test_sweep_spec_with_malformed_generator_exits_nonzero(self, tmp_path, capsys,
                                                               generator, message):
        spec = {"window": {"y_lags": 1, "u_lags": 0}, "model": "fcn",
                "generator": generator, "widths": [8], "batch_sizes": [16], "seeds": [0]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("data_path", [1, True, 0, ["a.csv"]],
                             ids=["one", "true", "zero", "list"])
    def test_sweep_spec_with_non_string_data_path_exits_nonzero(self, tmp_path, capsys,
                                                                data_path):
        # 1 and True would read and close stdout, 0 read stdin
        spec = {"window": {"y_lags": 1, "u_lags": 0}, "model": "fcn", "data_path": data_path,
                "widths": [8], "batch_sizes": [16], "seeds": [0]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"data_path must be a CSV path string, got {data_path!r}" in err

    def test_sweep_spec_without_window_exits_nonzero(self, tmp_path, capsys):
        spec = {"model": "fcn",
                "generator": {"name": "ar", "noise_kind": "gaussian", "n_samples": 160,
                              "seed": 5},
                "widths": [8], "batch_sizes": [16], "seeds": [0]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing key 'window'" in err

    def test_sweep_spec_with_fractional_layer_count_exits_nonzero(self, tmp_path, capsys):
        spec = {"window": {"y_lags": 1, "u_lags": 0}, "model": "fcn",
                "generator": {"name": "ar", "noise_kind": "gaussian", "n_samples": 160,
                              "seed": 5},
                "widths": [8], "batch_sizes": [16], "seeds": [0], "fcn_layers": 2.5}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fcn_layers must be an integer" in err

    def test_sweep_spec_with_fractional_lag_exits_nonzero(self, tmp_path, capsys):
        spec = {"window": {"y_lags": 1.5, "u_lags": 0}, "model": "fcn",
                "generator": {"name": "ar", "noise_kind": "gaussian", "n_samples": 160,
                              "seed": 5},
                "widths": [8], "batch_sizes": [16], "seeds": [0]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lag counts must be integers" in err

    def test_model_with_fractional_lag_exits_nonzero(self, workdir, tmp_path, capsys):
        _, _, ebm_model, _ = workdir
        doc = json.loads(ebm_model.read_text())
        doc["window"]["y_lags"] = 1.5
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(path), "--regressor", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lag counts must be integers" in err

    def test_bad_training_config_exits_nonzero(self, workdir, capsys):
        _, data, _, _ = workdir
        assert main(["train", "--data", str(data), "--kind", "fcn",
                     "--y-lags", "1", "--u-lags", "0",
                     "--max-epochs", "5", "--patience", "10",
                     "--out", "/tmp/never.json"]) == 1
        assert "patience" in capsys.readouterr().err

    def test_zero_learning_rate_exits_nonzero(self, workdir, tmp_path, capsys):
        _, data, _, _ = workdir
        out = tmp_path / "never.json"
        assert main(["train", "--data", str(data), "--kind", "fcn",
                     "--y-lags", "1", "--u-lags", "0", "--learning-rate", "0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "learning_rate must be a positive finite number, got 0.0" in err
        assert not out.exists()

    def test_hold_out_leaving_no_training_rows_exits_nonzero(self, tmp_path, capsys):
        # 10 windows, all of them held out: nothing is trained or saved
        data, out, log = tmp_path / "short.csv", tmp_path / "never.json", tmp_path / "log.csv"
        assert main(["generate", "--system", "ar-gaussian", "--length", "11",
                     "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--kind", "fcn",
                     "--y-lags", "1", "--u-lags", "0", "--batch-size", "4",
                     "--val-fraction", "0.95", "--log-csv", str(log),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "leaving no training rows" in err
        assert not out.exists() and not log.exists()
