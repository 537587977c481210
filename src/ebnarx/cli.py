"""Command-line interface.

Subcommands: ``generate`` (simulator to CSV), ``train`` (CSV to model JSON),
``predict`` (model + regressor to prediction JSON), ``evaluate`` (model +
CSV to MSE / log likelihood), ``sweep`` (spec JSON to result records) and
``export-density`` (model + CSV to plot-ready files).  Exits 0 on success,
nonzero with a diagnostic on stderr otherwise.
"""

import argparse
import json
import sys

from . import ebm, fcn, harness
from .data import (WindowConfig, WindowDataset, load_csv, make_windows, save_csv, simulate_ar,
                   simulate_arx, simulate_chen, split_windows)
from .ebm import NceConfig, TrainConfig
from .inference import AscentConfig, GridSpec, default_grid, density_to_csv, predict, prediction_to_dict
from .nn import training_log_to_csv

AR_SYSTEMS = {
    "ar-gaussian": "gaussian",
    "ar-bimodal": "bimodal",
    "ar-cauchy": "cauchy",
    "ar-state-dependent": "state_dependent",
}


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ebnarx",
        description="Learn conditional output distributions of dynamic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate a system and write a u,y CSV")
    gen.add_argument("--system", required=True,
                     choices=sorted(AR_SYSTEMS) + ["arx", "chen"])
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--sigma-v", type=float, default=0.3, help="chen process noise std")
    gen.add_argument("--sigma-w", type=float, default=0.3, help="chen measurement noise std")
    gen.add_argument("--out", required=True)

    train = sub.add_parser("train", help="train a model on a u,y CSV")
    train.add_argument("--data", required=True)
    train.add_argument("--kind", choices=["ebm", "fcn"], default="ebm")
    train.add_argument("--y-lags", type=int, required=True)
    train.add_argument("--u-lags", type=int, required=True)
    train.add_argument("--train-fraction", type=float, default=1.0,
                       help="leading fraction of windows used for training (default: all)")
    train.add_argument("--width", type=int, default=100)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--max-epochs", type=int, default=300)
    train.add_argument("--patience", type=int, default=20)
    train.add_argument("--learning-rate", type=float, default=1e-3)
    train.add_argument("--lr-decay", type=float, default=0.99)
    train.add_argument("--val-fraction", type=float, default=0.1)
    train.add_argument("--noise-count", type=int, default=256, help="NCE samples per target")
    train.add_argument("--noise-sigmas", type=_float_list, default=(0.1, 0.8))
    train.add_argument("--noise-seed", type=int, default=None)
    train.add_argument("--layers", type=int, default=3, help="fcn layer count")
    train.add_argument("--activation", choices=["relu", "tanh"], default="relu",
                       help="fcn hidden activation")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--log-csv", default=None, help="write the training log here")
    train.add_argument("--out", required=True)

    pred = sub.add_parser("predict", help="predict the output distribution for one regressor")
    pred.add_argument("--model", required=True)
    pred.add_argument("--regressor", type=_float_list, required=True,
                      help="comma-separated values, output lags then input lags")
    pred.add_argument("--grid-lo", type=float, default=None,
                      help="lower grid bound (default: that of the default grid)")
    pred.add_argument("--grid-hi", type=float, default=None,
                      help="upper grid bound (default: that of the default grid)")
    pred.add_argument("--grid-points", type=int, default=2048)
    pred.add_argument("--levels", type=_float_list, default=(0.65, 0.95, 0.99))
    pred.add_argument("--ascent-iters", type=int, default=50)
    pred.add_argument("--out", default=None, help="write prediction JSON here (default stdout)")
    pred.add_argument("--density-csv", default=None, help="also export the density grid")

    ev = sub.add_parser("evaluate", help="MSE and log likelihood of a model on a u,y CSV")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--grid-points", type=int, default=2048)
    ev.add_argument("--ascent-iters", type=int, default=50)

    sweep = sub.add_parser("sweep", help="run an experiment spec JSON")
    sweep.add_argument("--spec", required=True)
    sweep.add_argument("--records", default=None, help="append result records here (ndjson)")
    sweep.add_argument("--best-model", default=None, help="save the best trial's model here")

    exp = sub.add_parser("export-density", help="export densities for a validation CSV")
    exp.add_argument("--model", required=True)
    exp.add_argument("--data", required=True)
    exp.add_argument("--out-prefix", required=True)
    exp.add_argument("--grid-points", type=int, default=2048)
    exp.add_argument("--levels", type=_float_list, default=(0.65, 0.95, 0.99))
    exp.add_argument("--max-rows", type=int, default=None,
                     help="export only the first rows")
    return parser


def _cmd_generate(args):
    if args.system in AR_SYSTEMS:
        series = simulate_ar(AR_SYSTEMS[args.system], args.length, args.seed)
    elif args.system == "arx":
        series = simulate_arx(args.length, args.seed)
    else:
        series = simulate_chen(args.length, args.sigma_v, args.sigma_w, args.seed)
    save_csv(series, args.out)
    print(f"wrote {args.length} samples to {args.out}")


def _cmd_train(args):
    if not 0.0 < args.train_fraction <= 1.0:
        raise ValueError(f"--train-fraction must be in (0, 1], got {args.train_fraction}")
    series = load_csv(args.data)
    dataset = make_windows(series, WindowConfig(args.y_lags, args.u_lags))
    if args.train_fraction < 1.0:
        dataset, _ = split_windows(dataset, args.train_fraction)
    tc = TrainConfig(
        batch_size=args.batch_size, max_epochs=args.max_epochs, patience=args.patience,
        learning_rate=args.learning_rate, lr_decay=args.lr_decay,
        val_fraction=args.val_fraction,
    )
    if args.kind == "ebm":
        noise_seed = args.seed if args.noise_seed is None else args.noise_seed
        nce = NceConfig(args.noise_count, args.noise_sigmas, noise_seed)
        model, log = ebm.train_ebnarx(dataset, nce, tc, width=args.width, seed=args.seed)
    else:
        model, log = fcn.train_fcn(dataset, tc, width=args.width, n_layers=args.layers,
                                   activation=args.activation, seed=args.seed)
    ebm.save_model(model, args.out)
    if args.log_csv:
        training_log_to_csv(log, args.log_csv)
    print(f"trained {args.kind} model on {len(dataset)} windows; "
          f"best held-out loss {min(rec.val_loss for rec in log):.6g}; saved to {args.out}")


def _grid_for(args, model):
    """The default grid with the bounds given on the command line in place
    of its own."""
    grid = default_grid(model.standardizer, args.grid_points)
    lo = grid.lo if args.grid_lo is None else args.grid_lo
    hi = grid.hi if args.grid_hi is None else args.grid_hi
    return GridSpec(lo, hi, args.grid_points)


def _cmd_predict(args):
    model = harness.load_model(args.model)
    result = predict(model, args.regressor, _grid_for(args, model),
                     AscentConfig(iters=args.ascent_iters), args.levels)
    doc = prediction_to_dict(result)
    if args.density_csv:
        density_to_csv(result.grid, args.density_csv)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    else:
        print(json.dumps(doc, indent=1))


def _cmd_evaluate(args):
    model = harness.load_model(args.model)
    series = load_csv(args.data)
    dataset = make_windows(series, model.window_cfg)
    grid = default_grid(model.standardizer, args.grid_points)
    mse = harness.evaluate_mse(model, dataset, grid, AscentConfig(iters=args.ascent_iters))
    ll = harness.evaluate_log_likelihood(model, dataset, grid)
    print(json.dumps({"rows": len(dataset), "mse": mse, "log_likelihood": ll}))


def _cmd_sweep(args):
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = harness.ExperimentSpec.from_dict(json.load(fh))
    records, best = harness.run_sweep(spec, args.records, args.best_model)
    print(json.dumps({"trials": len(records), "best": best.to_dict()}, indent=1))


def _cmd_export_density(args):
    if args.max_rows is not None and args.max_rows < 1:
        raise ValueError(f"--max-rows must be at least 1, got {args.max_rows}")
    model = harness.load_model(args.model)
    series = load_csv(args.data)
    dataset = make_windows(series, model.window_cfg)
    if args.max_rows is not None:
        dataset = WindowDataset(dataset.x[:args.max_rows], dataset.y[:args.max_rows],
                                dataset.t0, dataset.cfg)
    grid = default_grid(model.standardizer, args.grid_points)
    csv_path, json_path = harness.export_density_sequence(
        model, dataset, args.out_prefix, grid, levels=args.levels
    )
    print(f"wrote {csv_path} and {json_path}")


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "export-density": _cmd_export_density,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
