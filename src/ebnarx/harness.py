"""Experiment orchestration: dataset assembly, sweeps and density exports.

An ExperimentSpec pins everything needed to reproduce a result: the data
source (generator settings or a CSV path), the lag window, the model family
and the hyperparameter ranges.  ``run_sweep`` trains one model per
(width, batch size, seed) combination, evaluates MAP-based validation MSE
and mean log likelihood, and reports the best trial; records append to a
newline-delimited JSON file keyed by a hash of the spec.
"""

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import ebm, fcn
from .data import (
    WindowConfig,
    load_csv,
    make_windows,
    simulate_ar,
    simulate_arx,
    simulate_chen,
    split_windows,
)
from .ebm import NceConfig, TrainConfig, train_ebnarx
from .fcn import FcnModel, fcn_predict, train_fcn
from .inference import (
    AscentConfig,
    GridSpec,
    check_levels,
    default_grid,
    map_estimate,
    prediction_to_dict,
    predictions,
)
from .mathutil import is_finite_real, is_integer
from .nn import TrainingError

logger = logging.getLogger(__name__)


def check_generator(generator):
    """Raises ValueError unless generator settings are a dict whose seed, if
    given, is a non-negative integer; bools are rejected."""
    if not isinstance(generator, dict):
        raise ValueError(f"generator must be an object of settings, got {generator!r}")
    seed = generator.get("seed", 0)
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"generator seed must be a non-negative integer, got {seed!r}")


def check_data_path(data_path):
    """Raises ValueError unless a data path is a string: ``open`` would read
    a number (or a bool) as a file descriptor."""
    if not isinstance(data_path, str):
        raise ValueError(f"data_path must be a CSV path string, got {data_path!r}")


def make_series(generator=None, data_path=None):
    """Build an IoSeries from generator settings or a CSV file."""
    if (generator is None) == (data_path is None):
        raise ValueError("specify exactly one of generator settings or a data path")
    if data_path is not None:
        check_data_path(data_path)
        return load_csv(data_path)
    check_generator(generator)
    gen = dict(generator)
    name = gen.pop("name", None)
    try:
        if name == "ar":
            return simulate_ar(gen["noise_kind"], gen["n_samples"], gen["seed"])
        if name == "arx":
            return simulate_arx(gen["n_samples"], gen["seed"])
        if name == "chen":
            return simulate_chen(gen["n_samples"], gen["sigma_v"], gen["sigma_w"], gen["seed"])
    except KeyError as err:
        raise ValueError(f"{name} generator settings are missing key {err.args[0]!r}") from err
    raise ValueError(f"unknown generator {name!r}")


def _document(obj):
    """The fields of the spec or record ``obj`` as a JSON-ready dict, in
    field order: ``model_kind`` under the key ``"model"``, tuples as lists
    and the lag window as a dict."""
    return {("model" if key == "model_kind" else key): list(value) if isinstance(value, tuple)
            else value for key, value in asdict(obj).items()}


@dataclass
class ExperimentSpec:
    """Reproducible description of one sweep."""

    window: WindowConfig
    model_kind: str
    generator: dict | None = None
    data_path: str | None = None
    widths: tuple = (50, 100, 200)
    batch_sizes: tuple = (32, 64)
    seeds: tuple = (0, 1, 2, 3)
    split_fraction: float = 0.5
    train: dict = field(default_factory=dict)
    nce: dict = field(default_factory=dict)
    fcn_layers: int = 3
    fcn_activation: str = "relu"
    grid_points: int = 2048
    ascent_iters: int = 50
    levels: tuple = (0.65, 0.95, 0.99)

    def __post_init__(self):
        if self.model_kind not in ("ebm", "fcn"):
            raise ValueError("model kind must be 'ebm' or 'fcn'")
        if not (is_finite_real(self.split_fraction) and 0.0 < self.split_fraction < 1.0):
            raise ValueError("split fraction must be in (0, 1)")
        if self.n_trials < 1:
            raise ValueError("sweep needs at least one trial")
        if self.generator is not None:
            check_generator(self.generator)
        if self.data_path is not None:
            check_data_path(self.data_path)
        if not all(is_integer(seed) and seed >= 0 for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative integers, got {self.seeds!r}")
        if not all(is_integer(width) and width > 0 for width in self.widths):
            raise ValueError(f"widths must be positive integers, got {self.widths!r}")
        if not (is_integer(self.fcn_layers) and self.fcn_layers >= 2):
            raise ValueError(
                f"fcn_layers must be an integer of at least 2, got {self.fcn_layers!r}")
        if self.fcn_activation not in ("relu", "tanh"):
            raise ValueError(
                f"fcn_activation must be 'relu' or 'tanh', got {self.fcn_activation!r}")
        check_levels(self.levels)
        # check the training and evaluation settings before any trial trains
        for batch_size in self.batch_sizes:
            self.trial_configs(batch_size, self.seeds[0])
        GridSpec(0.0, 1.0, self.grid_points)
        AscentConfig(iters=self.ascent_iters)

    def trial_configs(self, batch_size, seed):
        """``(TrainConfig, NceConfig)`` of the trial with this batch size and
        seed, the NceConfig None for the baseline; raises ValueError when
        the spec's training settings are malformed."""
        try:
            tc = TrainConfig(batch_size=batch_size, **self.train)
            nce = NceConfig(**{"seed": seed, **self.nce}) if self.model_kind == "ebm" else None
        except TypeError as err:
            raise ValueError(
                f"malformed 'train' or 'nce' settings in the sweep spec: {err}") from err
        return tc, nce

    @property
    def n_trials(self):
        return len(self.widths) * len(self.batch_sizes) * len(self.seeds)

    def to_dict(self):
        return _document(self)

    @classmethod
    def from_dict(cls, doc):
        """Spec from its :meth:`to_dict` form; raises ValueError naming a
        missing key or a malformed ``window``."""
        if not isinstance(doc, dict):
            raise ValueError("sweep spec must be a JSON object")
        try:
            window = WindowConfig(doc["window"]["y_lags"], doc["window"]["u_lags"])
            model_kind = doc["model"]
        except KeyError as err:
            raise ValueError(f"sweep spec is missing key {err.args[0]!r}") from err
        except TypeError as err:
            raise ValueError(f"malformed 'window' in the sweep spec: {err}") from err
        kwargs = {}
        for f in fields(cls)[2:]:  # the fields after window and model_kind
            key = f.name
            if not isinstance(f.default, tuple):
                if doc.get(key) is not None:
                    kwargs[key] = doc[key]
            elif key in doc:
                if not isinstance(doc[key], list):
                    raise ValueError(f"sweep spec {key!r} must be a list, got {doc[key]!r}")
                kwargs[key] = tuple(doc[key])
        return cls(window=window, model_kind=model_kind, **kwargs)

    def spec_hash(self):
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class ResultRecord:
    """Outcome of one sweep trial."""

    spec_hash: str
    model_kind: str
    width: int
    batch_size: int
    seed: int
    mse: float
    log_likelihood: float
    wall_time_s: float
    model_path: str | None = None

    def to_dict(self):
        return _document(self)


def evaluate_mse(model, dataset, grid=None, ascent=None):
    """Mean squared error of MAP point predictions, raw units.

    For the baseline the MAP equals the predicted mean; for the energy model
    every row runs the grid-plus-ascent MAP search.
    """
    if len(dataset) == 0:
        raise ValueError("validation set is empty")
    if isinstance(model, FcnModel):
        preds, _ = fcn_predict(model, dataset.x)
    else:
        grid = grid or default_grid(model.standardizer)
        ascent = ascent or AscentConfig()
        preds = np.array([
            map_estimate(model, row, grid, ascent) for row in dataset.x
        ])
    err = dataset.y - preds
    return float((err * err).mean())


def evaluate_log_likelihood(model, dataset, grid=None):
    """Mean log predictive density of the targets, raw units."""
    if isinstance(model, FcnModel):
        return fcn.log_likelihood(model, dataset)
    return ebm.log_likelihood(model, dataset, grid or default_grid(model.standardizer))


def _train_trial(spec, train_ds, width, batch_size, seed):
    tc, nce = spec.trial_configs(batch_size, seed)
    if spec.model_kind == "ebm":
        model, log = train_ebnarx(train_ds, nce, tc, width=width, seed=seed)
    else:
        model, log = train_fcn(train_ds, tc, width=width, n_layers=spec.fcn_layers,
                               activation=spec.fcn_activation, seed=seed)
    return model, log


def run_sweep(spec, records_path=None, best_model_path=None):
    """Train and evaluate every trial in the spec.

    Trials that fail with a ValueError (such as a batch larger than the data
    or a grid too narrow) or a TrainingError are logged with the error class
    and skipped; the sweep fails only if every trial fails.  Other errors
    propagate.  Returns ``(records, best_record)`` with the best trial
    chosen by validation MSE; records are appended to ``records_path`` as
    newline-delimited JSON when given, and the best model is saved to
    ``best_model_path`` when given.
    """
    series = make_series(spec.generator, spec.data_path)
    dataset = make_windows(series, spec.window)
    train_ds, val_ds = split_windows(dataset, spec.split_fraction)

    records = []
    best = None
    best_model = None
    spec_hash = spec.spec_hash()
    for width in spec.widths:
        for batch_size in spec.batch_sizes:
            for seed in spec.seeds:
                start = time.perf_counter()
                try:
                    model, _ = _train_trial(spec, train_ds, width, batch_size, seed)
                    grid = default_grid(model.standardizer, spec.grid_points)
                    ascent = AscentConfig(iters=spec.ascent_iters)
                    mse = evaluate_mse(model, val_ds, grid, ascent)
                    ll = evaluate_log_likelihood(model, val_ds, grid)
                except (ValueError, TrainingError) as err:
                    logger.warning(
                        "trial (width=%s, batch=%s, seed=%s) failed: %s: %s",
                        width, batch_size, seed, type(err).__name__, err,
                    )
                    continue
                record = ResultRecord(
                    spec_hash, spec.model_kind, width, batch_size, seed,
                    mse, ll, time.perf_counter() - start,
                )
                records.append(record)
                if best is None or mse < best.mse:
                    best, best_model = record, model
    if not records:
        raise RuntimeError("all sweep trials failed")
    if best_model_path is not None:
        ebm.save_model(best_model, best_model_path)
        best.model_path = str(best_model_path)
    if records_path is not None:
        with open(records_path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record.to_dict()) + "\n")
    return records, best


def export_density_sequence(model, dataset, out_prefix, grid=None, levels=(0.65, 0.95, 0.99)):
    """Export per-timestep densities and predictions for plotting elsewhere.

    Writes ``{out_prefix}_density.csv`` in long form (t, y, density) and
    ``{out_prefix}_predictions.json`` with the MAP point (the default
    :class:`AscentConfig`) and the highest-density intervals of each of
    ``levels`` per timestep, where ``t`` indexes dataset rows.  Returns the
    two paths.  An empty dataset or a level outside (0, 1) raises
    ValueError before any file is opened.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    check_levels(levels)
    grid = grid or default_grid(model.standardizer)
    preds = predictions(model, dataset.x, grid, levels=levels)
    csv_path = f"{out_prefix}_density.csv"
    json_path = f"{out_prefix}_predictions.json"
    summaries = []
    # every row shares the grid: its ",y," columns are formatted once
    y_cols = [f",{y_val!r}," for y_val in grid.ys.tolist()]
    try:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("t,y,density\n")
            for t, pred in enumerate(preds):
                lines = [y_col + repr(d_val)
                         for y_col, d_val in zip(y_cols, pred.grid.density.tolist())]
                fh.write(f"{t}" + f"\n{t}".join(lines) + "\n")
                summaries.append({"t": t, **prediction_to_dict(pred)})
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summaries, fh, indent=1)
    except OSError as err:
        raise RuntimeError(f"could not write export files at {out_prefix!r}: {err}") from err
    return csv_path, json_path


def load_model(path):
    """Load a saved model of either family, dispatching on its kind tag."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = ebm.document_kind(doc)
    if kind == "ebnarx":
        return ebm.model_from_dict(doc)
    if kind == "fcn":
        return fcn.model_from_dict(doc)
    raise ValueError(f"unknown model kind {kind!r} in {path}")
