"""Conditional output distributions for dynamic systems.

Energy-based NARX models trained with noise contrastive estimation, a
least-squares network baseline, predictive-density inference (MAP points and
highest-density regions) and an experiment harness.
"""

from .data import (
    IoSeries,
    Standardizer,
    WindowConfig,
    WindowDataset,
    fit_standardizer,
    load_csv,
    make_windows,
    save_csv,
    simulate_ar,
    simulate_arx,
    simulate_chen,
    split_windows,
)
from .ebm import (
    EbNarxModel,
    NceConfig,
    TrainConfig,
    build_ebnarx,
    log_likelihood,
    nce_loss,
    sample_noise,
    train_ebnarx,
)
from .fcn import FcnModel, build_fcn, fcn_predict, train_fcn
from .harness import (
    ExperimentSpec,
    ResultRecord,
    evaluate_log_likelihood,
    evaluate_mse,
    export_density_sequence,
    load_model,
    run_sweep,
)
from .inference import (
    AscentConfig,
    DensityGrid,
    GridSpec,
    GridTooNarrowError,
    Prediction,
    default_grid,
    density,
    hdr_intervals,
    map_estimate,
    predict,
    predictions,
)
from .nn import (
    AdamState,
    DenseLayer,
    MlpNetwork,
    TrainingError,
    adam_step,
    init_adam,
    init_network,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AscentConfig", "DenseLayer", "DensityGrid", "EbNarxModel",
    "ExperimentSpec", "FcnModel", "GridSpec", "GridTooNarrowError", "IoSeries",
    "MlpNetwork", "NceConfig", "Prediction", "ResultRecord", "Standardizer",
    "TrainConfig", "TrainingError", "WindowConfig", "WindowDataset",
    "adam_step", "build_ebnarx", "build_fcn", "default_grid", "density",
    "evaluate_log_likelihood", "evaluate_mse", "export_density_sequence",
    "fcn_predict", "fit_standardizer", "hdr_intervals", "init_adam",
    "init_network", "load_csv", "load_model", "log_likelihood", "make_windows",
    "map_estimate", "nce_loss", "predict", "predictions", "run_sweep",
    "sample_noise", "save_csv", "simulate_ar", "simulate_arx", "simulate_chen",
    "split_windows", "train_ebnarx", "train_fcn",
]
