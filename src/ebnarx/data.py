"""Data generation, CSV ingestion, lag windowing and standardization.

Three simulators produce input/output series with known ground truth (a
first-order autoregression with selectable noise families, a second-order
linear ARX system with Gaussian-mixture noise, and the Chen nonlinear
benchmark).  ``make_windows`` turns a series into supervised regressor/target
pairs; ``Standardizer`` handles per-column normalization fitted on the
training split only.
"""

import codecs
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .mathutil import is_finite_real, is_integer, real_array

AR_NOISE_KINDS = ("gaussian", "bimodal", "cauchy", "state_dependent")


@dataclass
class IoSeries:
    """Aligned input and output sequences of one length, all values finite."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.u.ndim != 1 or self.y.ndim != 1:
            raise ValueError("u and y must be 1-D")
        if len(self.u) != len(self.y):
            raise ValueError(f"u has {len(self.u)} samples but y has {len(self.y)}")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.y))):
            raise ValueError("series contains non-finite values")

    def __len__(self):
        return len(self.y)


def _check_length(n_samples, least):
    """Raises ValueError unless ``n_samples`` is an integer of at least ``least``."""
    if not is_integer(n_samples):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < least:
        raise ValueError(f"need at least {least} samples")


def simulate_ar(noise_kind, n_samples, seed):
    """Simulate ``y_t = 0.95 y_{t-1} + e_t`` with a selectable noise family.

    Parameters
    ----------
    noise_kind : str
        One of ``gaussian`` (N(0, 0.2^2)), ``bimodal`` (equal mixture of
        N(+-0.4, 0.1^2)), ``cauchy`` (scale 0.2), or ``state_dependent``
        (std 0.3 while |y_{t-1}| < 0.5, else 0.05).
    n_samples : int
        Series length, at least 2.
    seed : int
        Draws are deterministic given the seed.

    Returns
    -------
    IoSeries starting at ``y_0 = 0``, with an all-zero input channel (the
    system is autonomous).
    """
    if noise_kind not in AR_NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise_kind!r}, expected one of {AR_NOISE_KINDS}")
    _check_length(n_samples, 2)
    rng = np.random.default_rng(seed)
    y = np.empty(n_samples)
    y[0] = 0.0
    if noise_kind == "state_dependent":
        # the scale depends on the running state, so each step draws its own
        for t in range(1, n_samples):
            scale = 0.3 if abs(y[t - 1]) < 0.5 else 0.05
            y[t] = 0.95 * y[t - 1] + rng.normal(0.0, scale)
    else:
        if noise_kind == "gaussian":
            e = rng.normal(0.0, 0.2, n_samples)
        elif noise_kind == "bimodal":
            centers = np.where(rng.random(n_samples) < 0.5, 0.4, -0.4)
            e = centers + rng.normal(0.0, 0.1, n_samples)
        else:  # cauchy
            e = 0.2 * rng.standard_cauchy(n_samples)
        for t in range(1, n_samples):
            y[t] = 0.95 * y[t - 1] + e[t]
    return IoSeries(np.zeros(n_samples), y)


def simulate_arx(n_samples, seed):
    """Simulate the second-order linear ARX system.

    ``y_t = 1.5 y_{t-1} - 0.7 y_{t-2} + u_{t-1} + 0.5 u_{t-2} + e_t`` with
    standard-normal input and noise ``0.6 N(0, 0.1^2) + 0.4 N(0, 0.3^2)``,
    starting at ``y_0 = y_1 = 0``.
    """
    _check_length(n_samples, 3)
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.0, n_samples)
    scale = np.where(rng.random(n_samples) < 0.6, 0.1, 0.3)
    e = scale * rng.normal(0.0, 1.0, n_samples)
    y = np.empty(n_samples)
    y[0] = y[1] = 0.0
    for t in range(2, n_samples):
        y[t] = 1.5 * y[t - 1] - 0.7 * y[t - 2] + u[t - 1] + 0.5 * u[t - 2] + e[t]
    return IoSeries(u, y)


def chen_step(y_prev, y_prev2, u_prev, u_prev2):
    """Deterministic part of the Chen nonlinear benchmark recursion."""
    damp = math.exp(-y_prev * y_prev)
    return ((0.8 - 0.5 * damp) * y_prev
            - (0.3 + 0.9 * damp) * y_prev2
            + u_prev + 0.2 * u_prev2 + 0.1 * u_prev * u_prev2)


def simulate_chen(n_samples, sigma_v, sigma_w, seed):
    """Simulate the Chen nonlinear benchmark with process and measurement noise.

    The latent state follows :func:`chen_step` plus process noise
    ``N(0, sigma_v^2)``; the measured output adds ``N(0, sigma_w^2)``.
    """
    _check_length(n_samples, 3)
    if not all(is_finite_real(sigma) and sigma >= 0 for sigma in (sigma_v, sigma_w)):
        raise ValueError(f"noise standard deviations must be finite and non-negative, "
                         f"got sigma_v={sigma_v!r}, sigma_w={sigma_w!r}")
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.0, n_samples)
    v = rng.normal(0.0, sigma_v, n_samples) if sigma_v > 0 else np.zeros(n_samples)
    w = rng.normal(0.0, sigma_w, n_samples) if sigma_w > 0 else np.zeros(n_samples)
    y_star = np.empty(n_samples)
    y_star[0] = y_star[1] = 0.0
    for t in range(2, n_samples):
        y_star[t] = chen_step(y_star[t - 1], y_star[t - 2], u[t - 1], u[t - 2]) + v[t]
    return IoSeries(u, y_star + w)


def read_text(path):
    """The text of the UTF-8 file at ``path``; a leading byte-order mark, as
    spreadsheet exports and some editors write, is skipped.  Raises
    ValueError naming the file and the byte position where it stops being
    UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw[start:].decode("utf-8")
    except UnicodeDecodeError as err:
        pos = start + err.start
        raise ValueError(f"{path}: not UTF-8 text: cannot decode byte {raw[pos]:#04x} at "
                         f"byte position {pos} ({err.reason})") from None


def load_csv(path):
    """Load an input/output series from CSV with header ``u,y``, read by
    :func:`read_text`.

    Raises ValueError naming the offending line for malformed or non-finite
    rows, missing headers or an empty data section, and naming the byte
    position of a file that is not UTF-8.
    """
    try:
        text = read_text(path)
    except OSError as err:
        raise ValueError(f"cannot open {path}: {err}") from err
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: file is empty") from None
    if [h.strip() for h in header] != ["u", "y"]:
        raise ValueError(f"{path}: line 1: expected header 'u,y', got {','.join(header)!r}")
    us, ys = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: line {lineno}: expected two fields, got {len(row)}")
        try:
            u_val, y_val = float(row[0]), float(row[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: could not parse {row!r}") from None
        if not (math.isfinite(u_val) and math.isfinite(y_val)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        us.append(u_val)
        ys.append(y_val)
    if not ys:
        raise ValueError(f"{path}: no data rows")
    return IoSeries(np.array(us), np.array(ys))


def save_csv(series, path):
    """Write a series as CSV with header ``u,y`` at full float64 precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,y\n")
        for u_val, y_val in zip(series.u, series.y):
            fh.write(f"{float(u_val)!r},{float(y_val)!r}\n")


@dataclass(frozen=True)
class WindowConfig:
    """Maximum output delay ``y_lags`` and input delay ``u_lags``."""

    y_lags: int
    u_lags: int

    def __post_init__(self):
        if not (is_integer(self.y_lags) and is_integer(self.u_lags)):
            raise ValueError(f"lag counts must be integers, got y_lags={self.y_lags!r}, "
                             f"u_lags={self.u_lags!r}")
        if self.y_lags < 0 or self.u_lags < 0:
            raise ValueError("lag counts must be non-negative")
        if self.y_lags + self.u_lags < 1:
            raise ValueError("need at least one lag in total")

    @property
    def dim(self):
        return self.y_lags + self.u_lags

    @property
    def max_lag(self):
        return max(self.y_lags, self.u_lags)


@dataclass
class WindowDataset:
    """Supervised pairs: regressor rows ``[y_{t-1..t-Dy}, u_{t-1..t-Du}]`` -> ``y_t``.

    ``t0`` is the source index of the first usable target sample; row ``i``
    corresponds to source index ``t0 + i``.
    """

    x: np.ndarray
    y: np.ndarray
    t0: int
    cfg: WindowConfig

    def __len__(self):
        return len(self.y)


def make_windows(series, cfg):
    """Build a WindowDataset from a series; never uses indices >= t in row t."""
    t0 = cfg.max_lag
    n = len(series) - t0
    if n < 1:
        raise ValueError(
            f"series of length {len(series)} is too short for max lag {t0}"
        )
    cols = []
    for j in range(1, cfg.y_lags + 1):
        cols.append(series.y[t0 - j:t0 - j + n])
    for j in range(1, cfg.u_lags + 1):
        cols.append(series.u[t0 - j:t0 - j + n])
    x = np.column_stack(cols)
    return WindowDataset(x, series.y[t0:t0 + n].copy(), t0, cfg)


def split_windows(dataset, train_fraction):
    """Chronological split: the first fraction of rows trains."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n_train = int(round(len(dataset) * train_fraction))
    n_train = min(max(n_train, 1), len(dataset) - 1)
    head = WindowDataset(dataset.x[:n_train], dataset.y[:n_train], dataset.t0, dataset.cfg)
    tail = WindowDataset(
        dataset.x[n_train:], dataset.y[n_train:], dataset.t0 + n_train, dataset.cfg
    )
    return head, tail


@dataclass
class Standardizer:
    """Column statistics of the training split (population convention).

    ``y_min``/``y_max`` record the training target range; together with
    ``std_y`` they drive the default prediction grid.
    """

    mean_x: np.ndarray
    std_x: np.ndarray
    mean_y: float
    std_y: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.mean_x.ndim != 1 or self.mean_x.shape != self.std_x.shape:
            raise ValueError(f"standardizer mean_x and std_x must be vectors of one length, "
                             f"got shapes {self.mean_x.shape} and {self.std_x.shape}")
        for name in ("mean_x", "mean_y", "y_min", "y_max"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"standardizer {name} must be finite")
        for name in ("std_x", "std_y"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value) & (value > 0.0)):
                raise ValueError(f"standardizer {name} must be positive and finite, got {value!r}")
        if self.y_min > self.y_max:
            raise ValueError(f"standardizer y_min {self.y_min!r} exceeds y_max {self.y_max!r}")

    def check_window(self, cfg):
        """Raises ValueError unless ``mean_x`` and ``std_x`` hold one entry
        per regressor of the lag window ``cfg``."""
        if self.mean_x.size != cfg.dim:
            raise ValueError(
                f"standardizer mean_x and std_x have {self.mean_x.size} entries, "
                f"but the window has {cfg.dim} regressors")

    def apply_x(self, x):
        return (np.asarray(x, dtype=float) - self.mean_x) / self.std_x

    def apply_y(self, y):
        return (np.asarray(y, dtype=float) - self.mean_y) / self.std_y

    def invert_y(self, y_std):
        return np.asarray(y_std, dtype=float) * self.std_y + self.mean_y

    def to_dict(self):
        return {
            "mean_x": self.mean_x.tolist(),
            "std_x": self.std_x.tolist(),
            "mean_y": self.mean_y,
            "std_y": self.std_y,
            "y_min": self.y_min,
            "y_max": self.y_max,
        }

    @classmethod
    def from_dict(cls, doc):
        try:
            scalars = ("mean_y", "std_y", "y_min", "y_max")
            for name in scalars:
                if not is_finite_real(doc[name]):
                    raise ValueError(
                        f"standardizer {name} must be a finite number, got {doc[name]!r}")
            return cls(
                real_array(doc["mean_x"], "standardizer mean_x"),
                real_array(doc["std_x"], "standardizer std_x"),
                *(float(doc[name]) for name in scalars),
            )
        except (TypeError, AttributeError) as err:
            raise ValueError(f"standardizer document is malformed: {err}") from err


def fit_standardizer(train):
    """Fit per-column statistics on the training split.

    Raises ValueError naming the first degenerate (constant) column.
    """
    if len(train) < 2:
        raise ValueError("need at least 2 rows to fit a standardizer")
    mean_x = train.x.mean(axis=0)
    std_x = train.x.std(axis=0)
    for j, s in enumerate(std_x):
        if s <= 0.0:
            raise ValueError(f"x column {j + 1} is constant")
    std_y = float(train.y.std())
    if std_y <= 0.0:
        raise ValueError("target column is constant")
    return Standardizer(
        mean_x, std_x, float(train.y.mean()), std_y,
        float(train.y.min()), float(train.y.max()),
    )
