"""ebnarx benchmark: train, then evaluate and predict, on the Chen system.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of the
checkout the script sits in; nothing is installed.  Every run generates a
Chen series from the seed (sigma_v = sigma_w = 0.3, 1002 samples, 2/2 lags;
the first 500 windows train, the last 500 validate), sets up an evaluation
model, then measures six phases:

    train   ``ebm.train_ebnarx`` (width 100, m = 128, batch 32, fixed epochs)
    fcn     ``fcn.train_fcn`` (width 100, 3 relu layers) plus its evaluate_mse
    eval    ``harness.evaluate_mse`` + ``evaluate_log_likelihood`` on 10 rows
    export  ``harness.export_density_sequence`` on 5 rows
    warm    ``inference.predict`` on one regressor, in process
    cold    ``python -m ebnarx.cli predict`` on one regressor, as a subprocess

Each workload owns some phases and spends ``--seconds`` on them, one unit
of each in turn.  The other phases run only their minimum count of units,
spread evenly over the run, so that every end-to-end metric is reported on
every workload.  Every measured time is scaled to full host speed by a
reference kernel timed around it (see ``Reference``).  Outputs are checked
outside the timed regions.  The last
line of standard output is the JSON result; with ``--trace 1`` its metrics
are the per-layer numbers of set-up and of the workload's own phases, whose
public library functions are wrapped from outside (see ``spans.py``).
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

# numpy is imported lazily: the BLAS thread count must be fixed first.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc's mmap and trim thresholds move with the process's history, so one
# train unit took 1.1-2.2 s with 30k-260k page faults in a run, and another
# run's units faulted more or less.  Fixed high, arrays up to 32 MiB come
# from a heap that is kept, as in a long-lived process once warm.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_SETTINGS = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 512 << 20}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Chen data and model shapes shared by every workload.
N_SAMPLES = 1002
CHEN_SIGMA = 0.3
N_ROWS = 500
WIDTH = 100
N_NOISE = 128
NOISE_SIGMAS = (0.1, 0.8)
BATCH = 32
GRID_POINTS = 2048
ROW_STRIDE = 37  # slices apart; prime, so it cycles through every slice
REL_TOL = 1e-9

PHASES = ("train", "fcn", "eval", "export", "warm", "cold")

# The phases each workload spends its measured time on: fitting models, or
# using a fitted one.  Evaluation and prediction share a workload so that,
# within the benchmark's total time, each run is long enough to average over
# the host's speed drift (see README.md, "Steadiness").
WORKLOADS = {
    "train-chen": ("train", "fcn"),
    "infer-chen": ("eval", "export", "warm", "cold"),
}

LATENCY_PHASES = ("warm", "cold")


@dataclass(frozen=True)
class Plan:
    """Work sizes of one run; the smoke test passes a smaller one."""

    setup_repeats: int = 5
    setup_epochs: int = 2
    train_epochs: int = 2
    fcn_epochs: int = 30
    eval_rows: int = 10
    export_rows: int = 5
    # validation rows of the one untimed log-likelihood pass that sets the
    # memory peak: ebm.log_likelihood batches 64 rows x 2048 grid points, so
    # two full batches
    peak_rows: int = 128
    # units every phase reaches in a run, and all that a phase the workload
    # does not own runs: a few of the long ones, as scaled times vary little;
    # 150 warm calls put the warm tail at p93.3, 30 cold calls at p66.7
    min_units: dict = field(default_factory=lambda: {
        "train": 6, "fcn": 25, "eval": 8, "export": 16, "warm": 150, "cold": 30,
    })


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


class CliExit(Exception):
    """A CLI child exited with a nonzero code."""


def import_library():
    """Import ebnarx from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ebnarx

    if Path(ebnarx.__file__).resolve().parent != SRC / "ebnarx":
        raise ImportError(f"ebnarx resolved to {ebnarx.__file__}, not {SRC}")
    return ebnarx


def tail_index(n):
    """Index of the highest order statistic with at least ten samples above."""
    return max(n - 11, 0) if n >= 11 else n - 1


class Reference:
    """Fixed kernels, timed right before and right after every measured
    region, that gauge how fast the host runs at that moment.

    The host slows the whole process by up to 2x, for seconds to tens of
    minutes at a time (README.md, "Steadiness").  A region's slowdown is the
    mean of its two kernel times over the kernel's time at full speed, and
    its wall time over that slowdown is the time it would take on a steady
    host.  Interpreted code slows more than large matrix products, so each
    phase is gauged by the kernel whose slowdown tracked it on the reference
    machine: ``batch`` for energy-model training and set-up, ``grid`` for
    the rest.  The kernels call no ebnarx code, so a change to the library
    cannot move them.
    """

    # time of each kernel on the reference machine at full speed
    NOMINAL_S = {"grid": 3.6e-3, "batch": 15.5e-3}

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.grid_x = rng.standard_normal((GRID_POINTS, 101))
        self.batch_x = rng.standard_normal((BATCH * (N_NOISE + 1), 101))
        self.w1 = rng.standard_normal((101, WIDTH)) / 10.0
        self.w2 = rng.standard_normal((WIDTH, WIDTH)) / 10.0
        self.w3 = rng.standard_normal((WIDTH, 2)) / 10.0
        self.times = defaultdict(list)

    def slowdown(self, kernel):
        """Time one run of ``kernel``; returns it over the nominal time."""
        start = time.perf_counter()
        getattr(self, kernel)()
        secs = time.perf_counter() - start
        self.times[kernel].append(secs)
        return secs / self.NOMINAL_S[kernel]

    def grid(self):
        """A tanh network pass over as many rows as the grid has, then CSV
        formatting of 1000 of its outputs with ``repr``, as in export."""
        np = self.np
        out = np.tanh(np.tanh(self.grid_x @ self.w1) @ self.w3)
        "".join(f"{t},{a!r},{b!r}\n" for t, (a, b) in enumerate(out[:1000].tolist()))

    def batch(self):
        """Forward and backward pass of a tanh network over the candidate
        rows of one NCE batch."""
        np = self.np
        h1 = np.tanh(self.batch_x @ self.w1)
        h2 = np.tanh(h1 @ self.w2)
        g2 = (h2 @ self.w3 @ self.w3.T) * (1.0 - h2 * h2)
        g1 = (g2 @ self.w2.T) * (1.0 - h1 * h1)
        return h1.T @ g2, self.batch_x.T @ g1


class Sample(NamedTuple):
    """One measured region: its wall time, its work (rows or calls; 0 if it
    failed) and the host's slowdown around it (see :class:`Reference`)."""

    secs: float
    work: int
    slowdown: float

    @property
    def scaled_s(self):
        """The wall time on a steady host at full speed."""
        return self.secs / self.slowdown


class Bench:
    """One run of one workload: setup, phases, checks and metrics."""

    def __init__(self, lib, workload, seed, seconds, workdir, tracer=None, plan=None):
        import numpy as np

        self.np = np
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.plan = plan or Plan()
        self.samples = defaultdict(list)  # phase -> [Sample]
        self.failures = Counter()
        self.attempted = 0
        self.own = WORKLOADS[workload]
        self.traced_s = 0.0
        self.child_traces = []
        self.failure_log = []
        self.trained = None  # last model of the train phase
        self.reference = Reference(np)

    # -- timing, tracing and failure accounting -------------------------

    @contextmanager
    def traced(self, on):
        """Region the tracer records if ``on``: set-up and own phases."""
        if self.tracer is None or not on:
            yield
            return
        self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.traced_s += time.perf_counter() - start
            self.tracer.active = False

    def _fail(self, kind, detail):
        self.failures[kind] += 1
        self.failure_log.append(f"{kind}: {detail}")

    def measure(self, kernel, trace_on, fn):
        """Run ``fn`` between two runs of a reference kernel, traced if
        ``trace_on``; returns its :class:`Sample` and its result.  ``fn``
        returns ``(work, result)``; if it raises, the error passes through."""
        before = self.reference.slowdown(kernel)
        start = time.perf_counter()
        with self.traced(trace_on):
            work, result = fn()
        secs = time.perf_counter() - start
        slowdown = (before + self.reference.slowdown(kernel)) / 2.0
        return Sample(secs, work, slowdown), result

    def unit(self, phase, fn):
        """Time one unit of a phase; returns its result, or None if it
        failed.  A failed unit is timed too, with no work."""
        lib = self.lib
        self.attempted += 1

        def guarded():
            try:
                return fn()
            except (lib.TrainingError, lib.GridTooNarrowError, CliExit) as err:
                self._fail(type(err).__name__, f"{phase}: {err}")
                return 0, None

        kernel = "batch" if phase == "train" else "grid"
        sample, result = self.measure(kernel, phase in self.own, guarded)
        self.samples[phase].append(sample)
        return result

    def check(self, name, fn, *args):
        """Run a correctness check outside the timed region."""
        lib = self.lib
        self.attempted += 1
        try:
            fn(*args)
        except CheckFailed as err:
            self._fail("CheckFailed", f"{name}: {err}")
        except (lib.TrainingError, lib.GridTooNarrowError) as err:
            self._fail(type(err).__name__, f"check {name}: {err}")

    # -- setup ------------------------------------------------------------

    def _nce(self):
        return self.lib.NceConfig(N_NOISE, NOISE_SIGMAS, self.seed)

    def _train_config(self, epochs):
        return self.lib.TrainConfig(batch_size=BATCH, max_epochs=epochs, patience=epochs - 1)

    def _setup_once(self, model_path):
        lib = self.lib
        series = lib.data.simulate_chen(N_SAMPLES, CHEN_SIGMA, CHEN_SIGMA, self.seed)
        windows = lib.data.make_windows(series, lib.WindowConfig(2, 2))
        train_ds = lib.WindowDataset(windows.x[:N_ROWS], windows.y[:N_ROWS],
                                     windows.t0, windows.cfg)
        start = len(windows) - N_ROWS
        val_ds = lib.WindowDataset(windows.x[start:], windows.y[start:],
                                   windows.t0 + start, windows.cfg)
        model, _ = lib.ebm.train_ebnarx(train_ds, self._nce(),
                                        self._train_config(self.plan.setup_epochs),
                                        width=WIDTH, seed=self.seed)
        lib.ebm.save_model(model, model_path)
        return train_ds, val_ds

    def setup(self):
        """Generate the data, train and save the evaluation model; repeated
        ``setup_repeats`` times so that setup_s is a median."""
        self.setup_s = []
        saved = []
        for rep in range(self.plan.setup_repeats):
            path = self.workdir / f"model{rep}.json"
            sample, (self.train_ds, self.val_ds) = self.measure(
                "batch", True, lambda: (1, self._setup_once(path)))
            self.setup_s.append(sample.scaled_s)
            saved.append(path.read_bytes())
        self.model_path = path
        self.check("setup_repeatable", self._check_same, saved)
        self.model = self.lib.harness.load_model(path)
        self.grid = self.lib.default_grid(self.model.standardizer, GRID_POINTS)
        self.check("peak_pass_finite", self._peak_pass)

    def _peak_pass(self):
        """One untimed log-likelihood pass over the validation rows, so that
        peak_rss_mb holds a full ``ebm.log_likelihood`` batch."""
        rows = self._rows(0, self.plan.peak_rows)
        _finite("validation log likelihood",
                self.lib.harness.evaluate_log_likelihood(self.model, rows, self.grid))

    @staticmethod
    def _check_same(saved):
        if any(doc != saved[0] for doc in saved):
            raise CheckFailed("repeated setups saved different models")

    # -- phases ----------------------------------------------------------

    def run(self):
        """Run the own phases in turn, one unit each, until ``seconds`` have
        passed.  Any phase runs out of turn when it falls behind an even
        spread of its minimum count over the run; a phase the workload does
        not own runs only then.  After the deadline, every phase is brought
        up to its minimum count."""
        self.setup()
        mins = self.plan.min_units
        done = dict.fromkeys(PHASES, 0)
        start = time.perf_counter()
        turn = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed < self.seconds:
                due = [p for p in PHASES if done[p] < mins[p] * elapsed / self.seconds]
                if due:
                    phase = min(due, key=lambda p: done[p] / mins[p])
                else:
                    phase = self.own[turn % len(self.own)]
                    turn += 1
            else:
                short = [p for p in PHASES if done[p] < mins[p]]
                if not short:
                    break
                phase = min(short, key=lambda p: done[p] / mins[p])
            getattr(self, f"_{phase}_unit")(done[phase])
            done[phase] += 1
        if self.trained is not None:
            self.check("nce_loss_matches_energy_grid", self._check_nce, self.trained)

    def _rows(self, k, size):
        """The slice of ``size`` validation rows for unit ``k``.  The slices
        are taken ``ROW_STRIDE`` apart, cycling, so that a run's first few
        units sample the whole validation set: the cost of a row depends on
        its data, and neighbouring rows are alike."""
        start = (k * ROW_STRIDE) % (N_ROWS // size) * size
        ds = self.val_ds
        return self.lib.WindowDataset(ds.x[start:start + size], ds.y[start:start + size],
                                      ds.t0 + start, ds.cfg)

    def _train_unit(self, k):
        lib, epochs = self.lib, self.plan.train_epochs

        def fn():
            model, _ = lib.ebm.train_ebnarx(self.train_ds, self._nce(),
                                            self._train_config(epochs),
                                            width=WIDTH, seed=self.seed)
            return epochs * len(self.train_ds), model

        model = self.unit("train", fn)
        if model is not None:
            self.trained = model

    def _check_nce(self, model):
        """nce_loss on a fixed batch equals nce_loss_value over the same
        candidates scored with energy_grid."""
        np, ebm = self.np, self.lib.ebm
        x, y = self.train_ds.x[:BATCH], self.train_ds.y[:BATCH]
        nce = self._nce()
        loss, _ = ebm.nce_loss(model, x, y, nce, np.random.default_rng(self.seed),
                               compute_grads=False)
        std = model.standardizer
        y_std = std.apply_y(y)
        noise, noise_log_q = ebm.sample_noise(y_std, nce, np.random.default_rng(self.seed))
        candidates = np.concatenate([y[:, None], std.invert_y(noise)], axis=1)
        energies = np.array([model.energy_grid(xi, ci) for xi, ci in zip(x, candidates)])
        log_q = np.concatenate(
            [ebm.mixture_log_pdf(y_std, y_std, nce.sigmas)[:, None], noise_log_q], axis=1)
        expected = ebm.nce_loss_value(energies, log_q)
        _close("nce_loss", loss, expected)

    def _fcn_unit(self, k):
        lib, epochs = self.lib, self.plan.fcn_epochs

        def fn():
            model, _ = lib.fcn.train_fcn(self.train_ds, self._train_config(epochs),
                                         width=WIDTH, n_layers=3, activation="relu",
                                         seed=self.seed)
            mse = lib.harness.evaluate_mse(model, self.val_ds)
            return epochs * len(self.train_ds), mse

        mse = self.unit("fcn", fn)
        if mse is not None:
            self.check("fcn_mse_finite", _finite, "baseline mse", mse)

    def _eval_unit(self, k):
        harness = self.lib.harness
        rows = self._rows(k, self.plan.eval_rows)

        def fn():
            mse = harness.evaluate_mse(self.model, rows, self.grid)
            ll = harness.evaluate_log_likelihood(self.model, rows, self.grid)
            return len(rows), (mse, ll)

        result = self.unit("eval", fn)
        if result is not None:
            self.check("eval_finite", _finite, "mse and log likelihood", *result)
            picks = self.np.random.default_rng([self.seed, k]).choice(len(rows), 2, replace=False)
            self.check("log_likelihood_matches_density", self._check_ll, rows, picks)
            self.check("map_beats_grid", self._check_map, rows, picks)

    def _check_ll(self, rows, picks):
        """ebm.log_likelihood equals the mean of energy - log partition."""
        lib, model = self.lib, self.model
        sub = lib.WindowDataset(rows.x[picks], rows.y[picks], rows.t0, rows.cfg)
        got = lib.ebm.log_likelihood(model, sub, self.grid)
        expected = self.np.mean([
            model.energy(x, y) - lib.inference.density(model, x, self.grid).log_partition
            for x, y in zip(sub.x, sub.y)
        ])
        _close("log_likelihood", got, expected)

    def _check_map(self, rows, picks):
        """The MAP's energy is at least the best grid energy."""
        lib, model = self.lib, self.model
        for i in picks:
            x = rows.x[i]
            y_map = lib.inference.map_estimate(model, x, self.grid)
            best = float(self.np.max(model.energy_grid(x, self.grid.ys)))
            if model.energy(x, y_map) < best - REL_TOL * max(1.0, abs(best)):
                raise CheckFailed(f"MAP {y_map} has lower energy than the grid best")

    def _export_unit(self, k):
        rows = self._rows(k, self.plan.export_rows)
        prefix = str(self.workdir / f"export{k}")

        def fn():
            paths = self.lib.harness.export_density_sequence(self.model, rows, prefix,
                                                             self.grid)
            return len(rows), paths

        paths = self.unit("export", fn)
        if paths is not None:
            self.check("export_densities", self._check_export, *paths)
            for path in paths:
                os.remove(path)

    def _check_export(self, csv_path, json_path):
        """Each exported density integrates to 1 and its HDR levels nest."""
        np = self.np
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        for t in np.unique(table[:, 0]):
            block = table[table[:, 0] == t]
            _check_density(np, block[:, 1], block[:, 2])
        with open(json_path, "r", encoding="utf-8") as fh:
            for entry in json.load(fh):
                _check_nested({float(level): ivals
                               for level, ivals in entry["intervals"].items()})

    def _warm_unit(self, k):
        inference = self.lib.inference
        x = self.val_ds.x[k % N_ROWS]

        def fn():
            return 1, inference.predict(self.model, x, self.grid)

        pred = self.unit("warm", fn)
        if pred is not None:
            self.check("warm_prediction", self._check_prediction, pred)

    def _check_prediction(self, pred):
        _check_density(self.np, pred.grid.ys, pred.grid.density)
        _check_nested(pred.intervals)

    def _cold_unit(self, k):
        x = self.val_ds.x[(7 * k) % N_ROWS]
        regressor = ",".join(repr(float(v)) for v in x)
        cli_args = ["predict", "--model", str(self.model_path), f"--regressor={regressor}"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        trace_path = None
        if self.tracer is None or "cold" not in self.own:
            cmd = [sys.executable, "-m", "ebnarx.cli"] + cli_args
        else:
            trace_path = self.workdir / f"cli_trace{k}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path)] + cli_args

        def fn():
            with self.tracer.span("cli.process") if trace_path else nullcontext():
                try:
                    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                          text=True, timeout=120)
                except subprocess.TimeoutExpired as err:
                    raise CliExit(f"no exit within {err.timeout} s") from err
            if proc.returncode != 0:
                raise CliExit(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return 1, proc.stdout

        stdout = self.unit("cold", fn)
        if trace_path is not None and trace_path.exists():
            self.child_traces.append(json.loads(trace_path.read_text()))
            trace_path.unlink()
        if stdout is not None:
            self.check("cold_matches_warm", self._check_cold, x, stdout)

    def _check_cold(self, x, stdout):
        """The cold CLI's JSON equals prediction_to_dict(predict(...))."""
        inference = self.lib.inference
        expected = inference.prediction_to_dict(inference.predict(self.model, x, self.grid))
        if json.loads(stdout) != json.loads(json.dumps(expected)):
            raise CheckFailed("CLI prediction differs from the in-process prediction")

    # -- results ---------------------------------------------------------

    def _rate(self, phase):
        """Work over time of all units of a phase, the time scaled by the
        mean slowdown of the units.  Sums, not a median of unit rates: in a
        long unit the host may switch state between its two reference
        timings, and the sums average such units out."""
        samples = self.samples[phase]
        if not samples:
            return float("nan")
        slowdown = statistics.fmean(s.slowdown for s in samples)
        return sum(s.work for s in samples) * slowdown / sum(s.secs for s in samples)

    def _latencies(self, phase):
        # a failed call misses any latency limit
        return sorted(s.scaled_s if s.work else float("inf") for s in self.samples[phase])

    def end_to_end(self):
        values = {
            "setup_s": statistics.median(self.setup_s),
            "train_rows_per_s": self._rate("train"),
            "fcn_train_rows_per_s": self._rate("fcn"),
            "eval_rows_per_s": self._rate("eval"),
            "export_rows_per_s": self._rate("export"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for phase in LATENCY_PHASES:
            lat = self._latencies(phase)
            values[f"predict_{phase}_s_p50"] = statistics.median(lat)
            values[f"predict_{phase}_s_tail"] = lat[tail_index(len(lat))]
        return values

    def tails(self):
        """Which percentile each tail metric is, and its sample count."""
        out = {}
        for phase in LATENCY_PHASES:
            n = len(self.samples[phase])
            out[f"predict_{phase}_s_tail"] = {
                "percentile": round(100.0 * (tail_index(n) + 1) / n, 1), "samples": n}
        return out

    def per_layer(self, names):
        """The named per-layer metrics of a traced run, the cold CLI
        children's spans merged in."""
        import spans

        prof = spans.summary(self.tracer)
        for child in self.child_traces:
            spans.merge(prof, child, parent="cli.process")
        stats = prof["stats"]

        def get(name, key):
            return stats.get(name, {}).get(key, 0)

        grid_rows = get("ebm.energy_grid", "grid_rows") + get("ebm.log_likelihood", "grid_rows")
        predicted = (get("harness.evaluate_mse", "rows")
                     + get("harness.export_density_sequence", "rows")
                     + get("inference.predict", "calls"))
        derived = {
            "ebm.grid_passes_per_row": grid_rows / GRID_POINTS / max(predicted, 1),
            "inference.ascent_evals_per_row":
                get("ebm.energy_and_ygrad", "calls") / max(get("inference.map_estimate", "calls"), 1),
            "cli.import_s": get("cli.import", "span_s"),
            "trace.coverage": prof["root_s"] / self.traced_s,
            "trace.spans": sum(entry.get("calls", 0) for entry in stats.values()),
        }
        return {name: derived[name] if name in derived else get(*name.rsplit(".", 1))
                for name in names}


def _close(what, got, expected):
    if not abs(got - expected) <= REL_TOL * max(1.0, abs(expected)):
        raise CheckFailed(f"{what} {got!r} differs from {expected!r}")


def _finite(what, *values):
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{what} not finite: {values}")


def _check_density(np, ys, dens):
    integral = float(np.trapezoid(dens, ys))
    if not abs(integral - 1.0) <= 1e-9:
        raise CheckFailed(f"density integrates to {integral!r}")


def _check_nested(intervals):
    """Each HDR of a lower level lies inside an HDR of every higher level."""
    levels = sorted(intervals)
    for low, high in zip(levels, levels[1:]):
        for a, b in intervals[low]:
            if not any(c <= a and b <= d for c, d in intervals[high]):
                raise CheckFailed(f"HDR [{a}, {b}] at {low} is outside the {high} region")


def fix_malloc():
    """Apply ``MALLOC_SETTINGS`` with glibc's ``mallopt``; returns whether
    every setting took (False on another C library)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS.items())


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_record(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_metric_specs():
    with open(HERE.parent / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def run_workload(workload, seed, seconds, trace, plan=None):
    """Run one workload; returns the finished :class:`Bench`."""
    lib = import_library()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.active = False
        tracer.install()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(lib, workload, seed, seconds, workdir, tracer, plan)
        bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    return bench


def _metric(value, unit):
    # JSON has no infinity; a latency that failed everywhere prints as null
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    malloc_fixed = fix_malloc()
    try:
        end_specs, layer_specs = load_metric_specs()
        bench = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    record = run_record(args)
    record["tails"] = bench.tails()
    record["malloc_fixed"] = malloc_fixed
    record["units"] = {phase: len(bench.samples[phase]) for phase in PHASES}
    record["setup_s"] = bench.setup_s
    record["reference"] = {
        kernel: {"nominal_s": bench.reference.NOMINAL_S[kernel], "runs": len(times),
                 "quartiles_s": statistics.quantiles(times, n=4)}
        for kernel, times in bench.reference.times.items()}
    record["failures"] = dict(bench.failures)
    print(json.dumps({"record": record}))
    for line in bench.failure_log:
        print(f"failed: {line}", file=sys.stderr)
    e2e = bench.end_to_end()
    specs = end_specs
    values = e2e
    if args.trace:
        print(json.dumps({"traced_end_to_end": e2e}))
        specs = layer_specs
        values = bench.per_layer([spec["name"] for spec in specs])
    metrics = {spec["name"]: _metric(values[spec["name"]], spec["unit"]) for spec in specs}
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']!s:>24} {metric['unit']}")
    failed = sum(bench.failures.values())
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # before numpy is first imported; the CLI children inherit it
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
