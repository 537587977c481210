"""Outside-in tracing of the ebnarx public functions.

A :class:`Tracer` replaces each traced function with a wrapper that records
one span per call: ``(parent, name, start, end, failed)``.  The wrapper is
installed in every loaded ``ebnarx`` namespace that bound the original
object, because ``harness``, ``cli`` and the package ``__init__`` import
functions by name and would otherwise call around the wrapper.  Methods are
replaced on their class.  No file under ``src/`` changes.

Spans stay in memory; :func:`aggregate` turns them into per-name call
counts, span time and self time (span minus the time its child spans cover).
"""

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path) of every traced function; methods are replaced on
# their class.  The span name drops the class: ``nn.forward``.
TRACED = (
    ("data", "simulate_chen"),
    ("data", "make_windows"),
    ("nn", "MlpNetwork.forward"),
    ("nn", "MlpNetwork.backward"),
    ("nn", "adam_step"),
    ("ebm", "train_ebnarx"),
    ("ebm", "nce_loss"),
    ("ebm", "sample_noise"),
    ("ebm", "EbNarxModel.energy_grid"),
    ("ebm", "EbNarxModel.energy_and_ygrad"),
    ("ebm", "log_likelihood"),
    ("ebm", "save_model"),
    ("fcn", "train_fcn"),
    ("fcn", "fcn_predict"),
    ("inference", "density"),
    ("inference", "map_estimate"),
    ("inference", "hdr_intervals"),
    ("inference", "predict"),
    ("harness", "evaluate_mse"),
    ("harness", "evaluate_log_likelihood"),
    ("harness", "export_density_sequence"),
    ("harness", "load_model"),
    ("cli", "main"),
)


def _net_rows(x):
    return 1 if x.ndim == 1 else x.shape[0]


def _net_macs(net):
    return sum(layer.in_dim * layer.out_dim for layer in net.layers)


def _forward_counts(args, result):
    rows = _net_rows(args[1])
    # one multiply-add per weight and row: 2 * rows * sum(in * out)
    return {"rows": rows, "gflop": 2e-9 * rows * _net_macs(args[0])}


def _backward_counts(args, result):
    rows = args[1].inputs[0].shape[0]
    # two matrix products per layer (weight and input gradients)
    return {"rows": rows, "gflop": 4e-9 * rows * _net_macs(args[0])}


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


# Extra counters per span name, computed from the positional arguments and
# the result of a successful call.
COUNTERS = {
    "nn.forward": _forward_counts,
    "nn.backward": _backward_counts,
    "ebm.nce_loss": lambda a, r: {"candidates": len(a[2]) * (a[3].n_noise + 1)},
    "ebm.energy_grid": lambda a, r: {"grid_rows": len(a[2])},
    "ebm.log_likelihood": lambda a, r: {"grid_rows": len(a[1]) * a[2].n_points},
    # rows of energy models only; the baseline's evaluate runs no grid pass
    "harness.evaluate_mse": lambda a, r: {"rows": len(a[1]) * hasattr(a[0], "predictor_net")},
    "harness.export_density_sequence": lambda a, r: {"rows": len(a[1]),
                                                     "bytes": _file_bytes(r)},
}


def span_name(module, path):
    return f"{module}.{path.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans of the traced functions while installed and active."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.active = True
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name):
        """Record one span around a block; also the body of every wrapper."""
        if not self.active:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (parent, name, start, end, failed)

    def wrap(self, name, fn):
        tracer = self
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, result).items():
                    tracer.counts[name][key] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every traced function in each namespace that bound it."""
        for module_name, _ in TRACED:
            importlib.import_module(f"ebnarx.{module_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ebnarx" or key.startswith("ebnarx."))]
        for module_name, path in TRACED:
            module = sys.modules[f"ebnarx.{module_name}"]
            name = span_name(module_name, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.wrap(name, original))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def aggregate(spans):
    """Per-name ``calls``, ``failed``, ``span_s`` and ``self_s``, plus the
    total duration of root spans as ``root_s``.

    ``spans`` is a list of ``(parent, name, start, end, failed)`` where
    ``parent`` indexes the list (-1 for a root).  A span's self time is its
    duration minus the durations of its direct children.
    """
    child_s = [0.0] * len(spans)
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "failed": 0, "span_s": 0.0, "self_s": 0.0})
    root_s = 0.0
    for sid, (parent, name, start, end, failed) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["failed"] += int(failed)
        entry["span_s"] += end - start
        entry["self_s"] += end - start - child_s[sid]
        if parent < 0:
            root_s += end - start
    return dict(stats), root_s


def summary(tracer):
    """JSON-ready per-name statistics with the extra counters merged in."""
    stats, root_s = aggregate(tracer.spans)
    for name, counts in tracer.counts.items():
        stats.setdefault(name, {"calls": 0, "failed": 0, "span_s": 0.0, "self_s": 0.0})
        stats[name].update(counts)
    return {"stats": stats, "root_s": root_s}


def merge(into, child, parent):
    """Add the statistics of a child process's :func:`summary` into ``into``.

    The child's root spans ran inside the parent span named ``parent``, so
    their time leaves that span's self time and adds no root time.
    """
    for name, entry in child["stats"].items():
        target = into["stats"].setdefault(name, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value
    into["stats"][parent]["self_s"] -= child["root_s"]
    return into
