"""Tests of the benchmark itself: span arithmetic, wrapping, smoke runs."""

import math
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402

ebnarx = run.import_library()

SMOKE = run.Plan(
    setup_repeats=1, setup_epochs=2, train_epochs=2, fcn_epochs=2,
    eval_rows=4, export_rows=2, peak_rows=4,
    min_units={"train": 1, "fcn": 1, "eval": 1, "export": 1, "warm": 2, "cold": 2},
)


def test_self_time_is_span_minus_children():
    synthetic = [
        (-1, "a", 0.0, 10.0, False),
        (0, "b", 1.0, 4.0, False),
        (1, "c", 2.0, 3.0, False),
        (0, "b", 5.0, 9.0, True),
        (-1, "d", 11.0, 12.0, False),
    ]
    stats, root_s = spans.aggregate(synthetic)
    assert stats["a"]["self_s"] == pytest.approx(3.0)
    assert stats["b"] == pytest.approx({"calls": 2, "failed": 1, "span_s": 7.0, "self_s": 6.0})
    assert stats["c"]["self_s"] == pytest.approx(1.0)
    assert root_s == pytest.approx(11.0)


def test_child_process_time_leaves_parent_self_time():
    prof = {"stats": {"cli.process": {"calls": 1, "self_s": 0.5}}, "root_s": 0.5}
    child = {"stats": {"cli.main": {"calls": 1, "self_s": 0.25}}, "root_s": 0.375}
    spans.merge(prof, child, parent="cli.process")
    assert prof["stats"]["cli.process"]["self_s"] == pytest.approx(0.125)
    assert prof["stats"]["cli.main"]["self_s"] == pytest.approx(0.25)
    assert prof["root_s"] == pytest.approx(0.5)


def _ancestors(trace, sid):
    parent = trace[sid][0]
    while parent >= 0:
        yield trace[parent][1]
        parent = trace[parent][0]


@pytest.mark.parametrize("entry", ["harness", "package"])
def test_evaluate_mse_records_forward_spans_under_it(entry):
    cfg = ebnarx.WindowConfig(1, 0)
    data = ebnarx.make_windows(ebnarx.simulate_ar("gaussian", 12, seed=0), cfg)
    model = ebnarx.build_ebnarx(cfg, width=4, seed=0)
    evaluate_mse = ebnarx.harness.evaluate_mse
    with spans.Tracer() as tracer:
        target = ebnarx.harness if entry == "harness" else ebnarx
        target.evaluate_mse(model, data, ebnarx.GridSpec(-3.0, 3.0, 64),
                            ebnarx.AscentConfig(iters=2))
    assert ebnarx.harness.evaluate_mse is evaluate_mse
    trace = tracer.spans
    assert trace[0][:2] == (-1, "harness.evaluate_mse")
    forward = [sid for sid, span in enumerate(trace) if span[1] == "nn.forward"]
    assert len(forward) >= len(data) * 3
    assert all("harness.evaluate_mse" in _ancestors(trace, sid) for sid in forward)
    assert all("inference.map_estimate" in _ancestors(trace, sid) for sid in forward)


def test_tail_has_ten_samples_beyond():
    assert run.tail_index(11) == 0
    assert run.tail_index(31) == 20
    assert run.tail_index(5) == 4


def test_measure_scales_to_full_speed():
    bench = run.Bench.__new__(run.Bench)
    bench.tracer = None
    slowdowns = iter([1.5, 2.5])
    bench.reference = types.SimpleNamespace(slowdown=lambda kernel: next(slowdowns))
    start = time.perf_counter()
    sample, result = bench.measure("grid", False, lambda: (3, time.sleep(0.05) or "done"))
    wall = time.perf_counter() - start
    assert result == "done" and sample.work == 3 and sample.slowdown == 2.0
    assert 0.025 <= sample.scaled_s <= wall / 2


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_passes_its_checks(workload):
    bench = run.run_workload(workload, seed=3, seconds=0.0, trace=0, plan=SMOKE)
    assert not bench.failures, bench.failure_log
    assert bench.attempted > sum(SMOKE.min_units.values())
    end_specs, _ = run.load_metric_specs()
    values = bench.end_to_end()
    for spec in end_specs:
        assert math.isfinite(values[spec["name"]]) and values[spec["name"]] > 0


def test_traced_smoke_run_reports_every_layer_metric():
    bench = run.run_workload("infer-chen", seed=4, seconds=0.0, trace=1, plan=SMOKE)
    assert not bench.failures, bench.failure_log
    _, layer_specs = run.load_metric_specs()
    values = bench.per_layer([spec["name"] for spec in layer_specs])
    assert all(math.isfinite(v) for v in values.values()), values
    assert values["nn.forward.calls"] > 0 and values["cli.main.self_s"] > 0
    assert values["trace.coverage"] >= 0.9
