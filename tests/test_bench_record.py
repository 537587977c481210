"""The benchmark recorder's seed parsing, quartiles and pair comparison."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


@pytest.mark.parametrize("text, seeds", [
    ("7", [7]),
    ("31-34", [31, 32, 33, 34]),
    ("1,5,9", [1, 5, 9]),
    ("1-2,7,10-11", [1, 2, 7, 10, 11]),
])
def test_parse_seeds_reads_lists_and_ranges(text, seeds):
    assert bench_record.parse_seeds(text) == seeds


def test_quartiles_of_one_value_are_the_value():
    assert bench_record.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_quartiles_of_four_values_interpolate():
    # the inclusive method: positions 0.75, 1.5 and 2.25 of the sorted values
    assert bench_record.quartiles([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25}


def test_quartiles_skip_missing_values():
    assert bench_record.quartiles([None, 3.0]) == bench_record.quartiles([3.0])
    assert bench_record.quartiles([None]) is None


def _run(rate, time, attempted=10, failed=0):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"rate": {"value": rate}, "time": {"value": time}}}


def _specs(bound=0.25, **better):
    """``BENCHMARK.json`` entries of the named metrics, keyed by name."""
    return {name: {"name": name, "better": direction, "bound": bound}
            for name, direction in better.items()}


def test_compare_counts_wins_losses_and_ties_by_direction():
    # rate is better higher, time better lower: per pair, a win, a loss and
    # a tie for each
    base = [_run(10.0, 1.0), _run(10.0, 1.0), _run(10.0, 1.0)]
    new = [_run(12.0, 0.5), _run(8.0, 2.0), _run(10.0, 1.0)]
    metrics = bench_record.compare(base, new, _specs(rate="higher", time="lower"))["metrics"]
    for name in ("rate", "time"):
        assert metrics[name]["pairs"] == 3
        assert metrics[name]["wins"] == 1
        assert metrics[name]["losses"] == 1
        assert metrics[name]["base_median"] == metrics[name]["new_median"]
        assert metrics[name]["ratio"] == 1.0
        assert metrics[name]["base_quartile_distance"] == 0.0


def test_compare_reports_medians_and_the_base_spread():
    base = [_run(v, 1.0) for v in (1.0, 2.0, 3.0, 4.0)]
    new = [_run(v, 1.0) for v in (2.0, 4.0, 6.0, 8.0)]
    rate = bench_record.compare(base, new, _specs(rate="higher"))["metrics"]["rate"]
    assert (rate["base_median"], rate["new_median"], rate["ratio"]) == (2.5, 5.0, 2.0)
    assert rate["base_quartile_distance"] == 1.5
    assert rate["wins"] == 4


def test_compare_skips_pairs_with_a_missing_value():
    base = [_run(None, 1.0), _run(1.0, 1.0)]
    new = [_run(2.0, 1.0), _run(2.0, 1.0)]
    metrics = bench_record.compare(base, new, _specs(rate="higher"))["metrics"]
    assert metrics["rate"]["pairs"] == 1
    missing = [_run(None, 1.0)]
    assert bench_record.compare(missing, missing, _specs(rate="higher"))["metrics"] == {}


def test_compare_totals_each_sides_operations():
    base = [_run(1.0, 1.0, attempted=100, failed=2), _run(1.0, 1.0, attempted=90, failed=0)]
    new = [_run(1.0, 1.0, attempted=110, failed=2), _run(1.0, 1.0, attempted=95, failed=3)]
    operations = bench_record.compare(base, new, _specs(rate="higher"))["operations"]
    assert operations == {"base": {"attempted": 190, "failed": 2},
                          "new": {"attempted": 205, "failed": 5}}


def test_compare_reports_each_metrics_bound():
    base, new = [_run(1.0, 1.0)], [_run(1.0, 1.0)]
    metrics = bench_record.compare(base, new, _specs(0.1, rate="higher", time="lower"))["metrics"]
    assert metrics["rate"]["bound"] == metrics["time"]["bound"] == 0.1


def test_compare_measures_the_shortfall_in_the_metrics_direction():
    # rate falls from 10 to 8 (20% worse), time from 2.0 to 1.0 (50% better)
    base = [_run(10.0, 2.0)]
    new = [_run(8.0, 1.0)]
    metrics = bench_record.compare(base, new, _specs(rate="higher", time="lower"))["metrics"]
    assert metrics["rate"]["worse_by"] == pytest.approx(0.2)
    assert metrics["time"]["worse_by"] == pytest.approx(-0.5)


def test_compare_flags_a_shortfall_beyond_the_bound():
    # 20% worse passes a 25% bound and fails a 10% one
    base, new = [_run(10.0, 1.0)], [_run(8.0, 1.0)]
    for bound, beyond in ((0.25, False), (0.1, True)):
        rate = bench_record.compare(base, new, _specs(bound, rate="higher"))["metrics"]["rate"]
        assert rate["beyond_bound"] is beyond


def test_compare_flags_a_spread_wider_than_the_bound_as_unresolved():
    # the base's quartile distance, 1.5 of a median 2.5, exceeds a 25%
    # bound: unresolved unless every new run beats every base run
    base = [_run(v, 1.0) for v in (1.0, 2.0, 3.0, 4.0)]
    overlapping = [_run(v, 1.0) for v in (2.0, 3.0, 4.0, 5.0)]
    separated = [_run(v, 1.0) for v in (5.0, 6.0, 7.0, 8.0)]
    for new, unresolved in ((overlapping, True), (separated, False)):
        rate = bench_record.compare(base, new, _specs(rate="higher"))["metrics"]["rate"]
        assert rate["unresolved"] is unresolved
    narrow = [_run(v, 1.0) for v in (10.0, 10.1, 10.2, 10.3)]
    rate = bench_record.compare(narrow, narrow, _specs(rate="higher"))["metrics"]["rate"]
    assert rate["unresolved"] is False
