"""The benchmark's own aggregation rules: percentiles, ratios, names."""

import json
import re
from pathlib import Path

import catalog
import run
from stats import MIN_BEYOND, nearest_rank, ratio, tail_percentile, timing

ROOT = Path(__file__).resolve().parents[2]

#: Names the benchmark contract accepts for workloads and metrics.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 21, 50, 99, 100, 200, 1000, 5000, 20000):
        samples = [float(i) for i in range(n)]
        q, value = tail_percentile(samples)
        rank, at_rank = nearest_rank(sorted(samples), q)
        assert value == at_rank
        assert sum(sample > value for sample in samples) >= MIN_BEYOND
        higher = [c for c in (99.9, 99.0, 95.0, 90.0, 75.0) if c > q]
        for candidate in higher:
            rank, _ = nearest_rank(sorted(samples), candidate)
            assert n - rank < MIN_BEYOND


def test_tail_percentile_picks_expected_levels():
    assert tail_percentile([1.0] * 10000)[0] == 99.9
    assert tail_percentile([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert tail_percentile([float(i) for i in range(288)])[0] == 95.0
    assert tail_percentile([float(i) for i in range(100)])[0] == 90.0
    assert tail_percentile([float(i) for i in range(20)])[0] == 50.0


def test_too_few_samples_report_no_tail():
    assert tail_percentile([float(i) for i in range(19)]) == (0.0, 0.0)
    assert tail_percentile([]) == (0.0, 0.0)
    summary = timing([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "ptail": 0.0, "ptail_q": 0.0}


def test_ratio_states_its_base():
    record = ratio(3.0, 4.0, "cells asked")
    assert record == {"value": 0.75, "numerator": 3.0, "base": 4.0, "base_name": "cells asked"}
    assert ratio(1.0, 0.0, "empty")["value"] == 0.0


def test_every_ratio_metric_declares_its_base():
    for metric in catalog.E2E + catalog.LAYER:
        if metric.unit == "ratio":
            assert metric.base, metric.name
        else:
            assert not metric.base, metric.name


def test_every_layer_metric_names_layer_and_what_it_moves():
    for metric in catalog.LAYER:
        assert metric.layer and metric.moves, metric.name
        assert metric.bound is None


def test_names_and_units_are_valid_and_unique():
    names = list(catalog.WORKLOAD_NAMES) + [m.name for m in catalog.E2E + catalog.LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in catalog.E2E + catalog.LAYER:
        assert len(metric.unit) <= 16 and metric.better in ("higher", "lower")
    for _name, why in catalog.WORKLOADS:
        assert len(why) <= 200 and "\n" not in why


def test_end_to_end_metrics_fit_the_contract():
    setup = [m for m in catalog.E2E if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    bounds = [m.bound for m in catalog.E2E]
    assert all(0 < bound <= 0.25 for bound in bounds)
    assert setup[0].bound == max(bounds)
    assert 1 <= len(catalog.LAYER) <= 128


def test_benchmark_json_matches_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()


def test_check_rows_compares_against_earlier_runs():
    known = {}
    row = {"spec_hash": "h", "n": 64, "seed": 0, "engine": "multiset", "steps": 10,
           "parallel_time": 0.15625, "leader_count": 1, "distinct_states": 5}
    assert run.check_rows([row], known) == (0, 0)
    assert run.check_rows([row], known) == (1, 0)
    assert run.check_rows([{**row, "steps": 11}], known) == (1, 1)


def test_compare_stores_counts_differing_and_unmatched_rows():
    row = {"spec_hash": "h", "n": 64, "seed": 0, "engine": "multiset", "steps": 10,
           "parallel_time": 0.15625, "leader_count": 1, "distinct_states": 5}
    reference = {"h": run.row_values(row), "g": run.row_values({**row, "spec_hash": "g"})}
    assert run.compare_stores([row], {"h": run.row_values(row)}) == (0, 0)
    assert run.compare_stores([{**row, "steps": 11}], reference) == (1, 1)
    assert run.compare_stores([], reference) == (0, 2)


def test_first_run_is_skipped_not_passed_and_cross_check_fails_on_mismatch():
    row = {"spec_hash": "h", "n": 64, "seed": 0, "engine": "multiset", "steps": 10,
           "parallel_time": 0.15625, "leader_count": 1, "distinct_states": 5}
    result = {"attempted": 1, "failed": 0, "rows": [row]}
    checks, failed = run.correctness("e9-fabric", result, {}, "an earlier call")
    assert failed == 0
    assert [status for _name, status, _detail in checks] == ["ok", "ok", "ok", "skip"]
    state = {"e9-campaign": {"h": run.row_values({**row, "steps": 12})}}
    checks, failed = run.correctness("e9-fabric", result, state, "an earlier call")
    assert failed == 1
    assert checks[-1][1] == "FAIL" and "store agrees row for row" in checks[-1][0]
    assert state["e9-fabric"] == {"h": run.row_values(row)}
