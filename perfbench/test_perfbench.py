"""The benchmark's own tests: output schema and the correctness check.

Run with `python -m pytest perfbench`. Timings are never asserted.
"""

import json
import random
import sqlite3
import subprocess
import sys

from dataclasses import replace

import pytest

import calib
import check
import gen
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_output_schema(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_same_seed_same_inputs(tmp_path):
    dumps = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs = gen.build_inputs(tmp_path / name, random.Random(seed), 2,
                                  gen.SMALL, 12)
        conn = sqlite3.connect(inputs.databases[0].path)
        dumps.append((inputs.dataset.read_text(encoding="utf-8"),
                      list(conn.iterdump())))
        conn.close()
    assert dumps[0] == dumps[1]
    assert dumps[0] != dumps[2]


def test_cells_compare_exactly_for_integers_and_by_tolerance_for_floats():
    assert not check.cells_equal(20210101, 20210102)
    assert not check.cells_equal(12345678, 12345679)
    assert check.cells_equal(1, 1.0)
    assert check.cells_equal(-0.0, 0)
    assert check.cells_equal(1234.5, 1234.5 * (1 + 1e-9))
    assert not check.cells_equal(1234.5, 1234.5 * (1 + 1e-5))
    assert not check.cells_equal("1", 1)
    assert check.cells_equal(None, None)


def test_row_order_matters_only_when_ordered():
    rows, flipped = [(1, "a"), (2, "b")], [(2, "b"), (1, "a")]
    assert check.rows_equal(rows, flipped, ordered=False)
    assert not check.rows_equal(rows, flipped, ordered=True)
    assert not check.rows_equal(rows, rows[:1], ordered=False)


def test_outer_order_by_detection():
    assert check.outer_ordered("SELECT a FROM t ORDER BY a")
    assert not check.outer_ordered(
        "SELECT a FROM (SELECT a FROM t ORDER BY a LIMIT 3)")
    assert not check.outer_ordered("SELECT 'x ORDER BY y' FROM t")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    spec = run.WORKLOADS["replay-search"]
    spec = replace(spec, n_dbs=2, large=False, items=6)
    return run.Bench("replay-search", spec, 3,
                     tmp_path_factory.mktemp("bench"))


def test_replayed_records_pass_the_check(bench):
    report, stats, _ = bench.call()
    assert bench.checker.check(report["records"]) == (6, 0, 0)
    assert stats.items == 6 and len(stats.durations) == 6


def test_check_flags_records_that_differ_from_the_reference(bench):
    records = [dict(r) for r in bench.checker.reference]
    records[0]["final_sql"] += " LIMIT 0"
    records[1]["correct"] = not records[1]["correct"]
    records[2]["error"] = "pipeline failed: boom"
    assert bench.checker.check(records) == (6, 3, 3)


def test_rescore_disagreement_fails_the_item_not_the_run(bench):
    records = [dict(r) for r in bench.checker.reference]
    records[0]["correct"] = not records[0]["correct"]
    checker = check.Checker(records, bench.checker.db_paths)
    assert checker.check(records) == (6, 1, 0)
    checker.check(records)
    assert checker.failed_items == {records[0]["question_id"]}
    assert not checker.broken_items


def test_host_factor_scales_every_timing():
    stats = run.CallStats(wall=2.0, setup=0.5, items=4, cpu_items=1.0,
                          durations=[0.5] * 4, host=2.0)
    raw = run.end_to_end([stats], scaled=False)
    scaled = run.end_to_end([stats], scaled=True)
    assert scaled["items_per_s"] == raw["items_per_s"] * 2.0
    for name in ("item_p50_ms", "item_p95_ms", "cpu_ms_per_item",
                 "setup_s"):
        assert scaled[name] == raw[name] / 2.0
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]


def test_calibration_measures_a_positive_factor():
    assert calib.Calibration().measure() > 0
