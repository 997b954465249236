#!/usr/bin/env python3
"""Self-test for tools/validate_report.py.

Builds fixture telemetry files under a temp dir — valid and broken
variants of each format the validator dispatches on (bench report,
metrics-snapshot JSONL, flight-record JSONL, trace JSONL) — and asserts
the validator accepts exactly the valid ones. Run via ctest:

  validate_report_selftest.py <path-to-validate_report.py>
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def histogram(quantiles=True, torn=False, monotone=True, overflow=1):
    h = {
        "bounds": [1.0, 2.0],
        "counts": [1, 3 - overflow, overflow],
        "total": 4 if not torn else 5,
        "sum": 6.0,
    }
    if quantiles:
        h["p50"] = 1.5
        h["p90"] = 2.0 if monotone else 1.0
        h["p99"] = 2.0
    return h


def run_stats(split="ok", alive_overflow=1):
    """A RunStats object; split is "ok", "none", "partial" or "torn" (the
    four-part split of older reports), or "ok5" or "torn5" (with the
    admission part); alive_overflow samples of the four alive counts
    exceed the bounds."""
    stats = {
        "wall_seconds": 0.1,
        "decide_seconds": 0.02,
        "solver_seconds": 0.06,
        "observer_seconds": 0.0,
        "decisions": 4,
        "arrivals": 2,
        "completions": 2,
        "decision_interval": histogram(),
        "alive_count": histogram(overflow=alive_overflow),
    }
    if split != "none":
        stats.update({
            "rates_seconds": 0.01,
            "advance_seconds": 0.02,
            "heap_upkeep_seconds": 0.005,
            "completion_seconds": 0.025 if split != "torn" else 0.03,
        })
    if split == "partial":
        del stats["heap_upkeep_seconds"]
    if split in ("ok5", "torn5"):
        stats["completion_seconds"] = 0.015
        stats["admit_seconds"] = 0.01 if split == "ok5" else 0.02
    return stats


def bench_report(schema=2, torn=False, monotone=True, stats=None):
    return {
        "schema": schema,
        "kind": "parsched-bench-report",
        "name": "fixture",
        "meta": {},
        "runs": [{
            "policy": "isrpt",
            "jobs": 2,
            "machines": 1,
            "total_flow": 3.0,
            "weighted_flow": 3.0,
            "fractional_flow": 2.5,
            "makespan": 2.0,
            "decisions": 4,
            "events": 6,
            "wall_seconds": 0.1,
            "stats": stats,
        }],
        "tables": [{"name": "t", "columns": ["a", "b"], "rows": [[1, 2]]}],
        "metrics": [{
            "name": "lat",
            "kind": "histogram",
            "histogram": histogram(torn=torn, monotone=monotone),
        }],
    }


def cluster_report(drop_table=None, drop_column=None):
    doc = bench_report()
    doc["name"] = "serve_cluster"
    doc["tables"] = [
        {
            "name": "cluster_latency",
            "columns": ["metric", "count", "p50_ms", "p95_ms", "p99_ms"],
            "rows": [["latency", 100, 0.03, 0.4, 0.6]],
        },
        {
            "name": "cluster_throughput",
            "columns": ["metric", "sessions", "shards", "requests",
                        "requests_per_sec", "jobs_per_sec"],
            "rows": [["throughput", 1000, 4, 25000, 33000.0, 27000.0]],
        },
    ]
    if drop_table:
        doc["tables"] = [t for t in doc["tables"]
                         if t["name"] != drop_table]
    if drop_column:
        for t in doc["tables"]:
            if drop_column in t["columns"]:
                i = t["columns"].index(drop_column)
                t["columns"].pop(i)
                for row in t["rows"]:
                    row.pop(i)
    return doc


def e11_report(drop_table=None, drop_column=None):
    doc = bench_report()
    doc["name"] = "e11_engine_perf"
    doc["tables"] = [
        {
            "name": "dense_alive",
            "columns": ["n", "reps", "decisions_per_sec"],
            "rows": [[1000, 10, 90000.0]],
        },
        {
            "name": "incremental_orders",
            "columns": ["n", "decisions", "fractional_flow",
                        "decisions_per_sec_incremental"],
            "rows": [[100000, 320, 9875.5, 1600.0]],
        },
        {
            "name": "dense_equi",
            "columns": ["n", "decisions", "fractional_flow",
                        "wall_seconds", "decisions_per_sec"],
            "rows": [[100000, 200, 5012.5, 0.25, 800.0]],
        },
        {
            "name": "flight_recorder_overhead",
            "columns": ["n", "overhead_pct"],
            "rows": [[1000, 1.2]],
        },
        {
            "name": "rate_kernel",
            "columns": ["case", "population", "n",
                        "scalar_melems_per_sec", "batch_melems_per_sec",
                        "batch_speedup"],
            "rows": [["shared_n10000", "shared", 10000, 40.0, 42.0, 1.05]],
        },
    ]
    if drop_table:
        doc["tables"] = [t for t in doc["tables"]
                         if t["name"] != drop_table]
    if drop_column:
        for t in doc["tables"]:
            if drop_column in t["columns"]:
                i = t["columns"].index(drop_column)
                t["columns"].pop(i)
                for row in t["rows"]:
                    row.pop(i)
    return doc


def flight_with(extra_events):
    doc = flight_jsonl()
    for kind in extra_events:
        doc.append({
            "ev": kind,
            "seq": doc[-1]["seq"] + 1,
            "id": 7,
            "t": 9.0,
            "v": 1.0,
            "a": 2,
        })
        doc[0]["events"] += 1
        doc[0]["recorded"] += 1
    return doc


def snapshot_jsonl(bad_seq=False, bad_schema=False):
    lines = [{
        "ev": "header",
        "kind": "parsched-metrics-snapshot",
        "schema": 9 if bad_schema else 1,
        "interval_seconds": 0.5,
    }]
    for seq in range(3):
        lines.append({
            "ev": "snapshot",
            "seq": seq + 5 if bad_seq and seq == 1 else seq,
            "t": 0.5 * (seq + 1),
            "metrics": [{"name": "c", "kind": "counter", "value": seq}],
        })
    return lines


def flight_jsonl(bad_ev=False, bad_seq=False, truncated=False):
    lines = [{
        "ev": "header",
        "kind": "parsched-flight-record",
        "schema": 1,
        "reason": "unit",
        "capacity": 8,
        "recorded": 3,
        "dropped": 0,
        "events": 3,
    }]
    for seq, kind in enumerate(("admit", "decision", "complete")):
        lines.append({
            "ev": "warp" if bad_ev and seq == 1 else kind,
            "seq": 0 if bad_seq and seq == 2 else seq,
            "id": 7,
            "t": 0.5 * seq,
            "v": 1.0,
            "a": 2,
        })
    if truncated:
        lines.pop()
    return lines


def trace_jsonl():
    return [
        {"ev": "header", "schema": 1, "kind": "parsched-trace",
         "end_time": 1.0, "dropped": 0},
        {"ev": "arrive", "t": 0.0, "job": 0},
    ]


def run_validator(tool: Path, path: Path) -> int:
    return subprocess.run(
        [sys.executable, str(tool), str(path)],
        capture_output=True,
        text=True,
        check=False,
    ).returncode


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: validate_report_selftest.py <validate_report.py>",
              file=sys.stderr)
        return 2
    tool = Path(sys.argv[1]).resolve()
    failures: list[str] = []

    # (name, contents, jsonl?, expected exit)
    fixtures = [
        ("BENCH_ok.json", bench_report(), False, 0),
        ("BENCH_old_schema.json", bench_report(schema=1), False, 1),
        ("BENCH_torn_total.json", bench_report(torn=True), False, 1),
        ("BENCH_bad_quantiles.json", bench_report(monotone=False), False, 1),
        # RunStats: the solver split is optional, all-or-nothing, and
        # must add up to solver_seconds.
        ("BENCH_stats_split.json", bench_report(stats=run_stats()), False, 0),
        ("BENCH_stats_no_split.json", bench_report(stats=run_stats("none")),
         False, 0),
        ("BENCH_stats_partial_split.json",
         bench_report(stats=run_stats("partial")), False, 1),
        ("BENCH_stats_torn_split.json",
         bench_report(stats=run_stats("torn")), False, 1),
        ("BENCH_stats_split5.json", bench_report(stats=run_stats("ok5")),
         False, 0),
        ("BENCH_stats_torn_split5.json",
         bench_report(stats=run_stats("torn5")), False, 1),
        # Histogram bounds must cover the recorded range: an overflow
        # bucket holding most samples is flagged, half of them is not.
        ("BENCH_stats_alive_overflow.json",
         bench_report(stats=run_stats(alive_overflow=3)), False, 1),
        ("BENCH_stats_alive_half_overflow.json",
         bench_report(stats=run_stats(alive_overflow=2)), False, 0),
        ("snapshot_ok.jsonl", snapshot_jsonl(), True, 0),
        ("snapshot_bad_seq.jsonl", snapshot_jsonl(bad_seq=True), True, 1),
        ("snapshot_bad_schema.jsonl", snapshot_jsonl(bad_schema=True),
         True, 1),
        ("flight_ok.jsonl", flight_jsonl(), True, 0),
        ("flight_bad_ev.jsonl", flight_jsonl(bad_ev=True), True, 1),
        ("flight_bad_seq.jsonl", flight_jsonl(bad_seq=True), True, 1),
        ("flight_truncated.jsonl", flight_jsonl(truncated=True), True, 1),
        ("trace_ok.jsonl", trace_jsonl(), True, 0),
        # serve_cluster table contract: the named report must carry both
        # gate tables with their gate columns, or the perf gate would
        # pass vacuously.
        ("BENCH_serve_cluster.json", cluster_report(), False, 0),
        ("BENCH_cluster_no_latency.json",
         cluster_report(drop_table="cluster_latency"), False, 1),
        ("BENCH_cluster_no_throughput.json",
         cluster_report(drop_table="cluster_throughput"), False, 1),
        # e11_engine_perf table contract: the perf-baseline report must
        # carry every microbenchmark table bench_compare gates on — a
        # report that silently dropped rate_kernel (e.g. stale emit
        # wiring) must fail validation here, not pass the gate vacuously.
        ("BENCH_e11_engine_perf.json", e11_report(), False, 0),
        ("BENCH_e11_no_rate_kernel.json",
         e11_report(drop_table="rate_kernel"), False, 1),
        ("BENCH_e11_no_batch_rate.json",
         e11_report(drop_column="batch_melems_per_sec"), False, 1),
        ("BENCH_e11_no_dense_equi.json",
         e11_report(drop_table="dense_equi"), False, 1),
        ("BENCH_e11_equi_no_flow.json",
         e11_report(drop_column="fractional_flow"), False, 1),
        ("BENCH_cluster_no_p99.json",
         cluster_report(drop_column="p99_ms"), False, 1),
        # Migration events are part of the flight-record vocabulary.
        ("flight_migration.jsonl",
         flight_with(["migrate", "reroute"]), True, 0),
    ]

    with tempfile.TemporaryDirectory(prefix="parsched-validate-") as tmp:
        root = Path(tmp)
        for name, contents, is_jsonl, expected in fixtures:
            path = root / name
            if is_jsonl:
                path.write_text(
                    "".join(json.dumps(l) + "\n" for l in contents),
                    encoding="utf-8",
                )
            else:
                path.write_text(json.dumps(contents), encoding="utf-8")
            got = run_validator(tool, path)
            if got != expected:
                failures.append(
                    f"{name}: expected exit {expected}, got {got}"
                )

    if failures:
        print("validate_report_selftest FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"validate_report_selftest OK ({len(fixtures)} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
