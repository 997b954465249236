#!/usr/bin/env python3
"""validate_report — schema check for parsched telemetry files (stdlib only).

Validates the machine-readable formats the obs/ subsystem emits:

  BENCH_*.json       bench reports  (kind: parsched-bench-report, schema 2)
  *.trace.json       Chrome trace-event files from TraceExporter (schema 1)
  *.jsonl            JSONL logs, dispatched on the header's kind:
                       parsched-trace             TraceExporter event logs
                       parsched-metrics-snapshot  serve --stats-interval
                       parsched-flight-record     FlightRecorder dumps

Schema history: bench reports moved 1 -> 2 when histograms grew the
p50/p90/p99 interpolated quantile keys; the trace formats stayed at 1.

Used by CI after the report smoke run; also handy locally:

  tools/validate_report.py BENCH_e11_engine_perf.json run.trace.json

Exit status 0 when every file validates, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_SCHEMA = 2
TRACE_SCHEMA = 1
SNAPSHOT_SCHEMA = 1
FLIGHT_SCHEMA = 1

FLIGHT_EVENTS = {
    "decision",
    "admit",
    "complete",
    "guard_trip",
    "stall",
    "submit",
    "dispatch",
    "note",
    "migrate",
    "reroute",
}

# Named report kinds with a table contract of their own: report name ->
# {table name: required columns}. A report claiming one of these names
# must carry every listed table with at least the listed columns — the
# perf gate (bench_compare.py) keys its directional bands on them, so a
# soak that silently dropped a table must fail validation, not pass the
# gate vacuously.
REPORT_REQUIRED_TABLES = {
    "serve_cluster": {
        "cluster_latency": ["metric", "count", "p50_ms", "p95_ms",
                            "p99_ms"],
        "cluster_throughput": ["metric", "sessions", "shards", "requests",
                               "requests_per_sec", "jobs_per_sec"],
    },
    "e11_engine_perf": {
        "dense_alive": ["n", "decisions_per_sec"],
        "incremental_orders": ["n", "decisions", "fractional_flow",
                               "decisions_per_sec_incremental"],
        "dense_equi": ["n", "decisions", "fractional_flow",
                       "decisions_per_sec"],
        "flight_recorder_overhead": ["n", "overhead_pct"],
        "rate_kernel": ["case", "population", "scalar_melems_per_sec",
                        "batch_melems_per_sec"],
    },
}

RUN_REQUIRED = {
    "policy": str,
    "jobs": int,
    "machines": int,
    "total_flow": (int, float),
    "weighted_flow": (int, float),
    "fractional_flow": (int, float),
    "makespan": (int, float),
    "decisions": int,
    "events": int,
    "wall_seconds": (int, float),
}

STATS_REQUIRED = {
    "wall_seconds": (int, float),
    "decide_seconds": (int, float),
    "solver_seconds": (int, float),
    "observer_seconds": (int, float),
    "decisions": int,
    "arrivals": int,
    "completions": int,
}

# The parts of solver_seconds (obs/run_stats.hpp). Optional, since
# reports written before the split lack them, but all-or-nothing, each
# nonnegative, and adding up to solver_seconds (the engine sets
# solver_seconds to their sum). The admission part came later: a report
# without it splits solver_seconds four ways.
SOLVER_PARTS = (
    "rates_seconds",
    "advance_seconds",
    "heap_upkeep_seconds",
    "completion_seconds",
)
SOLVER_LATER_PARTS = ("admit_seconds",)

class Invalid(Exception):
    pass


def need(obj: dict, key: str, types, where: str):
    if key not in obj:
        raise Invalid(f"{where}: missing key '{key}'")
    if not isinstance(obj[key], types):
        raise Invalid(
            f"{where}: '{key}' has type {type(obj[key]).__name__}, "
            f"expected {types}"
        )
    return obj[key]


def check_histogram(h: dict, where: str) -> None:
    bounds = need(h, "bounds", list, where)
    counts = need(h, "counts", list, where)
    need(h, "total", int, where)
    need(h, "sum", (int, float), where)
    if len(counts) != len(bounds) + 1:
        raise Invalid(
            f"{where}: {len(bounds)} bounds need {len(bounds) + 1} buckets, "
            f"got {len(counts)}"
        )
    if sum(counts) != h["total"]:
        raise Invalid(f"{where}: bucket counts sum to {sum(counts)}, "
                      f"total says {h['total']}")
    if bounds != sorted(bounds):
        raise Invalid(f"{where}: bounds are not sorted")
    # Bounds that stop below the scale a run reaches put its samples in
    # the overflow bucket, where they carry no shape at all.
    if 2 * counts[-1] > h["total"]:
        last = bounds[-1] if bounds else None
        raise Invalid(f"{where}: {counts[-1]} of {h['total']} samples "
                      f"overflow the last bound {last}; the bounds do not "
                      f"cover the range recorded")
    # The schema-2 quantile keys. Optional (snapshot lines from older
    # writers omit them) but, when present, numeric and monotone.
    quantiles = [q for q in ("p50", "p90", "p99") if q in h]
    for q in quantiles:
        need(h, q, (int, float), where)
    values = [h[q] for q in quantiles]
    if values != sorted(values):
        raise Invalid(f"{where}: quantiles are not monotone: {values}")


def check_stats(stats, where: str) -> None:
    if stats is None:  # uninstrumented run: explicitly null
        return
    for key, types in STATS_REQUIRED.items():
        need(stats, key, types, where)
    parts = [key for key in SOLVER_PARTS if key in stats]
    if parts:
        missing = [key for key in SOLVER_PARTS if key not in stats]
        if missing:
            raise Invalid(f"{where}: solver split is missing {missing}")
        parts = list(SOLVER_PARTS) + [
            key for key in SOLVER_LATER_PARTS if key in stats]
        for key in parts:
            if need(stats, key, (int, float), where) < 0:
                raise Invalid(f"{where}: '{key}' is negative")
        total = sum(stats[key] for key in parts)
        solver = stats["solver_seconds"]
        if abs(total - solver) > 1e-9 * max(1.0, abs(solver)):
            raise Invalid(f"{where}: solver split sums to {total}, "
                          f"solver_seconds is {solver}")
    for key in ("decision_interval", "alive_count"):
        check_histogram(need(stats, key, dict, where), f"{where}.{key}")


def check_metric(metric: dict, where: str) -> None:
    need(metric, "name", str, where)
    kind = need(metric, "kind", str, where)
    if kind not in ("counter", "gauge", "timer", "histogram"):
        raise Invalid(f"{where}: unknown metric kind {kind!r}")
    if kind == "histogram":
        check_histogram(need(metric, "histogram", dict, where), where)


def check_bench_report(doc: dict, where: str) -> None:
    if need(doc, "schema", int, where) != BENCH_SCHEMA:
        raise Invalid(
            f"{where}: schema {doc['schema']}, expected {BENCH_SCHEMA}"
        )
    if need(doc, "kind", str, where) != "parsched-bench-report":
        raise Invalid(f"{where}: kind {doc['kind']!r}")
    need(doc, "name", str, where)
    need(doc, "meta", dict, where)
    runs = need(doc, "runs", list, where)
    for i, run in enumerate(runs):
        rw = f"{where}.runs[{i}]"
        for key, types in RUN_REQUIRED.items():
            need(run, key, types, rw)
        if "stats" in run:
            check_stats(run["stats"], f"{rw}.stats")
    for i, table in enumerate(need(doc, "tables", list, where)):
        tw = f"{where}.tables[{i}]"
        need(table, "name", str, tw)
        columns = need(table, "columns", list, tw)
        for j, row in enumerate(need(table, "rows", list, tw)):
            if len(row) != len(columns):
                raise Invalid(f"{tw}.rows[{j}]: {len(row)} cells for "
                              f"{len(columns)} columns")
    for i, metric in enumerate(need(doc, "metrics", list, where)):
        check_metric(metric, f"{where}.metrics[{i}]")
    required = REPORT_REQUIRED_TABLES.get(doc["name"], {})
    by_name = {t.get("name"): t for t in doc["tables"]}
    for tname, tcols in required.items():
        if tname not in by_name:
            raise Invalid(f"{where}: '{doc['name']}' report requires a "
                          f"'{tname}' table")
        missing = [c for c in tcols if c not in by_name[tname]["columns"]]
        if missing:
            raise Invalid(f"{where}: table '{tname}' missing required "
                          f"columns {missing}")
        if not by_name[tname]["rows"]:
            raise Invalid(f"{where}: table '{tname}' has no rows")


def check_chrome_trace(doc: dict, where: str) -> None:
    events = need(doc, "traceEvents", list, where)
    phases = {}
    for i, ev in enumerate(events):
        ew = f"{where}.traceEvents[{i}]"
        ph = need(ev, "ph", str, ew)
        need(ev, "pid", int, ew)
        phases[ph] = phases.get(ph, 0) + 1
        if ph == "X":
            need(ev, "ts", (int, float), ew)
            need(ev, "dur", (int, float), ew)
            if ev["dur"] < 0:
                raise Invalid(f"{ew}: negative duration")
        elif ph == "C":
            need(ev, "args", dict, ew)
    if phases.get("M", 0) == 0:
        raise Invalid(f"{where}: no metadata events (track names missing)")
    if phases.get("X", 0) == 0:
        raise Invalid(f"{where}: no allocation segments")
    if phases.get("C", 0) == 0:
        raise Invalid(f"{where}: no counter samples (alive/utilization)")
    other = need(doc, "otherData", dict, where)
    if need(other, "schema", int, f"{where}.otherData") != TRACE_SCHEMA:
        raise Invalid(f"{where}: otherData.schema != {TRACE_SCHEMA}")


def check_trace_line(ev: dict, where: str, state: dict) -> None:
    pass  # trace events carry free-form keys; the header is the contract


def check_snapshot_line(ev: dict, where: str, state: dict) -> None:
    seq = need(ev, "seq", int, where)
    if seq != state["lines"] - 2:  # header is line 1, seq starts at 0
        raise Invalid(f"{where}: seq {seq} out of order")
    need(ev, "t", (int, float), where)
    metrics = need(ev, "metrics", list, where)
    for i, metric in enumerate(metrics):
        check_metric(metric, f"{where}.metrics[{i}]")


def check_flight_line(ev: dict, where: str, state: dict) -> None:
    if ev["ev"] not in FLIGHT_EVENTS:
        raise Invalid(f"{where}: unknown flight event {ev['ev']!r}")
    seq = need(ev, "seq", int, where)
    if state["last_seq"] is not None and seq <= state["last_seq"]:
        raise Invalid(f"{where}: seq {seq} not increasing")
    state["last_seq"] = seq
    need(ev, "id", int, where)
    for key in ("t", "v", "a"):
        need(ev, key, (int, float), where)


JSONL_KINDS = {
    # header kind -> (schema, per-line check, snapshot-line ev name)
    "parsched-trace": (TRACE_SCHEMA, check_trace_line, None),
    "parsched-metrics-snapshot": (
        SNAPSHOT_SCHEMA, check_snapshot_line, "snapshot"),
    "parsched-flight-record": (FLIGHT_SCHEMA, check_flight_line, None),
}


def check_jsonl(path: Path) -> str:
    kinds = {}
    state = {"lines": 0, "last_seq": None}
    line_check = None
    only_ev = None
    header_kind = ""
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path.name}:{lineno}"
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as exc:
                raise Invalid(f"{where}: bad JSON: {exc}") from exc
            kind = need(ev, "ev", str, where)
            kinds[kind] = kinds.get(kind, 0) + 1
            state["lines"] = lineno
            if lineno == 1:
                if kind != "header":
                    raise Invalid(f"{where}: first line must be the header")
                header_kind = need(ev, "kind", str, where)
                if header_kind not in JSONL_KINDS:
                    raise Invalid(f"{where}: kind {header_kind!r}")
                schema, line_check, only_ev = JSONL_KINDS[header_kind]
                if need(ev, "schema", int, where) != schema:
                    raise Invalid(f"{where}: schema != {schema}")
                if header_kind == "parsched-flight-record":
                    for key in ("capacity", "recorded", "dropped", "events"):
                        need(ev, key, int, where)
                    need(ev, "reason", str, where)
                if header_kind == "parsched-metrics-snapshot":
                    need(ev, "interval_seconds", (int, float), where)
                continue
            if only_ev is not None and kind != only_ev:
                raise Invalid(f"{where}: ev {kind!r}, expected {only_ev!r}")
            line_check(ev, where, state)
    if kinds.get("header", 0) != 1:
        raise Invalid(f"{path.name}: expected exactly one header line")
    if header_kind == "parsched-flight-record":
        body = sum(kinds.values()) - 1
        # The header promised a count; a truncated dump must not validate.
        # (Re-read the header rather than carrying it in state.)
        with path.open(encoding="utf-8") as fh:
            promised = json.loads(fh.readline())["events"]
        if body != promised:
            raise Invalid(f"{path.name}: header promises {promised} "
                          f"events, file has {body}")
    return f"{sum(kinds.values())} lines, kinds {kinds}"


def validate(path: Path) -> str:
    if path.suffix == ".jsonl":
        return check_jsonl(path)
    with path.open(encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise Invalid(f"{path.name}: top level is not an object")
    if doc.get("kind") == "parsched-bench-report":
        check_bench_report(doc, path.name)
        return (f"bench report '{doc['name']}', {len(doc['runs'])} runs, "
                f"{len(doc['tables'])} tables, {len(doc['metrics'])} metrics")
    if "traceEvents" in doc:
        check_chrome_trace(doc, path.name)
        return f"chrome trace, {len(doc['traceEvents'])} events"
    raise Invalid(f"{path.name}: not a recognized parsched telemetry file")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for arg in argv:
        path = Path(arg)
        try:
            summary = validate(path)
            print(f"OK   {path}: {summary}")
        except (Invalid, OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
