#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py — the perf-regression gate.

Builds baseline/candidate report pairs under a temp dir and asserts the
gate's verdicts, most importantly: an injected 20% decision-rate
regression MUST fail even under --auto-scale calibration, and a
uniformly slower machine MUST pass with it. Run via ctest:

  bench_compare_selftest.py <path-to-bench_compare.py>
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def report():
    return {
        "schema": 2,
        "kind": "parsched-bench-report",
        "name": "fixture",
        "meta": {},
        "runs": [{
            "policy": "isrpt",
            "jobs": 100,
            "machines": 4,
            "total_flow": 500.0,
            "weighted_flow": 500.0,
            "fractional_flow": 450.0,
            "makespan": 60.0,
            "decisions": 220,
            "events": 300,
            "wall_seconds": 0.4,
        }],
        "tables": [
            {
                "name": "dense_alive",
                "columns": ["n", "reps", "decisions_per_sec"],
                "rows": [
                    [100, 10, 400000.0],
                    [1000, 10, 90000.0],
                    [10000, 4, 11000.0],
                ],
            },
            {
                "name": "flight_recorder_overhead",
                "columns": ["n", "overhead_pct"],
                "rows": [[1000, 1.2]],
            },
            {
                "name": "incremental_orders",
                "columns": ["n", "decisions", "fractional_flow",
                            "decisions_per_sec_incremental"],
                "rows": [
                    [100000, 320, 9875.5, 1600.0],
                    [1000000, 48, 98765.5, 85.0],
                ],
            },
            {
                "name": "client_latency",
                "columns": ["metric", "mean_ms", "p50_ms", "p95_ms",
                            "p99_ms"],
                "rows": [["client_latency", 0.08, 0.06, 0.2, 0.4]],
            },
            {
                "name": "cluster_latency",
                "columns": ["metric", "count", "p50_ms", "p95_ms",
                            "p99_ms"],
                "rows": [["latency", 25000, 0.03, 0.38, 0.59]],
            },
            {
                "name": "cluster_throughput",
                "columns": ["metric", "sessions", "shards", "requests",
                            "requests_per_sec", "jobs_per_sec"],
                "rows": [["throughput", 1000, 4, 25000, 33000.0,
                          27000.0]],
            },
            {
                "name": "rate_kernel",
                "columns": ["case", "population", "n",
                            "scalar_melems_per_sec",
                            "batch_melems_per_sec", "batch_speedup"],
                "rows": [
                    ["shared_n10000", "shared", 10000, 40.0, 42.0, 1.05],
                    ["mixed_n10000", "mixed", 10000, 38.0, 39.0, 1.03],
                ],
            },
            {
                "name": "dense_equi",
                "columns": ["n", "decisions", "fractional_flow",
                            "wall_seconds", "decisions_per_sec"],
                "rows": [
                    [100000, 200, 5012.5, 0.25, 800.0],
                    [1000000, 50, 50125.0, 0.4, 125.0],
                ],
            },
        ],
        "metrics": [{
            "name": "serve.client.latency_ms",
            "kind": "histogram",
            "histogram": {
                "bounds": [1.0],
                "counts": [9, 1],
                "total": 10,
                "sum": 2.0,
                "p50": 0.06,
                "p90": 0.3,
                "p99": 0.4,
            },
        }],
    }


def scale_rates(doc, factor):
    """Uniform machine-speed change: rates and latencies move together.

    batch_speedup stays fixed — a paired same-machine ratio does not
    move with machine speed, which is why it is not a relative gate.
    """
    for t in doc["tables"]:
        if t["name"] in ("dense_alive", "dense_equi"):
            i = t["columns"].index("decisions_per_sec")
            for row in t["rows"]:
                row[i] *= factor
        if t["name"] == "incremental_orders":
            i = t["columns"].index("decisions_per_sec_incremental")
            for row in t["rows"]:
                row[i] *= factor
        if t["name"] == "client_latency":
            for col in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
                i = t["columns"].index(col)
                for row in t["rows"]:
                    row[i] /= factor
        if t["name"] == "cluster_latency":
            for col in ("p50_ms", "p95_ms", "p99_ms"):
                i = t["columns"].index(col)
                for row in t["rows"]:
                    row[i] /= factor
        if t["name"] == "cluster_throughput":
            for col in ("requests_per_sec", "jobs_per_sec"):
                i = t["columns"].index(col)
                for row in t["rows"]:
                    row[i] *= factor
        if t["name"] == "rate_kernel":
            # Element rates move with the machine; the speedup column is
            # a paired ratio and stays put.
            for col in ("scalar_melems_per_sec", "batch_melems_per_sec"):
                i = t["columns"].index(col)
                for row in t["rows"]:
                    row[i] *= factor
    for m in doc["metrics"]:
        if m["kind"] == "histogram":
            for q in ("p50", "p90", "p99"):
                m["histogram"][q] /= factor
    return doc


def run_gate(tool: Path, base: Path, cand: Path, *flags) -> int:
    return subprocess.run(
        [sys.executable, str(tool), str(base), str(cand), *flags],
        capture_output=True,
        text=True,
        check=False,
    ).returncode


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: bench_compare_selftest.py <bench_compare.py>",
              file=sys.stderr)
        return 2
    tool = Path(sys.argv[1]).resolve()
    failures: list[str] = []

    baseline = report()

    # Candidate mutators, expected exit with the listed flags.
    def regressed_one_gate(doc):
        # THE acceptance case: one decision-rate gate drops 20% while
        # its siblings hold — must fail even with calibration on.
        t = doc["tables"][0]
        i = t["columns"].index("decisions_per_sec")
        t["rows"][2][i] *= 0.8
        return doc

    def uniformly_slower(doc):
        return scale_rates(doc, 0.5)

    def uniformly_faster(doc):
        return scale_rates(doc, 2.0)

    def flow_drift(doc):
        doc["runs"][0]["total_flow"] += 1.0
        return doc

    def overhead_blown(doc):
        t = doc["tables"][1]
        i = t["columns"].index("overhead_pct")
        t["rows"][0][i] = 7.5
        return doc

    def p99_spike(doc):
        t = doc["tables"][3]
        i = t["columns"].index("p99_ms")
        t["rows"][0][i] *= 1.5
        return doc

    def incremental_rate_regressed(doc):
        # The ordering heaps' decision rate drops 30% while every
        # sibling gate holds — must fail even under calibration.
        t = doc["tables"][2]
        i = t["columns"].index("decisions_per_sec_incremental")
        t["rows"][0][i] *= 0.7
        return doc

    def incremental_decisions_drift(doc):
        # Same timing, different work: the ISRPT drive stopped after a
        # different number of decisions, so its rate measures another
        # drive.
        t = next(t for t in doc["tables"]
                 if t["name"] == "incremental_orders")
        i = t["columns"].index("decisions")
        t["rows"][1][i] += 1
        return doc

    def incremental_flow_drift(doc):
        t = next(t for t in doc["tables"]
                 if t["name"] == "incremental_orders")
        i = t["columns"].index("fractional_flow")
        t["rows"][0][i] += 1e-3
        return doc

    def cluster_throughput_regressed(doc):
        # The sharded soak retires 25% fewer requests per second while
        # every sibling gate holds — a cluster-plane regression the
        # calibration must not absorb.
        t = next(t for t in doc["tables"]
                 if t["name"] == "cluster_throughput")
        i = t["columns"].index("requests_per_sec")
        t["rows"][0][i] *= 0.75
        return doc

    def cluster_p99_spike(doc):
        # The fleet p99 round-trip blows up 60% under an unchanged
        # workload: the directional latency gate must catch it.
        t = next(t for t in doc["tables"]
                 if t["name"] == "cluster_latency")
        i = t["columns"].index("p99_ms")
        t["rows"][0][i] *= 1.6
        return doc

    def equi_rate_regressed(doc):
        # The dense EQUI step slows 30% while every sibling gate holds.
        t = next(t for t in doc["tables"] if t["name"] == "dense_equi")
        i = t["columns"].index("decisions_per_sec")
        t["rows"][1][i] *= 0.7
        return doc

    def equi_flow_drift(doc):
        # Same timing, different work: the stop point's fractional flow
        # moved, so the rate no longer measures the baseline's drive.
        t = next(t for t in doc["tables"] if t["name"] == "dense_equi")
        i = t["columns"].index("fractional_flow")
        t["rows"][0][i] += 1e-3
        return doc

    def kernel_rate_regressed(doc):
        # The batch kernel loses 25% element throughput while every sibling
        # gate holds — must fail even under calibration.
        t = next(t for t in doc["tables"] if t["name"] == "rate_kernel")
        i = t["columns"].index("batch_melems_per_sec")
        t["rows"][0][i] *= 0.75
        return doc

    cases = [
        ("identical", lambda d: d, ["--auto-scale"], 0),
        ("equi_rate_regressed", equi_rate_regressed, ["--auto-scale"], 1),
        ("equi_flow_drift", equi_flow_drift, ["--auto-scale"], 1),
        ("kernel_rate_regressed", kernel_rate_regressed,
         ["--auto-scale"], 1),
        ("regressed_one_gate", regressed_one_gate, ["--auto-scale"], 1),
        ("regressed_no_scale", regressed_one_gate, [], 1),
        ("uniformly_slower_scaled", uniformly_slower, ["--auto-scale"], 0),
        ("uniformly_slower_raw", uniformly_slower, [], 1),
        ("uniformly_faster", uniformly_faster, ["--auto-scale"], 0),
        ("flow_drift", flow_drift, ["--auto-scale"], 1),
        ("overhead_blown", overhead_blown, ["--auto-scale"], 1),
        ("p99_spike", p99_spike, ["--auto-scale", "--tolerance=0.15"], 1),
        ("p99_spike_loose", p99_spike, ["--tolerance=0.60"], 0),
        ("incremental_rate_regressed", incremental_rate_regressed,
         ["--auto-scale"], 1),
        ("incremental_decisions_drift", incremental_decisions_drift,
         ["--auto-scale"], 1),
        ("incremental_flow_drift", incremental_flow_drift,
         ["--auto-scale"], 1),
        ("cluster_throughput_regressed", cluster_throughput_regressed,
         ["--auto-scale"], 1),
        ("cluster_throughput_regressed_raw", cluster_throughput_regressed,
         [], 1),
        ("cluster_p99_spike", cluster_p99_spike, ["--auto-scale"], 1),
    ]

    with tempfile.TemporaryDirectory(prefix="parsched-gate-") as tmp:
        root = Path(tmp)
        base_path = root / "baseline.json"
        base_path.write_text(json.dumps(baseline), encoding="utf-8")
        for name, mutate, flags, expected in cases:
            cand = mutate(copy.deepcopy(baseline))
            cand_path = root / f"{name}.json"
            cand_path.write_text(json.dumps(cand), encoding="utf-8")
            got = run_gate(tool, base_path, cand_path, *flags)
            if got != expected:
                failures.append(
                    f"{name} {flags}: expected exit {expected}, got {got}"
                )

        # --auto-scale refuses to calibrate on too few gates (it would
        # be calibrating on the very gate under test).
        thin = copy.deepcopy(baseline)
        thin["tables"] = [thin["tables"][0]]
        thin["tables"][0]["rows"] = thin["tables"][0]["rows"][:2]
        thin["metrics"] = []
        thin_path = root / "thin.json"
        thin_path.write_text(json.dumps(thin), encoding="utf-8")
        if run_gate(tool, thin_path, thin_path, "--auto-scale") != 2:
            failures.append("thin --auto-scale: expected usage exit 2")

    if failures:
        print("bench_compare_selftest FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"bench_compare_selftest OK ({len(cases) + 1} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
