#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json reports.

report_diff.py answers "are these two artifacts the same run?" by
masking every timing field; this tool answers the opposite question:
"did the timing get worse?". It compares a freshly generated candidate
report against a committed baseline in two bands:

  * deterministic fields (jobs, machines, flow totals, decision and
    event counts, table key columns) must agree to ~1e-9 relative —
    they are seed-determined, so any drift means the candidate measured
    a different workload and the timing comparison is meaningless;
  * timing-derived gates (decision rates, latency quantiles) are
    tolerance-banded and DIRECTIONAL: a candidate may be faster than
    the baseline by any margin, but slower by more than --tolerance
    fails the gate.

Gates extracted from a report:

  * every `decisions_per_sec` column of a `dense_alive` or `dense_equi`
    table row (higher is better), keyed by the row's n;
  * the `decisions_per_sec_incremental` column of an
    `incremental_orders` table row (higher is better), keyed by n — the
    ordering heaps must not lose ground against the clock;
  * the `scalar_melems_per_sec` / `batch_melems_per_sec` columns of a
    `rate_kernel` table row (higher is better), keyed by case;
  * the `mean_ms` / `p50_ms` / `p95_ms` / `p99_ms` columns of a
    `client_latency` table (lower is better);
  * the `p50_ms` / `p95_ms` / `p99_ms` columns of a `cluster_latency`
    table and the `requests_per_sec` / `jobs_per_sec` columns of a
    `cluster_throughput` table — the sharded-soak gates (latency lower,
    throughput higher is better);
  * the p50/p99 bucket quantiles of any histogram metric whose name
    ends in `latency_ms` (lower is better);
  * the `overhead_pct` column of a `flight_recorder_overhead` table is
    an ABSOLUTE cap (<= 3.0), not a relative band — the recorder budget
    holds against the candidate alone, whatever the baseline measured.

Baselines are committed from one reference machine and candidates run
on whatever CI hands out, so absolute rates are incomparable across the
pair. --auto-scale fixes that: the median candidate/baseline ratio
across all relative gates is taken as the machine-speed calibration,
and each gate is judged against that median rather than against 1.0.
A uniformly slower machine passes; a single gate regressing while its
siblings hold (the signature of an actual perf bug) fails. This only
discriminates when there are >= 3 relative gates; below that the tool
refuses --auto-scale rather than calibrating on the gate under test.

Usage:
  bench_compare.py BASELINE.json CANDIDATE.json
      [--tolerance=0.15] [--auto-scale]

Exit status: 0 within tolerance, 1 regression or determinism mismatch,
2 usage/IO error.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# Relative slack for fields that are seed-deterministic in principle but
# cross a libm boundary between machines (pow in the speedup curves).
EXACT_RTOL = 1e-9

# Deterministic per-run fields; wall_seconds and stats are timing.
RUN_EXACT_FIELDS = (
    "policy",
    "jobs",
    "machines",
    "total_flow",
    "weighted_flow",
    "fractional_flow",
    "makespan",
    "decisions",
    "events",
)

# table name -> (key column, [(gate column, direction)])
# direction: "higher" = higher is better, "lower" = lower is better.
TABLE_GATES = {
    "dense_alive": ("n", [("decisions_per_sec", "higher")]),
    "dense_equi": ("n", [("decisions_per_sec", "higher")]),
    "incremental_orders": (
        "n",
        [("decisions_per_sec_incremental", "higher")],
    ),
    "client_latency": (
        "metric",
        [
            ("mean_ms", "lower"),
            ("p50_ms", "lower"),
            ("p95_ms", "lower"),
            ("p99_ms", "lower"),
        ],
    ),
    # Sharded serving plane (parsched loadgen --report-name=serve_cluster):
    # exact client-side round-trip quantiles over the whole fleet...
    "cluster_latency": (
        "metric",
        [
            ("p50_ms", "lower"),
            ("p95_ms", "lower"),
            ("p99_ms", "lower"),
        ],
    ),
    # ...and the soak's delivered rates (requests retired per wall
    # second across every shard, and simulated jobs per wall second).
    "cluster_throughput": (
        "metric",
        [
            ("requests_per_sec", "higher"),
            ("jobs_per_sec", "higher"),
        ],
    ),
    # Rate-kernel microbenchmark (scalar loop vs rate_batch over the SoA
    # flat arrays). batch_speedup is a paired same-machine ratio and is
    # not gated: it does not move with machine speed, so it would skew
    # --auto-scale.
    "rate_kernel": (
        "case",
        [
            ("scalar_melems_per_sec", "higher"),
            ("batch_melems_per_sec", "higher"),
        ],
    ),
}

# table name -> (key column, [deterministic columns]): the work a timed
# row measured, compared in the exact band like RUN_EXACT_FIELDS.
TABLE_EXACT = {
    "dense_equi": ("n", ["decisions", "fractional_flow"]),
    "incremental_orders": ("n", ["decisions", "fractional_flow"]),
}

# table name -> (cap column, cap value): candidate-only absolute bound.
TABLE_CAPS = {
    "flight_recorder_overhead": ("overhead_pct", 3.0),
}

HISTOGRAM_QUANTILE_GATES = ("p50", "p99")


def load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bench_compare: cannot read {path}: {exc}")
    if data.get("kind") != "parsched-bench-report":
        raise SystemExit(f"bench_compare: {path} is not a bench report")
    return data


def close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= EXACT_RTOL * max(abs(fa), abs(fb), 1.0)


def table_by_name(report: dict, name: str) -> dict | None:
    for t in report.get("tables", []):
        if t.get("name") == name:
            return t
    return None


def table_rows(table: dict, key_col: str) -> dict:
    cols = table.get("columns", [])
    key_idx = cols.index(key_col)
    return {
        row[key_idx]: dict(zip(cols, row)) for row in table.get("rows", [])
    }


def check_runs(base: dict, cand: dict, problems: list) -> None:
    """Deterministic-field agreement between the two reports' runs."""
    bruns, cruns = base.get("runs", []), cand.get("runs", [])
    if len(bruns) != len(cruns):
        problems.append(
            f"run count differs: baseline {len(bruns)}, "
            f"candidate {len(cruns)}"
        )
        return
    key = lambda r: (r.get("policy", ""), r.get("jobs", 0),
                     r.get("total_flow", 0.0))
    for b, c in zip(sorted(bruns, key=key), sorted(cruns, key=key)):
        for field in RUN_EXACT_FIELDS:
            if field in b and field in c and not close(b[field], c[field]):
                problems.append(
                    f"run [{b.get('policy')}] {field}: baseline "
                    f"{b[field]} vs candidate {c[field]} (deterministic "
                    f"field — not a timing difference)"
                )


def check_table_exact(base: dict, cand: dict, problems: list) -> None:
    """Deterministic table columns agree row by row (rows matched by key;
    missing tables and key sets are reported by collect_gates)."""
    for name, (key_col, columns) in TABLE_EXACT.items():
        bt, ct = table_by_name(base, name), table_by_name(cand, name)
        if bt is None or ct is None:
            continue
        brows, crows = table_rows(bt, key_col), table_rows(ct, key_col)
        for row_key in sorted(set(brows) & set(crows)):
            for col in columns:
                b, c = brows[row_key].get(col), crows[row_key].get(col)
                if b is None or c is None or not close(b, c):
                    problems.append(
                        f"{name}[{row_key}].{col}: baseline {b} vs "
                        f"candidate {c} (deterministic field — not a "
                        f"timing difference)"
                    )


def collect_gates(base: dict, cand: dict, problems: list) -> list:
    """[(label, direction, base value, candidate value)] for the bands."""
    gates = []
    for name, (key_col, columns) in TABLE_GATES.items():
        bt, ct = table_by_name(base, name), table_by_name(cand, name)
        if bt is None and ct is None:
            continue
        if bt is None or ct is None:
            problems.append(f"table '{name}' missing on one side")
            continue
        brows, crows = table_rows(bt, key_col), table_rows(ct, key_col)
        if set(brows) != set(crows):
            problems.append(
                f"table '{name}' keys differ: baseline {sorted(brows)} "
                f"vs candidate {sorted(crows)}"
            )
            continue
        for row_key in sorted(brows):
            for col, direction in columns:
                if col not in brows[row_key] or col not in crows[row_key]:
                    continue
                gates.append((
                    f"{name}[{row_key}].{col}",
                    direction,
                    float(brows[row_key][col]),
                    float(crows[row_key][col]),
                ))
    bmetrics = {m.get("name"): m for m in base.get("metrics", [])}
    cmetrics = {m.get("name"): m for m in cand.get("metrics", [])}
    for name in sorted(set(bmetrics) & set(cmetrics)):
        bm, cm = bmetrics[name], cmetrics[name]
        if bm.get("kind") != "histogram" or not name.endswith("latency_ms"):
            continue
        bh, ch = bm.get("histogram", {}), cm.get("histogram", {})
        for q in HISTOGRAM_QUANTILE_GATES:
            if q in bh and q in ch:
                gates.append(
                    (f"{name}.{q}", "lower", float(bh[q]), float(ch[q]))
                )
    return gates


def check_caps(cand: dict, problems: list) -> None:
    for name, (col, cap) in TABLE_CAPS.items():
        ct = table_by_name(cand, name)
        if ct is None:
            continue
        cols = ct.get("columns", [])
        if col not in cols:
            continue
        idx = cols.index(col)
        for row in ct.get("rows", []):
            if float(row[idx]) > cap:
                problems.append(
                    f"{name}[{row[0]}].{col} = {row[idx]} exceeds the "
                    f"absolute cap {cap}"
                )


def gate_ratio(direction: str, base: float, cand: float) -> float:
    """> 1 means the candidate improved, < 1 means it regressed."""
    if base <= 0.0 or cand <= 0.0:
        return 1.0  # degenerate measurement; leave it to the exact band
    return cand / base if direction == "higher" else base / cand


def main(argv: list[str]) -> int:
    tolerance = 0.15
    auto_scale = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg == "--auto-scale":
            auto_scale = True
        elif arg.startswith("--"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            paths.append(Path(arg))
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    base, cand = load(paths[0]), load(paths[1])
    problems: list[str] = []
    check_runs(base, cand, problems)
    check_table_exact(base, cand, problems)
    check_caps(cand, problems)
    gates = collect_gates(base, cand, problems)

    scale = 1.0
    if auto_scale:
        if len(gates) < 3:
            print(
                "bench_compare: --auto-scale needs >= 3 relative gates "
                f"to calibrate, got {len(gates)}",
                file=sys.stderr,
            )
            return 2
        scale = statistics.median(
            gate_ratio(d, b, c) for _, d, b, c in gates
        )

    for label, direction, b, c in gates:
        ratio = gate_ratio(direction, b, c) / scale
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(
            f"  {status:9s} {label}: baseline {b:.6g} -> candidate "
            f"{c:.6g}  (normalized ratio {ratio:.3f})"
        )
        if ratio < 1.0 - tolerance:
            problems.append(
                f"{label} regressed: normalized ratio {ratio:.3f} < "
                f"{1.0 - tolerance:.3f}"
            )

    if auto_scale:
        print(f"  machine-speed calibration: median ratio {scale:.3f}")
    if problems:
        print(f"bench_compare: FAIL ({len(problems)} problem(s)):")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        f"bench_compare: OK — {len(gates)} gate(s) within "
        f"{tolerance:.0%} of {paths[0].name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
