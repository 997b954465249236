#!/usr/bin/env python3
"""Compare BENCH_*.json reports with timing-dependent fields masked.

The sweep determinism contract says: same base seed => same artifact
bytes at any job count. Wall-clock measurements are the one legitimate
exception — two runs of the same bench can never agree on seconds. This
tool normalizes a parsched-bench-report by masking exactly the fields
that are allowed to differ, then diffs the rest byte-for-byte:

  * any key named for a run's wall time or one of its time buckets
    (wall_seconds, decide_seconds, solver_seconds, observer_seconds and
    the five solver parts rates/advance/heap_upkeep/completion/admit
    _seconds), wherever it appears (runs, stats, nested);
  * metrics entries of kind "timer" (their seconds are wall time), and
    any metric named under "exec.pool." (pool instrumentation scales
    with the worker count by design);
  * the timing columns of E11's timed tables (TIMING_TABLE_COLUMNS) —
    but NOT the columns naming the work a row measured (n, jobs, tasks,
    total_flow, and the decisions/fractional_flow bench_compare pins),
    so a cross-job-count flow divergence still fails the diff.

Everything else — flow totals, decision counts, table rows, histogram
buckets, metadata — must match exactly.

Usage:
  report_diff.py A.json B.json        compare two report files
  report_diff.py DIR_A DIR_B          compare every BENCH_*.json pair

Exit status: 0 identical after masking, 1 divergent, 2 usage/IO error.
"""

from __future__ import annotations

import difflib
import json
import sys
from pathlib import Path

MASKED = "<masked:timing>"

TIMING_KEYS = {
    "wall_seconds",
    "decide_seconds",
    "solver_seconds",
    "observer_seconds",
    "rates_seconds",
    "advance_seconds",
    "heap_upkeep_seconds",
    "completion_seconds",
    "admit_seconds",
}

# table name -> its timing columns. dense_alive repeats its drive for a
# fixed wall budget, so its reps and decisions columns are timing too.
TIMING_TABLE_COLUMNS = {
    "parallel_speedup": {
        "wall_seconds", "speedup_vs_j1", "merge_seconds", "idle_fraction",
    },
    "dense_alive": {
        "reps", "decisions", "wall_seconds", "decisions_per_sec",
        "speedup_vs_baseline",
    },
    "dense_equi": {"wall_seconds", "decisions_per_sec"},
    "incremental_orders": {
        "first_advance_seconds", "wall_incremental_seconds",
        "decisions_per_sec_incremental", "decide_incremental_seconds",
    },
    "flight_recorder_overhead": {
        "wall_off_seconds", "wall_on_seconds", "decisions_per_sec_off",
        "decisions_per_sec_on", "overhead_pct",
    },
    "rate_kernel": {
        "scalar_melems_per_sec", "batch_melems_per_sec", "batch_speedup",
    },
}


def mask_table(table: dict) -> dict:
    timing = TIMING_TABLE_COLUMNS.get(table.get("name"))
    if timing is None:
        return table
    columns = table.get("columns", [])
    timing_idx = {i for i, c in enumerate(columns) if c in timing}
    out = dict(table)
    out["rows"] = [
        [MASKED if i in timing_idx else cell for i, cell in enumerate(row)]
        for row in table.get("rows", [])
    ]
    return out


def mask_metric(metric: dict) -> dict | None:
    name = metric.get("name", "")
    if name.startswith("exec.pool."):
        return None  # pool instrumentation varies with the worker count
    if metric.get("kind") != "timer":
        return metric
    return {
        k: (v if isinstance(v, str) else MASKED) for k, v in metric.items()
    }


def mask(node):
    """Recursively replace timing-dependent values with a fixed token."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key in TIMING_KEYS:
                out[key] = MASKED
            elif key == "tables" and isinstance(value, list):
                out[key] = [
                    mask_table(t) if isinstance(t, dict) else mask(t)
                    for t in value
                ]
            elif key == "metrics" and isinstance(value, list):
                kept = []
                for m in value:
                    masked = mask_metric(m) if isinstance(m, dict) else m
                    if masked is not None:
                        kept.append(masked)
                out[key] = kept
            else:
                out[key] = mask(value)
        return out
    if isinstance(node, list):
        return [mask(v) for v in node]
    return node


def normalize(path: Path) -> str:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"report_diff: cannot read {path}: {exc}")
    return json.dumps(mask(data), indent=2, sort_keys=True) + "\n"


def diff_pair(a: Path, b: Path) -> bool:
    na, nb = normalize(a), normalize(b)
    if na == nb:
        return True
    sys.stdout.writelines(
        difflib.unified_diff(
            na.splitlines(keepends=True),
            nb.splitlines(keepends=True),
            fromfile=str(a),
            tofile=str(b),
        )
    )
    return False


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = Path(argv[1]), Path(argv[2])
    if a.is_dir() != b.is_dir():
        print("report_diff: arguments must both be files or both dirs",
              file=sys.stderr)
        return 2

    pairs: list[tuple[Path, Path]] = []
    if a.is_dir():
        names = sorted(
            {p.name for p in a.glob("BENCH_*.json")}
            | {p.name for p in b.glob("BENCH_*.json")}
        )
        if not names:
            print(f"report_diff: no BENCH_*.json under {a} or {b}",
                  file=sys.stderr)
            return 2
        for name in names:
            pa, pb = a / name, b / name
            if not pa.is_file() or not pb.is_file():
                print(f"report_diff: {name} missing on one side",
                      file=sys.stderr)
                return 1
            pairs.append((pa, pb))
    else:
        pairs.append((a, b))

    clean = True
    for pa, pb in pairs:
        if diff_pair(pa, pb):
            print(f"report_diff: OK {pa.name}")
        else:
            clean = False
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
