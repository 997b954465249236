#!/usr/bin/env python3
"""Run one parsched benchmark workload from a seed.

    python3 perfbench/run.py --workload repro_grid --seed 7 --seconds 10 --trace 0

Builds the benchmark driver from the checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build; a no-op once built), runs the
workload, and relays the driver's output. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the `# ...`
lines before it give every metric with its unit and sample count, the
percentile behind latency_tail_ms, nproc, the CPU used and the build type.

Exit status is 0 for a correct run and non-zero when a correctness check
failed, the build failed, or the sources are missing.

    python3 perfbench/run.py --write-references

regenerates the committed references under perfbench/reference/ from the
current code (do this only for a change that is meant to alter results).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("repro_grid", "dense_isrpt", "dense_equi", "serve_fleet")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(
            "perfbench: no parsched sources next to perfbench/ "
            "(run from the root of a full checkout)")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return bdir / "perfbench_driver"


def reference(workload, scale):
    return HERE / "reference" / f"{workload}.{scale}.txt"


def driver_args(exe, workload, seed, seconds, trace, scale="full",
                ref=None):
    scratch = build_dir() / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    # serve_fleet binds a Unix socket there; a relative path keeps it
    # under the 108-byte sun_path limit however deep the checkout is.
    return [str(exe), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scale", scale,
            "--reference", str(ref or reference(workload, scale)),
            "--scratch", os.path.relpath(scratch, ROOT)]


def run_driver(args, timeout=RUN_TIMEOUT_S):
    """Runs the driver to completion; returns (exit code, stdout)."""
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: driver exceeded {timeout} s")
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def write_references(exe):
    for scale in ("full", "tiny"):
        for w in WORKLOADS:
            if w == "serve_fleet":
                continue  # its oracle is a batch simulate(), not a file
            ref = reference(w, scale)
            args = driver_args(exe, w, 1, 1, 0, scale, ref)
            code, _ = run_driver(args + ["--write-reference"], timeout=600)
            if code != 0:
                raise SystemExit(f"perfbench: writing {ref} failed")
            log(f"wrote {ref.relative_to(ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test size")
    ap.add_argument("--write-references", action="store_true")
    a = ap.parse_args()
    if not a.write_references and a.workload is None:
        ap.error("--workload is required")

    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        raise SystemExit(f"perfbench: build failed ({e})")
    if a.write_references:
        write_references(exe)
        return 0

    code, out = run_driver(driver_args(exe, a.workload, a.seed, a.seconds,
                                       a.trace, a.scale))
    result = last_json(out)
    if result is None:
        log(f"driver printed no result (exit {code})")
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
