#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at the tiny size, same code.

    python3 perfbench/selftest.py

Checks, for each workload:
  * an untimed-size run (--trace 0) is correct and emits exactly the
    end_to_end metrics BENCHMARK.json declares, with their units;
  * a traced run (--trace 1) is correct and emits exactly the per_layer
    metrics, with their units;
  * a second traced run with the same seed repeats every count exactly;
  * a corrupted committed reference makes the run fail (exit 1,
    correct=false) — for the workloads checked against a reference file.
Exit status 0 when all hold.
"""
import json
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402

TINY_SECONDS = 0.5


def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer, [w["name"] for w in spec["workloads"]]


def tiny_run(exe, workload, trace, seed=11, ref=None):
    args = run.driver_args(exe, workload, seed, TINY_SECONDS, trace, "tiny",
                           ref)
    code, out = run.run_driver(args)
    return code, run.last_json(out)


def corrupt(src, dst):
    """Copy a reference, flipping the lowest hex digit of the second value
    of its first record (opt_lower, or a dense run's fractional_flow)."""
    lines = src.read_text().splitlines()
    for i, line in enumerate(lines):
        if line and not line.startswith("#"):
            fields = line.split()
            mant, exp = fields[2].split("p")
            flipped = mant[:-1] + ("0" if mant[-1] != "0" else "1")
            fields[2] = f"{flipped}p{exp}"
            lines[i] = " ".join(fields)
            break
    dst.write_text("\n".join(lines) + "\n")


def main():
    e2e, layer, workloads = declared()
    exe = run.build()
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in workloads:
        code, res = tiny_run(exe, w, 0)
        expect(code == 0 and res and res["correct"], f"{w}: trace 0 correct")
        got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
        expect(got == e2e, f"{w}: emits exactly the end_to_end metrics")

        code, res = tiny_run(exe, w, 1)
        expect(code == 0 and res and res["correct"], f"{w}: trace 1 correct")
        got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
        expect(got == layer, f"{w}: emits exactly the per_layer metrics")

        _, again = tiny_run(exe, w, 1)
        counts = [k for k, u in layer.items() if u == "count"]
        same = bool(res and again) and all(
            res["metrics"][k]["value"] == again["metrics"][k]["value"]
            for k in counts)
        expect(same, f"{w}: traced counts repeat exactly")

        ref = run.reference(w, "tiny")
        if ref.is_file():
            bad = run.build_dir() / "run" / f"corrupt.{w}.txt"
            corrupt(ref, bad)
            code, res = tiny_run(exe, w, 0, ref=bad)
            expect(code == 1 and res is not None and not res["correct"],
                   f"{w}: a corrupted reference fails the run")
            bad.unlink()

    print("selftest: " + ("ok" if not failures else
                          f"{len(failures)} check(s) failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
