#!/usr/bin/env python3
"""parsched_lint — project-specific lint rules for the parsched codebase.

Rules (scoped to src/, tools/parsched_cli.cpp and tests/ by default;
tests are exempt from raw-assert — a test may legitimately exercise
assert-level machinery — and every rule below says "src/" to mean the
linted scope):

  raw-assert        `assert(...)` and `#include <cassert>` / `<assert.h>`
                    are banned in src/: raw asserts vanish under NDEBUG,
                    i.e. in the RelWithDebInfo builds every measurement
                    runs in. Use PARSCHED_CHECK / PARSCHED_DCHECK from
                    check/contract.hpp instead. (static_assert is fine;
                    check/contract.hpp itself is exempt.)

  float-eq          bare float-literal == / != comparisons are banned
                    outside util/mathx.hpp (use approx_eq, or
                    annotate a provably-exact comparison with a trailing
                    `// lint: float-eq-ok`). Comparisons against kInf
                    carry no float literal and are allowed.

  pragma-once       every header must contain `#pragma once`.

  include-style     project includes must be spelled relative to src/
                    with their subsystem prefix (`#include
                    "simcore/engine.hpp"`), never bare (`#include
                    "engine.hpp"`).

  raw-chrono        raw timing (`std::chrono`, `clock()`, steady_clock,
                    `gettimeofday`, ...) is banned in src/ outside
                    src/obs/: all timing must flow through
                    obs/metrics.hpp (monotonic_seconds, ScopedTimer,
                    TimerStat) so instrumentation can be disabled and
                    audited uniformly.

  raw-ofstream      spelling `std::ofstream` is banned in src/ outside
                    util/fsio.hpp: writers must use open_output() /
                    finish_output(), which check the stream state before
                    returning — a bare ofstream silently truncates on
                    disk-full or short writes.

  raw-thread        spelling `std::thread` / `std::jthread` /
                    `std::async` (or including <thread>) is banned in
                    src/ outside exec/thread_pool.{hpp,cpp}: all
                    concurrency must run through exec::ThreadPool
                    so parallelism is instrumented, TSan-covered,
                    and honors --jobs / PARSCHED_JOBS uniformly.
                    (<future>, mutexes and atomics are fine
                    anywhere — only thread *creation* is fenced.) A
                    test that deliberately attacks the pool/server from
                    a raw thread annotates it with a trailing
                    `// lint: thread-ok`.

  raw-getenv        calling `std::getenv` is banned in src/ outside
                    util/env.hpp: env access must flow through
                    parsched::env (get_flag / get_int / get_string) so
                    parsing is uniform and malformed values are warned
                    about instead of silently ignored.

Exit status 0 when clean, 1 when any rule fires; findings are printed as
`file:line: [rule] message` so editors and CI annotate them directly.

`--suppression-audit` instead lists every `// lint: ...` escape hatch in
the scoped files (file:line: [suppression-audit] <marker> — <code>) and
exits 0: the hatches are sanctioned, but CI archives the listing so
their population is reviewed, not silently grown.

Usage:
  tools/parsched_lint.py [--root DIR] [--suppression-audit] [paths...]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
HEADER_SUFFIXES = {".hpp", ".h"}

# Subsystem directories under src/ that project includes must spell out.
KNOWN_PREFIXES = (
    "analysis/",
    "check/",
    "exec/",
    "obs/",
    "sched/",
    "serve/",
    "simcore/",
    "speedup/",
    "util/",
    "workload/",
)

SUPPRESS_FLOAT_EQ = "lint: float-eq-ok"
SUPPRESS_THREAD = "lint: thread-ok"

RE_SUPPRESSION = re.compile(r"//\s*(lint:\s*[\w-]+)")

RE_RAW_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")
RE_CASSERT_INCLUDE = re.compile(r'#\s*include\s*<(cassert|assert\.h)>')
RE_LINE_COMMENT = re.compile(r"//.*$")
RE_STRING = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')
# A float literal: digits with a decimal point or an exponent (1.0, .5, 1e-9).
FLOAT_LIT = r"(?:\d+\.\d*|\.\d+|\d+\.)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
RE_FLOAT_EQ = re.compile(
    r"(?:(?:{f})\s*[=!]=)|(?:[=!]=\s*(?:{f}))".format(f=FLOAT_LIT)
)
RE_PROJECT_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')
RE_RAW_CHRONO = re.compile(
    r"std\s*::\s*chrono|#\s*include\s*<chrono>"
    r"|\b(?:steady_clock|system_clock|high_resolution_clock)\b"
    r"|(?<![\w.:])(?:clock|clock_gettime|gettimeofday)\s*\("
)
RE_RAW_OFSTREAM = re.compile(r"std\s*::\s*ofstream\b")
RE_RAW_THREAD = re.compile(
    r"std\s*::\s*(?:jthread|thread|async)\b|#\s*include\s*<thread>"
)
RE_RAW_GETENV = re.compile(r"(?<![\w.:])(?:std\s*::\s*)?getenv\s*\(")


def strip_code_noise(line: str) -> str:
    """Drop string/char literals and // comments so rules see only code."""
    line = RE_STRING.sub('""', line)
    return RE_LINE_COMMENT.sub("", line)


def lint_file(path: Path, rel: str, findings: list[str]) -> None:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        findings.append(f"{rel}:1: [io] unreadable: {exc}")
        return

    is_header = path.suffix in HEADER_SUFFIXES
    rel_posix = rel.replace("\\", "/")
    is_contract = rel_posix.endswith("check/contract.hpp")
    is_mathx = rel_posix.endswith("util/mathx.hpp")
    is_fsio = rel_posix.endswith("util/fsio.hpp")
    is_env = rel_posix.endswith("util/env.hpp")
    is_thread_pool = rel_posix.endswith(
        ("exec/thread_pool.hpp", "exec/thread_pool.cpp")
    )
    in_obs = "/obs/" in f"/{rel_posix}"
    in_tests = "/tests/" in f"/{rel_posix}" or rel_posix.startswith("tests/")
    in_tools = "/tools/" in f"/{rel_posix}" or rel_posix.startswith("tools/")
    # Everything collected is in scope; `in_src` keeps the original name
    # because the rule messages and docs speak of the src/ discipline.
    in_src = (
        "/src/" in f"/{rel}" or rel.startswith("src/")
        or in_tests or in_tools
    )

    if is_header and "#pragma once" not in text:
        findings.append(f"{rel}:1: [pragma-once] header lacks '#pragma once'")

    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Cheap block-comment tracking: good enough for this codebase's
        # style (no code after '*/' on the same line).
        line = raw
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
                line = line.split("*/", 1)[1]
            else:
                continue
        if "/*" in line and "*/" not in line:
            in_block_comment = True
            line = line.split("/*", 1)[0]

        code = strip_code_noise(line)

        if in_src and not is_contract and not in_tests:
            if RE_CASSERT_INCLUDE.search(code):
                findings.append(
                    f"{rel}:{lineno}: [raw-assert] <cassert> include; use "
                    'check/contract.hpp'
                )
            stripped = RE_RAW_ASSERT.sub(
                "", code.replace("static_assert", "")
            )
            if stripped != code.replace("static_assert", ""):
                findings.append(
                    f"{rel}:{lineno}: [raw-assert] raw assert(); use "
                    "PARSCHED_CHECK / PARSCHED_DCHECK"
                )

        if in_src and not in_obs and RE_RAW_CHRONO.search(code):
            findings.append(
                f"{rel}:{lineno}: [raw-chrono] raw timing outside src/obs/; "
                "use monotonic_seconds / ScopedTimer from obs/metrics.hpp "
                "so timing can be disabled uniformly"
            )

        if in_src and not is_fsio and RE_RAW_OFSTREAM.search(code):
            findings.append(
                f"{rel}:{lineno}: [raw-ofstream] bare std::ofstream; use "
                "open_output/finish_output from util/fsio.hpp so the "
                "stream state is checked before returning"
            )

        if (
            in_src
            and not is_thread_pool
            and SUPPRESS_THREAD not in raw
            and RE_RAW_THREAD.search(code)
        ):
            findings.append(
                f"{rel}:{lineno}: [raw-thread] raw thread creation outside "
                "exec/thread_pool.{hpp,cpp}; submit work to exec::ThreadPool / "
                "exec::SweepRunner so concurrency is instrumented and "
                "honors --jobs / PARSCHED_JOBS (tests attacking the pool "
                f"from outside annotate '// {SUPPRESS_THREAD}')"
            )

        if in_src and not is_env and RE_RAW_GETENV.search(code):
            findings.append(
                f"{rel}:{lineno}: [raw-getenv] raw std::getenv outside "
                "util/env.hpp; use parsched::env::get_flag / get_int / "
                "get_string so malformed values are diagnosed uniformly"
            )

        if (
            in_src
            and not is_mathx
            and SUPPRESS_FLOAT_EQ not in raw
            and RE_FLOAT_EQ.search(code)
        ):
            findings.append(
                f"{rel}:{lineno}: [float-eq] bare float-literal ==/!= "
                "comparison; use approx_eq from util/mathx.hpp or "
                f"annotate with '// {SUPPRESS_FLOAT_EQ}'"
            )

        # Match against the comment-stripped raw line: strip_code_noise
        # blanks string literals, which would erase the include path.
        m = RE_PROJECT_INCLUDE.search(RE_LINE_COMMENT.sub("", line))
        if m and in_src:
            target = m.group(1)
            if not target.startswith(KNOWN_PREFIXES):
                findings.append(
                    f"{rel}:{lineno}: [include-style] project include "
                    f'"{target}" must be spelled src/-relative with its '
                    "subsystem prefix (e.g. \"simcore/engine.hpp\")"
                )


def collect(root: Path, args_paths: list[str]) -> list[Path]:
    if args_paths:
        out: list[Path] = []
        for a in args_paths:
            p = Path(a)
            if p.is_dir():
                out.extend(
                    f
                    for f in sorted(p.rglob("*"))
                    if f.suffix in SOURCE_SUFFIXES
                )
            else:
                out.append(p)
        return out
    out = [
        f
        for f in sorted((root / "src").rglob("*"))
        if f.suffix in SOURCE_SUFFIXES
    ]
    cli = root / "tools" / "parsched_cli.cpp"
    if cli.is_file():
        out.append(cli)
    tests = root / "tests"
    if tests.is_dir():
        out.extend(
            f for f in sorted(tests.rglob("*"))
            if f.suffix in SOURCE_SUFFIXES
        )
    return out


def audit_suppressions(files: list[Path], root: Path) -> list[str]:
    """Every `// lint: ...` escape hatch in scope, one line per hatch."""
    listing: list[str] = []
    for f in files:
        try:
            rel = str(f.resolve().relative_to(root))
        except ValueError:
            rel = str(f)
        try:
            text = f.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        for lineno, raw in enumerate(text.splitlines(), start=1):
            m = RE_SUPPRESSION.search(raw)
            if m:
                code = RE_LINE_COMMENT.sub("", raw).strip()
                listing.append(
                    f"{rel}:{lineno}: [suppression-audit] {m.group(1)}"
                    + (f" — {code}" if code else "")
                )
    return listing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: parent of tools/)",
    )
    ap.add_argument(
        "--suppression-audit",
        action="store_true",
        help="list every '// lint:' escape hatch in scope and exit 0",
    )
    ap.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
             "(default: <root>/{src,tools/parsched_cli.cpp,tests})",
    )
    args = ap.parse_args()
    root = Path(args.root).resolve()

    files = collect(root, args.paths)
    if args.suppression_audit:
        listing = audit_suppressions(files, root)
        for line in listing:
            print(line)
        print(
            f"parsched_lint: {len(files)} files, "
            f"{len(listing)} suppression(s)",
            file=sys.stderr,
        )
        return 0

    findings: list[str] = []
    for f in files:
        try:
            rel = str(f.resolve().relative_to(root))
        except ValueError:
            rel = str(f)
        lint_file(f, rel, findings)

    for finding in findings:
        print(finding)
    print(
        f"parsched_lint: {len(files)} files, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
