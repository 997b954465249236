#!/usr/bin/env bash
# CLI contract: bad invocations print usage/diagnostics to STDERR and
# exit nonzero; stdout stays clean so pipelines never ingest error text.
#
#   cli_exit_codes.sh <path-to-parsched-binary>
set -u

BIN=${1:?usage: cli_exit_codes.sh <parsched binary>}
fails=0

# expect <exit-code> <stderr-pattern> -- <args...>
expect() {
  local want_code=$1 pattern=$2
  shift 3  # code, pattern, "--"
  local out err code
  out=$("$BIN" "$@" 2>/tmp/cli_exit_stderr.$$); code=$?
  err=$(cat /tmp/cli_exit_stderr.$$; rm -f /tmp/cli_exit_stderr.$$)
  if [[ $code -ne $want_code ]]; then
    echo "FAIL: parsched $* exited $code, want $want_code" >&2
    fails=$((fails + 1))
  fi
  if [[ -n $pattern && $err != *"$pattern"* ]]; then
    echo "FAIL: parsched $* stderr missing '$pattern': $err" >&2
    fails=$((fails + 1))
  fi
  if [[ $want_code -ne 0 && -n $out ]]; then
    echo "FAIL: parsched $* wrote error output to stdout: $out" >&2
    fails=$((fails + 1))
  fi
}

# No command / unknown command: usage on stderr, exit 2.
expect 2 "usage: parsched" --
expect 2 "unknown command 'frobnicate'" -- frobnicate
expect 2 "usage: parsched" -- frobnicate

# Missing required arguments per subcommand: diagnostic + exit 2.
expect 2 "--instance=FILE is required" -- run
expect 2 "--instance=FILE is required" -- compare
expect 2 "--instance=FILE is required" -- bound
expect 2 "--instance=FILE is required" -- trace
expect 2 "--out=FILE is required" -- gen
expect 2 "exactly one of --stdio or --socket" -- serve
expect 2 "exactly one of --stdio or --socket" -- serve --stdio --socket=/tmp/x.sock
expect 2 "--socket=PATH is required" -- loadgen

# Runtime errors (good arguments, bad world): exit 1, not 2.
expect 1 "error:" -- run --instance=/nonexistent/instance.txt
expect 1 "error:" -- run --instance=/dev/null --policy=no-such-policy

# A good invocation still exits 0 (guards against an over-eager usage()).
tmp_inst=$(mktemp)
trap 'rm -f "$tmp_inst"' EXIT
if ! "$BIN" gen --kind=random --jobs=5 --machines=2 --out="$tmp_inst" \
    >/dev/null 2>&1; then
  echo "FAIL: valid gen invocation exited nonzero" >&2
  fails=$((fails + 1))
fi
if ! "$BIN" run --instance="$tmp_inst" >/dev/null 2>&1; then
  echo "FAIL: valid run invocation exited nonzero" >&2
  fails=$((fails + 1))
fi

# serve --stdio: the last line of a stream is served without its '\n';
# a line over the 64 MiB frame cap ends the session with an error (exit
# 1) once the requests before it are answered.
out=$(printf '%s\n%s' '{"op":"ping","id":1}' '{"op":"ping","id":2}' |
      "$BIN" serve --stdio 2>/dev/null); code=$?
if [[ $code -ne 0 || $out != *'"id":2'* ]]; then
  echo "FAIL: serve --stdio left an unterminated last line unserved" \
       "(exit $code): $out" >&2
  fails=$((fails + 1))
fi
err_file=$(mktemp)
trap 'rm -f "$tmp_inst" "$err_file"' EXIT
out=$({ printf '%s\n' '{"op":"ping","id":1}'
        head -c 67108865 /dev/zero | tr '\0' 'a'; } |
      "$BIN" serve --stdio 2>"$err_file"); code=$?
err=$(cat "$err_file")
if [[ $code -ne 1 || $err != *"line longer than"* ]]; then
  echo "FAIL: serve --stdio over-cap line exited $code: $err" >&2
  fails=$((fails + 1))
fi
if [[ $out != *'"id":1'* ]]; then
  echo "FAIL: serve --stdio dropped the request before an over-cap line:" \
       "$out" >&2
  fails=$((fails + 1))
fi

if [[ $fails -ne 0 ]]; then
  echo "cli_exit_codes: $fails failure(s)" >&2
  exit 1
fi
echo "cli_exit_codes: OK"
