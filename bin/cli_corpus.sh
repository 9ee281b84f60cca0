#!/bin/sh
# The CLI corpus pinned in cli.expected: each invocation's command line,
# stdout, stderr (when there is any) and exit code. Usage:
#   cli_corpus.sh SRFA_CLI
# from a directory that holds cli_events.json and sits beside test/ and
# kernels_src/ (the rule in bin/dune runs it in _build/default/bin).

export LC_ALL=C
cli=$1
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

run() {
  printf '$ srfa %s\n' "$*"
  "$cli" "$@" >"$out" 2>"$err"
  code=$?
  cat "$out"
  if [ -s "$err" ]; then
    echo "[stderr]"
    cat "$err"
  fi
  echo "[exit $code]"
}

for k in fir dec-fir imi mat pat bic example conv2d moving-average \
  corner-turn gradient-pair; do
  run alloc "$k"
  run compare "$k"
  run sweep "$k" --jobs 1 --json
  run explore "$k" --jobs 1 --json
  run rebudget "$k" --json --events cli_events.json
done
for f in ../test/bad_kernels/*.k ../kernels_src/*.k; do
  run check "$f"
done
