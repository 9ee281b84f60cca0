#!/bin/sh
# The CLI corpus pinned in cli.expected: each invocation's command line,
# stdout, stderr (when there is any) and exit code, and for a traced run
# the JSONL trace it wrote. Usage:
#   cli_corpus.sh SRFA_CLI
# from a directory that holds cli_events.json and sits beside test/ and
# kernels_src/ (the rule in bin/dune runs it in _build/default/bin).

export LC_ALL=C
case $1 in
/*) cli=$1 ;;
*) cli=$PWD/$1 ;;
esac
out=$(mktemp)
err=$(mktemp)
dir=$(mktemp -d)
trap 'rm -rf "$out" "$err" "$dir"' EXIT

show() {
  cat "$out"
  if [ -s "$err" ]; then
    echo "[stderr]"
    cat "$err"
  fi
  echo "[exit $1]"
}

run() {
  printf '$ srfa %s\n' "$*"
  "$cli" "$@" >"$out" 2>"$err"
  show $?
}

# Run from an empty directory, so the path the CLI prints is the same
# at every run.
traced() {
  printf '$ srfa %s --trace trace.jsonl\n' "$*"
  (cd "$dir" && "$cli" "$@" --trace trace.jsonl) >"$out" 2>"$err"
  show $?
  echo "[trace]"
  cat "$dir/trace.jsonl"
}

kernels="fir dec-fir imi mat pat bic example conv2d moving-average \
corner-turn gradient-pair"
for k in $kernels; do
  run alloc "$k"
  run compare "$k"
  run sweep "$k" --jobs 1
  run sweep "$k" --jobs 1 --json
  run explore "$k" --jobs 1
  run explore "$k" --jobs 1 --json
  run rebudget "$k" --events cli_events.json
  run rebudget "$k" --json --events cli_events.json
done
for k in $kernels; do
  run cuts "$k"
  run orders "$k"
done
traced alloc example
traced alloc example --certify
traced explore example --jobs 1
# Usage errors: cmdliner's exit 124, with a message naming the input.
run explore fir --orders 0,x
run explore fir --algorithms=
printf '[1.5]\n' >"$dir/bad_events.json"
(cd "$dir" && run rebudget fir --events bad_events.json)
for f in ../test/bad_kernels/*.k ../kernels_src/*.k; do
  run check "$f"
done
