#!/bin/sh
# Runs bench command lines whose output path cannot be opened ("missing/"
# names no directory), each in an empty working directory, and fails unless
# every run exits with status 1 and says "FAIL: cannot write" on stderr.
#
#   tests/bench_fails_unwritable.sh <command line>...
#
# Each command line is one argument, split at spaces: the bench binary, then
# its flags.
set -u
set -f
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
for line in "$@"; do
  rm -rf "$scratch/cwd"
  mkdir "$scratch/cwd"
  status=0
  # shellcheck disable=SC2086  # split the command line into its arguments
  (cd "$scratch/cwd" && exec $line) >"$scratch/stdout" 2>"$scratch/stderr" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: '$line' exited $status, not 1" >&2
    cat "$scratch/stderr" >&2
    exit 1
  fi
  if ! grep -q '^FAIL: cannot write missing/' "$scratch/stderr"; then
    echo "FAIL: '$line' did not report the unwritable path" >&2
    cat "$scratch/stderr" >&2
    exit 1
  fi
  echo "failed as it should: $line"
done
