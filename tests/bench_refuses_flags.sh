#!/bin/sh
# Runs a bench binary on command lines its flag parser must refuse, each in an
# empty working directory, and fails unless every run exits with the usage
# status (2), prints its usage on stderr and leaves the directory empty: a
# refused command line must never run the bench or overwrite its --out file.
#
#   tests/bench_refuses_flags.sh <bench binary> <command line>...
#
# Each command line is one argument, split at spaces ("--check BENCH.json"
# is the flag and the path as two arguments).
set -u
set -f
case $1 in
  /*) bench=$1 ;;
  *) bench=$PWD/$1 ;;
esac
shift
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
for line in "$@"; do
  rm -rf "$scratch/cwd"
  mkdir "$scratch/cwd"
  status=0
  # shellcheck disable=SC2086  # split the command line into its arguments
  (cd "$scratch/cwd" && exec "$bench" $line) >"$scratch/stdout" 2>"$scratch/stderr" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: '$bench $line' exited $status, not 2" >&2
    cat "$scratch/stderr" >&2
    exit 1
  fi
  if ! grep -q '^usage: ' "$scratch/stderr"; then
    echo "FAIL: '$bench $line' printed no usage on stderr" >&2
    exit 1
  fi
  if [ -n "$(ls -A "$scratch/cwd")" ]; then
    echo "FAIL: '$bench $line' created files:" >&2
    ls -A "$scratch/cwd" >&2
    exit 1
  fi
  echo "refused: $bench $line"
done
