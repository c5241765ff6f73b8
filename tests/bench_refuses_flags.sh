#!/bin/sh
# Runs a bench binary with arguments its flag parser must refuse, in an empty
# working directory, and fails unless the binary exits with the usage status
# (2), prints its usage on stderr and leaves the directory empty: a refused
# command line must never run the bench or overwrite its --out file.
#
#   tests/bench_refuses_flags.sh <bench binary> <argument>...
set -u
case $1 in
  /*) bench=$1 ;;
  *) bench=$PWD/$1 ;;
esac
shift
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/cwd"
status=0
(cd "$scratch/cwd" && exec "$bench" "$@") >"$scratch/stdout" 2>"$scratch/stderr" || status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: '$bench $*' exited $status, not 2" >&2
  cat "$scratch/stderr" >&2
  exit 1
fi
if ! grep -q '^usage: ' "$scratch/stderr"; then
  echo "FAIL: '$bench $*' printed no usage on stderr" >&2
  exit 1
fi
if [ -n "$(ls -A "$scratch/cwd")" ]; then
  echo "FAIL: '$bench $*' created files:" >&2
  ls -A "$scratch/cwd" >&2
  exit 1
fi
echo "refused: $bench $*"
