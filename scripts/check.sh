#!/usr/bin/env bash
# Full verification pipeline: hygiene, configure, build, test, run every
# benchmark.
#
#   scripts/check.sh            full pipeline (includes the diffusion-lint gate)
#   scripts/check.sh --lint     just diffusion-lint over src/bench/tests/examples
#   scripts/check.sh --tidy     just clang-tidy (skips with a warning if absent)
#   scripts/check.sh --analyze  just the Clang Static Analyzer gate (skips with
#                               a warning if clang-tidy is absent); findings are
#                               compared against scripts/analyze_baseline.txt
#                               and any new one fails the gate
set -euo pipefail
cd "$(dirname "$0")/.."

# Every gate records whether it ran or was skipped (toolchain-dependent gates
# skip locally; CI carries them). The table prints on every exit, pass or fail.
GATES_RAN=()
GATES_SKIPPED=()
note_ran() { GATES_RAN+=("$1"); }
note_skip() { GATES_SKIPPED+=("$1"); }
print_gate_summary() {
  echo "gates: ran [${GATES_RAN[*]:-}]  skipped [${GATES_SKIPPED[*]:-none}]"
}
trap print_gate_summary EXIT

# diffusion-lint gate (docs/STATIC_ANALYSIS.md). Uses the CMake-built binary
# when present; otherwise compiles the two-file tool directly — it has no
# dependencies, so the standalone gate needs only g++.
run_lint() {
  local tool=build/tools/diffusion_lint
  if [[ ! -x "${tool}" ]]; then
    mkdir -p build/tools
    g++ -std=c++20 -O2 -I. \
      tools/diffusion_lint/lint.cc tools/diffusion_lint/main.cc -o "${tool}"
  fi
  "${tool}" src bench tests examples
  note_ran lint
}

# clang-tidy gate over the compilation database. CI enforces this with
# -warnings-as-errors='*'; locally we skip with a warning when the binary is
# absent (the container toolchain is gcc-only).
run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "WARNING: clang-tidy not found; skipping tidy gate (CI enforces it)" >&2
    note_skip tidy
    return 0
  fi
  if [[ ! -f build/compile_commands.json ]]; then
    cmake -B build -G Ninja
  fi
  git ls-files '*.cc' -- src bench tests examples \
    | xargs clang-tidy -p build --quiet --warnings-as-errors='*'
  note_ran tidy
}

# Clang Static Analyzer gate (docs/STATIC_ANALYSIS.md): the path-sensitive
# clang-analyzer-* checks, run through clang-tidy so they share the
# compilation database. Findings are normalized to "path|check" lines and
# compared against the committed baseline; anything not in the baseline fails.
# The baseline is kept empty — a finding is either fixed or, when provably
# spurious, suppressed in the code with an [[clang::suppress]]-style comment
# and a baseline entry reviewed in the same PR.
run_analyze() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "WARNING: clang-tidy not found; skipping analyzer gate (CI enforces it)" >&2
    note_skip analyze
    return 0
  fi
  if [[ ! -f build/compile_commands.json ]]; then
    cmake -B build -G Ninja
  fi
  local checks='-*,clang-analyzer-core.*,clang-analyzer-cplusplus.*'
  checks+=',clang-analyzer-deadcode.*,clang-analyzer-unix.*,clang-analyzer-security.*'
  # --warnings-as-errors='-*' so clang-tidy's exit status does not preempt the
  # baseline comparison; grep exits 1 on a fully clean tree, hence the guard.
  git ls-files '*.cc' -- src bench tests examples \
    | xargs clang-tidy -p build --quiet --checks="${checks}" --warnings-as-errors='-*' \
    | { grep -E '^[^ ]+:[0-9]+:[0-9]+: warning: ' || true; } \
    | sed -E -e "s|^$(pwd)/||" -e 's|^([^:]+):[0-9]+:[0-9]+: warning: .*\[([^][]+)\]$|\1\|\2|' \
    | sort -u > build/analyze_findings.txt
  grep -v -e '^#' -e '^$' scripts/analyze_baseline.txt | sort -u > build/analyze_baseline.txt
  comm -23 build/analyze_findings.txt build/analyze_baseline.txt > build/analyze_new.txt
  if [[ -s build/analyze_new.txt ]]; then
    echo "ERROR: new static-analyzer findings (path|check), not in scripts/analyze_baseline.txt:" >&2
    cat build/analyze_new.txt >&2
    return 1
  fi
  echo "analyzer: clean ($(wc -l < build/analyze_findings.txt) finding(s), all baselined)"
  note_ran analyze
}

case "${1:-}" in
  --lint) run_lint; exit 0 ;;
  --tidy) run_tidy; exit 0 ;;
  --analyze) run_analyze; exit 0 ;;
  "") ;;
  *) echo "usage: $0 [--lint|--tidy|--analyze]" >&2; exit 2 ;;
esac

# Repo hygiene: build trees and their artifacts must never be committed.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tracked_artifacts=$(git ls-files | grep -E \
    '(^|/)(build|cmake-build-[^/]*)/|\.o$|\.obj$|\.a$|\.so$|CMakeCache\.txt$|(^|/)CMakeFiles/' \
    || true)
  if [[ -n "${tracked_artifacts}" ]]; then
    echo "ERROR: build-tree artifacts are committed to the repository:" >&2
    echo "${tracked_artifacts}" >&2
    exit 1
  fi
  note_ran hygiene
fi

# Formatting gate: the tree must be clang-format clean (see .clang-format).
# CI's lint job enforces this unconditionally. Without the binary, the gate
# falls back to the one rule a scan can hold: no code line over the
# 100-column limit, #include lines excepted.
if command -v clang-format >/dev/null 2>&1; then
  git ls-files '*.cc' '*.h' -- src bench tests examples \
    | xargs clang-format --dry-run -Werror
  note_ran format
else
  echo "WARNING: clang-format not found; checking the column limit only (CI runs the full gate)" >&2
  long_lines=$(git ls-files '*.cc' '*.h' -- src bench tests examples \
    | LC_ALL=C.UTF-8 xargs grep -nE '^.{101,}' | grep -vE '^[^:]+:[0-9]+:#include' || true)
  if [[ -n "${long_lines}" ]]; then
    echo "ERROR: code lines over the 100-column limit of .clang-format:" >&2
    echo "${long_lines}" >&2
    exit 1
  fi
  note_skip format
  note_ran columns
fi

cmake -B build -G Ninja
cmake --build build
note_ran build

# The benchmark package compiles the library from src/ on its own, so a
# header it uses can break it while the main build stays green. Build both
# of its targets; run nothing: perfbench_test still carries a known-red
# test (ROADMAP.md item 11).
cmake -S perfbench -B build/perfbench -G Ninja
cmake --build build/perfbench --target perfbench perfbench_test
note_ran perfbench-build

# Project-specific static analysis: the tree must be diffusion-lint clean.
./build/tools/diffusion_lint src bench tests examples
note_ran lint
# clang-tidy baseline and the Clang Static Analyzer (no-op locally without
# the binary; CI enforces both).
run_tidy
run_analyze

ctest --test-dir build --output-on-failure
note_ran tests
for b in build/bench/*; do
  echo "===== $b"
  "$b"
done

# The bench loop above re-emitted BENCH_matching.json and BENCH_fault.json
# (refreshing the checked-in artifacts); hold them to the diffusion-bench-v1
# schema so drift fails here and not in CI. fault_recovery --check also
# re-runs the scenarios the file records and fails on any changed row. The
# matching file additionally carries the million-filter inequality section:
# the recorded candidate-set reduction must stay at least 10x over the
# pre-index any-scan baseline.
./build/bench/matching_hotpath --check=BENCH_matching.json --require-reduction=10
./build/bench/fault_recovery --check=BENCH_fault.json

# Local repair must actually work: the crash scenario re-runs and fails if
# delivery does not resume within 2x the interest refresh period.
./build/bench/fault_recovery --scenario=crash --out=build/BENCH_fault_crash.json --require-repair

# Congestion suite (docs/CONGESTION.md). The bench loop refreshed
# BENCH_congestion.json; re-run it against the file, then enforce the shaping
# gates: the load sweep's top point must deliver at least 2x unshaped, a
# flooding node must cost shaped well-behaved traffic at most 20% against a
# flooder-free baseline (18 min: short flooder runs are warmup-dominated),
# and two shaped sinks must split delivery within 40% of each other.
./build/bench/congestion_sweep --check=BENCH_congestion.json
./build/bench/congestion_sweep --scenario=load_sweep \
  --out=build/BENCH_congestion_sweep.json --require-shaping-gain=2.0
./build/bench/congestion_sweep --scenario=flooder --minutes=18 \
  --out=build/BENCH_congestion_flood.json --require-flood-protection=0.2
./build/bench/congestion_sweep --scenario=fairness \
  --out=build/BENCH_congestion_fair.json --require-fairness=0.6

# Engine-throughput gate (docs/PERFORMANCE.md). The bench loop refreshed
# BENCH_engine.json; hold it to the schema and re-run its deterministic
# section (event counts, bytes, trace fingerprint), which must reproduce
# every recorded row.
./build/bench/engine_throughput --check=BENCH_engine.json

# Engine determinism gate: the deterministic section is byte-identical at
# --jobs=1 and --jobs=8.
./build/bench/engine_throughput --deterministic-only --jobs=1 \
  --out=build/engine_j1.json >/dev/null
./build/bench/engine_throughput --deterministic-only --jobs=8 \
  --out=build/engine_j8.json >/dev/null
cmp build/engine_j1.json build/engine_j8.json

# Sharded-engine determinism gate: a single 10k-node run's deterministic
# section (event counts, bytes, border frames, trace fingerprint) is
# byte-identical at --threads=1 and --threads=8.
./build/bench/parallel_scaling --deterministic-only --threads=1 \
  --out=build/parallel_t1.json >/dev/null
./build/bench/parallel_scaling --deterministic-only --threads=8 \
  --out=build/parallel_t8.json >/dev/null
cmp build/parallel_t1.json build/parallel_t8.json

# Parallel replication must not change results: the Figure-8 sweep's bench
# JSON and merged trace are byte-identical at --jobs=1 and --jobs=8.
./build/bench/fig8_aggregation --runs=2 --minutes=1 --jobs=1 \
  --bench-json=build/fig8_j1.json --trace-out=build/fig8_j1.jsonl >/dev/null
./build/bench/fig8_aggregation --runs=2 --minutes=1 --jobs=8 \
  --bench-json=build/fig8_j8.json --trace-out=build/fig8_j8.jsonl >/dev/null
cmp build/fig8_j1.json build/fig8_j8.json
cmp build/fig8_j1.jsonl build/fig8_j8.jsonl

# The same for the other traced sweeps: the Figure-9 and scaling-sweep
# merged traces are byte-identical at --jobs=1 and --jobs=8.
for sweep in fig9_nested_queries scaling_sweep; do
  ./build/bench/$sweep --runs=2 --minutes=1 --jobs=1 \
    --trace-out=build/${sweep}_j1.jsonl >/dev/null
  ./build/bench/$sweep --runs=2 --minutes=1 --jobs=8 \
    --trace-out=build/${sweep}_j8.jsonl >/dev/null
  cmp build/${sweep}_j1.jsonl build/${sweep}_j8.jsonl
done

# Sharded-engine gates (docs/PERFORMANCE.md). The bench loop refreshed
# BENCH_parallel.json; hold it to the schema and to the 4-thread speedup
# ratchet (waived automatically when the file was recorded on fewer than 4
# hardware threads). It runs after the determinism gates above so a missed
# ratchet never hides a determinism result.
./build/bench/parallel_scaling --check=BENCH_parallel.json --require-speedup=2.0
note_ran benches
echo "ALL CHECKS PASSED"
