#!/usr/bin/env bash
# Full verification pipeline: hygiene, configure, build, test, run every
# benchmark. The committed BENCH_*.json files are only checked, never
# rewritten; fresh bench output lands in build/bench-out/.
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
    cmake -B build -S .
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
    cmake -B build -S .
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

# No -G: a build/ that is already configured keeps its generator (the tier-1
# command configures it with the default one, CI with Ninja), and a fresh one
# gets the default.
cmake -B build -S .
cmake --build build -j "$(nproc)"
note_ran build

# The benchmark package compiles the library from src/ on its own, so a
# header it uses can break it while the main build stays green. Build both
# of its targets; run nothing: perfbench_test still carries a known-red
# test (ROADMAP.md item 11).
cmake -S perfbench -B build/perfbench
cmake --build build/perfbench -j "$(nproc)" --target perfbench perfbench_test
note_ran perfbench-build

# The paired-runs tool behind every claimed benchmark gain: its usage, and
# its summary (medians, quartiles, wins, the gain rule) on a fixed list.
python3 scripts/perf_pairs.py --help >/dev/null
python3 scripts/perf_pairs.py --self-test
note_ran perf-pairs

# Project-specific static analysis: the tree must be diffusion-lint clean.
./build/tools/diffusion_lint src bench tests examples
note_ran lint
# clang-tidy baseline and the Clang Static Analyzer (no-op locally without
# the binary; CI enforces both).
run_tidy
run_analyze

ctest --test-dir build --output-on-failure
note_ran tests
# The committed bench files first. Each --check re-runs its bench's
# deterministic rows and must reproduce every recorded one, so a drifted
# committed row fails here. paper_claims also exits 1 when one of its four
# required verdicts (crash repair within its bound, shaping gain >= 2x,
# 18-minute flooder degradation <= 0.2, two-sink fairness >= 0.6) reads 0
# (EXPERIMENTS.md, docs/FAULT_INJECTION.md, docs/CONGESTION.md). The matching
# file's recorded candidate-set reduction must stay at least 10x over the
# pre-index any-scan baseline, and the parallel file's 4-thread speedup at
# least 2x (waived when the file was recorded on fewer than 4 hardware
# threads).
./build/bench/matching_hotpath --check=BENCH_matching.json --require-reduction=10
./build/bench/engine_throughput --check=BENCH_engine.json
./build/bench/paper_claims --check=BENCH_paper.json
./build/bench/parallel_scaling --check=BENCH_parallel.json --require-speedup=2.0

# Fresh runs go to build/bench-out/, never over the committed files, and
# each is held to the same schema and gates. The targets are named: a reused
# build tree can still hold the binaries of bench targets that no longer
# exist.
out=build/bench-out
mkdir -p "${out}"
./build/bench/matching_hotpath --out="${out}/BENCH_matching.json" --require-reduction=10
./build/bench/matching_hotpath --check="${out}/BENCH_matching.json" --require-reduction=10
./build/bench/engine_throughput --out="${out}/BENCH_engine.json"
./build/bench/engine_throughput --check="${out}/BENCH_engine.json"

# Engine determinism gate: the deterministic section is byte-identical at
# --jobs=1 and --jobs=8.
./build/bench/engine_throughput --deterministic-only --jobs=1 \
  --out="${out}/engine_j1.json" >/dev/null
./build/bench/engine_throughput --deterministic-only --jobs=8 \
  --out="${out}/engine_j8.json" >/dev/null
cmp "${out}/engine_j1.json" "${out}/engine_j8.json"

# Parallel replication must not change results: the file and the trace of
# Figure 8's first replicate are byte-identical at --jobs=1 and --jobs=8
# (replication_test holds the Figure 9, scaling-sweep and fault-crash
# traces).
./build/bench/paper_claims --jobs=1 --out="${out}/paper_j1.json" \
  --trace-out="${out}/fig8_j1.jsonl" >/dev/null
./build/bench/paper_claims --jobs=8 --out="${out}/BENCH_paper.json" \
  --trace-out="${out}/fig8_j8.jsonl" >/dev/null
cmp "${out}/paper_j1.json" "${out}/BENCH_paper.json"
cmp "${out}/fig8_j1.jsonl" "${out}/fig8_j8.jsonl"

# Sharded-engine determinism gate: a single 10k-node run's deterministic
# section (event counts, bytes, border frames, trace fingerprint) is
# byte-identical at --threads=1 and --threads=8.
./build/bench/parallel_scaling --deterministic-only --threads=1 \
  --out="${out}/parallel_t1.json" >/dev/null
./build/bench/parallel_scaling --deterministic-only --threads=8 \
  --out="${out}/parallel_t8.json" >/dev/null
cmp "${out}/parallel_t1.json" "${out}/parallel_t8.json"

# Sharded-engine gates (docs/PERFORMANCE.md): the fresh scaling sweep holds
# the 4-thread speedup ratchet. It runs after the determinism gates above so
# a missed ratchet never hides a determinism result.
./build/bench/parallel_scaling --out="${out}/BENCH_parallel.json" --require-speedup=2.0
./build/bench/parallel_scaling --check="${out}/BENCH_parallel.json" --require-speedup=2.0
note_ran benches
echo "ALL CHECKS PASSED"
