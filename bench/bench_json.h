// Machine-readable benchmark output, shared by the bench binaries and the CI
// bench-smoke job.
//
// Every file carries the "diffusion-bench-v1" schema:
//
//   {
//     "schema": "diffusion-bench-v1",
//     "bench": "<binary name>",
//     "results": [
//       {"name": "<metric>", "unit": "<ns/op|ms|x|...>", "value": <number>},
//       ...
//     ]
//   }
//
// ValidateBenchJson is the drift guard: CI and scripts/check.sh run it
// against both freshly generated output and the checked-in baseline, so a
// schema change that forgets to bump the version string fails loudly.

#ifndef BENCH_BENCH_JSON_H_
#define BENCH_BENCH_JSON_H_

#include <string>
#include <vector>

namespace diffusion {
namespace bench {

inline constexpr char kBenchJsonSchema[] = "diffusion-bench-v1";

struct BenchResult {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Renders the schema'd JSON document (two-space indent, trailing newline).
std::string BenchJson(const std::string& bench_name, const std::vector<BenchResult>& results);

// Writes BenchJson(...) to `path`. Returns false (with perror) on I/O error.
bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<BenchResult>& results);

// Structural validation of a bench JSON file: schema string matches
// kBenchJsonSchema, a non-empty "bench" name is present, and every entry in
// "results" has a name, a unit, and a finite numeric value. On failure
// returns false and, when `error` is non-null, stores a one-line diagnosis.
bool ValidateBenchJson(const std::string& path, std::string* error);

// Reads the recorded value of metric `name` from a file BenchJson wrote.
// Returns false when the file or the metric is missing.
bool ReadBenchValue(const std::string& path, const std::string& name, double* value);

// Which of a file's rows a --check run must reproduce.
enum class RecordedRows {
  // Every row: one the file holds but the run no longer emits fails.
  kAll,
  // Only the rows the run emits: the file also holds timing rows that no
  // re-run reproduces.
  kEmitted,
};

// True when `path` records every row of `expected` with the same value at the
// file's precision and, under RecordedRows::kAll, holds no other row. On a
// mismatch, a missing row or an extra row returns false and, when `error` is
// non-null, lists every offending row.
bool MatchesRecorded(const std::string& path, const std::vector<BenchResult>& expected,
                     RecordedRows scope, std::string* error);

}  // namespace bench
}  // namespace diffusion

#endif  // BENCH_BENCH_JSON_H_
