// The harness every bench binary runs on: strict flags declared in one table,
// the machine-readable file a bench writes with --out and re-runs with
// --check, and the one wall clock that times its runs. A refused command
// line exits with status 2 and any other harness failure with status 1, each
// after one diagnosis on stderr, so a bench never runs on flags it did not
// read and never passes a file it could not write or check.
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
// A file is validated wherever it is read or written, fresh output and
// committed baselines alike, so a schema change that forgets to bump the
// version string fails loudly in CI and scripts/check.sh.

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace diffusion {
namespace bench {

// One flag a bench binary accepts, bound to the variable that receives its
// value; the variable's value before parsing is the flag's default. The
// variable's type fixes the form the flag takes:
//   bool         --name       a switch; it takes no value
//   int          --name=N     a whole number in [minimum, INT_MAX]
//   double       --name=X     a finite number no less than minimum
//   std::string  --name=TEXT  any text, the empty text included
struct Flag {
  const char* name;
  std::variant<bool*, int*, double*, std::string*> value;
  const char* help;
  // The smallest value a number flag takes: a count that must be at least
  // one says so here, and ParseFlags refuses anything below it.
  double minimum = 0.0;
};

// Parses argv[1..argc) against `flags`, storing each value in its variable.
// Every argument must be a declared flag, given once, in the form its type
// takes. On the first that is not (`--help` included), prints the diagnosis
// and the usage built from `flags` and exits with status 2.
void ParseFlags(int argc, const char* const* argv, const std::vector<Flag>& flags);

// Refuses a command line whose flags parsed but do not go together: prints
// `error` and the usage built from `flags`, as ParseFlags does, and exits
// with status 2.
[[noreturn]] void RefuseFlags(const char* argv0, const std::vector<Flag>& flags,
                              const std::string& error);

// Prints "FAIL: <message>" on stderr and exits with status 1: for a file the
// bench cannot write or read.
[[noreturn]] void Fail(const std::string& message);

// A row value as a file records it: an integral value below 2^53 in full,
// any other value to six significant digits. --check compares rows in this
// form.
std::string FormatValue(double value);

struct BenchResult {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Renders the schema'd JSON document (two-space indent, trailing newline).
std::string BenchJson(const std::string& bench_name, const std::vector<BenchResult>& results);

// Writes BenchJson(...) to `path`, validates it by loading it back and prints
// "wrote <path>"; exits with status 1 when either step fails. An empty `path`
// writes nothing.
void WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<BenchResult>& results);

// Which of a file's rows a --check run must reproduce.
enum class RecordedRows {
  // Every row: one the file holds but the run no longer emits fails.
  kAll,
  // Only the rows the run emits: the file also holds timing rows that no
  // re-run reproduces.
  kEmitted,
};

// A diffusion-bench-v1 file, loaded and validated once: a --check run reads
// the parameters it re-runs with from it, then verifies its fresh rows.
class RecordedFile {
 public:
  // Loads `path`; exits with status 1 unless the schema string is
  // "diffusion-bench-v1", a non-empty "bench" name is present, and "results"
  // holds at least one row, each with a name, a unit and a finite value.
  explicit RecordedFile(const std::string& path);

  // The recorded value of row `name`; exits with status 1 when there is none.
  double Value(const std::string& name) const;

  // Every way `fresh` fails to reproduce the file, "; "-joined: a value that
  // differs at the file's precision, a row the file lacks, and under
  // RecordedRows::kAll a row the file holds that `fresh` does not. Empty when
  // the rows reproduce.
  std::string Mismatches(const std::vector<BenchResult>& fresh, RecordedRows scope) const;

  // Prints a success line when Mismatches(fresh, scope) is empty; otherwise
  // prints every mismatch and exits with status 1.
  void Verify(const std::vector<BenchResult>& fresh, RecordedRows scope) const;

 private:
  std::string path_;
  std::vector<BenchResult> rows_;
};

// The value of `field` ("VmRSS", "VmHWM", ...) in /proc/self/status, in
// bytes; 0 where the file or the field is missing.
uint64_t ProcessStatusBytes(const std::string& field);

// The min, median and max of a set of timing samples.
struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

// The spread of `samples`; the median of an even count is the mean of the
// middle two. All zero when `samples` is empty.
Spread SpreadOf(std::vector<double> samples);

// Wall-clock seconds that one call of `fn` takes: the one clock every timing
// row reads.
template <typename Fn>
double Seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace bench
}  // namespace diffusion

#endif  // BENCH_HARNESS_H_
