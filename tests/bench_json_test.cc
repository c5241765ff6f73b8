// Tests for the bench harness (bench/harness.h): the strict flag parser every
// bench binary declares its flags through, the diffusion-bench-v1 file a
// bench writes and --check re-runs against, and the timing spread.

#include "bench/harness.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

namespace diffusion {
namespace bench {
namespace {

// Writes `text` to a fresh file under the test temp directory.
std::string WriteTemp(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "bench_json_test_" + name + ".json";
  std::ofstream(path, std::ios::trunc) << text;
  return path;
}

const std::vector<BenchResult> kRows = {
    {"events", "count", 1200},
    {"delivery", "%", 87.5},
    {"bytes_per_event", "bytes", 1639.43},
};

// A results document with one row per entry of `rows`, each given as its
// JSON members.
std::string Document(const std::vector<std::string>& rows) {
  std::string text =
      "{\"schema\": \"diffusion-bench-v1\", \"bench\": \"demo\", \"results\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    text += (i == 0 ? "{" : ", {") + rows[i] + "}";
  }
  return text + "]}\n";
}

// Loads `path`: the statement of the death tests, where it must fail.
void Load(const std::string& path) { static_cast<void>(RecordedFile(path)); }

TEST(BenchJsonTest, ValidatesWhatBenchJsonWrites) {
  const RecordedFile file(WriteTemp("good", BenchJson("demo", kRows)));
  EXPECT_EQ(file.Value("delivery"), 87.5);
  EXPECT_EXIT(file.Value("absent"), testing::ExitedWithCode(1), "FAIL: .* records no absent");
}

TEST(BenchJsonTest, RejectsAResultWithoutUnit) {
  const std::string path =
      WriteTemp("no_unit", Document({R"("name": "events", "unit": "count", "value": 1)",
                                     R"("name": "delivery", "value": 2)"}));
  EXPECT_EXIT(Load(path), testing::ExitedWithCode(1), "\"delivery\" missing \"unit\"");
}

// A row's keys are its own: a missing "unit" is not found in the next row.
TEST(BenchJsonTest, RejectsAMissingUnitBeforeAnotherRow) {
  const std::string path =
      WriteTemp("borrowed_unit", Document({R"("name": "events", "value": 1)",
                                           R"("name": "delivery", "unit": "%", "value": 2)"}));
  EXPECT_EXIT(Load(path), testing::ExitedWithCode(1), "\"events\" missing \"unit\"");
}

// A ']' inside a row name does not end the results array.
TEST(BenchJsonTest, ReadsRowsAfterANameHoldingABracket) {
  const RecordedFile file(WriteTemp(
      "bracket", BenchJson("demo", {{"latency[p50]", "ms", 4}, {"events", "count", 1200}})));
  EXPECT_EQ(file.Value("events"), 1200);
  EXPECT_EQ(file.Mismatches({{"events", "count", 1200}}, RecordedRows::kEmitted), "");
}

TEST(BenchJsonTest, RejectsTextAfterTheDocument) {
  const std::string path = WriteTemp("trailing", BenchJson("demo", kRows) + "{}\n");
  EXPECT_EXIT(Load(path), testing::ExitedWithCode(1),
              "trailing characters after document");
}

// A value is one whole number, not the number its text starts with.
TEST(BenchJsonTest, RejectsAValueWithTrailingCharacters) {
  std::string text = BenchJson("demo", kRows);
  text.replace(text.find("87.5"), 4, "87.5.1");
  const std::string path = WriteTemp("two_points", text);
  EXPECT_EXIT(Load(path), testing::ExitedWithCode(1), "malformed number");
}

TEST(BenchJsonTest, RejectsAnEmptyResultsArray) {
  const std::string path = WriteTemp("empty", BenchJson("demo", {}));
  EXPECT_EXIT(Load(path), testing::ExitedWithCode(1), "\"results\" array is empty");
}

TEST(BenchJsonTest, RejectsAMissingFile) {
  const std::string path = testing::TempDir() + "bench_json_test_absent.json";
  EXPECT_EXIT(Load(path), testing::ExitedWithCode(1), "absent.json: cannot open");
}

// The one write call validates what it wrote, fails on a path it cannot
// write, and writes nothing for an empty path.
TEST(BenchJsonTest, WriteBenchJsonWritesAFileThatLoads) {
  const std::string path = testing::TempDir() + "bench_json_test_written.json";
  testing::internal::CaptureStdout();
  WriteBenchJson(path, "demo", kRows);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "wrote " + path + "\n");
  EXPECT_EQ(RecordedFile(path).Mismatches(kRows, RecordedRows::kAll), "");

  const std::string unwritable = testing::TempDir() + "no_such_dir/out.json";
  EXPECT_EXIT(WriteBenchJson(unwritable, "demo", kRows), testing::ExitedWithCode(1),
              "FAIL: cannot write");
  // A file that does not validate fails even though it was written.
  EXPECT_EXIT(WriteBenchJson(path, "demo", {}), testing::ExitedWithCode(1),
              "\"results\" array is empty");
  testing::internal::CaptureStdout();
  WriteBenchJson("", "demo", kRows);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

TEST(BenchJsonTest, MismatchesNamesAValueMismatch) {
  const RecordedFile file(WriteTemp("mismatch", BenchJson("demo", kRows)));
  EXPECT_EQ(file.Mismatches(kRows, RecordedRows::kAll), "");
  std::vector<BenchResult> moved = kRows;
  moved[1].value = 88.0;
  EXPECT_EQ(file.Mismatches(moved, RecordedRows::kAll), "delivery recorded 87.5, now 88");
  EXPECT_EXIT(file.Verify(moved, RecordedRows::kAll), testing::ExitedWithCode(1),
              "differs from this run: delivery recorded 87.5, now 88");
  // A value equal at the file's precision still matches.
  moved[1].value = 87.5000001;
  EXPECT_EQ(file.Mismatches(moved, RecordedRows::kEmitted), "");
}

// A count is written with every digit, so --check sees a change below its
// sixth; other values keep six significant digits.
TEST(BenchJsonTest, WritesAnIntegralValueInFull) {
  EXPECT_EQ(FormatValue(5048296), "5048296");
  EXPECT_EQ(FormatValue(2811190000000001.0), "2811190000000001");
  EXPECT_EQ(FormatValue(-3), "-3");
  EXPECT_EQ(FormatValue(1639.4321), "1639.43");
  EXPECT_EQ(FormatValue(9007199254740992.0), "9.0072e+15");
  const RecordedFile file(
      WriteTemp("integral", BenchJson("demo", {{"diffusion_bytes", "bytes", 5048296}})));
  EXPECT_EQ(file.Mismatches({{"diffusion_bytes", "bytes", 5048296}}, RecordedRows::kAll), "");
  EXPECT_EQ(file.Mismatches({{"diffusion_bytes", "bytes", 5048297}}, RecordedRows::kAll),
            "diffusion_bytes recorded 5048296, now 5048297");
}

TEST(BenchJsonTest, MismatchesNamesAMissingRow) {
  const std::vector<BenchResult> recorded(kRows.begin(), kRows.begin() + 2);
  const RecordedFile file(WriteTemp("missing", BenchJson("demo", recorded)));
  EXPECT_EQ(file.Mismatches(kRows, RecordedRows::kEmitted), "bytes_per_event missing");
}

// A row the file holds but the run no longer emits fails a check of every
// row, and is allowed where the file also holds rows no re-run reproduces.
TEST(BenchJsonTest, MismatchesCatchesADroppedRow) {
  std::vector<BenchResult> recorded = kRows;
  recorded.push_back({"drops_airtime", "frames", 0});
  const RecordedFile file(WriteTemp("dropped", BenchJson("demo", recorded)));
  EXPECT_EQ(file.Mismatches(kRows, RecordedRows::kAll),
            "drops_airtime recorded but no longer produced");
  EXPECT_EQ(file.Mismatches(kRows, RecordedRows::kEmitted), "");
}

TEST(BenchJsonTest, SpreadOfIsMinMedianMax) {
  const Spread odd = SpreadOf({3.0, 1.0, 2.0});
  EXPECT_EQ(odd.min, 1.0);
  EXPECT_EQ(odd.median, 2.0);
  EXPECT_EQ(odd.max, 3.0);
  EXPECT_EQ(SpreadOf({4.0, 1.0, 2.0, 3.0}).median, 2.5);
  EXPECT_EQ(SpreadOf({}).max, 0.0);
}

// One flag of each type, as a bench declares them.
struct DemoFlags {
  int runs = 3;
  int minutes = 20;
  double require_speedup = 0.0;
  double bound = 0.5;
  std::string out = "BENCH_demo.json";
  std::string check;
  bool deterministic_only = false;

  std::vector<Flag> Table() {
    return {{"runs", &runs, "replicates"},
            {"minutes", &minutes, "simulated minutes", 1},
            {"require-speedup", &require_speedup, "ratchet"},
            {"bound", &bound, "a fraction", 0.25},
            {"out", &out, "output path"},
            {"check", &check, "file to re-run"},
            {"deterministic-only", &deterministic_only, "skip timing"}};
  }
};

// Parses `args` (argv[0] = a path to "demo_bench") into `flags`.
void Parse(const std::vector<const char*>& args, DemoFlags* flags) {
  std::vector<const char*> argv = {"/some/dir/demo_bench"};
  argv.insert(argv.end(), args.begin(), args.end());
  ParseFlags(static_cast<int>(argv.size()), argv.data(), flags->Table());
}

// Expects the parser to refuse `args`: exit status 2, with `diagnosis` (a
// regex) followed by the usage on stderr.
void ExpectRefused(const std::vector<const char*>& args, const std::string& diagnosis) {
  DemoFlags flags;
  EXPECT_EXIT(Parse(args, &flags), testing::ExitedWithCode(2),
              "demo_bench: " + diagnosis + "\nusage: demo_bench \\[flags\\]\n")
      << args[0];
}

TEST(BenchFlagsTest, AbsentFlagsKeepTheirDefaults) {
  DemoFlags flags;
  Parse({}, &flags);
  EXPECT_EQ(flags.runs, 3);
  EXPECT_EQ(flags.minutes, 20);
  EXPECT_EQ(flags.require_speedup, 0.0);
  EXPECT_EQ(flags.bound, 0.5);
  EXPECT_EQ(flags.out, "BENCH_demo.json");
  EXPECT_EQ(flags.check, "");
  EXPECT_FALSE(flags.deterministic_only);
}

TEST(BenchFlagsTest, StoresEachForm) {
  DemoFlags flags;
  Parse({"--deterministic-only", "--runs=12", "--require-speedup=2.5", "--out=",
         "--check=a=b.json"},
        &flags);
  EXPECT_EQ(flags.runs, 12);
  EXPECT_EQ(flags.require_speedup, 2.5);
  EXPECT_EQ(flags.out, "");
  EXPECT_EQ(flags.check, "a=b.json");
  EXPECT_TRUE(flags.deterministic_only);
}

TEST(BenchFlagsTest, RefusesUndeclaredFlags) {
  ExpectRefused({"--help"}, "unknown flag --help");
  ExpectRefused({"--bench-json=x.json"}, "unknown flag --bench-json");
  ExpectRefused({"--runs=2", "--jobs=2"}, "unknown flag --jobs");
}

TEST(BenchFlagsTest, RefusesPositionalArguments) {
  ExpectRefused({"extra"}, "unexpected argument 'extra'");
  ExpectRefused({"-h"}, "unexpected argument '-h'");
  // `--check BENCH.json` without the '=': the flag has no value, and the path
  // is not taken for anything else.
  ExpectRefused({"--check", "BENCH_demo.json"}, "--check needs a value: --check=...");
}

TEST(BenchFlagsTest, RefusesARepeatedFlag) {
  ExpectRefused({"--runs=2", "--runs=3"}, "--runs given twice");
  ExpectRefused({"--deterministic-only", "--deterministic-only"},
                "--deterministic-only given twice");
}

TEST(BenchFlagsTest, RefusesTheWrongForm) {
  ExpectRefused({"--runs"}, "--runs needs a value: --runs=...");
  ExpectRefused({"--out"}, "--out needs a value: --out=...");
  ExpectRefused({"--deterministic-only=1"}, "--deterministic-only takes no value");
}

TEST(BenchFlagsTest, RefusesMalformedAndOutOfRangeNumbers) {
  for (const char* arg : {"--runs=5x", "--runs=", "--runs=-1", "--runs=+5", "--runs=2.5",
                          "--runs= 5", "--runs=99999999999"}) {
    ExpectRefused({arg}, "--runs=.*: not a whole number in \\[0, 2147483647\\]");
  }
  // Read leniently, "two" was 0, which switched the ratchet off.
  for (const char* arg : {"--require-speedup=two", "--require-speedup=2x",
                          "--require-speedup=-1", "--require-speedup=inf",
                          "--require-speedup=nan", "--require-speedup="}) {
    ExpectRefused({arg}, "--require-speedup=.*: not a finite number >= 0");
  }
}

// A count whose zero would print a table of zeros declares its minimum, and
// the parser refuses anything below it before the bench runs.
TEST(BenchFlagsTest, RefusesANumberBelowItsMinimum) {
  for (const char* arg : {"--minutes=0", "--minutes=-1"}) {
    ExpectRefused({arg}, "--minutes=.*: not a whole number in \\[1, 2147483647\\]");
  }
  for (const char* arg : {"--bound=0.2", "--bound=0", "--bound=-1"}) {
    ExpectRefused({arg}, "--bound=.*: not a finite number >= 0.25");
  }
  DemoFlags flags;
  Parse({"--minutes=1", "--bound=0.25"}, &flags);
  EXPECT_EQ(flags.minutes, 1);
  EXPECT_EQ(flags.bound, 0.25);
}

TEST(BenchFlagsTest, UsageListsEveryFlagWithItsDefault) {
  DemoFlags flags;
  EXPECT_EXIT(Parse({"--help"}, &flags), testing::ExitedWithCode(2),
              "usage: demo_bench \\[flags\\]\n"
              "  --runs=N +replicates \\(default 3\\)\n"
              "  --minutes=N +simulated minutes \\(default 20, at least 1\\)\n"
              "  --require-speedup=X +ratchet \\(default 0\\)\n"
              "  --bound=X +a fraction \\(default 0.5, at least 0.25\\)\n"
              "  --out=TEXT +output path \\(default BENCH_demo.json\\)\n"
              "  --check=TEXT +file to re-run\n"
              "  --deterministic-only +skip timing\n");
}

TEST(BenchFlagsTest, AnEmptyTableRefusesEveryArgument) {
  const char* argv[] = {"table_only", "--help"};
  EXPECT_EXIT(ParseFlags(2, argv, {}), testing::ExitedWithCode(2),
              "table_only: unknown flag --help\nusage: table_only \\(takes no flags\\)\n");
  ParseFlags(1, argv, {});
}

}  // namespace
}  // namespace bench
}  // namespace diffusion
