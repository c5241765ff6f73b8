// Tests for the diffusion-bench-v1 JSON helpers the bench binaries share:
// the structural validator and the --check comparison against a recorded
// file.

#include "bench/bench_json.h"

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

TEST(BenchJsonTest, ValidatesWhatBenchJsonWrites) {
  const std::string path = WriteTemp("good", BenchJson("demo", kRows));
  std::string error;
  EXPECT_TRUE(ValidateBenchJson(path, &error)) << error;
  double value = 0.0;
  ASSERT_TRUE(ReadBenchValue(path, "delivery", &value));
  EXPECT_EQ(value, 87.5);
  EXPECT_FALSE(ReadBenchValue(path, "absent", &value));
}

TEST(BenchJsonTest, RejectsAResultWithoutUnit) {
  const std::string text =
      "{\n  \"schema\": \"diffusion-bench-v1\",\n  \"bench\": \"demo\",\n  \"results\": [\n"
      "    {\"name\": \"events\", \"unit\": \"count\", \"value\": 1},\n"
      "    {\"name\": \"delivery\", \"value\": 2}\n  ]\n}\n";
  const std::string path = WriteTemp("no_unit", text);
  std::string error;
  EXPECT_FALSE(ValidateBenchJson(path, &error));
  EXPECT_NE(error.find("\"delivery\" missing \"unit\""), std::string::npos) << error;
}

// A row's keys are its own: a missing "unit" is not found in the next row.
TEST(BenchJsonTest, RejectsAMissingUnitBeforeAnotherRow) {
  const std::string text =
      "{\n  \"schema\": \"diffusion-bench-v1\",\n  \"bench\": \"demo\",\n  \"results\": [\n"
      "    {\"name\": \"events\", \"value\": 1},\n"
      "    {\"name\": \"delivery\", \"unit\": \"%\", \"value\": 2}\n  ]\n}\n";
  const std::string path = WriteTemp("borrowed_unit", text);
  std::string error;
  EXPECT_FALSE(ValidateBenchJson(path, &error));
  EXPECT_NE(error.find("\"events\" missing \"unit\""), std::string::npos) << error;
}

// A ']' inside a row name does not end the results array.
TEST(BenchJsonTest, ReadsRowsAfterANameHoldingABracket) {
  const std::string path = WriteTemp(
      "bracket", BenchJson("demo", {{"latency[p50]", "ms", 4}, {"events", "count", 1200}}));
  std::string error;
  EXPECT_TRUE(ValidateBenchJson(path, &error)) << error;
  double value = 0.0;
  ASSERT_TRUE(ReadBenchValue(path, "events", &value));
  EXPECT_EQ(value, 1200);
  EXPECT_TRUE(MatchesRecorded(path, {{"events", "count", 1200}}, RecordedRows::kEmitted, &error))
      << error;
}

TEST(BenchJsonTest, RejectsTextAfterTheDocument) {
  const std::string path = WriteTemp("trailing", BenchJson("demo", kRows) + "{}\n");
  std::string error;
  EXPECT_FALSE(ValidateBenchJson(path, &error));
  EXPECT_NE(error.find("trailing characters after document"), std::string::npos) << error;
}

// A value is one whole number, not the number its text starts with.
TEST(BenchJsonTest, RejectsAValueWithTrailingCharacters) {
  std::string text = BenchJson("demo", kRows);
  text.replace(text.find("87.5"), 4, "87.5.1");
  const std::string path = WriteTemp("two_points", text);
  std::string error;
  EXPECT_FALSE(ValidateBenchJson(path, &error));
  EXPECT_NE(error.find("malformed number"), std::string::npos) << error;
}

TEST(BenchJsonTest, RejectsAnEmptyResultsArray) {
  const std::string path = WriteTemp("empty", BenchJson("demo", {}));
  std::string error;
  EXPECT_FALSE(ValidateBenchJson(path, &error));
  EXPECT_NE(error.find("\"results\" array is empty"), std::string::npos) << error;
}

TEST(BenchJsonTest, MatchesRecordedNamesAValueMismatch) {
  const std::string path = WriteTemp("mismatch", BenchJson("demo", kRows));
  std::string error;
  EXPECT_TRUE(MatchesRecorded(path, kRows, RecordedRows::kAll, &error)) << error;
  std::vector<BenchResult> moved = kRows;
  moved[1].value = 88.0;
  EXPECT_FALSE(MatchesRecorded(path, moved, RecordedRows::kAll, &error));
  EXPECT_EQ(error, "delivery recorded 87.5, now 88");
  // A value equal at the file's precision still matches.
  moved[1].value = 87.5000001;
  EXPECT_TRUE(MatchesRecorded(path, moved, RecordedRows::kEmitted, &error)) << error;
}

TEST(BenchJsonTest, MatchesRecordedNamesAMissingRow) {
  const std::vector<BenchResult> recorded(kRows.begin(), kRows.begin() + 2);
  const std::string path = WriteTemp("missing", BenchJson("demo", recorded));
  std::string error;
  EXPECT_FALSE(MatchesRecorded(path, kRows, RecordedRows::kEmitted, &error));
  EXPECT_EQ(error, "bytes_per_event missing");
}

// A row the file holds but the run no longer emits fails a check of every
// row, and is allowed where the file also holds rows no re-run reproduces.
TEST(BenchJsonTest, MatchesRecordedCatchesADroppedRow) {
  std::vector<BenchResult> recorded = kRows;
  recorded.push_back({"drops_airtime", "frames", 0});
  const std::string path = WriteTemp("dropped", BenchJson("demo", recorded));
  std::string error;
  EXPECT_FALSE(MatchesRecorded(path, kRows, RecordedRows::kAll, &error));
  EXPECT_EQ(error, "drops_airtime recorded but no longer produced");
  EXPECT_TRUE(MatchesRecorded(path, kRows, RecordedRows::kEmitted, &error)) << error;
}

}  // namespace
}  // namespace bench
}  // namespace diffusion
