// EXPERIMENTS.md and docs/CONGESTION.md quote BENCH_paper.json, and this
// test keeps them from drifting apart. Row names sit next to the numbers, in
// HTML comments that the rendered page does not show:
//
//   1591 ± 86 <!-- row:propagation.disk_bytes_suppressed -->
//       the number before the comment, within its table cell, reads as the
//       row at the quoted precision; "mean ± ci" also checks the ci against
//       NAME_ci95
//   ✓ <!-- claim:geo_scope.claim_scoping_cuts_bytes -->
//       the verdict row reads 1 (0 after a ✗)
//
// A row the file lacks fails the run through RecordedFile::Value, which
// names it. Every ✓ in an EXPERIMENTS.md section that cites
// build/bench/paper_claims must carry a verdict, and every such section
// quotes at least one row.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace diffusion {
namespace {

const std::string kSourceDir = DIFFUSION_SOURCE_DIR;
const std::string kRow = "<!-- row:";
const std::string kClaim = "<!-- claim:";
const std::string kCheck = "✓";
const std::string kCross = "✗";

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

// The "## " sections of `markdown`, each from its heading to the next.
std::vector<std::string> Sections(const std::string& markdown) {
  std::vector<std::string> sections;
  size_t start = markdown.find("\n## ");
  while (start != std::string::npos) {
    const size_t end = markdown.find("\n## ", start + 1);
    sections.push_back(markdown.substr(start + 1, end == std::string::npos ? end : end - start));
    start = end;
  }
  return sections;
}

// Where each comment opening with `open` starts in `text`, with the name it
// holds.
std::vector<std::pair<size_t, std::string>> Comments(const std::string& text,
                                                     const std::string& open) {
  std::vector<std::pair<size_t, std::string>> comments;
  for (size_t at = text.find(open); at != std::string::npos; at = text.find(open, at + 1)) {
    const size_t name = at + open.size();
    comments.emplace_back(at, text.substr(name, text.find(" -->", name) - name));
  }
  return comments;
}

// True when `text` holds `suffix` ending at `end`, after any blanks.
bool EndsWith(const std::string& text, size_t end, const std::string& suffix) {
  while (end > 0 && text[end - 1] == ' ') {
    --end;
  }
  return end >= suffix.size() && text.compare(end - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsNamePart(char c) { return IsDigit(c) || (c >= 'a' && c <= 'z') || c == '_'; }

// The number closest before `*end` in `text`, past text that holds no digit
// and crosses no table cell or comment; moves `*end` to where the number
// starts. Empty when there is none.
std::string NumberBefore(const std::string& text, size_t* end) {
  size_t stop = *end;
  while (stop > 0 && !IsDigit(text[stop - 1]) && text[stop - 1] != '|' && text[stop - 1] != '>') {
    --stop;
  }
  size_t start = stop;
  while (start > 0 && (IsDigit(text[start - 1]) || text[start - 1] == ',' ||
                       text[start - 1] == '.')) {
    --start;
  }
  // The digits that end a name such as "duty_22pct" are not a number.
  if (start == stop || (start > 0 && IsNamePart(text[start - 1]))) {
    return "";
  }
  *end = start;
  return text.substr(start, stop - start);
}

// The number of times `needle` occurs in `text`.
size_t Count(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos; at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

class ExperimentsDocTest : public testing::Test {
 protected:
  // Expects `quoted` (thousands separators allowed), which `doc` quotes, to be
  // row `name` rounded to the decimals `quoted` shows.
  void ExpectQuoted(std::string quoted, const std::string& name, const std::string& doc) const {
    std::erase(quoted, ',');
    const size_t point = quoted.find('.');
    const int decimals =
        point == std::string::npos ? 0 : static_cast<int>(quoted.size() - point - 1);
    char rounded[64];
    std::snprintf(rounded, sizeof(rounded), "%.*f", decimals, recorded_.Value(name));
    EXPECT_EQ(quoted, rounded) << doc << " quotes " << name << " as " << quoted;
  }

  const std::string doc_ = ReadFile(kSourceDir + "/EXPERIMENTS.md");
  const bench::RecordedFile recorded_{kSourceDir + "/BENCH_paper.json"};
};

TEST_F(ExperimentsDocTest, QuotedNumbersReadAsTheirRows) {
  for (const char* doc : {"EXPERIMENTS.md", "docs/CONGESTION.md"}) {
    const std::string text = ReadFile(kSourceDir + "/" + doc);
    const std::vector<std::pair<size_t, std::string>> rows = Comments(text, kRow);
    EXPECT_FALSE(rows.empty()) << doc << " quotes no row";
    for (const auto& [at, name] : rows) {
      size_t end = at;
      const std::string quoted = NumberBefore(text, &end);
      if (quoted.empty()) {
        ADD_FAILURE() << doc << " cites " << name << " after no number";
      } else if (EndsWith(text, end, "±")) {
        ExpectQuoted(quoted, name + "_ci95", doc);
        end = text.rfind("±", end);
        ExpectQuoted(NumberBefore(text, &end), name, doc);
      } else {
        ExpectQuoted(quoted, name, doc);
      }
    }
  }
}

TEST_F(ExperimentsDocTest, QuotedVerdictsReadAsTheirRows) {
  for (const auto& [at, name] : Comments(doc_, kClaim)) {
    if (EndsWith(doc_, at, kCheck)) {
      EXPECT_EQ(recorded_.Value(name), 1.0) << "EXPERIMENTS.md marks " << name << " " << kCheck;
    } else if (EndsWith(doc_, at, kCross)) {
      EXPECT_EQ(recorded_.Value(name), 0.0) << "EXPERIMENTS.md marks " << name << " " << kCross;
    } else {
      ADD_FAILURE() << "EXPERIMENTS.md cites " << name << " after neither mark";
    }
  }
}

TEST_F(ExperimentsDocTest, EveryCheckInAFoldedSectionCitesAVerdict) {
  size_t folded = 0;
  for (const std::string& section : Sections(doc_)) {
    if (section.find("build/bench/paper_claims") == std::string::npos) {
      continue;
    }
    ++folded;
    const std::string heading = section.substr(0, section.find('\n'));
    size_t cited = 0;
    for (const auto& [at, name] : Comments(section, kClaim)) {
      cited += EndsWith(section, at, kCheck) ? 1 : 0;
    }
    EXPECT_EQ(Count(section, kCheck), cited) << heading << ": every ✓ must cite its verdict row";
    EXPECT_NE(section.find(kRow), std::string::npos)
        << heading << ": quotes no BENCH_paper.json row";
  }
  EXPECT_EQ(folded, 15u);
}

}  // namespace
}  // namespace diffusion
