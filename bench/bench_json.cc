#include "bench/bench_json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace diffusion {
namespace bench {
namespace {

std::string EscapeJson(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
        break;
    }
  }
  return out;
}

std::string FormatValue(double value) {
  // Round-trippable without scientific noise for the magnitudes benches emit.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

// ---- validation helpers (string-level, no JSON library in the image) ----

// Finds `"key"` and returns the position just past the following ':', or
// npos. Search starts at `from`.
size_t FindKey(const std::string& text, const std::string& key, size_t from) {
  const std::string quoted = "\"" + key + "\"";
  size_t pos = text.find(quoted, from);
  if (pos == std::string::npos) {
    return std::string::npos;
  }
  pos = text.find(':', pos + quoted.size());
  return pos == std::string::npos ? std::string::npos : pos + 1;
}

// Parses a JSON string literal starting at the first non-space char after
// `pos`. Returns false if there isn't one.
bool ReadString(const std::string& text, size_t pos, std::string* out) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  if (pos >= text.size() || text[pos] != '"') {
    return false;
  }
  std::string value;
  for (++pos; pos < text.size(); ++pos) {
    if (text[pos] == '\\') {
      ++pos;
      continue;
    }
    if (text[pos] == '"') {
      *out = value;
      return true;
    }
    value += text[pos];
  }
  return false;
}

bool ReadNumber(const std::string& text, size_t pos, double* out) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  const char* start = text.c_str() + pos;
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

// The whole file, or empty when it cannot be read.
std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// Reads every entry of the "results" array of BenchJson text into `rows`,
// in file order. On a malformed array or entry stores a diagnosis and
// returns false.
bool ParseResults(const std::string& text, std::vector<BenchResult>* rows, std::string* error) {
  const size_t results_pos = FindKey(text, "results", 0);
  if (results_pos == std::string::npos) {
    return Fail(error, "missing \"results\" array");
  }
  const size_t results_end = text.find(']', results_pos);
  if (results_end == std::string::npos) {
    return Fail(error, "unterminated \"results\" array");
  }
  for (size_t entry = text.find('{', results_pos);
       entry != std::string::npos && entry < results_end;
       entry = text.find('{', text.find('}', entry))) {
    BenchResult row;
    const size_t name_pos = FindKey(text, "name", entry);
    const size_t unit_pos = FindKey(text, "unit", entry);
    const size_t value_pos = FindKey(text, "value", entry);
    if (name_pos == std::string::npos || !ReadString(text, name_pos, &row.name) ||
        row.name.empty()) {
      return Fail(error, "result #" + std::to_string(rows->size()) + " missing \"name\"");
    }
    if (unit_pos == std::string::npos || !ReadString(text, unit_pos, &row.unit) ||
        row.unit.empty()) {
      return Fail(error, "result \"" + row.name + "\" missing \"unit\"");
    }
    if (value_pos == std::string::npos || !ReadNumber(text, value_pos, &row.value)) {
      return Fail(error, "result \"" + row.name + "\" missing finite \"value\"");
    }
    rows->push_back(std::move(row));
  }
  return true;
}

// The first recorded row named `name`, or null.
const BenchResult* FindRow(const std::vector<BenchResult>& rows, const std::string& name) {
  for (const BenchResult& row : rows) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace

std::string BenchJson(const std::string& bench_name, const std::vector<BenchResult>& results) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << kBenchJsonSchema << "\",\n";
  out << "  \"bench\": \"" << EscapeJson(bench_name) << "\",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    out << "    {\"name\": \"" << EscapeJson(results[i].name) << "\", \"unit\": \""
        << EscapeJson(results[i].unit) << "\", \"value\": " << FormatValue(results[i].value)
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<BenchResult>& results) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "bench_json: cannot open %s for writing\n", path.c_str());
    return false;
  }
  file << BenchJson(bench_name, results);
  return static_cast<bool>(file);
}

bool ValidateBenchJson(const std::string& path, std::string* error) {
  std::ifstream file(path);
  if (!file) {
    return Fail(error, path + ": cannot open");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) {
    return Fail(error, path + ": empty file");
  }

  size_t pos = FindKey(text, "schema", 0);
  std::string schema;
  if (pos == std::string::npos || !ReadString(text, pos, &schema)) {
    return Fail(error, path + ": missing \"schema\" string");
  }
  if (schema != kBenchJsonSchema) {
    return Fail(error, path + ": schema \"" + schema + "\" != \"" + kBenchJsonSchema + "\"");
  }

  pos = FindKey(text, "bench", 0);
  std::string bench_name;
  if (pos == std::string::npos || !ReadString(text, pos, &bench_name) || bench_name.empty()) {
    return Fail(error, path + ": missing \"bench\" name");
  }

  std::vector<BenchResult> rows;
  std::string parse_error;
  if (!ParseResults(text, &rows, &parse_error)) {
    return Fail(error, path + ": " + parse_error);
  }
  if (rows.empty()) {
    return Fail(error, path + ": \"results\" array is empty");
  }
  return true;
}

bool ReadBenchValue(const std::string& path, const std::string& name, double* value) {
  std::vector<BenchResult> rows;
  if (!ParseResults(ReadFile(path), &rows, nullptr)) {
    return false;
  }
  const BenchResult* row = FindRow(rows, name);
  if (row == nullptr) {
    return false;
  }
  *value = row->value;
  return true;
}

bool MatchesRecorded(const std::string& path, const std::vector<BenchResult>& expected,
                     RecordedRows scope, std::string* error) {
  std::vector<BenchResult> recorded;
  std::string parse_error;
  if (!ParseResults(ReadFile(path), &recorded, &parse_error)) {
    return Fail(error, path + ": " + parse_error);
  }
  std::string mismatches;
  const auto note = [&mismatches](const std::string& line) {
    mismatches += (mismatches.empty() ? "" : "; ") + line;
  };
  for (const BenchResult& row : expected) {
    const BenchResult* found = FindRow(recorded, row.name);
    if (found == nullptr) {
      note(row.name + " missing");
    } else if (FormatValue(found->value) != FormatValue(row.value)) {
      note(row.name + " recorded " + FormatValue(found->value) + ", now " +
           FormatValue(row.value));
    }
  }
  if (scope == RecordedRows::kAll) {
    for (const BenchResult& row : recorded) {
      if (FindRow(expected, row.name) == nullptr) {
        note(row.name + " recorded but no longer produced");
      }
    }
  }
  return mismatches.empty() || Fail(error, mismatches);
}

}  // namespace bench
}  // namespace diffusion
