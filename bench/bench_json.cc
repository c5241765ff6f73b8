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

// The value recorded for metric `name` in BenchJson text.
bool FindValue(const std::string& text, const std::string& name, double* value) {
  const size_t at = text.find("\"name\": \"" + EscapeJson(name) + "\"");
  if (at == std::string::npos) {
    return false;
  }
  const size_t value_pos = FindKey(text, "value", at);
  return value_pos != std::string::npos && ReadNumber(text, value_pos, value);
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
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

  const size_t results_pos = FindKey(text, "results", 0);
  if (results_pos == std::string::npos) {
    return Fail(error, path + ": missing \"results\" array");
  }
  size_t entry = text.find('{', results_pos);
  size_t count = 0;
  const size_t results_end = text.find(']', results_pos);
  if (results_end == std::string::npos) {
    return Fail(error, path + ": unterminated \"results\" array");
  }
  while (entry != std::string::npos && entry < results_end) {
    std::string name;
    std::string unit;
    double value = 0.0;
    const size_t name_pos = FindKey(text, "name", entry);
    const size_t unit_pos = FindKey(text, "unit", entry);
    const size_t value_pos = FindKey(text, "value", entry);
    if (name_pos == std::string::npos || !ReadString(text, name_pos, &name) || name.empty()) {
      return Fail(error, path + ": result #" + std::to_string(count) + " missing \"name\"");
    }
    if (unit_pos == std::string::npos || !ReadString(text, unit_pos, &unit) || unit.empty()) {
      return Fail(error, path + ": result \"" + name + "\" missing \"unit\"");
    }
    if (value_pos == std::string::npos || !ReadNumber(text, value_pos, &value)) {
      return Fail(error, path + ": result \"" + name + "\" missing finite \"value\"");
    }
    ++count;
    entry = text.find('{', text.find('}', entry));
  }
  if (count == 0) {
    return Fail(error, path + ": \"results\" array is empty");
  }
  return true;
}

bool ReadBenchValue(const std::string& path, const std::string& name, double* value) {
  return FindValue(ReadFile(path), name, value);
}

bool MatchesRecorded(const std::string& path, const std::vector<BenchResult>& expected,
                     std::string* error) {
  const std::string text = ReadFile(path);
  std::string mismatches;
  for (const BenchResult& row : expected) {
    double recorded = 0.0;
    if (!FindValue(text, row.name, &recorded)) {
      mismatches += (mismatches.empty() ? "" : "; ") + row.name + " missing";
    } else if (FormatValue(recorded) != FormatValue(row.value)) {
      mismatches += (mismatches.empty() ? "" : "; ") + row.name + " recorded " +
                    FormatValue(recorded) + ", now " + FormatValue(row.value);
    }
  }
  return mismatches.empty() || Fail(error, mismatches);
}

}  // namespace bench
}  // namespace diffusion
