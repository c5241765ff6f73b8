#include "bench/bench_json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/json.h"

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

// Reads the whole file into `text`; false (text empty) when it cannot be
// opened.
bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  *text = buffer.str();
  return static_cast<bool>(file);
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// The member `key` of `object` when it is a non-empty string, else null.
const std::string* NonEmptyString(const JsonValue& object, const std::string& key) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && value->type == JsonValue::Type::kString && !value->string.empty()
             ? &value->string
             : nullptr;
}

// Reads every entry of a parsed BenchJson document's "results" array into
// `rows`, in file order. On a missing array or a malformed entry stores a
// diagnosis and returns false.
bool ReadRows(const JsonValue& root, std::vector<BenchResult>* rows, std::string* error) {
  const JsonValue* results = root.Find("results");
  if (results == nullptr || results->type != JsonValue::Type::kArray) {
    return Fail(error, "missing \"results\" array");
  }
  for (const JsonValue& entry : results->array) {
    const std::string* name = NonEmptyString(entry, "name");
    if (name == nullptr) {
      return Fail(error, "result #" + std::to_string(rows->size()) + " missing \"name\"");
    }
    const std::string* unit = NonEmptyString(entry, "unit");
    if (unit == nullptr) {
      return Fail(error, "result \"" + *name + "\" missing \"unit\"");
    }
    const JsonValue* value = entry.Find("value");
    if (value == nullptr || value->type != JsonValue::Type::kNumber ||
        !std::isfinite(value->number)) {
      return Fail(error, "result \"" + *name + "\" missing finite \"value\"");
    }
    rows->push_back({*name, *unit, value->number});
  }
  return true;
}

// The rows of the file at `path`.
bool ReadResults(const std::string& path, std::vector<BenchResult>* rows, std::string* error) {
  std::string text;
  ReadFile(path, &text);
  JsonValue root;
  return ParseJson(text, &root, error) && ReadRows(root, rows, error);
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
  std::string text;
  if (!ReadFile(path, &text)) {
    return Fail(error, path + ": cannot open");
  }
  if (text.empty()) {
    return Fail(error, path + ": empty file");
  }
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(text, &root, &parse_error)) {
    return Fail(error, path + ": " + parse_error);
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString) {
    return Fail(error, path + ": missing \"schema\" string");
  }
  if (schema->string != kBenchJsonSchema) {
    return Fail(error,
                path + ": schema \"" + schema->string + "\" != \"" + kBenchJsonSchema + "\"");
  }
  if (NonEmptyString(root, "bench") == nullptr) {
    return Fail(error, path + ": missing \"bench\" name");
  }
  std::vector<BenchResult> rows;
  if (!ReadRows(root, &rows, &parse_error)) {
    return Fail(error, path + ": " + parse_error);
  }
  if (rows.empty()) {
    return Fail(error, path + ": \"results\" array is empty");
  }
  return true;
}

bool ReadBenchValue(const std::string& path, const std::string& name, double* value) {
  std::vector<BenchResult> rows;
  const BenchResult* row = ReadResults(path, &rows, nullptr) ? FindRow(rows, name) : nullptr;
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
  if (!ReadResults(path, &recorded, &parse_error)) {
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
