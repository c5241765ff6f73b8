#include "bench/harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/util/json.h"

namespace diffusion {
namespace bench {
namespace {

constexpr char kBenchJsonSchema[] = "diffusion-bench-v1";

std::string FormatValue(double value) {
  // Round-trippable without scientific noise for the magnitudes benches emit.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

// Stores `text` in `target` when all of it reads as a T that is finite and
// at least `minimum`; false otherwise.
template <typename T>
bool StoreNumber(const std::string& text, double minimum, T* target) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !(static_cast<double>(value) >= minimum) ||
      !std::isfinite(static_cast<double>(value))) {
    return false;
  }
  *target = value;
  return true;
}

// Parses one argument into its flag's variable, recording the flag in
// `given`. Returns the diagnosis, or the empty string when it parsed.
std::string ParseArgument(const std::string& arg, const std::vector<Flag>& flags,
                          std::vector<const Flag*>* given) {
  if (arg.rfind("--", 0) != 0) {
    return "unexpected argument '" + arg + "'";
  }
  const size_t equals = arg.find('=');
  const std::string name = arg.substr(2, equals == std::string::npos ? equals : equals - 2);
  const auto flag = std::find_if(flags.begin(), flags.end(),
                                 [&name](const Flag& f) { return name == f.name; });
  if (flag == flags.end()) {
    return "unknown flag --" + name;
  }
  if (std::find(given->begin(), given->end(), &*flag) != given->end()) {
    return "--" + name + " given twice";
  }
  given->push_back(&*flag);
  if (bool* const* target = std::get_if<bool*>(&flag->value)) {
    if (equals != std::string::npos) {
      return "--" + name + " takes no value";
    }
    **target = true;
    return "";
  }
  if (equals == std::string::npos) {
    return "--" + name + " needs a value: --" + name + "=...";
  }
  const std::string text = arg.substr(equals + 1);
  if (std::string* const* target = std::get_if<std::string*>(&flag->value)) {
    **target = text;
    return "";
  }
  const std::string minimum = FormatValue(flag->minimum);
  if (int* const* target = std::get_if<int*>(&flag->value)) {
    return StoreNumber(text, flag->minimum, *target)
               ? ""
               : arg + ": not a whole number in [" + minimum + ", 2147483647]";
  }
  return StoreNumber(text, flag->minimum, std::get<double*>(flag->value))
             ? ""
             : arg + ": not a finite number >= " + minimum;
}

// The usage text: one line per flag with its form, help and default.
std::string Usage(const std::string& program, const std::vector<Flag>& flags) {
  std::string usage = "usage: " + program + (flags.empty() ? " (takes no flags)\n" : " [flags]\n");
  for (const Flag& flag : flags) {
    std::string form = std::string("--") + flag.name;
    std::string fallback;
    if (const int* const* value = std::get_if<int*>(&flag.value)) {
      form += "=N";
      fallback = std::to_string(**value);
    } else if (const double* const* value = std::get_if<double*>(&flag.value)) {
      form += "=X";
      fallback = FormatValue(**value);
    } else if (const std::string* const* value = std::get_if<std::string*>(&flag.value)) {
      form += "=TEXT";
      fallback = **value;
    }
    form.resize(std::max<size_t>(form.size() + 1, 30), ' ');
    usage += "  " + form + flag.help;
    if (flag.minimum > 0.0) {
      fallback += ", at least " + FormatValue(flag.minimum);
    }
    usage += fallback.empty() ? "\n" : " (default " + fallback + ")\n";
  }
  return usage;
}

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

// The member `key` of `object` when it is a non-empty string, else null.
const std::string* NonEmptyString(const JsonValue& object, const std::string& key) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && value->type == JsonValue::Type::kString && !value->string.empty()
             ? &value->string
             : nullptr;
}

// Validates the text of a diffusion-bench-v1 document and reads its rows into
// `rows`, in file order. Returns the diagnosis, or the empty string.
std::string ReadRows(const std::string& text, std::vector<BenchResult>* rows) {
  if (text.empty()) {
    return "empty file";
  }
  JsonValue root;
  std::string error;
  if (!ParseJson(text, &root, &error)) {
    return error;
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString) {
    return "missing \"schema\" string";
  }
  if (schema->string != kBenchJsonSchema) {
    return "schema \"" + schema->string + "\" != \"" + kBenchJsonSchema + "\"";
  }
  if (NonEmptyString(root, "bench") == nullptr) {
    return "missing \"bench\" name";
  }
  const JsonValue* results = root.Find("results");
  if (results == nullptr || results->type != JsonValue::Type::kArray) {
    return "missing \"results\" array";
  }
  for (const JsonValue& entry : results->array) {
    const std::string* name = NonEmptyString(entry, "name");
    if (name == nullptr) {
      return "result #" + std::to_string(rows->size()) + " missing \"name\"";
    }
    const std::string* unit = NonEmptyString(entry, "unit");
    if (unit == nullptr) {
      return "result \"" + *name + "\" missing \"unit\"";
    }
    const JsonValue* value = entry.Find("value");
    if (value == nullptr || value->type != JsonValue::Type::kNumber ||
        !std::isfinite(value->number)) {
      return "result \"" + *name + "\" missing finite \"value\"";
    }
    rows->push_back({*name, *unit, value->number});
  }
  return rows->empty() ? "\"results\" array is empty" : "";
}

// The first row named `name`, or null.
const BenchResult* FindRow(const std::vector<BenchResult>& rows, const std::string& name) {
  for (const BenchResult& row : rows) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

// Prints `message` to stderr and exits with `status`. The harness exits only
// on the main thread, before a bench starts worker threads or after they
// joined, so exit() races with no running thread.
[[noreturn]] void Exit(int status, const std::string& message) {
  std::fputs(message.c_str(), stderr);
  std::exit(status);  // NOLINT(concurrency-mt-unsafe)
}

// Prints "FAIL: <message>" and exits with status 1.
[[noreturn]] void Fail(const std::string& message) { Exit(1, "FAIL: " + message + "\n"); }

}  // namespace

void ParseFlags(int argc, const char* const* argv, const std::vector<Flag>& flags) {
  std::vector<const Flag*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string error = ParseArgument(argv[i], flags, &given);
    if (!error.empty()) {
      const std::string program = argv[0];
      Exit(2, program + ": " + error + "\n" + Usage(program.substr(program.rfind('/') + 1), flags));
    }
  }
}

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

void WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<BenchResult>& results) {
  if (path.empty()) {
    return;
  }
  std::ofstream file(path, std::ios::trunc);
  file << BenchJson(bench_name, results);
  file.close();
  if (!file) {
    Fail("cannot write " + path);
  }
  const RecordedFile written(path);  // validates what was written
  std::printf("wrote %s\n", path.c_str());
}

RecordedFile::RecordedFile(const std::string& path) : path_(path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  const std::string error = file ? ReadRows(text.str(), &rows_) : "cannot open";
  if (!error.empty()) {
    Fail(path + ": " + error);
  }
}

bool RecordedFile::Has(const std::string& name) const { return FindRow(rows_, name) != nullptr; }

double RecordedFile::Value(const std::string& name) const {
  const BenchResult* row = FindRow(rows_, name);
  if (row == nullptr) {
    Fail(path_ + " records no " + name);
  }
  return row->value;
}

std::string RecordedFile::Mismatches(const std::vector<BenchResult>& fresh,
                                     RecordedRows scope) const {
  std::string mismatches;
  const auto note = [&mismatches](const std::string& line) {
    mismatches += (mismatches.empty() ? "" : "; ") + line;
  };
  for (const BenchResult& row : fresh) {
    const BenchResult* found = FindRow(rows_, row.name);
    if (found == nullptr) {
      note(row.name + " missing");
    } else if (FormatValue(found->value) != FormatValue(row.value)) {
      note(row.name + " recorded " + FormatValue(found->value) + ", now " +
           FormatValue(row.value));
    }
  }
  if (scope == RecordedRows::kAll) {
    for (const BenchResult& row : rows_) {
      if (FindRow(fresh, row.name) == nullptr) {
        note(row.name + " recorded but no longer produced");
      }
    }
  }
  return mismatches;
}

void RecordedFile::Verify(const std::vector<BenchResult>& fresh, RecordedRows scope) const {
  const std::string mismatches = Mismatches(fresh, scope);
  if (!mismatches.empty()) {
    Fail(path_ + " differs from this run: " + mismatches);
  }
  std::printf("%s: valid %s file; %zu rows reproduced\n", path_.c_str(), kBenchJsonSchema,
              fresh.size());
}

uint64_t ProcessStatusBytes(const std::string& field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = field + ":";
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(prefix, 0) == 0) {
      // "VmHWM:   12345 kB"
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10) * 1024;
    }
  }
  return 0;
}

Spread SpreadOf(std::vector<double> samples) {
  if (samples.empty()) {
    return {};
  }
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  const double median =
      samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2;
  return {samples.front(), median, samples.back()};
}

}  // namespace bench
}  // namespace diffusion
