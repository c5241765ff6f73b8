// Minimal recursive-descent JSON reader for the repository's own files
// (fault plans, diffusion-bench-v1 results): objects, arrays, strings (no
// escapes beyond \" \\ \/ \n \t \r), numbers, booleans, null. The files are
// small, so diagnostics report a byte offset rather than line/column.

#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <string>
#include <utility>
#include <vector>

namespace diffusion {

// One parsed JSON value. Objects keep their members in document order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [name, value] : object) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }
};

// Parses `text` as exactly one JSON document; anything but whitespace after
// it is an error. On failure returns false and, when `error` is non-null,
// stores a one-line diagnosis.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

}  // namespace diffusion

#endif  // SRC_UTIL_JSON_H_
