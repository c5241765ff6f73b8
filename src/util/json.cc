#include "src/util/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace diffusion {
namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWhitespace();
    if (ParseValue(out)) {
      SkipWhitespace();
      if (pos_ == text_.size()) {
        return true;
      }
      Fail("trailing characters after document");
    }
    if (error != nullptr) {
      *error = error_ + " (at byte " + std::to_string(pos_) + ")";
    }
    return false;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message;
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        return ParseLiteral("true", out, JsonValue::Type::kBool, true);
      case 'f':
        return ParseLiteral("false", out, JsonValue::Type::kBool, false);
      case 'n':
        return ParseLiteral("null", out, JsonValue::Type::kNull, false);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(const char* word, JsonValue* out, JsonValue::Type type, bool value) {
    for (const char* c = word; *c != '\0'; ++c) {
      if (!Consume(*c)) {
        return Fail(std::string("expected '") + word + "'");
      }
    }
    out->type = type;
    out->boolean = value;
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    // The whole token must be one finite number: "1-2" is not 1.
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(out->number)) {
      return Fail("malformed number");
    }
    out->type = JsonValue::Type::kNumber;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return Fail("expected '\"'");
    }
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return Fail("unterminated escape");
        }
        char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default:
            return Fail("unsupported escape sequence");
        }
      }
      out->push_back(c);
    }
    if (!Consume('"')) {
      return Fail("unterminated string");
    }
    return true;
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    Consume('{');
    SkipWhitespace();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (!Consume(',')) {
        return Consume('}') || Fail("expected ',' or '}' in object");
      }
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    Consume('[');
    SkipWhitespace();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (!Consume(',')) {
        return Consume(']') || Fail("expected ',' or ']' in array");
      }
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  return JsonReader(text).Parse(out, error);
}

}  // namespace diffusion
