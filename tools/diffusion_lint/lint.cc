#include "tools/diffusion_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace diffusion {
namespace lint {
namespace {

bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

// ---- preprocessing -------------------------------------------------------

// `code` is the file with comments and string/char literal *contents*
// replaced by spaces, byte-for-byte aligned with `raw` so offsets and line
// numbers agree between the two views.
struct Preprocessed {
  std::string raw;
  std::string code;
  std::vector<size_t> line_starts;  // offset of the first byte of each line

  int LineAt(size_t offset) const {
    auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<int>(it - line_starts.begin());
  }

  std::string RawLine(int line) const {
    if (line < 1 || line > static_cast<int>(line_starts.size())) {
      return std::string();
    }
    const size_t begin = line_starts[line - 1];
    const size_t end = line == static_cast<int>(line_starts.size()) ? raw.size()
                                                                    : line_starts[line] - 1;
    return raw.substr(begin, end - begin);
  }

  std::string CodeLine(int line) const {
    if (line < 1 || line > static_cast<int>(line_starts.size())) {
      return std::string();
    }
    const size_t begin = line_starts[line - 1];
    const size_t end = line == static_cast<int>(line_starts.size()) ? code.size()
                                                                    : line_starts[line] - 1;
    return code.substr(begin, end - begin);
  }

  int line_count() const { return static_cast<int>(line_starts.size()); }
};

Preprocessed Preprocess(const std::string& text) {
  Preprocessed result;
  result.raw = text;
  result.code = text;
  std::string& code = result.code;

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_terminator;  // for R"delim( ... )delim"
  for (size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    const char next = i + 1 < code.size() ? code[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code[i] = ' ';
        } else if (c == '"') {
          // R"delim( starts a raw string when the quote follows an R that is
          // not part of a longer identifier (e.g. kR"..." is not raw).
          if (i > 0 && code[i - 1] == 'R' && (i < 2 || !IsIdentChar(code[i - 2]))) {
            size_t open = code.find('(', i + 1);
            if (open != std::string::npos) {
              raw_terminator = ")";
              raw_terminator.append(code, i + 1, open - i - 1);
              raw_terminator += '"';
              for (size_t j = i + 1; j <= open && j < code.size(); ++j) {
                if (code[j] != '\n') {
                  code[j] = ' ';
                }
              }
              i = open;
              state = State::kRawString;
              break;
            }
          }
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          code[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          code[i] = ' ';
          code[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          code[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          code[i] = ' ';
          if (next != '\n' && next != '\0') {
            code[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          code[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code[i] = ' ';
          if (next != '\n' && next != '\0') {
            code[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          code[i] = ' ';
        }
        break;
      case State::kRawString:
        if (c == ')' && code.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          for (size_t j = i; j < i + raw_terminator.size(); ++j) {
            code[j] = ' ';
          }
          i += raw_terminator.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          code[i] = ' ';
        }
        break;
    }
  }

  result.line_starts.push_back(0);
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n' && i + 1 < text.size()) {
      result.line_starts.push_back(i + 1);
    }
  }
  return result;
}

// ---- scope + suppressions ------------------------------------------------

Scope ScopeFromPath(const std::string& path) {
  const std::string normalized = "/" + path;
  auto has = [&normalized](const char* component) {
    return normalized.find(std::string("/") + component + "/") != std::string::npos;
  };
  if (has("src")) {
    return Scope::kSrc;
  }
  if (has("bench")) {
    return Scope::kBench;
  }
  if (has("tests")) {
    return Scope::kTests;
  }
  if (has("examples")) {
    return Scope::kExamples;
  }
  return Scope::kUnknown;
}

// The argument of the first `diffusion-lint: <verb>(<argument>)` directive
// in `line` (whitespace allowed after the colon) whose argument contains no
// ')' and, when `word_only`, is a non-empty run of identifier characters.
std::optional<std::string> DirectiveArgument(const std::string& line, const std::string& verb,
                                             bool word_only) {
  static const std::string kTag = "diffusion-lint:";
  for (size_t at = line.find(kTag); at != std::string::npos; at = line.find(kTag, at + 1)) {
    size_t pos = at + kTag.size();
    while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (line.compare(pos, verb.size() + 1, verb + "(") != 0) {
      continue;
    }
    const size_t begin = pos + verb.size() + 1;
    const size_t close = line.find(')', begin);
    if (close == std::string::npos) {
      continue;
    }
    const std::string argument = line.substr(begin, close - begin);
    if (!word_only || (!argument.empty() && std::all_of(argument.begin(), argument.end(),
                                                         IsIdentChar))) {
      return argument;
    }
  }
  return std::nullopt;
}

// Fixture files override their on-disk location with a directive in the
// first few lines: `// diffusion-lint: scope(bench)`.
Scope EffectiveScope(const std::string& path, const Preprocessed& pp) {
  const int limit = std::min(pp.line_count(), 5);
  for (int line = 1; line <= limit; ++line) {
    if (const std::optional<std::string> name =
            DirectiveArgument(pp.RawLine(line), "scope", /*word_only=*/true)) {
      if (name == "src") return Scope::kSrc;
      if (name == "bench") return Scope::kBench;
      if (name == "tests") return Scope::kTests;
      if (name == "examples") return Scope::kExamples;
    }
  }
  const Scope from_path = ScopeFromPath(path);
  return from_path == Scope::kUnknown ? Scope::kSrc : from_path;
}

// allowed[line] holds rule ids/names suppressed for diagnostics on `line`.
// An allow() comment covers its own line and the line below it.
std::vector<std::set<std::string>> CollectSuppressions(const Preprocessed& pp) {
  std::vector<std::set<std::string>> allowed(static_cast<size_t>(pp.line_count()) + 2);
  for (int line = 1; line <= pp.line_count(); ++line) {
    const std::optional<std::string> argument =
        DirectiveArgument(pp.RawLine(line), "allow", /*word_only=*/false);
    if (!argument.has_value()) {
      continue;
    }
    std::stringstream rules(*argument);
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      const size_t begin = rule.find_first_not_of(" \t");
      const size_t end = rule.find_last_not_of(" \t");
      if (begin == std::string::npos) {
        continue;
      }
      const std::string trimmed = rule.substr(begin, end - begin + 1);
      allowed[line].insert(trimmed);
      if (line + 1 <= pp.line_count()) {
        allowed[line + 1].insert(trimmed);
      }
    }
  }
  return allowed;
}

// ---- token matching ------------------------------------------------------

struct Token {
  const char* text;
  bool word_start = true;  // previous char must not be an identifier char
  bool word_end = false;   // next char must not be an identifier char
  bool call = false;       // next char must be '(' (a function call)
};

bool MatchesAt(const std::string& code, size_t at, const Token& token) {
  const size_t len = std::char_traits<char>::length(token.text);
  if (code.compare(at, len, token.text) != 0) {
    return false;
  }
  if (token.word_start && at > 0 && IsIdentChar(code[at - 1])) {
    return false;
  }
  const size_t after = at + len;
  if (token.call) {
    return after < code.size() && code[after] == '(';
  }
  if (token.word_end && after < code.size() && IsIdentChar(code[after])) {
    return false;
  }
  return true;
}

// Returns every line on which any of `tokens` occurs in `code`.
std::vector<std::pair<int, std::string>> FindTokens(const Preprocessed& pp,
                                                    const std::vector<Token>& tokens) {
  std::vector<std::pair<int, std::string>> hits;
  for (const Token& token : tokens) {
    const std::string needle = token.text;
    size_t at = pp.code.find(needle);
    while (at != std::string::npos) {
      if (MatchesAt(pp.code, at, token)) {
        hits.emplace_back(pp.LineAt(at), needle);
      }
      at = pp.code.find(needle, at + 1);
    }
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

// Offset of the brace/paren that closes the one at `open`. npos if unmatched.
size_t MatchDelimiter(const std::string& code, size_t open) {
  const char open_char = code[open];
  const char close_char = open_char == '(' ? ')' : open_char == '[' ? ']' : '}';
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (code[i] == open_char) {
      ++depth;
    } else if (code[i] == close_char) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

// ---- symbol harvesting (class definitions + data members) ----------------
//
// The concurrency rules (DL007, DL008) need to know which class a member
// belongs to, not just that a token occurs somewhere in the file. This is a
// lightweight per-file symbol table in the same lexical spirit as the rest
// of the linter: class bodies are found by brace matching, and the depth-1
// statements of a body that are not functions, nested types or access
// labels are its data members.

struct ClassDef {
  std::string name;
  size_t open = 0;   // offset of the body's '{'
  size_t close = 0;  // offset of the matching '}'
  int line = 0;      // line of the class-head keyword
};

struct MemberDecl {
  std::string text;         // declaration text with annotation macros removed
  std::string annotations;  // space-joined DIFFUSION_* macro names stripped out
  int line = 0;
};

// Class/struct definitions anywhere in the file, including nested ones. The
// class head may carry alignas(...), DIFFUSION_* annotation macros, `final`
// and a base clause; forward declarations and `template <class T>`
// parameters are skipped.
std::vector<ClassDef> FindClassDefs(const Preprocessed& pp) {
  std::vector<ClassDef> defs;
  const std::string& code = pp.code;
  for (const char* keyword : {"class", "struct"}) {
    const size_t len = std::char_traits<char>::length(keyword);
    size_t at = code.find(keyword);
    while (at != std::string::npos) {
      const size_t next_at = code.find(keyword, at + 1);
      const bool word_ok = (at == 0 || !IsIdentChar(code[at - 1])) &&
                           (at + len < code.size() && !IsIdentChar(code[at + len]));
      if (!word_ok) {
        at = next_at;
        continue;
      }
      // Not a definition: `enum class`, and `<class T, class U>` template
      // parameter lists.
      size_t before = at;
      while (before > 0 && std::isspace(static_cast<unsigned char>(code[before - 1]))) {
        --before;
      }
      size_t word_begin = before;
      while (word_begin > 0 && IsIdentChar(code[word_begin - 1])) {
        --word_begin;
      }
      const std::string prev_word = code.substr(word_begin, before - word_begin);
      const char prev_char = before > 0 ? code[before - 1] : '\0';
      if (prev_word == "enum" || prev_char == '<' || prev_char == ',') {
        at = next_at;
        continue;
      }
      // The class name: the first identifier after the keyword that is not
      // alignas(...) or a DIFFUSION_* macro.
      size_t i = at + len;
      std::string name;
      while (i < code.size()) {
        while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) {
          ++i;
        }
        if (i >= code.size() || !IsIdentChar(code[i])) {
          break;
        }
        size_t end = i;
        while (end < code.size() && IsIdentChar(code[end])) {
          ++end;
        }
        const std::string word = code.substr(i, end - i);
        i = end;
        if (word == "alignas" || word.compare(0, 10, "DIFFUSION_") == 0) {
          while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) {
            ++i;
          }
          if (i < code.size() && code[i] == '(') {
            const size_t args_close = MatchDelimiter(code, i);
            if (args_close == std::string::npos) {
              break;
            }
            i = args_close + 1;
          }
          continue;
        }
        name = word;
        break;
      }
      if (name.empty()) {
        at = next_at;
        continue;
      }
      // A body '{' before any ';' makes it a definition.
      size_t open = std::string::npos;
      for (size_t scan = i; scan < code.size(); ++scan) {
        if (code[scan] == '{') {
          open = scan;
          break;
        }
        if (code[scan] == ';') {
          break;
        }
      }
      if (open != std::string::npos) {
        const size_t body_close = MatchDelimiter(code, open);
        if (body_close != std::string::npos) {
          defs.push_back(ClassDef{name, open, body_close, pp.LineAt(at)});
        }
      }
      at = next_at;
    }
  }
  std::sort(defs.begin(), defs.end(),
            [](const ClassDef& a, const ClassDef& b) { return a.open < b.open; });
  return defs;
}

std::string FirstWord(const std::string& text) {
  size_t begin = 0;
  while (begin < text.size() && !IsIdentChar(text[begin])) {
    ++begin;
  }
  size_t end = begin;
  while (end < text.size() && IsIdentChar(text[end])) {
    ++end;
  }
  return text.substr(begin, end - begin);
}

// The declared name: the last identifier before the initializer (if any).
std::string MemberName(const std::string& text) {
  size_t end = std::min(text.find('='), text.find('{'));
  if (end == std::string::npos) {
    end = text.size();
  }
  while (end > 0 && !IsIdentChar(text[end - 1])) {
    --end;
  }
  size_t begin = end;
  while (begin > 0 && IsIdentChar(text[begin - 1])) {
    --begin;
  }
  return text.substr(begin, end - begin);
}

void ProcessMemberStatement(const Preprocessed& pp, std::string text, size_t offset,
                            std::vector<MemberDecl>* members) {
  const size_t first = text.find_first_not_of(" \t\n");
  if (first == std::string::npos) {
    return;
  }
  const int line = pp.LineAt(offset + first);
  // Split out annotation macros so an annotated member still parses as
  // (type, name) and so the '(' of a macro with arguments does not make the
  // member look like a function declaration.
  std::string annotations;
  size_t at = text.find("DIFFUSION_");
  while (at != std::string::npos) {
    if (at > 0 && IsIdentChar(text[at - 1])) {
      at = text.find("DIFFUSION_", at + 1);
      continue;
    }
    size_t end = at;
    while (end < text.size() && IsIdentChar(text[end])) {
      ++end;
    }
    size_t erase_end = end;
    size_t paren = end;
    while (paren < text.size() && std::isspace(static_cast<unsigned char>(text[paren]))) {
      ++paren;
    }
    if (paren < text.size() && text[paren] == '(') {
      const size_t close = MatchDelimiter(text, paren);
      if (close != std::string::npos) {
        erase_end = close + 1;
      }
    }
    if (!annotations.empty()) {
      annotations += " ";
    }
    annotations += text.substr(at, end - at);
    text.erase(at, erase_end - at);
    at = text.find("DIFFUSION_", at);
  }
  for (const char* label : {"public:", "private:", "protected:"}) {
    size_t l = text.find(label);
    while (l != std::string::npos) {
      text.erase(l, std::char_traits<char>::length(label));
      l = text.find(label);
    }
  }
  const size_t begin = text.find_first_not_of(" \t\n");
  if (begin == std::string::npos) {
    return;
  }
  const size_t last = text.find_last_not_of(" \t\n");
  text = text.substr(begin, last - begin + 1);
  static const std::set<std::string> kNonMemberLead = {
      "struct", "class",  "enum",     "union",    "using",       "friend",
      "typedef", "template", "static_assert", "operator"};
  if (kNonMemberLead.count(FirstWord(text)) > 0) {
    return;
  }
  if (text.find('(') != std::string::npos || text.find("operator") != std::string::npos) {
    return;  // function declaration/definition
  }
  members->push_back(MemberDecl{text, annotations, line});
}

// Data members declared at depth 1 of `cls`'s body.
std::vector<MemberDecl> HarvestMembers(const Preprocessed& pp, const ClassDef& cls) {
  std::vector<MemberDecl> members;
  const std::string& code = pp.code;
  size_t stmt = cls.open + 1;
  size_t i = cls.open + 1;
  while (i < cls.close) {
    const char c = code[i];
    if (c == '(' || c == '[') {
      const size_t end = MatchDelimiter(code, i);
      if (end == std::string::npos || end > cls.close) {
        break;
      }
      i = end + 1;
      continue;
    }
    if (c == '{') {
      // Function body, nested type body, or brace initializer: either way
      // the declaration's (type, name) part is already behind us.
      const size_t end = MatchDelimiter(code, i);
      if (end == std::string::npos || end > cls.close) {
        break;
      }
      ProcessMemberStatement(pp, code.substr(stmt, i - stmt), stmt, &members);
      i = end + 1;
      while (i < cls.close && std::isspace(static_cast<unsigned char>(code[i]))) {
        ++i;
      }
      if (i < cls.close && code[i] == ';') {
        ++i;
      }
      stmt = i;
      continue;
    }
    if (c == ';') {
      ProcessMemberStatement(pp, code.substr(stmt, i - stmt), stmt, &members);
      stmt = i + 1;
    }
    ++i;
  }
  return members;
}

bool ContainsWord(const std::string& text, const std::string& word);

// A member whose type is a synchronization/thread primitive: owning one makes
// the class a concurrency boundary (DL008's trigger), and the primitive
// itself needs no annotation. std::thread::id is a plain value, not a
// primitive.
bool IsConcurrencyPrimitive(const std::string& text) {
  if (ContainsWord(text, "Mutex") || ContainsWord(text, "condition_variable") ||
      ContainsWord(text, "jthread")) {
    return true;
  }
  if (text.find("std::mutex") != std::string::npos) {
    return true;
  }
  size_t at = text.find("std::thread");
  while (at != std::string::npos) {
    const size_t after = at + std::char_traits<char>::length("std::thread");
    if (after >= text.size() || (text[after] != ':' && !IsIdentChar(text[after]))) {
      return true;
    }
    at = text.find("std::thread", at + 1);
  }
  return false;
}

// ---- rules ---------------------------------------------------------------

const RuleInfo kRules[] = {
    {"DL001", "wall-clock",
     "wall-clock reads in deterministic code (sim time comes from the scheduler)"},
    {"DL002", "unseeded-rng",
     "ambient randomness (only the seeded Rng injected through the simulator)"},
    {"DL003", "unordered-trace-iteration",
     "iteration over an unordered container feeding TraceSink/bench-JSON output"},
    {"DL004", "ignored-result", "ApiResult-returning call used as a bare statement"},
    {"DL005", "raw-new-delete", "raw new/delete outside a designated allocator"},
    {"DL006", "filter-drop",
     "filter callback path that neither re-injects the message nor documents a drop"},
    {"DL007", "pooled-body-cross-thread",
     "pooled/zero-copy payload stored in a cross-thread struct without a flatten in the "
     "posting path"},
    {"DL008", "unannotated-concurrent-member",
     "mutable member of a thread-owning class that is neither const, atomic, nor "
     "ownership-marked"},
    {"DL010", "thread-outside-sim",
     "thread creation or thread-local state outside the simulation core (src/sim)"},
};

void Emit(std::vector<Diagnostic>* out, const std::string& file, int line, const RuleInfo& rule,
          const std::string& message) {
  out->push_back(Diagnostic{file, line, rule.id, rule.name, message});
}

// DL001 — only the scheduler may define time. Applies to src/tests/examples;
// bench binaries legitimately read the wall clock to time *themselves*.
void CheckWallClock(const std::string& file, const Preprocessed& pp, Scope scope,
                    std::vector<Diagnostic>* out) {
  if (scope == Scope::kBench) {
    return;
  }
  static const std::vector<Token> kTokens = {
      {"system_clock", true, true, false},  {"steady_clock", true, true, false},
      {"high_resolution_clock", true, true, false},
      {"gettimeofday", true, false, true},  {"clock_gettime", true, false, true},
      {"localtime", true, false, true},     {"gmtime", true, false, true},
      {"mktime", true, false, true},        {"clock", true, false, true},
      {"time(nullptr", false, false, false}, {"time(NULL", false, false, false},
      {"time(0)", false, false, false},
  };
  for (const auto& [line, token] : FindTokens(pp, kTokens)) {
    Emit(out, file, line, kRules[0],
         "'" + token + "' reads the wall clock; deterministic code must take time from "
         "the event scheduler (SimTime)");
  }
}

// DL002 — reproducibility requires every random bit to come from the seeded
// Rng (src/util/rng.h), forked per node through the simulator.
void CheckUnseededRng(const std::string& file, const Preprocessed& pp,
                      std::vector<Diagnostic>* out) {
  static const std::vector<Token> kTokens = {
      {"random_device", true, true, false},
      {"default_random_engine", true, true, false},
      {"mt19937", true, false, false},
      {"minstd_rand", true, false, false},
      {"rand", true, false, true},
      {"srand", true, false, true},
      {"drand48", true, false, true},
      {"lrand48", true, false, true},
      {"mrand48", true, false, true},
      {"arc4random", true, false, false},
      {"ranlux24", true, false, false},
      {"ranlux48", true, false, false},
      {"knuth_b", true, true, false},
      {"rand_r", true, false, true},
      {"random_shuffle", true, true, false},
  };
  for (const auto& [line, token] : FindTokens(pp, kTokens)) {
    Emit(out, file, line, kRules[1],
         "'" + token + "' is not reproducible from a seed; use the injected diffusion::Rng");
  }
}

// Variable names declared in `code` with an unordered container type,
// e.g. `std::unordered_map<NodeId, uint32_t> slot_of_;`.
std::set<std::string> HarvestUnorderedNames(const std::string& code) {
  std::set<std::string> names;
  size_t at = code.find("unordered_");
  while (at != std::string::npos) {
    size_t open = code.find('<', at);
    if (open == std::string::npos) {
      break;
    }
    // Match the template argument list (angle brackets nest for map values).
    int depth = 0;
    size_t close = std::string::npos;
    for (size_t i = open; i < code.size(); ++i) {
      if (code[i] == '<') {
        ++depth;
      } else if (code[i] == '>') {
        if (--depth == 0) {
          close = i;
          break;
        }
      } else if (code[i] == ';') {
        break;  // malformed / not a declaration
      }
    }
    if (close == std::string::npos) {
      at = code.find("unordered_", at + 1);
      continue;
    }
    size_t i = close + 1;
    while (i < code.size() && (code[i] == ' ' || code[i] == '\n' || code[i] == '&' ||
                               code[i] == '*' || code[i] == '\t')) {
      ++i;
    }
    size_t name_end = i;
    while (name_end < code.size() && IsIdentChar(code[name_end])) {
      ++name_end;
    }
    if (name_end > i && !std::isdigit(static_cast<unsigned char>(code[i]))) {
      names.insert(code.substr(i, name_end - i));
    }
    at = code.find("unordered_", close);
  }
  // `const` & co. can be picked up when the declaration is a return type;
  // they are never range-for'd, so extra names only cost lookups.
  names.erase("const");
  names.erase("override");
  names.erase("final");
  return names;
}

bool ContainsWord(const std::string& text, const std::string& word) {
  size_t at = text.find(word);
  while (at != std::string::npos) {
    const bool start_ok = at == 0 || !IsIdentChar(text[at - 1]);
    const size_t after = at + word.size();
    const bool end_ok = after >= text.size() || !IsIdentChar(text[after]);
    if (start_ok && end_ok) {
      return true;
    }
    at = text.find(word, at + 1);
  }
  return false;
}

// DL003 — the replication harness promises byte-identical trace/bench output
// at any --jobs count; unordered iteration order reaching a sink breaks it.
void CheckUnorderedTraceIteration(const std::string& file, const Preprocessed& pp,
                                  const Preprocessed* sibling,
                                  std::vector<Diagnostic>* out) {
  static const char* kSinkTokens[] = {"Trace(",      "TraceEvent", "TraceSink",
                                      "OnEvent",     "BenchResult", "BenchJson"};
  std::set<std::string> unordered_names = HarvestUnorderedNames(pp.code);
  if (sibling != nullptr) {
    for (const std::string& name : HarvestUnorderedNames(sibling->code)) {
      unordered_names.insert(name);
    }
  }

  const std::string& code = pp.code;
  size_t at = code.find("for");
  while (at != std::string::npos) {
    const bool word_ok = (at == 0 || !IsIdentChar(code[at - 1])) &&
                         (at + 3 >= code.size() || !IsIdentChar(code[at + 3]));
    if (!word_ok) {
      at = code.find("for", at + 1);
      continue;
    }
    size_t open = at + 3;
    while (open < code.size() && std::isspace(static_cast<unsigned char>(code[open]))) {
      ++open;
    }
    if (open >= code.size() || code[open] != '(') {
      at = code.find("for", at + 1);
      continue;
    }
    const size_t close = MatchDelimiter(code, open);
    if (close == std::string::npos) {
      break;
    }
    const std::string head = code.substr(open + 1, close - open - 1);
    // Find the range-for ':' at nesting depth 0, skipping '::'.
    size_t colon = std::string::npos;
    int depth = 0;
    for (size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '(' || c == '[' || c == '{') {
        ++depth;
      } else if (c == ')' || c == ']' || c == '}') {
        --depth;
      } else if (c == ':' && depth == 0) {
        if (i + 1 < head.size() && head[i + 1] == ':') {
          ++i;
        } else if (i > 0 && head[i - 1] == ':') {
          // second half of '::'
        } else {
          colon = i;
          break;
        }
      }
    }
    if (colon == std::string::npos) {
      at = code.find("for", close);
      continue;
    }
    const std::string range_expr = head.substr(colon + 1);
    bool unordered = range_expr.find("unordered_") != std::string::npos;
    if (!unordered) {
      for (const std::string& name : unordered_names) {
        if (ContainsWord(range_expr, name)) {
          unordered = true;
          break;
        }
      }
    }
    if (!unordered) {
      at = code.find("for", close);
      continue;
    }
    // Loop body: a braced block or a single statement.
    size_t body_begin = close + 1;
    while (body_begin < code.size() &&
           std::isspace(static_cast<unsigned char>(code[body_begin]))) {
      ++body_begin;
    }
    size_t body_end;
    if (body_begin < code.size() && code[body_begin] == '{') {
      body_end = MatchDelimiter(code, body_begin);
      if (body_end == std::string::npos) {
        body_end = code.size();
      }
    } else {
      body_end = code.find(';', body_begin);
      if (body_end == std::string::npos) {
        body_end = code.size();
      }
    }
    const std::string body = code.substr(body_begin, body_end - body_begin);
    for (const char* sink : kSinkTokens) {
      if (body.find(sink) != std::string::npos) {
        Emit(out, file, pp.LineAt(at), kRules[2],
             "iteration order of an unordered container reaches trace/bench output "
             "('" + std::string(sink) + "' in the loop body); iterate a sorted copy instead");
        break;
      }
    }
    at = code.find("for", close);
  }
}

// The checked method a statement starting with `code` calls through an
// object expression — `node.Send(`, `nodes[i]->RemoveFilter(`,
// `world.node(3).Unpublish(` — or empty when it calls none; the last one
// when the chain calls several. The object expression is an identifier
// followed by `[...]` subscripts, `(...)` calls without nested parentheses,
// and `.`/`->` member names.
std::string CheckedCallAtStart(const std::string& code) {
  static const std::set<std::string> kChecked = {"Send", "Unsubscribe", "Unpublish",
                                                 "RemoveFilter"};
  auto ident_end = [&code](size_t pos) {
    if (pos >= code.size() || std::isdigit(static_cast<unsigned char>(code[pos])) != 0) {
      return pos;
    }
    while (pos < code.size() && IsIdentChar(code[pos])) {
      ++pos;
    }
    return pos;
  };
  std::string found;
  size_t pos = ident_end(0);
  if (pos == 0) {
    return found;
  }
  while (pos < code.size()) {
    if (code[pos] == '[') {
      const size_t close = code.find(']', pos);
      if (close == std::string::npos) {
        return found;
      }
      pos = close + 1;
    } else if (code[pos] == '(') {
      const size_t close = code.find_first_of("()", pos + 1);
      if (close == std::string::npos || code[close] == '(') {
        return found;
      }
      pos = close + 1;
    } else if (code[pos] == '.' || code.compare(pos, 2, "->") == 0) {
      const size_t name_begin = pos + (code[pos] == '.' ? 1 : 2);
      const size_t name_end = ident_end(name_begin);
      if (name_end == name_begin) {
        return found;
      }
      const std::string name = code.substr(name_begin, name_end - name_begin);
      size_t open = name_end;
      while (open < code.size() && (code[open] == ' ' || code[open] == '\t')) {
        ++open;
      }
      if (kChecked.count(name) != 0 && open < code.size() && code[open] == '(') {
        found = name;
      }
      pos = name_end;
    } else {
      return found;
    }
  }
  return found;
}

// DL004 — backstop behind [[nodiscard]] ApiResult: a call used as a bare
// statement silently conflates "no matching interest" with "dead handle".
// Discarding deliberately is spelled `(void)node.Send(...)`.
void CheckIgnoredResult(const std::string& file, const Preprocessed& pp,
                        std::vector<Diagnostic>* out) {
  std::string previous_code;
  for (int line = 1; line <= pp.line_count(); ++line) {
    std::string code = pp.CodeLine(line);
    const size_t begin = code.find_first_not_of(" \t");
    if (begin == std::string::npos) {
      continue;  // blank: does not update statement context
    }
    const size_t end = code.find_last_not_of(" \t");
    code = code.substr(begin, end - begin + 1);
    const char prev_last = previous_code.empty() ? ';' : previous_code.back();
    previous_code = code;
    const bool statement_start =
        prev_last == ';' || prev_last == '{' || prev_last == '}' || prev_last == ':' ||
        prev_last == ')';
    if (!statement_start) {
      continue;
    }
    const std::string call = CheckedCallAtStart(code);
    if (!call.empty()) {
      Emit(out, file, line, kRules[3],
           "result of '" + call + "' is ignored; check it or discard explicitly with (void)");
    }
  }
}

// DL005 — ownership lives in containers and unique_ptr; raw new/delete is
// reserved for the designated allocator: arena files (*arena*).
void CheckRawNewDelete(const std::string& file, const Preprocessed& pp,
                       std::vector<Diagnostic>* out) {
  if (file.find("arena") != std::string::npos) {
    return;
  }
  const std::string& code = pp.code;
  auto prev_word = [&code](size_t at) {
    size_t end = at;
    while (end > 0 && std::isspace(static_cast<unsigned char>(code[end - 1]))) {
      --end;
    }
    size_t begin = end;
    while (begin > 0 && IsIdentChar(code[begin - 1])) {
      --begin;
    }
    return code.substr(begin, end - begin);
  };
  auto prev_char = [&code](size_t at) -> char {
    size_t i = at;
    while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) {
      --i;
    }
    return i > 0 ? code[i - 1] : '\0';
  };
  auto next_char = [&code](size_t after) -> char {
    size_t i = after;
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) {
      ++i;
    }
    return i < code.size() ? code[i] : '\0';
  };

  for (const char* word : {"new", "delete"}) {
    const size_t len = std::char_traits<char>::length(word);
    size_t at = code.find(word);
    while (at != std::string::npos) {
      const bool word_ok = (at == 0 || !IsIdentChar(code[at - 1])) &&
                           (at + len >= code.size() || !IsIdentChar(code[at + len]));
      if (word_ok && prev_word(at) != "operator") {
        const char next = next_char(at + len);
        const bool is_expression =
            IsIdentChar(next) || next == '(' || next == '[' || next == ':';
        const bool deleted_function = word[0] == 'd' && prev_char(at) == '=';
        if (is_expression && !deleted_function) {
          Emit(out, file, pp.LineAt(at), kRules[4],
               std::string("raw '") + word +
                   "' outside a designated allocator (*arena*); use containers or "
                   "std::make_unique");
        }
      }
      at = code.find(word, at + len);
    }
  }
}

// DL006 — a filter callback owns the message it is handed (§2.3 / Figure 5):
// every path must re-inject it (SendMessage / SendMessageToNext /
// SendToNeighbor), forward it to a handler, or carry a comment mentioning
// "drop" that documents the deliberate absorption.
void CheckFilterDrop(const std::string& file, const Preprocessed& pp,
                     std::vector<Diagnostic>* out) {
  const std::string& code = pp.code;
  auto has_send = [](const std::string& text) {
    return text.find("SendMessage") != std::string::npos ||
           text.find("SendToNeighbor") != std::string::npos;
  };
  auto drop_documented = [&pp](int line) {
    // Window: two lines above the signature through the first body line.
    for (int i = std::max(1, line - 2); i <= line + 1; ++i) {
      std::string raw = pp.RawLine(i);
      std::transform(raw.begin(), raw.end(), raw.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      if (ContainsWord(raw, "drop") || ContainsWord(raw, "drops") ||
          ContainsWord(raw, "dropped")) {
        return true;
      }
    }
    return false;
  };

  size_t at = code.find("(Message&");
  while (at != std::string::npos) {
    const size_t params_end = MatchDelimiter(code, at);
    if (params_end == std::string::npos) {
      break;
    }
    const std::string params = code.substr(at, params_end - at + 1);
    if (params.find("FilterApi&") == std::string::npos) {
      at = code.find("(Message&", at + 1);
      continue;
    }
    size_t body_begin = params_end + 1;
    while (body_begin < code.size() &&
           (std::isspace(static_cast<unsigned char>(code[body_begin])) ||
            code.compare(body_begin, 8, "mutable ") == 0)) {
      body_begin += code.compare(body_begin, 8, "mutable ") == 0 ? 8 : 1;
    }
    if (body_begin >= code.size() || code[body_begin] != '{') {
      at = code.find("(Message&", params_end);
      continue;  // declaration or std::function type, not a definition
    }
    const size_t body_end = MatchDelimiter(code, body_begin);
    if (body_end == std::string::npos) {
      break;
    }
    const std::string body = code.substr(body_begin, body_end - body_begin + 1);
    const int signature_line = pp.LineAt(at);

    // The Message parameter's name, for forwarding detection. May be empty
    // (unnamed parameter: the callback cannot re-inject at all).
    std::string param_name;
    size_t name_at = at + std::char_traits<char>::length("(Message&");
    while (name_at < code.size() &&
           std::isspace(static_cast<unsigned char>(code[name_at]))) {
      ++name_at;
    }
    size_t name_end = name_at;
    while (name_end < code.size() && IsIdentChar(code[name_end])) {
      ++name_end;
    }
    param_name = code.substr(name_at, name_end - name_at);

    bool forwarded = false;
    if (!param_name.empty()) {
      // Passed whole as an argument — e.g. `Run(message, api)` or
      // `Run(std::move(message))` — to a handler that is itself subject to
      // this rule.
      auto skip = [&body](size_t pos, std::string_view blanks) {
        while (pos < body.size() && blanks.find(body[pos]) != std::string_view::npos) {
          ++pos;
        }
        return pos;
      };
      for (size_t arg = body.find_first_of("(,"); arg != std::string::npos && !forwarded;
           arg = body.find_first_of("(,", arg + 1)) {
        size_t pos = skip(arg + 1, " \t\n");
        if (body.compare(pos, 10, "std::move(") == 0) {
          pos = skip(pos + 10, " \t");
        }
        if (body.compare(pos, param_name.size(), param_name) != 0) {
          continue;
        }
        pos = skip(pos + param_name.size(), " \t\n");
        forwarded = pos < body.size() && (body[pos] == ')' || body[pos] == ',');
      }
    }

    if (!has_send(body) && !forwarded && !drop_documented(signature_line)) {
      Emit(out, file, signature_line, kRules[5],
           "filter callback never re-injects the message (SendMessage/SendMessageToNext) "
           "and does not document a drop");
    } else {
      // Early bare `return;` before the first re-injection: the message is
      // silently swallowed on that path.
      const size_t first_send = std::min(body.find("SendMessage"), body.find("SendToNeighbor"));
      size_t ret = body.find("return");
      while (ret != std::string::npos) {
        const bool word_ok = !IsIdentChar(body[ret - 1]) && ret + 6 < body.size();
        size_t after = ret + 6;
        while (after < body.size() &&
               std::isspace(static_cast<unsigned char>(body[after]))) {
          ++after;
        }
        if (word_ok && after < body.size() && body[after] == ';' && ret < first_send) {
          const int line = pp.LineAt(body_begin + ret);
          if (!drop_documented(line)) {
            Emit(out, file, line, kRules[5],
                 "filter callback path returns before any re-injection without a "
                 "documented drop");
          }
        }
        ret = body.find("return", ret + 1);
      }
    }
    at = code.find("(Message&", body_end);
  }
}

// DL007 — a pooled / zero-copy payload (BodyRef, WireBody, a Fragment that
// may ride one) has a non-atomic refcount and region-pinned storage, so a
// struct built to cross threads (Border*/Mailbox*/Handoff*/CrossThread*)
// must only hold it if the posting path materializes the bytes first
// (AppendBytes/Flatten into the slot, body reset to `= BodyRef()`).
void CheckBodyRefCrossThread(const std::string& file, const Preprocessed& pp,
                             const Preprocessed* sibling, std::vector<Diagnostic>* out) {
  auto crosses_threads = [](const std::string& name) {
    for (const char* marker : {"Border", "Mailbox", "Handoff", "CrossThread"}) {
      if (name.find(marker) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  static const char* kPayloadTypes[] = {"BodyRef", "WireBody", "Fragment"};
  auto has_flatten = [](const std::string& code) {
    return code.find("AppendBytes(") != std::string::npos ||
           code.find("Flatten(") != std::string::npos ||
           code.find("= BodyRef()") != std::string::npos;
  };
  bool evidence_known = false;
  bool evidence = false;
  for (const ClassDef& cls : FindClassDefs(pp)) {
    if (!crosses_threads(cls.name)) {
      continue;
    }
    for (const MemberDecl& member : HarvestMembers(pp, cls)) {
      const char* payload = nullptr;
      for (const char* type : kPayloadTypes) {
        if (ContainsWord(member.text, type)) {
          payload = type;
          break;
        }
      }
      if (payload == nullptr) {
        continue;
      }
      if (!evidence_known) {
        evidence = has_flatten(pp.code) || (sibling != nullptr && has_flatten(sibling->code));
        evidence_known = true;
      }
      if (!evidence) {
        Emit(out, file, member.line, kRules[6],
             "cross-thread struct '" + cls.name + "' stores pooled payload type '" +
                 std::string(payload) +
                 "' but no flatten (AppendBytes/Flatten/= BodyRef()) appears in the posting "
                 "path; materialize the bytes before the frame crosses threads");
      }
    }
  }
}

// DL008 — a class that owns a mutex, a condition variable or threads is a
// concurrency boundary: every other data member must declare its protection.
// Accepted: const, std::atomic, or an ownership marker
// (DIFFUSION_REGION_PINNED / DIFFUSION_BARRIER_OWNED) naming the handoff
// discipline. The repo defines no lock annotation, so no other macro counts.
void CheckUnannotatedConcurrentMembers(const std::string& file, const Preprocessed& pp,
                                       Scope scope, std::vector<Diagnostic>* out) {
  if (scope != Scope::kSrc) {
    return;
  }
  for (const ClassDef& cls : FindClassDefs(pp)) {
    const std::vector<MemberDecl> members = HarvestMembers(pp, cls);
    bool concurrent = false;
    for (const MemberDecl& member : members) {
      if (IsConcurrencyPrimitive(member.text)) {
        concurrent = true;
        break;
      }
    }
    if (!concurrent) {
      continue;
    }
    for (const MemberDecl& member : members) {
      if (IsConcurrencyPrimitive(member.text)) {
        continue;  // the primitive itself is the boundary, not guarded data
      }
      if (ContainsWord(member.annotations, "DIFFUSION_REGION_PINNED") ||
          ContainsWord(member.annotations, "DIFFUSION_BARRIER_OWNED")) {
        continue;
      }
      size_t head_end = std::min(member.text.find('='), member.text.find('{'));
      if (head_end == std::string::npos) {
        head_end = member.text.size();
      }
      const std::string head = member.text.substr(0, head_end);
      if (ContainsWord(head, "const") || ContainsWord(head, "atomic")) {
        continue;
      }
      Emit(out, file, member.line, kRules[7],
           "member '" + MemberName(member.text) + "' of thread-owning class '" + cls.name +
               "' is neither const, atomic, nor ownership-marked "
               "(DIFFUSION_REGION_PINNED / DIFFUSION_BARRIER_OWNED)");
    }
  }
}

// DL010 — determinism depends on the engine owning every thread: workers are
// spawned by ShardedEngine and ReplicationPool (src/sim) and nowhere else,
// and no state may be pinned per-OS-thread (thread_local breaks replay when
// the worker count changes). std::thread::id is a plain value and fine.
void CheckThreadOutsideSim(const std::string& file, const Preprocessed& pp, Scope scope,
                           std::vector<Diagnostic>* out) {
  if (scope != Scope::kSrc) {
    return;
  }
  if (("/" + file).find("/src/sim/") != std::string::npos) {
    return;
  }
  const std::string& code = pp.code;
  auto flag = [&](int line, const std::string& what) {
    Emit(out, file, line, kRules[8],
         "'" + what + "' creates or pins a thread outside the simulation core; thread "
         "ownership belongs to src/sim (ShardedEngine workers, ReplicationPool)");
  };
  size_t at = code.find("std::thread");
  while (at != std::string::npos) {
    const size_t after = at + std::char_traits<char>::length("std::thread");
    const bool word_ok = at == 0 || !IsIdentChar(code[at - 1]);
    if (word_ok && (after >= code.size() || (code[after] != ':' && !IsIdentChar(code[after])))) {
      flag(pp.LineAt(at), "std::thread");
    }
    at = code.find("std::thread", at + 1);
  }
  static const std::vector<Token> kTokens = {
      {"thread_local", true, true, false},
      {"jthread", true, true, false},
      {"std::async", false, true, false},
  };
  for (const auto& [line, token] : FindTokens(pp, kTokens)) {
    flag(line, token);
  }
  for (const char* needle : {".detach(", "->detach("}) {
    size_t hit = code.find(needle);
    while (hit != std::string::npos) {
      flag(pp.LineAt(hit), "detach");
      hit = code.find(needle, hit + 1);
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> rules(std::begin(kRules), std::end(kRules));
  return rules;
}

std::string Render(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) + ": [" + diagnostic.rule_id +
         "/" + diagnostic.rule_name + "] " + diagnostic.message;
}

std::vector<Diagnostic> LintContent(const std::string& path, const std::string& content,
                                    const std::string& sibling) {
  const Preprocessed pp = Preprocess(content);
  const Scope scope = EffectiveScope(path, pp);
  const std::vector<std::set<std::string>> allowed = CollectSuppressions(pp);
  std::unique_ptr<Preprocessed> sibling_pp;
  if (!sibling.empty()) {
    sibling_pp = std::make_unique<Preprocessed>(Preprocess(sibling));
  }

  std::vector<Diagnostic> diagnostics;
  CheckWallClock(path, pp, scope, &diagnostics);
  CheckUnseededRng(path, pp, &diagnostics);
  CheckUnorderedTraceIteration(path, pp, sibling_pp.get(), &diagnostics);
  CheckIgnoredResult(path, pp, &diagnostics);
  CheckRawNewDelete(path, pp, &diagnostics);
  CheckFilterDrop(path, pp, &diagnostics);
  CheckBodyRefCrossThread(path, pp, sibling_pp.get(), &diagnostics);
  CheckUnannotatedConcurrentMembers(path, pp, scope, &diagnostics);
  CheckThreadOutsideSim(path, pp, scope, &diagnostics);

  diagnostics.erase(
      std::remove_if(diagnostics.begin(), diagnostics.end(),
                     [&allowed](const Diagnostic& diagnostic) {
                       if (diagnostic.line < 1 ||
                           diagnostic.line >= static_cast<int>(allowed.size())) {
                         return false;
                       }
                       const std::set<std::string>& rules =
                           allowed[static_cast<size_t>(diagnostic.line)];
                       return rules.count(diagnostic.rule_id) > 0 ||
                              rules.count(diagnostic.rule_name) > 0;
                     }),
      diagnostics.end());

  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule_id) < std::tie(b.file, b.line, b.rule_id);
            });
  return diagnostics;
}

bool LintFile(const std::string& path, std::vector<Diagnostic>* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  // The paired file: foo.h for foo.cc and foo.cc for foo.h. Member
  // declarations there feed the unordered-container analysis, and flatten
  // evidence there satisfies DL007 for structs declared in the header.
  std::string sibling_path;
  if (path.size() > 3 && path.compare(path.size() - 3, 3, ".cc") == 0) {
    sibling_path = path.substr(0, path.size() - 3) + ".h";
  } else if (path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0) {
    sibling_path = path.substr(0, path.size() - 2) + ".cc";
  }
  std::string sibling;
  if (!sibling_path.empty()) {
    std::ifstream sibling_in(sibling_path);
    if (sibling_in) {
      std::stringstream sibling_buffer;
      sibling_buffer << sibling_in.rdbuf();
      sibling = sibling_buffer.str();
    }
  }

  std::vector<Diagnostic> diagnostics = LintContent(path, buffer.str(), sibling);
  out->insert(out->end(), diagnostics.begin(), diagnostics.end());
  return true;
}

std::vector<std::string> CollectSourceFiles(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::set<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end; it != end && !ec;
           it.increment(ec)) {
        if (!it->is_regular_file()) {
          continue;
        }
        const std::string entry = it->path().string();
        if (entry.find("/fixtures/") != std::string::npos) {
          continue;
        }
        if (entry.size() > 3 && (entry.compare(entry.size() - 3, 3, ".cc") == 0 ||
                                 entry.compare(entry.size() - 2, 2, ".h") == 0)) {
          files.insert(entry);
        }
      }
    } else {
      files.insert(path);
    }
  }
  return std::vector<std::string>(files.begin(), files.end());
}

}  // namespace lint
}  // namespace diffusion
