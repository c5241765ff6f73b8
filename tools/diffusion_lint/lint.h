// diffusion-lint: project-specific static analysis.
//
// Off-the-shelf tools cannot know this repo's contracts: simulations must be
// bit-reproducible from a seed (no wall clock, no ambient randomness), trace
// and bench output must be byte-identical at any --jobs count (no iteration
// order from unordered containers may reach a sink), ApiResult must never be
// silently ignored, allocation goes through owned containers rather than raw
// new/delete, and a filter callback owns the message it is handed — every
// path must re-inject it or deliberately drop it (§2.3 of the paper). The
// sharded parallel core adds ownership contracts (DL007, DL008, DL010):
// pooled zero-copy payloads must be flattened before crossing threads,
// members of thread-owning classes must declare their protection (const /
// atomic / an ownership marker from src/util/thread_annotations.h), and only
// src/sim may own threads.
// diffusion-lint encodes those contracts as lexical rules cheap enough to run
// on every build.
//
// The checker is deliberately a *lexer*, not a compiler plugin: it strips
// comments and string literals, then pattern-matches the remaining code. That
// keeps it dependency-free and fast, at the cost of heuristics documented per
// rule in docs/STATIC_ANALYSIS.md. False positives are silenced in place:
//
//   legacy_call();  // diffusion-lint: allow(DL001)
//   // diffusion-lint: allow(wall-clock)   <- or on the line above, by name
//
// so every exception is visible in review next to the code it excuses.

#ifndef TOOLS_DIFFUSION_LINT_LINT_H_
#define TOOLS_DIFFUSION_LINT_LINT_H_

#include <string>
#include <vector>

namespace diffusion {
namespace lint {

// Which top-level tree a file belongs to. Rules opt in per scope: bench
// binaries may read the wall clock to time themselves (the measurement, not
// the simulation), but nothing under src/ may.
enum class Scope {
  kSrc = 0,
  kBench,
  kTests,
  kExamples,
  kUnknown,  // treated as kSrc (strictest) unless a scope() directive says
             // otherwise — used by the fixture suite
};

struct RuleInfo {
  const char* id;    // stable "DLnnn" identifier
  const char* name;  // human name usable in allow(...)
  const char* summary;
};

// The rule catalog, in id order.
const std::vector<RuleInfo>& Rules();

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule_id;
  std::string rule_name;
  std::string message;
};

// "file:line: [DLnnn/name] message" — the stable format the golden fixture
// expectations and the CI log grep rely on.
std::string Render(const Diagnostic& diagnostic);

// Lints one file's contents. `path` is used for scope classification and
// diagnostics; `sibling` optionally carries the contents of the paired file
// (foo.h for foo.cc, foo.cc for foo.h) so member declarations there feed the
// unordered-container analysis and flatten evidence there satisfies DL007.
std::vector<Diagnostic> LintContent(const std::string& path, const std::string& content,
                                    const std::string& sibling = std::string());

// Reads and lints `path`, loading the sibling file automatically. Returns
// false only when the file cannot be read.
bool LintFile(const std::string& path, std::vector<Diagnostic>* out);

// Expands files and directories (recursively, *.cc / *.h) into a sorted,
// deduplicated file list. Paths under a fixtures/ directory are skipped when
// reached via directory expansion — fixtures violate rules by design.
std::vector<std::string> CollectSourceFiles(const std::vector<std::string>& paths);

}  // namespace lint
}  // namespace diffusion

#endif  // TOOLS_DIFFUSION_LINT_LINT_H_
