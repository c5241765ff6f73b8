// Tests for diffusion-lint (tools/diffusion_lint): per-rule unit tests on
// inline snippets, the golden fixture suite, and the meta-check that the repo
// itself lints clean — the property CI enforces.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/diffusion_lint/lint.h"

namespace diffusion {
namespace lint {
namespace {

std::vector<std::string> RuleIds(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> ids;
  ids.reserve(diags.size());
  for (const Diagnostic& d : diags) {
    ids.push_back(d.rule_id);
  }
  return ids;
}

TEST(LintRulesTest, CatalogIsStable) {
  const std::vector<RuleInfo>& rules = Rules();
  ASSERT_EQ(rules.size(), 9u);
  EXPECT_STREQ(rules[0].id, "DL001");
  EXPECT_STREQ(rules[0].name, "wall-clock");
  EXPECT_STREQ(rules[5].id, "DL006");
  EXPECT_STREQ(rules[5].name, "filter-drop");
  EXPECT_STREQ(rules[6].id, "DL007");
  EXPECT_STREQ(rules[6].name, "pooled-body-cross-thread");
  EXPECT_STREQ(rules[7].id, "DL008");
  // DL009 is retired; its ID stays unused.
  EXPECT_STREQ(rules[8].id, "DL010");
  EXPECT_STREQ(rules[8].name, "thread-outside-sim");
}

TEST(LintRulesTest, WallClockFlaggedInSrcNotBench) {
  const std::string snippet = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(RuleIds(LintContent("src/sim/x.cc", snippet)),
            std::vector<std::string>{"DL001"});
  EXPECT_TRUE(LintContent("bench/x.cc", snippet).empty());
}

TEST(LintRulesTest, ScopeDirectiveOverridesPath) {
  const std::string bench_scoped =
      "// diffusion-lint: scope(bench)\n"
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(LintContent("nowhere.cc", bench_scoped).empty());
  // Without a directive, unknown paths get the strictest scope (src).
  EXPECT_EQ(RuleIds(LintContent("nowhere.cc",
                                "auto t = std::chrono::steady_clock::now();\n")),
            std::vector<std::string>{"DL001"});
}

TEST(LintRulesTest, CommentsAndStringsAreStripped) {
  const std::string snippet =
      "// rand() and new Foo() in a comment\n"
      "const char* s = \"std::random_device rd; time(nullptr)\";\n"
      "/* delete p; steady_clock::now(); */\n"
      "const char* r = R\"(srand(42))\";\n";
  EXPECT_TRUE(LintContent("src/x.cc", snippet).empty());
}

TEST(LintRulesTest, SuppressionByIdAndName) {
  const std::string by_id = "int r = rand();  // diffusion-lint: allow(DL002)\n";
  const std::string by_name =
      "// diffusion-lint: allow(unseeded-rng)\n"
      "int r = rand();\n";
  const std::string wrong_rule = "int r = rand();  // diffusion-lint: allow(DL001)\n";
  EXPECT_TRUE(LintContent("src/x.cc", by_id).empty());
  EXPECT_TRUE(LintContent("src/x.cc", by_name).empty());
  EXPECT_EQ(RuleIds(LintContent("src/x.cc", wrong_rule)),
            std::vector<std::string>{"DL002"});
}

TEST(LintRulesTest, UnorderedIterationIntoTraceSink) {
  const std::string bad =
      "std::unordered_map<int, int> counts;\n"
      "for (const auto& [k, v] : counts) {\n"
      "  sink.OnEvent(k, v);\n"
      "}\n";
  const std::string no_sink =
      "std::unordered_map<int, int> counts;\n"
      "for (const auto& [k, v] : counts) {\n"
      "  total += v;\n"
      "}\n";
  EXPECT_EQ(RuleIds(LintContent("src/x.cc", bad)), std::vector<std::string>{"DL003"});
  EXPECT_TRUE(LintContent("src/x.cc", no_sink).empty());
}

TEST(LintRulesTest, SiblingHeaderFeedsUnorderedAnalysis) {
  // The member is declared in the header; the .cc only iterates it. The
  // harvest from the sibling header must connect the two.
  const std::string header =
      "struct Collector {\n"
      "  std::unordered_map<int, int> per_node_;\n"
      "};\n";
  const std::string source =
      "void Collector::Flush() {\n"
      "  for (const auto& [k, v] : per_node_) {\n"
      "    sink.OnEvent(k, v);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(RuleIds(LintContent("src/x.cc", source, header)),
            std::vector<std::string>{"DL003"});
  EXPECT_TRUE(LintContent("src/x.cc", source).empty());
}

TEST(LintRulesTest, IgnoredResultRequiresStatementContext) {
  const std::string bad = "node.Unsubscribe(h);\n";
  const std::string voided = "(void)node.Unsubscribe(h);\n";
  const std::string assigned = "ApiResult r = node.Unsubscribe(h);\n";
  const std::string asserted = "EXPECT_EQ(node.Unsubscribe(h), ApiResult::kOk);\n";
  EXPECT_EQ(RuleIds(LintContent("src/x.cc", bad)), std::vector<std::string>{"DL004"});
  EXPECT_TRUE(LintContent("src/x.cc", voided).empty());
  EXPECT_TRUE(LintContent("src/x.cc", assigned).empty());
  EXPECT_TRUE(LintContent("src/x.cc", asserted).empty());
}

TEST(LintRulesTest, RawNewDeleteExceptions) {
  EXPECT_EQ(RuleIds(LintContent("src/x.cc", "Foo* f = new Foo();\n")),
            std::vector<std::string>{"DL005"});
  EXPECT_TRUE(LintContent("src/x.cc", "Foo(const Foo&) = delete;\n").empty());
  EXPECT_TRUE(LintContent("src/util/arena.h", "char* p = new char[64];\n").empty());
  EXPECT_EQ(RuleIds(LintContent("src/radio/region_mailbox.cc", "char* p = new char[64];\n")),
            std::vector<std::string>{"DL005"});
}

TEST(LintRulesTest, FilterCallbackMustSendOrDocumentDrop) {
  const std::string swallow =
      "node.AddFilter(a, 1, [](Message& m, FilterApi& api) {\n"
      "  m.hops++;\n"
      "});\n";
  const std::string documented =
      "// Deliberately drops everything.\n"
      "node.AddFilter(a, 1, [](Message& m, FilterApi& api) {\n"
      "  m.hops++;\n"
      "});\n";
  const std::string reinjects =
      "node.AddFilter(a, 1, [](Message& m, FilterApi& api) {\n"
      "  api.SendMessageToNext(std::move(m));\n"
      "});\n";
  EXPECT_EQ(RuleIds(LintContent("src/x.cc", swallow)), std::vector<std::string>{"DL006"});
  EXPECT_TRUE(LintContent("src/x.cc", documented).empty());
  EXPECT_TRUE(LintContent("src/x.cc", reinjects).empty());
}

TEST(LintRulesTest, PooledBodyInCrossThreadStruct) {
  const std::string bad =
      "struct BorderFrame {\n"
      "  BodyRef body;\n"
      "};\n";
  const std::string local_struct =
      "struct DeliveryRecord {\n"
      "  BodyRef body;\n"
      "};\n";
  // The flatten lives in the sibling .cc: evidence there clears the header.
  const std::string flatten_sibling =
      "void Pool::Post(const Fragment& fragment) {\n"
      "  out.body = BodyRef();\n"
      "  fragment.body->AppendBytes(&scratch);\n"
      "}\n";
  EXPECT_EQ(RuleIds(LintContent("src/x.h", bad)), std::vector<std::string>{"DL007"});
  EXPECT_TRUE(LintContent("src/x.h", local_struct).empty());
  EXPECT_TRUE(LintContent("src/x.h", bad, flatten_sibling).empty());
}

TEST(LintRulesTest, ConcurrentClassMembersMustDeclareProtection) {
  const std::string bad =
      "class Engine {\n"
      "  std::mutex mu_;\n"
      "  uint64_t windows_ = 0;\n"
      "};\n";
  const std::string annotated =
      "class Engine {\n"
      "  std::mutex mu_;\n"
      "  std::vector<int> events_ DIFFUSION_REGION_PINNED;\n"
      "  uint64_t cursor_ DIFFUSION_BARRIER_OWNED = 0;\n"
      "  const unsigned threads_ = 1;\n"
      "  std::atomic<bool> stop_{false};\n"
      "};\n";
  // Only the two ownership markers count; the repo defines no lock macro.
  const std::string undefined_macro =
      "class Engine {\n"
      "  std::mutex mu_;\n"
      "  uint64_t generation_ DIFFUSION_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const std::string no_primitive =
      "class Ledger {\n"
      "  uint64_t balance_ = 0;\n"
      "};\n";
  EXPECT_EQ(RuleIds(LintContent("src/x.h", bad)), std::vector<std::string>{"DL008"});
  EXPECT_TRUE(LintContent("src/x.h", annotated).empty());
  EXPECT_EQ(RuleIds(LintContent("src/x.h", undefined_macro)),
            std::vector<std::string>{"DL008"});
  EXPECT_TRUE(LintContent("src/x.h", no_primitive).empty());
}

TEST(LintRulesTest, ThreadCreationOnlyInsideSimCore) {
  const std::string spawn = "std::thread worker([] { Work(); });\n";
  const std::string pinned = "thread_local int counter = 0;\n";
  const std::string id_only = "std::thread::id owner = std::this_thread::get_id();\n";
  EXPECT_EQ(RuleIds(LintContent("src/radio/x.cc", spawn)),
            std::vector<std::string>{"DL010"});
  EXPECT_EQ(RuleIds(LintContent("src/radio/x.cc", pinned)),
            std::vector<std::string>{"DL010"});
  // The simulation core owns its workers; thread::id is a plain value.
  EXPECT_TRUE(LintContent("src/sim/engine.cc", spawn).empty());
  EXPECT_TRUE(LintContent("src/radio/x.cc", id_only).empty());
  EXPECT_TRUE(LintContent("bench/x.cc", spawn).empty());
}

TEST(LintRenderTest, StableFormat) {
  Diagnostic d;
  d.file = "src/x.cc";
  d.line = 7;
  d.rule_id = "DL001";
  d.rule_name = "wall-clock";
  d.message = "msg";
  EXPECT_EQ(Render(d), "src/x.cc:7: [DL001/wall-clock] msg");
}

// ---- golden fixture suite ----
//
// Every fixture file is linted under its bare name (so the golden stays
// stable across checkouts) and the concatenated rendered diagnostics must
// equal fixtures/expected.txt byte for byte.

TEST(LintFixturesTest, GoldenDiagnosticsMatch) {
  const std::filesystem::path dir(DIFFUSION_LINT_FIXTURES_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".cc" || entry.path().extension() == ".h") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  std::string actual;
  for (const auto& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    for (const Diagnostic& d : LintContent(path.filename().string(), buffer.str())) {
      actual += Render(d) + "\n";
    }
  }

  std::ifstream golden(dir / "expected.txt");
  ASSERT_TRUE(golden.good()) << "missing " << (dir / "expected.txt");
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "fixture diagnostics drifted; regenerate with:\n"
         "  cd tools/diffusion_lint/fixtures && "
         "../../../build/tools/diffusion_lint *.cc > expected.txt";
}

TEST(LintFixturesTest, EveryRuleCoveredByFixtures) {
  const std::filesystem::path dir(DIFFUSION_LINT_FIXTURES_DIR);
  std::ifstream golden(dir / "expected.txt");
  ASSERT_TRUE(golden.good());
  std::stringstream buffer;
  buffer << golden.rdbuf();
  const std::string text = buffer.str();
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(text.find(std::string("[") + rule.id + "/"), std::string::npos)
        << rule.id << " has no fixture violation";
  }
}

// ---- the property CI enforces: the repo itself lints clean ----

TEST(LintRepoTest, RepositoryIsClean) {
  const std::filesystem::path root(DIFFUSION_SOURCE_DIR);
  std::vector<std::string> roots;
  for (const char* sub : {"src", "bench", "tests", "examples"}) {
    roots.push_back((root / sub).string());
  }
  const std::vector<std::string> files = CollectSourceFiles(roots);
  ASSERT_GT(files.size(), 100u) << "source tree not found under " << root;

  std::vector<std::string> rendered;
  for (const std::string& file : files) {
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(LintFile(file, &diags)) << file;
    for (const Diagnostic& d : diags) {
      rendered.push_back(Render(d));
    }
  }
  EXPECT_TRUE(rendered.empty()) << [&rendered] {
    std::string joined;
    for (const std::string& line : rendered) {
      joined += line + "\n";
    }
    return joined;
  }();
}

}  // namespace
}  // namespace lint
}  // namespace diffusion
