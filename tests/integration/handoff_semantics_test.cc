// The query result hand-off (SystemEvaluator::EvaluateExpr): a query that
// is a single identity branch over one materialized application,
// `QUERY R {c};`, returns the application's relation instead of
// re-inserting every tuple. Pinned against the explicit-target form
// `<r.a, r.b> OF EACH r IN R {c}: TRUE`, which never hands off: both forms
// must agree on answers, logical EvalStats and EXPLAIN ANALYZE logical
// counters at PRAGMA CACHE ON/OFF x THREADS 1/4. A result handed out of a
// shared cache entry must be the caller's own copy.

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ast/builder.h"
#include "common/metrics.h"
#include "core/database.h"
#include "lang/interpreter.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using Loader = std::function<void(Database*, Interpreter*)>;

/// Every logical EvalStats field (the execution-detail fan-out counters
/// legitimately differ between the forms at THREADS > 1).
std::string LogicalStats(const EvalStats& s) {
  return "iterations=" + std::to_string(s.iterations) +
         " considered=" + std::to_string(s.tuples_considered) +
         " inserted=" + std::to_string(s.tuples_inserted) +
         " outer=" + std::to_string(s.outer_tuples) +
         " index_builds=" + std::to_string(s.index_builds) +
         " index_probes=" + std::to_string(s.index_probes) +
         " specialized=" + std::to_string(s.specialized_branches) +
         " pruned=" + std::to_string(s.seed_tuples_pruned);
}

struct QueryOutcome {
  std::vector<Tuple> tuples;
  std::string stats;
  std::string profile;
  size_t chunks = 0;
};

/// Runs `setup` on a fresh database at the given cache and thread settings
/// (profiling on), then `query`, and captures what it reported.
QueryOutcome RunQuery(const Loader& setup, const std::string& query, bool cache,
                      int threads) {
  Database db;
  Interpreter interp(&db);
  Status s = interp.Execute(std::string("PRAGMA CACHE = ") +
                            (cache ? "ON" : "OFF") + "; PRAGMA THREADS = " +
                            std::to_string(threads) + "; PRAGMA PROFILE = ON;");
  EXPECT_TRUE(s.ok()) << s.ToString();
  setup(&db, &interp);
  const size_t before = interp.results().size();
  s = interp.Execute(query);
  EXPECT_TRUE(s.ok()) << query << ": " << s.ToString();
  QueryOutcome out;
  if (!s.ok() || interp.results().size() != before + 1) return out;
  out.tuples = interp.results().back().relation.SortedTuples();
  out.stats = LogicalStats(db.last_stats());
  out.chunks = db.last_stats().chunks_dispatched;
  const ProfileNode* profile = db.last_profile();
  EXPECT_NE(profile, nullptr);
  if (profile != nullptr) out.profile = profile->CounterDigest();
  return out;
}

/// `QUERY {<r.f1, ..., r.fn> OF EACH r IN <range>: TRUE};` over the field
/// names of the identity query's result.
std::string ExplicitForm(const Loader& setup, const std::string& range) {
  Database db;
  Interpreter interp(&db);
  setup(&db, &interp);
  Status s = interp.Execute("QUERY " + range + ";");
  EXPECT_TRUE(s.ok()) << range << ": " << s.ToString();
  if (!s.ok()) return "";
  std::string targets;
  for (const Field& f : interp.results().back().relation.schema().fields()) {
    if (!targets.empty()) targets += ", ";
    targets += "r." + f.name;
  }
  return "QUERY {<" + targets + "> OF EACH r IN " + range + ": TRUE};";
}

/// Checks the identity and explicit-target forms of `range` agree in every
/// configuration, and with the identity form at CACHE OFF, THREADS 1.
void ExpectFormsAgree(const Loader& setup, const std::string& range) {
  SCOPED_TRACE(range);
  const std::string identity = "QUERY " + range + ";";
  const std::string explicit_form = ExplicitForm(setup, range);
  ASSERT_FALSE(explicit_form.empty());
  const QueryOutcome reference = RunQuery(setup, identity, false, 1);
  for (bool cache : {false, true}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string("cache=") + (cache ? "on" : "off") +
                   " threads=" + std::to_string(threads));
      QueryOutcome handed = RunQuery(setup, identity, cache, threads);
      QueryOutcome executed = RunQuery(setup, explicit_form, cache, threads);
      EXPECT_EQ(handed.tuples, executed.tuples);
      EXPECT_EQ(handed.tuples, reference.tuples);
      EXPECT_EQ(handed.stats, executed.stats);
      EXPECT_EQ(handed.profile, executed.profile);
      // A handed-off query branch dispatches no chunks of its own; the
      // executed one fans out whenever its outer scan is large enough.
      EXPECT_LE(handed.chunks, executed.chunks);
    }
  }
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The range of a `QUERY R {c...};` line — a word, a space, one brace group
/// holding no '[' or '}', then ';' and trailing blanks — or "" for any other
/// line. (Hand-rolled: std::regex trips GCC 12's -Wmaybe-uninitialized under
/// the sanitizers.)
std::string ClosureQueryRange(const std::string& line) {
  const std::string prefix = "QUERY ";
  if (line.rfind(prefix, 0) != 0) return "";
  size_t i = prefix.size();
  while (i < line.size() &&
         (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
          line[i] == '_')) {
    ++i;
  }
  if (i == prefix.size() || line.compare(i, 2, " {") != 0) return "";
  const size_t close = line.find('}', i + 2);
  if (close == std::string::npos || line.find('[', i + 2) < close ||
      line.compare(close + 1, 1, ";") != 0) {
    return "";
  }
  for (size_t j = close + 2; j < line.size(); ++j) {
    if (std::isspace(static_cast<unsigned char>(line[j])) == 0) return "";
  }
  return line.substr(prefix.size(), close + 1 - prefix.size());
}

TEST(HandoffSemantics, ExampleClosuresMatchExplicitTargets) {
  // Every `QUERY R {c...};` of the example corpus, evaluated after the
  // example's definitions and updates (its own QUERY/EXPLAIN statements
  // dropped, so the forms under test run cold).
  size_t closures = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(DATACON_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".dbpl") continue;
    std::istringstream lines(ReadFile(entry.path()));
    std::string program;
    std::vector<std::string> ranges;
    for (std::string line; std::getline(lines, line);) {
      std::string range = ClosureQueryRange(line);
      if (!range.empty()) ranges.push_back(std::move(range));
      if (line.rfind("QUERY ", 0) == 0 || line.rfind("EXPLAIN ", 0) == 0) {
        continue;
      }
      program += line + "\n";
    }
    Loader setup = [&program](Database*, Interpreter* interp) {
      Status s = interp->Execute(program);
      EXPECT_TRUE(s.ok()) << s.ToString();
    };
    for (const std::string& range : ranges) {
      SCOPED_TRACE(entry.path().filename().string());
      ExpectFormsAgree(setup, range);
      ++closures;
    }
  }
  EXPECT_GE(closures, 5u);
}

/// The three analytic shapes of the end-to-end benchmark, scaled down:
/// a capture-rule closure over a random digraph, same-generation over a
/// binary-tree forest, and the mutually recursive ahead(Ontop) system.
void AnalyticShapes(Database* db, Interpreter* interp) {
  Status s = interp->Execute(R"(
TYPE edgerel = RELATION OF RECORD src, dst: INTEGER END;
TYPE uprel = RELATION OF RECORD child, parent: INTEGER END;
TYPE pairrel = RELATION OF RECORD x, y: INTEGER END;
VAR G: edgerel;
VAR Up: uprel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {tc}: f.dst = b.src
END tc;
CONSTRUCTOR sg FOR Rel: uprel (): pairrel;
BEGIN <u.child, v.child> OF EACH u IN Rel, EACH v IN Rel: u.parent = v.parent,
      <u.child, v.child> OF EACH u IN Rel, EACH s IN Rel {sg}, EACH v IN Rel:
        u.parent = s.x AND s.y = v.parent
END sg;
)");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(
      workload::LoadEdges(db, "G", workload::RandomDigraph(30, 60, 11)).ok());
  // Child -> parent edges of two binary trees of depth 4.
  const workload::EdgeList tree = workload::KaryTree(4, 2);
  for (int t = 0; t < 2; ++t) {
    const int offset = t * tree.node_count;
    for (const auto& [parent, child] : tree.edges) {
      ASSERT_TRUE(db->Insert("Up", Tuple({Value::Int(offset + child),
                                          Value::Int(offset + parent)}))
                      .ok());
    }
  }
  ASSERT_TRUE(workload::SetupCadScene(db, 24, 50, 50, 5).ok());
}

TEST(HandoffSemantics, AnalyticShapesMatchExplicitTargets) {
  for (const char* range : {"G {tc}", "Up {sg}", "Infront {ahead(Ontop)}"}) {
    ExpectFormsAgree(AnalyticShapes, range);
  }
}

TEST(HandoffSemantics, HandedOffBranchDispatchesNoChunks) {
  // The visible trace of the hand-off: at THREADS 4 the executed query
  // branch fans its outer scan out in chunks; the handed-off one does not
  // run, so a capture-rule closure (which has no fixpoint rounds either)
  // reports no chunks at all.
  const QueryOutcome handed =
      RunQuery(AnalyticShapes, "QUERY G {tc};", /*cache=*/false, 4);
  const QueryOutcome executed = RunQuery(
      AnalyticShapes, ExplicitForm(AnalyticShapes, "G {tc}"), false, 4);
  EXPECT_EQ(handed.tuples, executed.tuples);
  EXPECT_EQ(handed.chunks, 0u);
  EXPECT_GT(executed.chunks, 0u);
}

TEST(HandoffSemantics, MutatingAHandedOutResultLeavesTheCacheIntact) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute("PRAGMA CACHE = ON;").ok());
  AnalyticShapes(&db, &interp);
  for (const auto& [base, ctor] :
       std::vector<std::pair<std::string, std::string>>{{"G", "tc"},
                                                        {"Up", "sg"}}) {
    SCOPED_TRACE(ctor);
    RangePtr range = build::Constructed(build::Rel(base), ctor);
    Result<Relation> first = db.EvalRange(range);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::vector<Tuple> expected = first.value().SortedTuples();
    ASSERT_FALSE(expected.empty());
    const std::string stats = LogicalStats(db.last_stats());

    Relation& handed = first.value();
    handed.Clear();
    ASSERT_TRUE(handed.Insert(Tuple({Value::Int(-1), Value::Int(-1)})).ok());

    Result<Relation> again = db.EvalRange(range);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_GE(db.last_record().cache_hits, 1u);
    EXPECT_EQ(again.value().SortedTuples(), expected);
    EXPECT_EQ(LogicalStats(db.last_stats()), stats);
  }
}

}  // namespace
}  // namespace datacon
