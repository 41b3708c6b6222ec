// Pinned end-to-end guarantee of the materialization cache: evaluation
// with PRAGMA CACHE = ON must produce bit-identical query results and
// deterministic EvalStats to CACHE = OFF — reuse may only skip work,
// never change answers or reported logical counters. Also pins the
// counter semantics (hit / delta-maintenance / invalidation / eviction)
// against the live Database + Interpreter stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ast/builder.h"
#include "core/database.h"
#include "lang/interpreter.h"
#include "workload/generators.h"

namespace datacon {
namespace {

/// Canonical form of a relation: sorted tuple renderings.
std::vector<std::string> Canonical(const Relation& rel) {
  std::vector<std::string> out;
  for (const Tuple& t : rel.tuples()) {
    std::string row;
    for (const Value& v : t.values()) row += v.ToString() + "|";
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The deterministic EvalStats fields as one comparable string (the two
/// execution-detail fields legitimately vary with scheduling and are
/// excluded, mirroring ProfileNode::CounterDigest).
std::string StatsDigest(const EvalStats& s) {
  return "iterations=" + std::to_string(s.iterations) +
         " considered=" + std::to_string(s.tuples_considered) +
         " inserted=" + std::to_string(s.tuples_inserted) +
         " outer=" + std::to_string(s.outer_tuples) +
         " specialized=" + std::to_string(s.specialized_branches) +
         " pruned=" + std::to_string(s.seed_tuples_pruned);
}

struct RunOutcome {
  std::vector<std::vector<std::string>> results;
  std::string last_stats_digest;
};

/// Executes `source` from scratch with the cache on or off and
/// canonicalizes every QUERY result.
RunOutcome RunScript(const std::string& source, bool cache,
                     bool use_capture_rules = true) {
  DatabaseOptions options;
  options.cache = cache;
  options.use_capture_rules = use_capture_rules;
  Database db(options);
  Interpreter interp(&db);
  Status s = interp.Execute(source);
  EXPECT_TRUE(s.ok()) << s.ToString();
  RunOutcome outcome;
  for (const Interpreter::QueryResult& r : interp.results()) {
    outcome.results.push_back(Canonical(r.relation));
  }
  outcome.last_stats_digest = StatsDigest(db.last_stats());
  return outcome;
}

/// The recursive `ahead` closure over a six-tuple Infront chain — the
/// standard workload of the ON/OFF and counter tests.
constexpr const char* kAheadProgram = R"(
TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <f.front, b.tail> OF EACH f IN Rel,
      EACH b IN Rel {ahead}: f.back = b.head
END ahead;

INSERT INTO Infront <"vase", "table">, <"table", "chair">, <"chair", "wall">;
INSERT INTO Infront <"lamp", "desk">, <"desk", "rug">, <"rug", "floor">;

QUERY Infront {ahead};
)";

TEST(CacheSemantics, EveryExampleProgramIsBitIdentical) {
  const std::filesystem::path dir(DATACON_EXAMPLES_DIR);
  size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dbpl") continue;
    ++examples;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    RunOutcome on = RunScript(buffer.str(), /*cache=*/true);
    RunOutcome off = RunScript(buffer.str(), /*cache=*/false);
    EXPECT_EQ(on.results, off.results) << entry.path();
    EXPECT_EQ(on.last_stats_digest, off.last_stats_digest) << entry.path();
  }
  // The corpus exists and was actually exercised.
  EXPECT_GE(examples, 5u);
}

TEST(CacheSemantics, ExamplesAlsoMatchWithoutCaptureRules) {
  // The capture rule answers closure-shaped components by FullClosure;
  // turning it off drives every example through the generic fixpoints on
  // the same cached component path. Either way the answers are the same.
  const std::filesystem::path dir(DATACON_EXAMPLES_DIR);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dbpl") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    RunOutcome on =
        RunScript(buffer.str(), /*cache=*/true, /*use_capture_rules=*/false);
    RunOutcome off =
        RunScript(buffer.str(), /*cache=*/false, /*use_capture_rules=*/false);
    EXPECT_EQ(on.results, off.results) << entry.path();
    EXPECT_EQ(on.last_stats_digest, off.last_stats_digest) << entry.path();
    RunOutcome captured = RunScript(buffer.str(), /*cache=*/true);
    EXPECT_EQ(captured.results, on.results) << entry.path();
  }
}

TEST(CacheSemantics, RepeatQueryIsAHitWithReplayedStats) {
  DatabaseOptions options;
  options.use_capture_rules = false;  // exercise the component cache path
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  std::string cold_digest = StatsDigest(db.last_stats());
  ASSERT_EQ(db.mat_cache().stats().hits, 0);
  EXPECT_GE(db.mat_cache().stats().misses, 1);

  ASSERT_TRUE(interp.Execute("QUERY Infront {ahead};").ok());
  EXPECT_EQ(db.mat_cache().stats().hits, 1);
  EXPECT_EQ(db.last_record().cache_hits, 1u);
  ASSERT_EQ(interp.results().size(), 2u);
  EXPECT_EQ(Canonical(interp.results()[0].relation),
            Canonical(interp.results()[1].relation));
  // The hit replays the cold run's logical counters verbatim.
  EXPECT_EQ(StatsDigest(db.last_stats()), cold_digest);
}

TEST(CacheSemantics, CaptureClosuresAreCachedToo) {
  Database db;  // capture rules on (default)
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  EXPECT_EQ(db.last_record().cache_misses, 1u);
  ASSERT_TRUE(interp.Execute("QUERY Infront {ahead};").ok());
  EXPECT_EQ(db.mat_cache().stats().hits, 1);
  EXPECT_EQ(db.last_record().cache_hits, 1u);
  EXPECT_EQ(db.last_record().cache_misses, 0u);
  ASSERT_EQ(interp.results().size(), 2u);
  EXPECT_EQ(Canonical(interp.results()[0].relation),
            Canonical(interp.results()[1].relation));

  // A captured closure is never delta-maintained: insert churn makes the
  // next query a miss that recomputes the closure.
  const char* churn =
      "INSERT INTO Infront <\"wall\", \"door\">;\n"
      "QUERY Infront {ahead};\n";
  ASSERT_TRUE(interp.Execute(churn).ok());
  EXPECT_EQ(db.last_record().cache_misses, 1u);
  EXPECT_EQ(db.last_record().cache_hits, 0u);
  EXPECT_EQ(db.last_record().cache_delta_hits, 0u);
  EXPECT_EQ(db.mat_cache().stats().delta_maintained, 0);
  RunOutcome cold =
      RunScript(std::string(kAheadProgram) + churn, /*cache=*/false);
  ASSERT_EQ(interp.results().size(), 3u);
  EXPECT_EQ(Canonical(interp.results()[2].relation), cold.results.back());
}

TEST(CacheSemantics, InsertChurnIsDeltaMaintainedAndMatchesRecompute) {
  DatabaseOptions options;
  options.use_capture_rules = false;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());

  // Insert-only churn: extend the vase chain past the wall.
  const char* churn =
      "INSERT INTO Infront <\"wall\", \"door\">;\n"
      "QUERY Infront {ahead};\n";
  ASSERT_TRUE(interp.Execute(churn).ok());
  EXPECT_EQ(db.mat_cache().stats().delta_maintained, 1);
  EXPECT_EQ(db.mat_cache().stats().hits, 0);
  EXPECT_EQ(db.last_record().cache_delta_hits, 1u);

  // The maintained result is bit-identical to a cold full recompute.
  RunOutcome cold = RunScript(std::string(kAheadProgram) + churn,
                              /*cache=*/false, /*use_capture_rules=*/false);
  ASSERT_EQ(interp.results().size(), 2u);
  EXPECT_EQ(Canonical(interp.results()[1].relation), cold.results.back());

  // And the refreshed entry serves the next repeat as a plain hit.
  ASSERT_TRUE(interp.Execute("QUERY Infront {ahead};").ok());
  EXPECT_EQ(db.mat_cache().stats().hits, 1);
  EXPECT_EQ(Canonical(interp.results()[2].relation), cold.results.back());
}

/// One insert-only maintenance shape: a program ending in a QUERY, and an
/// insert-only churn ending in the same QUERY.
struct MaintenanceCase {
  const char* name;
  const char* program;
  const char* churn;
};

constexpr MaintenanceCase kMaintenanceCases[] = {
    {"non-linear recursion (two recursive bindings)", R"(
TYPE t = RELATION OF RECORD a, b: INTEGER END;
VAR E: t;
CONSTRUCTOR tc2 FOR Rel: t (): t;
BEGIN EACH r IN Rel: TRUE,
      <x.a, y.b> OF EACH x IN Rel {tc2}, EACH y IN Rel {tc2}: x.b = y.a
END tc2;
INSERT INTO E <1, 2>, <2, 3>, <3, 4>, <4, 5>, <5, 6>;
QUERY E {tc2};
)",
     "INSERT INTO E <6, 7>, <7, 8>, <0, 1>;\nQUERY E {tc2};\n"},
    {"two occurrences of the changed base in a recursive branch", R"(
TYPE t = RELATION OF RECORD p, c: INTEGER END;
TYPE s = RELATION OF RECORD x, y: INTEGER END;
VAR Par: t;
CONSTRUCTOR sg FOR Rel: t (): s;
BEGIN <p1.c, p2.c> OF EACH p1 IN Rel, EACH p2 IN Rel: p1.p = p2.p,
      <p1.c, p2.c> OF EACH p1 IN Rel, EACH q IN Rel {sg}, EACH p2 IN Rel:
        p1.p = q.x AND p2.p = q.y
END sg;
INSERT INTO Par <1, 2>, <1, 3>, <2, 4>, <2, 5>, <3, 6>, <3, 7>, <4, 8>;
QUERY Par {sg};
)",
     "INSERT INTO Par <5, 10>, <7, 11>, <6, 9>;\nQUERY Par {sg};\n"},
    {"base binding with a trailing selector", R"(
TYPE t = RELATION OF RECORD a, b: INTEGER END;
VAR E: t;
SELECTOR small (K: INTEGER) FOR Rel: t;
BEGIN EACH r IN Rel: r.a < K END small;
CONSTRUCTOR tcs FOR Rel: t (): t;
BEGIN EACH r IN Rel [small(50)]: TRUE,
      <f.a, b.b> OF EACH f IN Rel [small(50)], EACH b IN Rel {tcs}:
        f.b = b.a
END tcs;
INSERT INTO E <1, 2>, <2, 3>, <3, 4>, <45, 46>, <60, 61>;
QUERY E {tcs};
)",
     "INSERT INTO E <4, 5>, <46, 47>, <0, 1>, <61, 62>;\nQUERY E {tcs};\n"},
    {"predicate quantifying over the changed base", R"(
TYPE t = RELATION OF RECORD a, b: INTEGER END;
VAR E: t;
VAR Mark: t;
CONSTRUCTOR qc FOR Rel: t (): t;
BEGIN EACH r IN Rel: TRUE,
      <f.a, b.b> OF EACH f IN Rel, EACH b IN Rel {qc}:
        f.b = b.a AND SOME z IN Mark (z.a = f.a)
END qc;
INSERT INTO E <1, 2>, <2, 3>, <3, 4>, <4, 5>;
INSERT INTO Mark <1, 0>;
QUERY E {qc};
)",
     "INSERT INTO Mark <2, 0>;\nINSERT INTO E <5, 6>;\nQUERY E {qc};\n"},
    {"mutually recursive component", R"(
TYPE t = RELATION OF RECORD a, b: INTEGER END;
VAR E: t;
VAR F: t;
CONSTRUCTOR ev FOR Rel: t (Other: t): t;
BEGIN EACH r IN Rel: TRUE,
      <f.a, b.b> OF EACH f IN Rel, EACH b IN Other {od(Rel)}: f.b = b.a
END ev;
CONSTRUCTOR od FOR Rel: t (Other: t): t;
BEGIN EACH r IN Rel: TRUE,
      <f.a, b.b> OF EACH f IN Rel, EACH b IN Other {ev(Rel)}: f.b = b.a
END od;
INSERT INTO E <1, 2>, <3, 4>;
INSERT INTO F <2, 3>, <4, 5>;
QUERY E {ev(F)};
)",
     "INSERT INTO E <5, 6>;\nINSERT INTO F <6, 7>;\nQUERY E {ev(F)};\n"},
};

TEST(CacheSemantics, InsertOnlyMaintenanceCoversEveryRewriteShape) {
  for (const MaintenanceCase& c : kMaintenanceCases) {
    SCOPED_TRACE(c.name);
    DatabaseOptions options;
    options.use_capture_rules = false;
    Database db(options);
    Interpreter interp(&db);
    ASSERT_TRUE(interp.Execute(c.program).ok());
    Status s = interp.Execute(c.churn);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(db.last_record().cache_delta_hits, 1u);
    EXPECT_EQ(db.last_record().cache_misses, 0u);

    RunOutcome cold = RunScript(std::string(c.program) + c.churn,
                                /*cache=*/false, /*use_capture_rules=*/false);
    ASSERT_EQ(interp.results().size(), 2u);
    EXPECT_EQ(Canonical(interp.results()[1].relation), cold.results.back());
    // The churn must have grown the result, or maintenance proved nothing.
    EXPECT_NE(cold.results.back(), cold.results.front());
  }
}

TEST(CacheSemantics, EraseChurnInvalidatesAndRecomputes) {
  DatabaseOptions options;
  options.use_capture_rules = false;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());

  Relation* infront = db.GetMutableRelation("Infront").value();
  ASSERT_TRUE(infront->Erase(
      Tuple({Value::String("chair"), Value::String("wall")})));

  ASSERT_TRUE(interp.Execute("QUERY Infront {ahead};").ok());
  EXPECT_GE(db.mat_cache().stats().invalidations, 1);
  EXPECT_EQ(db.mat_cache().stats().delta_maintained, 0);
  EXPECT_EQ(db.mat_cache().stats().hits, 0);

  // The recomputed answer reflects the erase (chair/wall pairs gone).
  RunOutcome cold = RunScript(
      "TYPE parttype = STRING;\n"
      "TYPE infrontrel = RELATION OF RECORD front, back: parttype END;\n"
      "TYPE aheadrel = RELATION OF RECORD head, tail: parttype END;\n"
      "VAR Infront: infrontrel;\n"
      "CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;\n"
      "BEGIN EACH r IN Rel: TRUE,\n"
      "      <f.front, b.tail> OF EACH f IN Rel,\n"
      "      EACH b IN Rel {ahead}: f.back = b.head\n"
      "END ahead;\n"
      "INSERT INTO Infront <\"vase\", \"table\">, <\"table\", \"chair\">;\n"
      "INSERT INTO Infront <\"lamp\", \"desk\">, <\"desk\", \"rug\">,\n"
      "                    <\"rug\", \"floor\">;\n"
      "QUERY Infront {ahead};\n",
      /*cache=*/false, /*use_capture_rules=*/false);
  ASSERT_EQ(interp.results().size(), 2u);
  EXPECT_EQ(Canonical(interp.results()[1].relation), cold.results.back());
}

TEST(CacheSemantics, PragmaCacheOffBypassesTheCache) {
  DatabaseOptions options;
  options.use_capture_rules = false;
  options.cache = false;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  ASSERT_TRUE(interp.Execute("QUERY Infront {ahead};").ok());
  EXPECT_EQ(db.mat_cache().stats().hits, 0);
  EXPECT_EQ(db.mat_cache().stats().misses, 0);
  EXPECT_EQ(db.mat_cache().size(), 0u);

  // PRAGMA CACHE = ON starts filling it; the same pragma contract as the
  // other toggles (only 0/1 accepted).
  ASSERT_TRUE(interp
                  .Execute("PRAGMA CACHE = ON;\n"
                           "QUERY Infront {ahead};\n"
                           "QUERY Infront {ahead};")
                  .ok());
  EXPECT_EQ(db.mat_cache().stats().hits, 1);
  EXPECT_EQ(interp.Execute("PRAGMA CACHE = 2;").code(),
            StatusCode::kInvalidArgument);
  // A negative capacity is rejected upstream (the pragma grammar only
  // admits non-negative literals).
  EXPECT_FALSE(interp.Execute("PRAGMA CACHE_CAPACITY = -1;").ok());
}

TEST(CacheSemantics, CapacityOneAlternationEvictsLru) {
  DatabaseOptions options;
  options.use_capture_rules = false;
  options.cache_capacity = 1;
  Database db(options);
  Interpreter interp(&db);
  // Two distinct closures alternate through a one-entry cache: every
  // lookup misses and each insert evicts the other entry.
  std::string program(kAheadProgram);
  program +=
      "CONSTRUCTOR behind FOR Rel: infrontrel (): aheadrel;\n"
      "BEGIN EACH r IN Rel: TRUE,\n"
      "      <f.front, b.tail> OF EACH f IN Rel,\n"
      "      EACH b IN Rel {behind}: f.back = b.head\n"
      "END behind;\n"
      "QUERY Infront {behind};\n"
      "QUERY Infront {ahead};\n"
      "QUERY Infront {behind};\n";
  ASSERT_TRUE(interp.Execute(program).ok());
  EXPECT_EQ(db.mat_cache().size(), 1u);
  EXPECT_EQ(db.mat_cache().stats().hits, 0);
  EXPECT_GE(db.mat_cache().stats().evictions, 3);

  // Raising the capacity stops the thrash: both closures now fit. The
  // surviving "behind" entry hits immediately; "ahead" refills once and
  // hits thereafter.
  ASSERT_TRUE(interp
                  .Execute("PRAGMA CACHE_CAPACITY = 8;\n"
                           "QUERY Infront {ahead};\n"
                           "QUERY Infront {behind};\n"
                           "QUERY Infront {ahead};\n"
                           "QUERY Infront {behind};")
                  .ok());
  EXPECT_EQ(db.mat_cache().stats().hits, 3);
  EXPECT_EQ(db.mat_cache().size(), 2u);
}

TEST(CacheSemantics, ExplainAnalyzeReportsCacheCounters) {
  DatabaseOptions options;
  options.use_capture_rules = false;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("EXPLAIN ANALYZE Infront {ahead};").ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("cache: 1 hit(s), 0 miss(es)"), std::string::npos)
      << text;
}

TEST(CacheSemantics, PreparedQueriesBypassTheCache) {
  // Parameterized executions must not read or pollute entries — the
  // cached state is keyed on unparameterized component shapes only.
  using namespace build;  // NOLINT: terse AST construction
  DatabaseOptions options;
  options.use_capture_rules = false;
  Database db(options);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(6)).ok());
  CalcExprPtr form = Union({IdentityBranch(
      "r", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("r", "src"), Param("p")))});
  Result<PreparedQuery> prepared = db.Prepare(form, {{"p", ValueType::kInt}});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Execute({{"p", Value::Int(0)}}).ok());
  ASSERT_TRUE(prepared->Execute({{"p", Value::Int(3)}}).ok());
  EXPECT_EQ(db.mat_cache().size(), 0u);
  EXPECT_EQ(db.mat_cache().stats().hits, 0);
  EXPECT_EQ(db.mat_cache().stats().misses, 0);
}

}  // namespace
}  // namespace datacon
