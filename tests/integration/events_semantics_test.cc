// Pinned end-to-end guarantee of the structured event log: evaluation
// with PRAGMA EVENTS = ON must produce bit-identical query results and
// deterministic EvalStats to EVENTS = OFF — telemetry may only observe,
// never change answers or reported logical counters. Also pins the
// surface behaviour (PRAGMA EVENTS, SHOW EVENTS) and the per-query
// resource attribution against the live Database + Interpreter stack.

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

/// The deterministic EvalStats fields as one comparable string.
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
  std::string last_resources_digest;
};

/// Executes `source` from scratch with events on or off and canonicalizes
/// every QUERY result.
RunOutcome RunScript(const std::string& source, bool events) {
  DatabaseOptions options;
  options.events = events;
  Database db(options);
  Interpreter interp(&db);
  Status s = interp.Execute(source);
  EXPECT_TRUE(s.ok()) << s.ToString();
  RunOutcome outcome;
  for (const Interpreter::QueryResult& r : interp.results()) {
    outcome.results.push_back(Canonical(r.relation));
  }
  outcome.last_stats_digest = StatsDigest(db.last_stats());
  outcome.last_resources_digest =
      FieldsText(db.last_record(), /*resources=*/true);
  return outcome;
}

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

/// The overhead-neutrality acceptance test: every example program produces
/// bit-identical results, EvalStats, AND resource attribution with the
/// event log on vs off.
TEST(EventsSemantics, EveryExampleProgramIsBitIdentical) {
  const std::filesystem::path dir(DATACON_EXAMPLES_DIR);
  size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dbpl") continue;
    ++examples;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    RunOutcome on = RunScript(buffer.str(), /*events=*/true);
    RunOutcome off = RunScript(buffer.str(), /*events=*/false);
    EXPECT_EQ(on.results, off.results) << entry.path();
    EXPECT_EQ(on.last_stats_digest, off.last_stats_digest) << entry.path();
    EXPECT_EQ(on.last_resources_digest, off.last_resources_digest)
        << entry.path();
  }
  // The corpus exists and was actually exercised.
  EXPECT_GE(examples, 5u);
}

TEST(EventsSemantics, QueriesEmitStartAndFinishEvents) {
  DatabaseOptions options;
  options.events = true;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  std::vector<Event> events = db.events().Events();
  ASSERT_FALSE(events.empty());
  size_t starts = 0, finishes = 0;
  for (const Event& e : events) {
    if (e.type == "query.start") ++starts;
    if (e.type == "query.finish") ++finishes;
  }
  EXPECT_GE(starts, 1u);
  EXPECT_EQ(starts, finishes);
  // query.finish carries the resource attribution.
  for (const Event& e : events) {
    if (e.type != "query.finish") continue;
    bool has_materialized = false;
    for (const EventField& f : e.fields) {
      if (f.key == "materialized") has_materialized = true;
    }
    EXPECT_TRUE(has_materialized);
  }
}

TEST(EventsSemantics, PragmaTogglesAndShowEventsRenders) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  EXPECT_TRUE(db.events().Events().empty());  // off by default

  ASSERT_TRUE(interp.Execute("PRAGMA EVENTS = ON;\n"
                             "QUERY Infront {ahead};").ok());
  EXPECT_FALSE(db.events().Events().empty());
  EXPECT_EQ(interp.Execute("PRAGMA EVENTS = 2;").code(),
            StatusCode::kInvalidArgument);

  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("SHOW EVENTS;").ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("EVENTS:"), std::string::npos);
  EXPECT_NE(text.find("query.finish"), std::string::npos) << text;

  // OFF stops recording (retained events stay visible).
  size_t count = db.events().Events().size();
  ASSERT_TRUE(interp.Execute("PRAGMA EVENTS = OFF;\n"
                             "QUERY Infront {ahead};").ok());
  EXPECT_EQ(db.events().Events().size(), count);
}

TEST(EventsSemantics, CacheOutcomesAreAttributedPerQuery) {
  DatabaseOptions options;
  options.use_capture_rules = false;  // drive the component cache path
  options.events = true;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  // Cold run: the component cache missed.
  EXPECT_GE(db.last_record().cache_misses, 1u);
  EXPECT_EQ(db.last_record().cache_hits, 0u);
  EXPECT_GT(db.last_record().tuples_materialized, 0u);
  EXPECT_GT(db.last_record().approx_bytes, 0u);
  EXPECT_GT(db.last_record().peak_delta_tuples, 0u);

  // Repeat: a hit, visible in both the attribution and the event stream.
  ASSERT_TRUE(interp.Execute("QUERY Infront {ahead};").ok());
  EXPECT_GE(db.last_record().cache_hits, 1u);
  EXPECT_EQ(db.last_record().cache_misses, 0u);
  bool saw_cache_hit = false;
  for (const Event& e : db.events().Events()) {
    if (e.type == "cache.hit") saw_cache_hit = true;
  }
  EXPECT_TRUE(saw_cache_hit);
}

TEST(EventsSemantics, ConstraintViolationsEmitEvents) {
  DatabaseOptions options;
  options.events = true;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp
                  .Execute("TYPE edgerel = RELATION OF RECORD src, dst: "
                           "INTEGER END;\n"
                           "VAR Edge: edgerel;\n"
                           "CONSTRAINT no_self_loop DENY EACH p IN Edge: "
                           "p.src = p.dst;\n"
                           "INSERT INTO Edge <1, 2>;")
                  .ok());
  EXPECT_EQ(interp.Execute("INSERT INTO Edge <3, 3>;").code(),
            StatusCode::kConstraintViolation);
  bool saw_violation = false;
  for (const Event& e : db.events().Events()) {
    if (e.type != "constraint.violation") continue;
    saw_violation = true;
    bool has_name = false;
    for (const EventField& f : e.fields) {
      if (f.key == "name" && f.str_value == "no_self_loop") has_name = true;
    }
    EXPECT_TRUE(has_name);
  }
  EXPECT_TRUE(saw_violation);
}

TEST(EventsSemantics, ExplainAnalyzeReportsResources) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("EXPLAIN ANALYZE Infront {ahead};").ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("resources: peak_delta="), std::string::npos) << text;
  EXPECT_NE(text.find("approx_bytes="), std::string::npos) << text;
}

TEST(EventsSemantics, SlowLogEntriesCarryTimestampsAndResources) {
  Database db;  // threshold 0: everything is admitted
  workload::EdgeList g = workload::RandomDigraph(16, 40, 3);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
  using namespace build;  // NOLINT: terse AST construction
  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  std::vector<SlowQueryLog::Entry> entries = db.slow_query_log().Entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_GT(entries[0].wall_us, 0);
  EXPECT_GE(entries[0].steady_ns, 0);
  EXPECT_NE(entries[0].digest.find("peak_delta="), std::string::npos)
      << entries[0].digest;
  // SHOW SLOWLOG renders the wall-clock timestamp.
  std::string text = db.slow_query_log().ToText();
  EXPECT_NE(text.find("at 20"), std::string::npos) << text;
  EXPECT_NE(text.find("steady="), std::string::npos) << text;
}

/// Attribution is deterministic across thread counts (the same contract
/// EvalStats honours).
TEST(EventsSemantics, ResourceAttributionIsThreadCountInvariant) {
  using namespace build;  // NOLINT: terse AST construction
  workload::EdgeList g = workload::RandomDigraph(48, 160, 11);
  std::string resources_1, resources_8;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Database db;
    ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
    db.options().eval.exec.num_threads = threads;
    Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    (threads == 1 ? resources_1 : resources_8) =
        FieldsText(db.last_record(), /*resources=*/true);
  }
  EXPECT_EQ(resources_1, resources_8);
}

}  // namespace
}  // namespace datacon
