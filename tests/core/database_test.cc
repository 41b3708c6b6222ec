#include "core/database.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "ast/builder.h"
#include "common/trace.h"
#include "testutil.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests
using testing::ReferenceClosure;
using testing::ToPairSet;

TEST(Database, DefinitionErrors) {
  Database db;
  ASSERT_TRUE(db.DefineRelationType(
                    "t", Schema({{"x", ValueType::kInt}}))
                  .ok());
  EXPECT_EQ(db.DefineRelationType("t", Schema({{"x", ValueType::kInt}}))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.CreateRelation("R", "nosuch").code(), StatusCode::kNotFound);
  ASSERT_TRUE(db.CreateRelation("R", "t").ok());
  EXPECT_EQ(db.CreateRelation("R", "t").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db.Insert("S", Tuple({Value::Int(1)})).code(),
            StatusCode::kNotFound);
}

TEST(Database, FailedConstructorGroupRollsBack) {
  Database db;
  ASSERT_TRUE(db.DefineRelationType(
                    "edge", Schema({{"src", ValueType::kInt},
                                    {"dst", ValueType::kInt}}))
                  .ok());
  auto good = std::make_shared<ConstructorDecl>(
      "good", FormalRelation{"Rel", "edge"}, std::vector<FormalRelation>{},
      std::vector<FormalScalar>{}, "edge",
      Union({IdentityBranch("r", Rel("Rel"), True())}));
  auto bad = std::make_shared<ConstructorDecl>(
      "bad", FormalRelation{"Rel", "edge"}, std::vector<FormalRelation>{},
      std::vector<FormalScalar>{}, "nosuchtype",
      Union({IdentityBranch("r", Rel("Rel"), True())}));
  EXPECT_FALSE(db.DefineConstructorGroup({good, bad}).ok());
  // Neither name survives the rollback.
  EXPECT_FALSE(db.catalog().LookupConstructor("good").ok());
  EXPECT_FALSE(db.catalog().LookupConstructor("bad").ok());
  // The good one can be re-defined alone.
  EXPECT_TRUE(db.DefineConstructor(good).ok());
}

TEST(Database, AssignEnforcesKey) {
  Database db;
  ASSERT_TRUE(db.DefineRelationType(
                    "keyed", Schema({{"part", ValueType::kString},
                                     {"w", ValueType::kInt}},
                                    {0}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation("Objects", "keyed").ok());
  ASSERT_TRUE(
      db.Insert("Objects", Tuple({Value::String("old"), Value::Int(0)})).ok());

  Relation value(Schema({{"part", ValueType::kString}, {"w", ValueType::kInt}}));
  ASSERT_TRUE(value.Insert(Tuple({Value::String("a"), Value::Int(1)})).ok());
  ASSERT_TRUE(value.Insert(Tuple({Value::String("a"), Value::Int(2)})).ok());
  // The assignment target's key rejects the pair; the old value survives.
  EXPECT_EQ(db.Assign("Objects", value).code(), StatusCode::kKeyViolation);
  EXPECT_EQ(db.GetRelation("Objects").value()->size(), 1u);
  EXPECT_TRUE(db.GetRelation("Objects")
                  .value()
                  ->Contains(Tuple({Value::String("old"), Value::Int(0)})));

  Relation fine(Schema({{"part", ValueType::kString}, {"w", ValueType::kInt}}));
  ASSERT_TRUE(fine.Insert(Tuple({Value::String("b"), Value::Int(1)})).ok());
  EXPECT_TRUE(db.Assign("Objects", fine).ok());
  EXPECT_EQ(db.GetRelation("Objects").value()->size(), 1u);
}

TEST(Database, EvalRangePlainAndSelected) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  Result<Relation> plain = db.EvalRange(Rel("g_E"));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->size(), 3u);

  auto sel = std::make_shared<SelectorDecl>(
      "from", FormalRelation{"Rel", "g_edgerel"},
      std::vector<FormalScalar>{{"n", ValueType::kInt}}, "r",
      Eq(FieldRef("r", "src"), Param("n")));
  ASSERT_TRUE(db.DefineSelector(sel).ok());
  Result<Relation> selected =
      db.EvalRange(Selected(Rel("g_E"), "from", {Int(1)}));
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 1u);
}

class CaptureEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CaptureEquivalenceTest, CaptureOnAndOffAgree) {
  workload::EdgeList g =
      workload::RandomDigraph(12, 26, static_cast<uint64_t>(GetParam()));
  std::set<std::pair<int, int>> expected = ReferenceClosure(g);
  for (bool capture : {false, true}) {
    DatabaseOptions options;
    options.use_capture_rules = capture;
    Database db(options);
    ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
    Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(ToPairSet(*r), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CaptureEquivalenceTest,
                         ::testing::Range(0, 6));

TEST(Database, PreparedQuerySeededExecution) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(12)).ok());
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("v", "src"), Param("start")))});
  Result<PreparedQuery> prepared =
      db.Prepare(query, {{"start", ValueType::kInt}});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_NE(prepared->plan_description().find("seeded transitive closure"),
            std::string::npos);

  Result<Relation> from0 = prepared->Execute({{"start", Value::Int(0)}});
  ASSERT_TRUE(from0.ok()) << from0.status().ToString();
  EXPECT_EQ(from0->size(), 11u);

  Result<Relation> from8 = prepared->Execute({{"start", Value::Int(8)}});
  ASSERT_TRUE(from8.ok());
  EXPECT_EQ(from8->size(), 3u);
}

/// The record fields a seeded-closure query fills, as one comparable line.
std::string SeededRecord(const EvaluationRecord& r) {
  const EvalStats& s = r.stats;
  return "rounds=" + std::to_string(s.iterations) +
         " considered=" + std::to_string(s.tuples_considered) +
         " inserted=" + std::to_string(s.tuples_inserted) +
         " outer=" + std::to_string(s.outer_tuples) +
         " index_builds=" + std::to_string(s.index_builds) +
         " index_probes=" + std::to_string(s.index_probes) +
         " specialized=" + std::to_string(s.specialized_branches) +
         " pruned=" + std::to_string(s.seed_tuples_pruned) +
         " materialized=" + std::to_string(r.tuples_materialized) +
         " approx_bytes=" + std::to_string(r.approx_bytes) +
         " peak_delta=" + std::to_string(r.peak_delta_tuples);
}

TEST(Database, SeededPlansKeepTheirRecord) {
  // A seeded plan installs the closure of its seed as the application's
  // relation, then evaluates the query like any other. Tuples and record
  // are pinned for a literal and a parameter seed, over an identity query
  // and a join with the edges, ad hoc and prepared. A parameter seed has
  // no ad hoc form; each form runs twice, so the prepared ones also run
  // reused. Capture rules off must give the same tuples.
  struct Case {
    const char* name;
    bool join;
    bool param;
    bool prepared;
    const char* record;
  };
  constexpr const char* kIdentity =
      "rounds=0 considered=8 inserted=8 outer=8 index_builds=0 "
      "index_probes=0 specialized=0 pruned=0 materialized=8 "
      "approx_bytes=576 peak_delta=8";
  constexpr const char* kJoin =
      "rounds=0 considered=7 inserted=7 outer=8 index_builds=1 "
      "index_probes=8 specialized=0 pruned=0 materialized=8 "
      "approx_bytes=576 peak_delta=8";
  const Case kCases[] = {
      {"identity, literal, ad hoc", false, false, false, kIdentity},
      {"identity, literal, prepared", false, false, true, kIdentity},
      {"identity, parameter, prepared", false, true, true, kIdentity},
      {"join, literal, ad hoc", true, false, false, kJoin},
      {"join, literal, prepared", true, false, true, kJoin},
      {"join, parameter, prepared", true, true, true, kJoin},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    TermPtr seed = c.param ? Param("start") : Int(3);
    CalcExprPtr query =
        c.join ? Union({MakeBranch(
                     {FieldRef("v", "src"), FieldRef("w", "dst")},
                     {Each("v", Constructed(Rel("g_E"), "g_tc")),
                      Each("w", Rel("g_E"))},
                     And({Eq(FieldRef("v", "src"), seed),
                          Eq(FieldRef("v", "dst"), FieldRef("w", "src"))}))})
               : Union({IdentityBranch("v", Constructed(Rel("g_E"), "g_tc"),
                                       Eq(FieldRef("v", "src"), seed))});
    // Chain(12) reaches 4..11 from 3; the join steps one edge further.
    std::set<std::pair<int, int>> expected;
    for (int dst = c.join ? 5 : 4; dst <= 11; ++dst) expected.emplace(3, dst);
    std::map<std::string, ValueType> placeholders;
    std::map<std::string, Value> args;
    if (c.param) {
      placeholders["start"] = ValueType::kInt;
      args["start"] = Value::Int(3);
    }
    for (bool capture : {true, false}) {
      DatabaseOptions options;
      options.use_capture_rules = capture;
      Database db(options);
      ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(12)).ok());
      Result<PreparedQuery> prepared = db.Prepare(query, placeholders);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      const bool seeded =
          prepared->plan_description().rfind("seeded transitive", 0) == 0;
      EXPECT_EQ(seeded, capture);
      for (int run = 0; run < 2; ++run) {
        Result<Relation> r =
            c.prepared ? prepared->Execute(args) : db.EvalQuery(query);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(ToPairSet(*r), expected) << "capture " << capture;
        if (capture) {
          EXPECT_EQ(SeededRecord(db.last_record()), c.record) << "run " << run;
        }
      }
    }
  }
}

TEST(Database, SeededClosureNeverAnswersFullQueries) {
  // With the cache on, a seeded closure (the capture rule's partial form)
  // is never stored or looked up: full queries keep getting the complete
  // closure before and after it, whichever runs first, and the seeded
  // query reports no cache outcome at all.
  const workload::EdgeList chain = workload::Chain(12);
  const std::set<std::pair<int, int>> full = ReferenceClosure(chain);
  std::set<std::pair<int, int>> seeded;
  for (int dst = 4; dst <= 11; ++dst) seeded.emplace(3, dst);
  CalcExprPtr seeded_query =
      Union({IdentityBranch("v", Constructed(Rel("g_E"), "g_tc"),
                            Eq(FieldRef("v", "src"), Int(3)))});
  for (bool seeded_first : {false, true}) {
    SCOPED_TRACE(seeded_first ? "seeded, full, seeded" : "full, seeded, full");
    Database db;
    ASSERT_TRUE(db.options().cache);
    ASSERT_TRUE(workload::SetupClosure(&db, "g", chain).ok());
    for (int step = 0; step < 3; ++step) {
      const bool seeded_step = (step % 2 == 0) == seeded_first;
      Result<Relation> r = seeded_step
                               ? db.EvalQuery(seeded_query)
                               : db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const EvaluationRecord& record = db.last_record();
      if (seeded_step) {
        EXPECT_EQ(ToPairSet(*r), seeded) << "step " << step;
        EXPECT_EQ(record.cache_hits, 0u) << "step " << step;
        EXPECT_EQ(record.cache_misses, 0u) << "step " << step;
        EXPECT_EQ(record.cache_delta_hits, 0u) << "step " << step;
      } else {
        EXPECT_EQ(ToPairSet(*r), full) << "step " << step;
        // The full closure's own entry serves its second run.
        EXPECT_EQ(record.cache_hits, step == 2 ? 1u : 0u) << "step " << step;
      }
    }
  }
}

TEST(Database, SeededProfileShowsTheCaptureComponent) {
  // The profile EXPLAIN ANALYZE renders: a seeded query's closure is the
  // capture component of the one component loop, with its counters.
  Database db;
  db.options().eval.profile = true;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(12)).ok());
  Result<Relation> r = db.EvalQuery(
      Union({IdentityBranch("v", Constructed(Rel("g_E"), "g_tc"),
                            Eq(FieldRef("v", "src"), Int(3)))}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(db.last_profile(), nullptr);
  const ProfileNode* capture = db.last_profile()->Find(
      "capture [g_E {g_tc}] (seeded transitive closure)");
  ASSERT_NE(capture, nullptr) << db.last_profile()->ToText();
  EXPECT_EQ(capture->counters().Get("closure_tuples"), 8);
  EXPECT_EQ(capture->counters().Get("edge_tuples"), 11);
}

TEST(Database, SeededClosureIsHandedOffNotReinserted) {
  // Every tuple of a seeded closure starts with the seed, so the query's
  // `v.src = seed` branch would copy the closure unchanged: the evaluator
  // hands the closure over instead, with no `branch` execution under the
  // query's `query branches` span, for a literal or a parameter seed in
  // either orientation. Without capture rules nothing is seeded and the
  // branch runs.
  TraceRecorder& rec = TraceRecorder::Global();
  std::set<std::pair<int, int>> expected;
  for (int dst = 4; dst <= 11; ++dst) expected.emplace(3, dst);
  for (bool capture : {true, false}) {
    for (bool param : {false, true}) {
      for (bool flip : {false, true}) {
        SCOPED_TRACE(std::string(capture ? "capture" : "no capture") +
                     (param ? ", parameter" : ", literal") +
                     (flip ? ", seed = v.src" : ", v.src = seed"));
        TermPtr seed = param ? Param("start") : Int(3);
        TermPtr field = FieldRef("v", "src");
        CalcExprPtr query = Union({IdentityBranch(
            "v", Constructed(Rel("g_E"), "g_tc"),
            flip ? Eq(seed, field) : Eq(field, seed))});
        std::map<std::string, ValueType> placeholders;
        std::map<std::string, Value> args;
        if (param) {
          placeholders["start"] = ValueType::kInt;
          args["start"] = Value::Int(3);
        }
        DatabaseOptions options;
        options.use_capture_rules = capture;
        Database db(options);
        ASSERT_TRUE(
            workload::SetupClosure(&db, "g", workload::Chain(12)).ok());
        Result<PreparedQuery> prepared = db.Prepare(query, placeholders);
        ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
        rec.Clear();
        rec.Enable(true);
        Result<Relation> r = prepared->Execute(args);
        rec.Enable(false);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(ToPairSet(*r), expected);
        const std::vector<TraceEvent> events = rec.Snapshot().events;
        rec.Clear();
        const TraceEvent* query_span = nullptr;
        for (const TraceEvent& e : events) {
          if (e.name == "query branches") query_span = &e;
        }
        ASSERT_NE(query_span, nullptr);
        size_t branches = 0;
        for (const TraceEvent& e : events) {
          if (e.name == "branch" && e.tid == query_span->tid &&
              e.start_ns >= query_span->start_ns &&
              e.start_ns <= query_span->start_ns + query_span->dur_ns) {
            ++branches;
          }
        }
        EXPECT_EQ(branches, capture ? 0u : 1u);
      }
    }
  }
}

TEST(Database, EvaluationsShareOneWorkerPool) {
  // Every evaluation of a database fans out onto the database's one pool:
  // over several evaluations, the threads that run chunks are at most the
  // pool's four workers plus the caller, which helps while it waits. (A
  // pool per evaluation would bring four new threads each time.) Which of
  // them runs a given chunk is up to the scheduler. A changed THREADS
  // replaces the pool.
  TraceRecorder& rec = TraceRecorder::Global();
  DatabaseOptions options;
  options.use_capture_rules = false;  // semi-naive rounds fan out
  options.cache = false;
  options.eval.exec.num_threads = 4;
  Database db(options);
  ASSERT_TRUE(workload::SetupClosure(&db, "g",
                                     workload::RandomDigraph(48, 160, 11))
                  .ok());
  // The chunk-span threads and the fan-out widths of one evaluation.
  auto evaluate = [&](std::set<uint32_t>* tids, std::set<int64_t>* widths) {
    rec.Clear();
    rec.Enable(true);
    Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
    rec.Enable(false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const TraceEvent& e : rec.Snapshot().events) {
      if (e.name == "chunk") tids->insert(e.tid);
      if (e.name != "fanout") continue;
      for (const TraceArg& a : e.args) {
        if (std::string(a.key) == "threads") widths->insert(a.int_value);
      }
    }
  };
  std::set<uint32_t> tids, narrowed_tids;
  std::set<int64_t> widths, narrowed;
  for (int run = 0; run < 6; ++run) evaluate(&tids, &widths);
  EXPECT_FALSE(tids.empty());
  EXPECT_LE(tids.size(), 4u + 1u);
  EXPECT_EQ(widths, std::set<int64_t>{4});
  db.options().eval.exec.num_threads = 2;
  evaluate(&narrowed_tids, &narrowed);
  rec.Clear();
  EXPECT_EQ(narrowed, std::set<int64_t>{2});
}

TEST(Database, PreparedQueryParameterValidation) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("v", "src"), Param("start")))});
  Result<PreparedQuery> prepared =
      db.Prepare(query, {{"start", ValueType::kInt}});
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->Execute({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(prepared->Execute({{"start", Value::String("x")}})
                .status()
                .code(),
            StatusCode::kTypeError);
  EXPECT_EQ(prepared
                ->Execute({{"start", Value::Int(0)},
                           {"extra", Value::Int(1)}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Database, PreparedQueryGeneralFallback) {
  // A query over the full closure (no source binding) prepares to the
  // general plan and still executes correctly.
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(5)).ok());
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("g_E"), "g_tc"), True())});
  Result<PreparedQuery> prepared = db.Prepare(query, {});
  ASSERT_TRUE(prepared.ok());
  Result<Relation> all = prepared->Execute({});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 10u);
}

TEST(Database, SeededQueryWithLiteralUsesCapturePath) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(64)).ok());
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("v", "src"), Int(60)))});
  Result<Relation> r = db.EvalQuery(query);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  // The seeded path never materializes the full closure: it considers only
  // tuples reachable from the seed.
  EXPECT_LE(db.last_stats().tuples_considered, 10u);
}

TEST(Database, ExplainReportsStrategyAndPartitions) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  Result<std::string> text = db.Explain(Constructed(Rel("g_E"), "g_tc"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("level 1"), std::string::npos);
  EXPECT_NE(text->find("g_E {g_tc}"), std::string::npos);
  EXPECT_NE(text->find("capture rule"), std::string::npos);

  db.options().use_capture_rules = false;
  text = db.Explain(Constructed(Rel("g_E"), "g_tc"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("semi-naive fixpoint"), std::string::npos);
}

TEST(Database, ExplainPlainRange) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(3)).ok());
  Result<std::string> text = db.Explain(Rel("g_E"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("plain range"), std::string::npos);
}

TEST(Database, StratifiedNegationExtension) {
  // NOT over a *different* (lower-stratum) constructed relation: rejected
  // by strict DBPL, accepted by the stratified extension.
  auto build_db = [](bool stratified) {
    DatabaseOptions options;
    options.allow_stratified_negation = stratified;
    auto db = std::make_unique<Database>(options);
    EXPECT_TRUE(workload::SetupClosure(db.get(), "g",
                                       workload::Chain(5))
                    .ok());
    // unreachable = {<f.src, b.dst> | f, b in E, NOT <f.src, b.dst> in
    // E{g_tc}} — pairs NOT connected.
    auto body = Union({MakeBranch(
        {FieldRef("f", "src"), FieldRef("b", "dst")},
        {Each("f", Rel("Rel")), Each("b", Rel("Rel"))},
        Not(In({FieldRef("f", "src"), FieldRef("b", "dst")},
               Constructed(Rel("Rel"), "g_tc"))))});
    auto decl = std::make_shared<ConstructorDecl>(
        "unreachable", FormalRelation{"Rel", "g_edgerel"},
        std::vector<FormalRelation>{}, std::vector<FormalScalar>{},
        "g_edgerel", body);
    return std::make_pair(std::move(db), decl);
  };

  {
    auto [db, decl] = build_db(false);
    EXPECT_EQ(db->DefineConstructor(decl).code(),
              StatusCode::kPositivityViolation);
  }
  {
    auto [db, decl] = build_db(true);
    ASSERT_TRUE(db->DefineConstructor(decl).ok());
    Result<Relation> r =
        db->EvalRange(Constructed(Rel("g_E"), "unreachable"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Pairs (f.src, b.dst) over chain edges f,b with src not connected to
    // dst. f.src in {0..3}, b.dst in {1..4}; connected iff src < dst.
    for (const Tuple& t : r->tuples()) {
      EXPECT_GE(t.value(0).AsInt(), t.value(1).AsInt());
    }
    EXPECT_FALSE(r->empty());
  }
}

TEST(Database, StratifiedExtensionStillRejectsRecursiveNegation) {
  DatabaseOptions options;
  options.allow_stratified_negation = true;
  Database db(options);
  ASSERT_TRUE(db.DefineRelationType(
                    "t", Schema({{"x", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation("R", "t").ok());
  ASSERT_TRUE(db.Insert("R", Tuple({Value::Int(1)})).ok());
  // nonsense-style self-negation: definition is accepted (no strict
  // check), but query compilation detects the unstratifiable cycle.
  auto body = Union({IdentityBranch(
      "r", Rel("Rel"),
      Not(In({FieldRef("r", "x")}, Constructed(Rel("Rel"), "selfneg"))))});
  auto decl = std::make_shared<ConstructorDecl>(
      "selfneg", FormalRelation{"Rel", "t"}, std::vector<FormalRelation>{},
      std::vector<FormalScalar>{}, "t", body);
  ASSERT_TRUE(db.DefineConstructor(decl).ok());
  Result<Relation> r = db.EvalRange(Constructed(Rel("R"), "selfneg"));
  EXPECT_EQ(r.status().code(), StatusCode::kPositivityViolation);
}

TEST(Database, EvalQueryAsChecksSchema) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(3)).ok());
  CalcExprPtr query = Union({IdentityBranch("v", Rel("g_E"), True())});
  Schema wrong({{"x", ValueType::kString}});
  EXPECT_FALSE(db.EvalQueryAs(query, wrong).ok());
  Schema right({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  EXPECT_TRUE(db.EvalQueryAs(query, right).ok());
}

TEST(Database, LastStatsPopulated) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(6)).ok());
  db.options().use_capture_rules = false;
  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  EXPECT_GT(db.last_stats().iterations, 0u);
  EXPECT_GT(db.last_stats().tuples_considered, 0u);
}

}  // namespace
}  // namespace datacon
