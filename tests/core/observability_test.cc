// Regression tests for the per-query observability layer: slow-query log
// feeding, profile retention across statements (the last_profile()
// clobbering fix), metrics histograms, the pinned invariant that tracing
// never perturbs logical evaluation statistics, and the agreement of every
// surface that renders the per-query record.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ast/builder.h"
#include "common/eventlog.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/database.h"
#include "lang/interpreter.h"
#include "testutil.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

TEST(SlowQueryLogFeed, EvaluationsAreRecordedWithDigest) {
  Database db;  // threshold defaults to 0: everything is admitted
  workload::EdgeList g = workload::RandomDigraph(16, 40, 3);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());

  Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::vector<SlowQueryLog::Entry> entries = db.slow_query_log().Entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_NE(entries[0].statement.find("g_tc"), std::string::npos);
  EXPECT_GT(entries[0].elapsed_ns, 0);
  EXPECT_NE(entries[0].digest.find("inserted="), std::string::npos);
}

TEST(SlowQueryLogFeed, ZeroCapacityDisablesTheLog) {
  DatabaseOptions options;
  options.slow_query_log_capacity = 0;
  Database db(options);
  workload::EdgeList g = workload::RandomDigraph(16, 40, 3);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  EXPECT_TRUE(db.slow_query_log().Entries().empty());
}

TEST(SlowQueryLogFeed, ThresholdSuppressesFastQueries) {
  Database db;
  db.slow_query_log().set_threshold_ns(int64_t{3600} * 1'000'000'000);
  workload::EdgeList g = workload::RandomDigraph(16, 40, 3);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  // Nothing takes an hour; the log must stay empty.
  EXPECT_TRUE(db.slow_query_log().Entries().empty());
}

TEST(ProfileRetention, EarlierProfilesSurviveLaterStatements) {
  Database db;
  db.options().eval.profile = true;
  workload::EdgeList g = workload::RandomDigraph(16, 40, 3);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());

  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  int64_t first_index = db.last_eval_index();
  const ProfileNode* first = db.profile_at(first_index);
  ASSERT_NE(first, nullptr);
  std::string first_digest = first->CounterDigest();

  // Before the fix, the next evaluation clobbered the only retained
  // profile; the pointer obtained for statement i must stay valid and
  // unchanged while later statements run.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  }
  EXPECT_GT(db.last_eval_index(), first_index);
  ASSERT_EQ(db.profile_at(first_index), first);
  EXPECT_EQ(first->CounterDigest(), first_digest);
  // last_profile() tracks the most recent evaluation, not the first.
  EXPECT_EQ(db.last_profile(), db.profile_at(db.last_eval_index()));
  EXPECT_NE(db.last_profile(), nullptr);
}

TEST(ProfileRetention, EvictsBeyondTheRetentionBound) {
  Database db;
  db.options().eval.profile = true;
  workload::EdgeList g = workload::RandomDigraph(8, 16, 7);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());

  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  int64_t first_index = db.last_eval_index();
  for (size_t i = 0; i < Database::kRetainedProfiles; ++i) {
    ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  }
  EXPECT_EQ(db.profile_at(first_index), nullptr);
  EXPECT_NE(db.last_profile(), nullptr);
}

TEST(ProfileRetention, NoProfileRecordedWhenProfilingOff) {
  Database db;
  db.options().eval.profile = false;
  workload::EdgeList g = workload::RandomDigraph(8, 16, 7);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  EXPECT_EQ(db.last_profile(), nullptr);
}

TEST(MetricsFeed, QueryLatencyHistogramGrowsPerEvaluation) {
  // The registry is per-database, so a fresh database starts from zero —
  // no cross-test "count the delta" dance is needed anymore.
  Database db;
  Histogram* latency = db.metrics().GetHistogram("query.latency_ns");
  Histogram* rounds = db.metrics().GetHistogram("query.fixpoint_rounds");
  EXPECT_EQ(latency->count(), 0);
  EXPECT_EQ(rounds->count(), 0);

  workload::EdgeList g = workload::RandomDigraph(16, 40, 3);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());

  EXPECT_EQ(latency->count(), 2);
  EXPECT_EQ(rounds->count(), 2);
  EXPECT_GT(latency->Percentile(0.5), 0);
}

/// The scoping acceptance test: two databases evaluated concurrently from
/// separate threads report fully disjoint metrics — neither sees the
/// other's queries (run under TSan in check.sh).
TEST(MetricsFeed, ConcurrentDatabasesReportDisjointMetrics) {
  workload::EdgeList g = workload::RandomDigraph(24, 64, 5);
  constexpr int kQueriesA = 3;
  constexpr int kQueriesB = 5;
  Database a, b;
  ASSERT_TRUE(workload::SetupClosure(&a, "g", g).ok());
  ASSERT_TRUE(workload::SetupClosure(&b, "g", g).ok());

  auto run = [&g](Database* db, int queries) {
    for (int i = 0; i < queries; ++i) {
      ASSERT_TRUE(db->EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
    }
  };
  std::thread ta(run, &a, kQueriesA);
  std::thread tb(run, &b, kQueriesB);
  ta.join();
  tb.join();

  EXPECT_EQ(a.metrics().GetHistogram("query.latency_ns")->count(), kQueriesA);
  EXPECT_EQ(b.metrics().GetHistogram("query.latency_ns")->count(), kQueriesB);
  // Cache counters are scoped the same way (both ran the same workload, so
  // a's counts depend only on a's own queries).
  EXPECT_EQ(a.metrics().GetCounter("cache.misses")->value() +
                a.metrics().GetCounter("cache.hits")->value(),
            kQueriesA);
  EXPECT_EQ(b.metrics().GetCounter("cache.misses")->value() +
                b.metrics().GetCounter("cache.hits")->value(),
            kQueriesB);
}

/// Destruction retires a database's metrics into the process aggregator.
TEST(MetricsFeed, DestructionMergesIntoProcessMetrics) {
  int64_t before = ProcessMetrics().GetHistogram("query.latency_ns")->count();
  {
    Database db;
    workload::EdgeList g = workload::RandomDigraph(8, 16, 7);
    ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
    ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
    // Not merged yet while the database is alive.
    EXPECT_EQ(ProcessMetrics().GetHistogram("query.latency_ns")->count(),
              before);
  }
  EXPECT_EQ(ProcessMetrics().GetHistogram("query.latency_ns")->count(),
            before + 1);
}

/// The pinned invariant: with tracing ON, logical evaluation statistics
/// and results are bit-identical at 1 and 8 threads — instrumentation must
/// never feed logical counters or perturb the merge order.
TEST(TraceNeutrality, StatsBitIdenticalAcrossThreadCountsWithTracingOn) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.Enable(true);

  workload::EdgeList g = workload::RandomDigraph(48, 160, 11);
  EvalStats stats_1, stats_8;
  Relation result_1, result_8;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Database db;
    ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
    db.options().eval.exec.num_threads = threads;
    Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (threads == 1) {
      stats_1 = db.last_stats();
      result_1 = *r;
    } else {
      stats_8 = db.last_stats();
      result_8 = *r;
    }
  }
  rec.Enable(false);
  EXPECT_GT(rec.EventCount(), 0u);  // tracing actually recorded
  rec.Clear();

  EXPECT_EQ(result_1.SortedTuples(), result_8.SortedTuples());
  EXPECT_EQ(stats_1.iterations, stats_8.iterations);
  EXPECT_EQ(stats_1.tuples_considered, stats_8.tuples_considered);
  EXPECT_EQ(stats_1.tuples_inserted, stats_8.tuples_inserted);
}

/// Tracing ON vs OFF must also leave the stats untouched.
TEST(TraceNeutrality, StatsIdenticalWithTracingOnAndOff) {
  workload::EdgeList g = workload::RandomDigraph(32, 96, 9);
  EvalStats stats_off, stats_on;
  TraceRecorder& rec = TraceRecorder::Global();
  for (bool trace : {false, true}) {
    rec.Clear();
    rec.Enable(trace);
    Database db;
    ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
    Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    (trace ? stats_on : stats_off) = db.last_stats();
  }
  rec.Enable(false);
  rec.Clear();
  EXPECT_EQ(stats_off.iterations, stats_on.iterations);
  EXPECT_EQ(stats_off.tuples_considered, stats_on.tuples_considered);
  EXPECT_EQ(stats_off.tuples_inserted, stats_on.tuples_inserted);
}


using Counts = std::map<std::string, int64_t>;

/// The integer fields of a structured event.
Counts EventCounts(const Event& e) {
  Counts out;
  for (const EventField& f : e.fields) {
    if (f.is_int) out[f.key] = f.int_value;
  }
  return out;
}

/// The integer arguments of a trace span.
Counts SpanCounts(const TraceEvent& e) {
  Counts out;
  for (const TraceArg& a : e.args) {
    if (a.is_int) out[a.key] = a.int_value;
  }
  return out;
}

/// The `label=N` pairs of a slow-log digest's two counter lines (the
/// profile tree that may follow them is skipped).
Counts DigestCounts(const std::string& digest) {
  Counts out;
  std::istringstream lines(digest);
  std::string line;
  for (int i = 0; i < 2 && std::getline(lines, line); ++i) {
    std::istringstream words(line);
    std::string word;
    while (words >> word) {
      size_t eq = word.find('=');
      if (eq == std::string::npos) continue;
      out[word.substr(0, eq)] = std::stoll(word.substr(eq + 1));
    }
  }
  return out;
}

/// The slow-log entries in admission order.
std::vector<SlowQueryLog::Entry> EntriesByAdmission(const Database& db) {
  std::vector<SlowQueryLog::Entry> entries = db.slow_query_log().Entries();
  std::sort(entries.begin(), entries.end(),
            [](const SlowQueryLog::Entry& a, const SlowQueryLog::Entry& b) {
              return a.sequence < b.sequence;
            });
  return entries;
}

/// The query.finish events in emission order.
std::vector<Counts> QueryFinishes(const Database& db) {
  std::vector<Counts> out;
  for (const Event& e : db.events().Events()) {
    if (e.type == "query.finish") out.push_back(EventCounts(e));
  }
  return out;
}

/// Every counter of `record` against a query.finish event's fields.
void ExpectRecordMatches(const EvaluationRecord& record, const Counts& finish,
                         const std::string& where) {
  EXPECT_EQ(finish.at("eval_index"), record.eval_index) << where;
  EXPECT_EQ(finish.at("ok"), record.ok ? 1 : 0) << where;
  EXPECT_EQ(finish.at("elapsed_ns"), record.elapsed_ns) << where;
  for (const QueryField& f : kQueryFields) {
    EXPECT_EQ(finish.at(f.key), static_cast<int64_t>(f.Of(record)))
        << where << " field " << f.key;
  }
}

/// A query that fails still reports the work it did. The closure of
/// Chain(40) needs dozens of semi-naive rounds; a budget of 5 fails the
/// sixth, which is counted.
TEST(QueryRecordFeed, FailedQueryReportsItsWork) {
  DatabaseOptions options;
  options.cache = false;
  options.use_capture_rules = false;
  options.events = true;
  options.eval.max_iterations = 5;
  Database db(options);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(40)).ok());

  Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
  ASSERT_EQ(r.status().code(), StatusCode::kDivergence);

  EXPECT_EQ(db.last_stats().iterations, 6u);
  EXPECT_EQ(db.last_record().stats.tuples_considered, 185u);
  EXPECT_FALSE(db.last_record().ok);

  std::vector<SlowQueryLog::Entry> entries = EntriesByAdmission(db);
  ASSERT_EQ(entries.size(), 1u);
  Counts digest = DigestCounts(entries[0].digest);
  EXPECT_EQ(digest.at("rounds"), 6) << entries[0].digest;
  EXPECT_EQ(digest.at("considered"), 185) << entries[0].digest;

  std::vector<Counts> finishes = QueryFinishes(db);
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(finishes[0].at("rounds"), 6);
  ExpectRecordMatches(db.last_record(), finishes[0], "divergence");

  EXPECT_EQ(db.metrics().GetHistogram("query.fixpoint_rounds")->sum(), 6);
}

constexpr const char* kClosureProgram = R"(
TYPE t = INTEGER;
TYPE edge = RELATION OF RECORD src, dst: t END;
VAR E: edge;
CONSTRUCTOR tc FOR Rel: edge (): edge;
BEGIN EACH r IN Rel: TRUE,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {tc}: f.dst = b.src
END tc;
INSERT INTO E <1, 2>, <2, 3>, <3, 4>;
)";

/// A capture-closure cache hit is one hit on every surface: the `cache:`
/// and `resources:` lines of EXPLAIN ANALYZE, the slow-log digest and the
/// record.
TEST(QueryRecordFeed, CaptureCacheHitReachesEverySurface) {
  Database db;  // capture rules and the cache are on by default
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kClosureProgram).ok());
  ASSERT_TRUE(interp.Execute("EXPLAIN ANALYZE E {tc};").ok());
  EXPECT_EQ(db.last_record().cache_misses, 1u);
  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("EXPLAIN ANALYZE E {tc};").ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("cache: 1 hit(s), 0 miss(es)\n"), std::string::npos)
      << text;
  const size_t resources = text.find("resources: peak_delta=");
  ASSERT_NE(resources, std::string::npos) << text;
  const std::string line =
      text.substr(resources, text.find('\n', resources) - resources);
  EXPECT_NE(line.find(" cache_hits=1 "), std::string::npos) << line;
  EXPECT_NE(line.find(" cache_misses=0"), std::string::npos) << line;

  std::vector<SlowQueryLog::Entry> entries = EntriesByAdmission(db);
  ASSERT_FALSE(entries.empty());
  Counts digest = DigestCounts(entries.back().digest);
  EXPECT_EQ(digest.at("cache_hits"), 1) << entries.back().digest;
  EXPECT_EQ(digest.at("cache_misses"), 0) << entries.back().digest;

  EXPECT_EQ(db.last_record().cache_hits, 1u);
  EXPECT_EQ(db.last_record().cache_delta_hits, 0u);
  EXPECT_EQ(db.last_record().cache_misses, 0u);
}

/// The one-record contract: for every evaluation of every example program
/// (PROFILE, EVENTS and TRACE on), query.finish, the `evaluate` span, the
/// slow-log digest and — for the last evaluation — last_record() report
/// the same value for every field of kQueryFields.
TEST(QueryRecordFeed, EverySurfaceAgreesOnTheExampleCorpus) {
  TraceRecorder& rec = TraceRecorder::Global();
  const std::filesystem::path dir(DATACON_EXAMPLES_DIR);
  size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dbpl") continue;
    ++examples;
    const std::string where = entry.path().filename().string();
    std::ifstream in(entry.path());
    std::ostringstream source;
    source << in.rdbuf();

    DatabaseOptions options;
    options.events = true;
    options.eval.profile = true;
    options.slow_query_log_capacity = 1 << 12;
    Database db(options);
    Interpreter interp(&db);
    rec.Clear();
    rec.Enable(true);
    Status status = interp.Execute(source.str());
    rec.Enable(false);
    ASSERT_TRUE(status.ok()) << where << ": " << status.ToString();

    std::map<int64_t, Counts> spans;
    for (const TraceEvent& e : rec.Snapshot().events) {
      if (e.name != "evaluate") continue;
      Counts args = SpanCounts(e);
      spans[args.at("eval_index")] = args;
    }
    rec.Clear();
    std::vector<Counts> finishes = QueryFinishes(db);
    std::vector<SlowQueryLog::Entry> entries = EntriesByAdmission(db);
    ASSERT_EQ(db.events().dropped(), 0u) << where;
    ASSERT_FALSE(finishes.empty()) << where;
    ASSERT_EQ(static_cast<int64_t>(finishes.size()), db.last_eval_index())
        << where;
    ASSERT_EQ(spans.size(), finishes.size()) << where;
    ASSERT_EQ(entries.size(), finishes.size()) << where;

    for (size_t i = 0; i < finishes.size(); ++i) {
      const Counts& finish = finishes[i];
      const std::string at = where + " eval " + std::to_string(i + 1);
      ASSERT_EQ(finish.at("eval_index"), static_cast<int64_t>(i + 1)) << at;
      const Counts& span = spans.at(finish.at("eval_index"));
      Counts digest = DigestCounts(entries[i].digest);
      EXPECT_EQ(span.at("ok"), finish.at("ok")) << at;
      EXPECT_EQ(entries[i].elapsed_ns, finish.at("elapsed_ns")) << at;
      for (const QueryField& f : kQueryFields) {
        EXPECT_EQ(span.at(f.key), finish.at(f.key)) << at << " " << f.key;
        EXPECT_EQ(digest.at(f.label), finish.at(f.key)) << at << " " << f.key;
      }
    }
    ExpectRecordMatches(db.last_record(), finishes.back(), where);
  }
  EXPECT_GE(examples, 5u);
}

}  // namespace
}  // namespace datacon
