// Differential testing over randomly generated positive constructor
// systems: for each seed, a random family of (possibly mutually) recursive
// binary constructors is defined, then evaluated several ways —
//
//   * semi-naive bottom-up (the default engine),
//   * naive bottom-up (the paper's REPEAT loop),
//   * with capture rules alone, and with capture rules and inlining,
//   * top-down tabled SLD over the Horn translation (section 3.4), on the
//     first kTopDownSeeds seeds (proof search dominates the run time),
//
// and all results must agree tuple-for-tuple. A second check runs bound,
// joined and quantified queries over each system with index probes on and
// off, serial and fanned out; a third reuses prepared forms across many
// executions and an insert against ad-hoc queries; a fourth runs the
// seeded closure forms (literal and parameter) between full closure
// queries under capture, cache and THREADS settings. This is the strongest
// check in the suite: any soundness or completeness bug in instantiation,
// differential evaluation, translation, or tabling shows up as a mismatch.

#include <gtest/gtest.h>

#include <random>

#include "ast/builder.h"
#include "core/database.h"
#include "lang/interpreter.h"
#include "prolog/sld.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

/// Builds `k` random constructors c0..c{k-1} over a shared binary base.
/// Each has the identity branch plus 1-2 join branches against a random
/// constructor (possibly itself or a later one — mutual recursion), with a
/// random join orientation and projection.
Status DefineRandomSystem(Database* db, int k, std::mt19937_64* rng) {
  DATACON_RETURN_IF_ERROR(db->DefineRelationType(
      "edge",
      Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}})));
  DATACON_RETURN_IF_ERROR(db->CreateRelation("E", "edge"));

  std::uniform_int_distribution<int> pick_ctor(0, k - 1);
  std::uniform_int_distribution<int> pick_bool(0, 1);
  std::uniform_int_distribution<int> pick_branches(1, 2);

  std::vector<ConstructorDeclPtr> decls;
  for (int i = 0; i < k; ++i) {
    std::vector<BranchPtr> branches;
    branches.push_back(IdentityBranch("r", Rel("Rel"), True()));
    int extra = pick_branches(*rng);
    for (int b = 0; b < extra; ++b) {
      std::string other = "c";
      other += std::to_string(pick_ctor(*rng));
      // Join field orientation: f.<jf> = q.<jq>.
      std::string jf = pick_bool(*rng) ? "src" : "dst";
      std::string jq = pick_bool(*rng) ? "src" : "dst";
      // Projection: one field from each side, random choice.
      std::string tf = pick_bool(*rng) ? "src" : "dst";
      std::string tq = pick_bool(*rng) ? "src" : "dst";
      branches.push_back(MakeBranch(
          {FieldRef("f", tf), FieldRef("q", tq)},
          {Each("f", Rel("Rel")),
           Each("q", Constructed(Rel("Rel"), other))},
          Eq(FieldRef("f", jf), FieldRef("q", jq))));
    }
    // Appended rather than `"c" + std::to_string(i)`, on which GCC 12
    // raises a false -Wrestrict in Release builds.
    decls.push_back(std::make_shared<ConstructorDecl>(
        std::string("c").append(std::to_string(i)),
        FormalRelation{"Rel", "edge"},
        std::vector<FormalRelation>{}, std::vector<FormalScalar>{}, "edge",
        Union(std::move(branches))));
  }
  return db->DefineConstructorGroup(decls);
}

/// Seeds below this bound also run top-down tabled SLD.
constexpr int kTopDownSeeds = 10;

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, AllEnginesAgree) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  const int k = 2;

  // Small dense-ish graph keeps the fixpoints interesting but bounded.
  workload::EdgeList g = workload::RandomDigraph(5, 7, GetParam() * 31 + 7);

  struct Config {
    const char* name;
    FixpointStrategy strategy;
    bool capture;
    bool inline_nonrecursive;
  };
  const Config configs[] = {
      {"semi-naive", FixpointStrategy::kSemiNaive, false, false},
      {"naive", FixpointStrategy::kNaive, false, false},
      {"semi-naive+capture", FixpointStrategy::kSemiNaive, true, false},
      {"semi-naive+opt", FixpointStrategy::kSemiNaive, true, true},
  };

  for (int target = 0; target < k; ++target) {
    std::string ctor = "c";
    ctor += std::to_string(target);
    RangePtr range = Constructed(Rel("E"), ctor);
    std::optional<Relation> reference;
    for (const Config& config : configs) {
      std::mt19937_64 fresh(static_cast<uint64_t>(GetParam()));
      DatabaseOptions options;
      options.eval.strategy = config.strategy;
      options.use_capture_rules = config.capture;
      options.inline_nonrecursive = config.inline_nonrecursive;
      Database db(options);
      ASSERT_TRUE(DefineRandomSystem(&db, k, &fresh).ok());
      ASSERT_TRUE(workload::LoadEdges(&db, "E", g).ok());

      Result<Relation> result = db.EvalRange(range);
      ASSERT_TRUE(result.ok())
          << config.name << ": " << result.status().ToString();
      if (!reference.has_value()) {
        reference = std::move(result).value();
      } else {
        EXPECT_TRUE(reference->SameTuples(result.value()))
            << "engine " << config.name << " disagrees on c" << target
            << " (seed " << GetParam() << ")";
      }
    }

    if (GetParam() >= kTopDownSeeds) continue;
    // Top-down tabled SLD over the Horn translation must agree too.
    // Random mutual programs can blow up proof search combinatorially (the
    // paper's point!), so the check runs under a resolution budget and the
    // comparison is skipped — never failed — when the budget trips.
    std::mt19937_64 fresh(static_cast<uint64_t>(GetParam()));
    Database db;
    ASSERT_TRUE(DefineRandomSystem(&db, k, &fresh).ok());
    ASSERT_TRUE(workload::LoadEdges(&db, "E", g).ok());
    SldOptions sld;
    sld.tabling = true;
    sld.max_steps = 200000;
    Result<Relation> top_down =
        EvaluateRangeTopDown(db.catalog(), range, sld);
    if (top_down.status().code() == StatusCode::kDivergence) {
      continue;  // proof search exceeded its budget; bottom-up checks stand
    }
    ASSERT_TRUE(top_down.ok()) << top_down.status().ToString();
    EXPECT_TRUE(reference->SameTuples(top_down.value()))
        << "top-down disagrees on c" << target << " (seed " << GetParam()
        << ")";
  }
}

TEST_P(RandomProgramTest, ProbesAgreeWithScans) {
  // The index probe sites — inner join levels, level 0 over the catalog
  // relation E, SOME quantifiers over E — against the same system with
  // every probe turned into a scan, serial and fanned out.
  const int k = 2;
  workload::EdgeList g = workload::RandomDigraph(5, 7, GetParam() * 31 + 7);
  std::mt19937_64 pick(static_cast<uint64_t>(GetParam()) ^ 0x5eedULL);
  const std::string node = std::to_string(pick() % 5);
  const std::string ctor = std::string("c").append(std::to_string(pick() % k));
  const std::vector<std::string> queries = {
      "QUERY E {c0};",
      "QUERY E {c1};",
      "QUERY {EACH v IN E {" + ctor + "}: v.src = " + node + "};",
      "QUERY {EACH e IN E: e.src = " + node + "};",
      "QUERY {<e.src, f.dst> OF EACH e IN E, EACH f IN E: e.dst = " + node +
          " AND f.src = e.dst};",
      "QUERY {EACH e IN E: NOT SOME f IN E (f.src = e.dst)};",
      "QUERY {EACH e IN E: SOME f IN E (f.dst # e.src AND e.dst = f.src)};",
      "QUERY {EACH e IN E: SOME q IN E {" + ctor +
          "} (q.src = e.dst AND q.dst = " + node + ")};",
  };
  std::optional<std::vector<std::string>> reference;
  for (bool hash : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::mt19937_64 fresh(static_cast<uint64_t>(GetParam()));
      DatabaseOptions options;
      options.eval.exec.use_hash_joins = hash;
      options.eval.exec.num_threads = threads;
      options.eval.exec.min_parallel_tuples = 1;
      Database db(options);
      ASSERT_TRUE(DefineRandomSystem(&db, k, &fresh).ok());
      ASSERT_TRUE(workload::LoadEdges(&db, "E", g).ok());
      Interpreter interp(&db);
      std::vector<std::string> results;
      for (const std::string& q : queries) {
        Status status = interp.Execute(q);
        ASSERT_TRUE(status.ok()) << q << ": " << status.ToString();
        results.push_back(interp.results().back().relation.ToString());
      }
      if (!reference.has_value()) {
        reference = std::move(results);
      } else {
        EXPECT_EQ(results, *reference)
            << (hash ? "probes" : "scans") << " threads=" << threads
            << " (seed " << GetParam() << ")";
      }
    }
  }
}

TEST_P(RandomProgramTest, PreparedProgramsAgreeAcrossReuse) {
  // One prepared form per constructor, executed over every start node, in
  // two rounds with an insert between them: each execution answers like
  // the ad-hoc query with the start as a literal, and each form's program
  // is compiled once (data changes never invalidate it).
  const int k = 2;
  workload::EdgeList g = workload::RandomDigraph(5, 7, GetParam() * 31 + 7);
  for (FixpointStrategy strategy :
       {FixpointStrategy::kSemiNaive, FixpointStrategy::kNaive}) {
    for (bool capture : {false, true}) {
      std::mt19937_64 fresh(static_cast<uint64_t>(GetParam()));
      DatabaseOptions options;
      options.eval.strategy = strategy;
      options.use_capture_rules = capture;
      Database db(options);
      ASSERT_TRUE(DefineRandomSystem(&db, k, &fresh).ok());
      ASSERT_TRUE(workload::LoadEdges(&db, "E", g).ok());
      auto form = [](int target, TermPtr start) {
        return Union({IdentityBranch(
            "v", Constructed(Rel("E"), std::string("c").append(
                                           std::to_string(target))),
            Eq(FieldRef("v", "src"), std::move(start)))});
      };
      std::vector<PreparedQuery> prepared;
      for (int target = 0; target < k; ++target) {
        Result<PreparedQuery> p = db.Prepare(form(target, Param("start")),
                                             {{"start", ValueType::kInt}});
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        prepared.push_back(std::move(p).value());
      }
      Counter* compilations =
          db.metrics().GetCounter("prepared.compilations");
      const int64_t before = compilations->value();
      for (int round = 0; round < 2; ++round) {
        for (int start = 0; start < 5; ++start) {
          for (int target = 0; target < k; ++target) {
            Result<Relation> got =
                prepared[static_cast<size_t>(target)].Execute(
                    {{"start", Value::Int(start)}});
            Result<Relation> want = db.EvalQuery(form(target, Int(start)));
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_TRUE(want.ok()) << want.status().ToString();
            EXPECT_TRUE(got->SameTuples(*want))
                << "c" << target << " from " << start << " round " << round
                << " capture=" << capture << " (seed " << GetParam() << ")";
          }
        }
        ASSERT_TRUE(
            db.Insert("E", Tuple({Value::Int(round), Value::Int(4 - round)}))
                .ok());
      }
      EXPECT_EQ(compilations->value() - before, k);
    }
  }
}

TEST_P(RandomProgramTest, SeededFormsAgreeAcrossKnobs) {
  // The seeded closure forms — a literal start ad hoc, a parameter start
  // prepared — interleaved with full closure queries over a random graph
  // (a seeded query first, so a cached partial closure would show): every
  // combination of capture on/off, cache on/off and THREADS 1/4 gives the
  // same answers. With capture on the seeded plan runs; full queries must
  // never be answered from a seeded closure.
  workload::EdgeList g = workload::RandomDigraph(6, 9, GetParam() * 17 + 3);
  auto seeded_form = [](TermPtr start) {
    return Union({IdentityBranch("v", Constructed(Rel("g_E"), "g_tc"),
                                 Eq(FieldRef("v", "src"), std::move(start)))});
  };
  std::optional<std::vector<std::string>> reference;
  for (bool capture : {false, true}) {
    for (bool cache : {false, true}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        DatabaseOptions options;
        options.use_capture_rules = capture;
        options.cache = cache;
        options.eval.exec.num_threads = threads;
        options.eval.exec.min_parallel_tuples = 1;
        Database db(options);
        ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
        Result<PreparedQuery> prepared = db.Prepare(
            seeded_form(Param("start")), {{"start", ValueType::kInt}});
        ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
        const bool seeded =
            prepared->plan_description().rfind("seeded transitive", 0) == 0;
        EXPECT_EQ(seeded, capture);
        std::vector<std::string> results;
        auto keep = [&](const Result<Relation>& r) {
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          results.push_back(r->ToString());
        };
        for (int start = 0; start < 6; ++start) {
          keep(db.EvalQuery(seeded_form(Int(start))));
          keep(db.EvalRange(Constructed(Rel("g_E"), "g_tc")));
          keep(prepared->Execute({{"start", Value::Int(start)}}));
        }
        if (!reference.has_value()) {
          reference = std::move(results);
        } else {
          EXPECT_EQ(results, *reference)
              << "capture=" << capture << " cache=" << cache
              << " threads=" << threads << " (seed " << GetParam() << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 200));

}  // namespace
}  // namespace datacon
