// Experiment E4 — mutual recursion (section 3.1's ahead/above system).
//
// The mutually recursive constructors are evaluated as one simultaneous
// fixpoint over the application component {Infront{ahead(Ontop)},
// Ontop{above(Infront)}} (section 3.2). Sweeps the scene size and compares
// the paper's Jacobi loop (naive) against the differential engine.
//
// Expected shape: both converge in the same number of rounds; semi-naive
// does asymptotically less per-round work, so the gap widens with scene
// size.

#include <benchmark/benchmark.h>

#include "ast/builder.h"
#include "bench_util.h"
#include "core/database.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction
using bench::Must;
using bench::MustValue;

void RunMutual(benchmark::State& state, FixpointStrategy strategy) {
  const int objects = static_cast<int>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.eval.strategy = strategy;
  options.use_capture_rules = false;
  Database db(options);
  // Sparse facts: ~1.3 edges per object in each relation keeps recursion
  // depth interesting without quadratic blowup.
  Must(workload::SetupCadScene(&db, objects, (objects * 13) / 10,
                               (objects * 13) / 10, /*seed=*/42));
  RangePtr range = Constructed(Rel("Infront"), "ahead", {Rel("Ontop")});
  size_t size = 0;
  for (auto _ : state) {
    size = MustValue(db.EvalRange(range)).size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["ahead"] = static_cast<double>(size);
  state.counters["rounds"] = static_cast<double>(db.last_stats().iterations);
}

void BM_Mutual_Naive(benchmark::State& state) {
  RunMutual(state, FixpointStrategy::kNaive);
}
void BM_Mutual_SemiNaive(benchmark::State& state) {
  RunMutual(state, FixpointStrategy::kSemiNaive);
}

DATACON_BENCHMARK_COLD(BM_Mutual_Naive)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Mutual_SemiNaive)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Arg(160)
    ->Unit(benchmark::kMillisecond);

// The mutual system against a hand-merged single constructor computing the
// same `ahead` relation over the union graph — the rewriting the section
// 3.4 lemma uses ("mutual recursion can be replaced by a single fixed
// point operator"). Measures the overhead of keeping the system factored.
void BM_Mutual_MergedSingleConstructor(benchmark::State& state) {
  const int objects = static_cast<int>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;
  Database db(options);
  Must(workload::SetupCadScene(&db, objects, (objects * 13) / 10,
                               (objects * 13) / 10, /*seed=*/42));
  // merged FOR Rel: infrontrel (OT: ontoprel): aheadrel computes `ahead`
  // directly over the union: a pair extends through either relation.
  // reach = Infront ∪ {<r.front, q.tail> | r IN Infront, q IN reach-from-back}
  // Implemented as: merged = identity ∪ join with merged through Infront
  // steps ∪ join with merged through Ontop steps, where the Ontop steps
  // feed a second merged2 over Ontop — still two constructors, but with
  // result types unified to aheadrel so a single projection shape is used.
  Must(db.DefineConstructorGroup({
      std::make_shared<ConstructorDecl>(
          "reach_if", FormalRelation{"Rel", "infrontrel"},
          std::vector<FormalRelation>{{"OT", "ontoprel"}},
          std::vector<FormalScalar>{}, "aheadrel",
          Union({IdentityBranch("r", Rel("Rel"), True()),
                 MakeBranch({FieldRef("r", "front"), FieldRef("q", "tail")},
                            {Each("r", Rel("Rel")),
                             Each("q", Constructed(Rel("Rel"), "reach_if",
                                                   {Rel("OT")}))},
                            Eq(FieldRef("r", "back"), FieldRef("q", "head"))),
                 MakeBranch({FieldRef("r", "front"), FieldRef("q", "tail")},
                            {Each("r", Rel("Rel")),
                             Each("q", Constructed(Rel("OT"), "reach_ot",
                                                   {Rel("Rel")}))},
                            Eq(FieldRef("r", "back"), FieldRef("q", "head")))})),
      std::make_shared<ConstructorDecl>(
          "reach_ot", FormalRelation{"Rel", "ontoprel"},
          std::vector<FormalRelation>{{"IF", "infrontrel"}},
          std::vector<FormalScalar>{}, "aheadrel",
          Union({MakeBranch({FieldRef("r", "top"), FieldRef("r", "base")},
                            {Each("r", Rel("Rel"))}, True()),
                 MakeBranch({FieldRef("r", "top"), FieldRef("q", "tail")},
                            {Each("r", Rel("Rel")),
                             Each("q", Constructed(Rel("Rel"), "reach_ot",
                                                   {Rel("IF")}))},
                            Eq(FieldRef("r", "base"), FieldRef("q", "head"))),
                 MakeBranch({FieldRef("r", "top"), FieldRef("q", "tail")},
                            {Each("r", Rel("Rel")),
                             Each("q", Constructed(Rel("IF"), "reach_if",
                                                   {Rel("Rel")}))},
                            Eq(FieldRef("r", "base"), FieldRef("q", "head")))})),
  }));
  RangePtr range = Constructed(Rel("Infront"), "reach_if", {Rel("Ontop")});
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustValue(db.EvalRange(range)).size());
  }
}

DATACON_BENCHMARK_COLD(BM_Mutual_MergedSingleConstructor)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datacon

BENCHMARK_MAIN();
