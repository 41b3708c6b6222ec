// Experiment E6 — the paper's headline claim (abstract, sections 1 and 4):
// "many recursive queries can be evaluated more efficiently within the
// set-construction framework of database systems than with proof-oriented
// methods typical for a rule-based approach."
//
//   * bottomup:      the DataCon engine (semi-naive, capture rules off, so
//                    the generic set-oriented machinery is measured).
//   * topdown:       SLD resolution with OLDT-style tabling (sound and
//                    complete, tuple-at-a-time).
//   * topdown_bound: the same engine answering a single-source query — the
//                    one case where goal-directed search has an edge on
//                    narrow queries (cf. the seeded capture rule, which
//                    gives the set-oriented side the same advantage).
//
// Expected shape: bottomup beats topdown on full-closure queries by a
// growing factor; pure (untabled) SLD cannot even run on cyclic data.

#include <benchmark/benchmark.h>

#include <cmath>

#include "ast/builder.h"
#include "bench_util.h"
#include "core/database.h"
#include "prolog/sld.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction
using bench::Must;
using bench::MustValue;

enum class Shape { kChain, kTree, kRandom };

workload::EdgeList MakeGraph(Shape shape, int n) {
  switch (shape) {
    case Shape::kChain:
      return workload::Chain(n);
    case Shape::kTree:
      return workload::KaryTree(static_cast<int>(std::log2(n)), 2);
    case Shape::kRandom:
      return workload::RandomDigraph(n, 2 * n, 23);
  }
  return workload::Chain(n);
}

void RunBottomUp(benchmark::State& state, Shape shape) {
  const int n = static_cast<int>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;
  Database db(options);
  Must(workload::SetupClosure(&db, "g", MakeGraph(shape, n)));
  RangePtr range = Constructed(Rel("g_E"), "g_tc");
  size_t size = 0;
  for (auto _ : state) {
    size = MustValue(db.EvalRange(range)).size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["closure"] = static_cast<double>(size);
}

void RunTopDown(benchmark::State& state, Shape shape) {
  const int n = static_cast<int>(state.range(0));
  Database db(bench::ColdOptions());
  Must(workload::SetupClosure(&db, "g", MakeGraph(shape, n)));
  RangePtr range = Constructed(Rel("g_E"), "g_tc");
  SldOptions options;
  options.tabling = true;
  size_t size = 0;
  SldStats stats;
  for (auto _ : state) {
    size = MustValue(
               EvaluateRangeTopDown(db.catalog(), range, options, {}, &stats))
               .size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["closure"] = static_cast<double>(size);
  state.counters["facts_scanned"] = static_cast<double>(stats.facts_scanned);
}

void RunTopDownSingleSource(benchmark::State& state, Shape shape) {
  const int n = static_cast<int>(state.range(0));
  Database db(bench::ColdOptions());
  Must(workload::SetupClosure(&db, "g", MakeGraph(shape, n)));
  RangePtr range = Constructed(Rel("g_E"), "g_tc");
  SldOptions options;
  options.tabling = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MustValue(EvaluateRangeTopDown(db.catalog(), range, options,
                                       {Value::Int(0)}))
            .size());
  }
}

void RunBottomUpSingleSource(benchmark::State& state, Shape shape) {
  const int n = static_cast<int>(state.range(0));
  // Capture rules ON: the seeded-closure plan.
  Database db(bench::ColdOptions());
  Must(workload::SetupClosure(&db, "g", MakeGraph(shape, n)));
  CalcExprPtr query = Union({IdentityBranch(
      "r", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("r", "src"), Int(0)))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustValue(db.EvalQuery(query)).size());
  }
}

void BM_Chain_BottomUp(benchmark::State& state) {
  RunBottomUp(state, Shape::kChain);
}
void BM_Chain_TopDownTabled(benchmark::State& state) {
  RunTopDown(state, Shape::kChain);
}
void BM_Tree_BottomUp(benchmark::State& state) {
  RunBottomUp(state, Shape::kTree);
}
void BM_Tree_TopDownTabled(benchmark::State& state) {
  RunTopDown(state, Shape::kTree);
}
void BM_Random_BottomUp(benchmark::State& state) {
  RunBottomUp(state, Shape::kRandom);
}
void BM_Random_TopDownTabled(benchmark::State& state) {
  RunTopDown(state, Shape::kRandom);
}
void BM_Chain_SingleSource_TopDown(benchmark::State& state) {
  RunTopDownSingleSource(state, Shape::kChain);
}
void BM_Chain_SingleSource_BottomUpSeeded(benchmark::State& state) {
  RunBottomUpSingleSource(state, Shape::kChain);
}

DATACON_BENCHMARK_COLD(BM_Chain_BottomUp)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Chain_TopDownTabled)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Tree_BottomUp)
    ->Arg(63)
    ->Arg(127)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Tree_TopDownTabled)
    ->Arg(63)
    ->Arg(127)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Random_BottomUp)
    ->Arg(16)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Random_TopDownTabled)
    ->Arg(16)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Chain_SingleSource_TopDown)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Chain_SingleSource_BottomUpSeeded)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datacon

BENCHMARK_MAIN();
