// Experiment E5 — propagating query constraints into the constructor
// (section 4: "propagating the constraints given by pred(r) into the
// constructor definition may considerably reduce query evaluation costs").
//
// Query form: { EACH r IN E{tc} : r.src = <node> }.
//   * full:   materialize the whole closure, then filter (capture off).
//   * seeded: constant propagation — reachability from <node> only
//             (capture on: the seeded closure plan).
//
// Expected shape: seeded wins by a factor that grows with how small the
// one-source slice is relative to the full closure; on a chain the gap is
// O(n); on a dense random graph where one source reaches everything the
// gap narrows to the cost ratio of one BFS vs n BFS.

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

enum class Shape { kChain, kDag, kRandom };

workload::EdgeList MakeGraph(Shape shape, int n) {
  switch (shape) {
    case Shape::kChain:
      return workload::Chain(n);
    case Shape::kDag:
      return workload::LayeredDag(/*layers=*/8, /*width=*/n / 8,
                                  /*fanout=*/2, /*seed=*/5);
    case Shape::kRandom:
      return workload::RandomDigraph(n, 3 * n, /*seed=*/5);
  }
  return workload::Chain(n);
}

void RunPushdown(benchmark::State& state, Shape shape, bool pushdown) {
  const int n = static_cast<int>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = pushdown;
  Database db(options);
  workload::EdgeList g = MakeGraph(shape, n);
  Must(workload::SetupClosure(&db, "g", g));

  CalcExprPtr query = Union({IdentityBranch(
      "r", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("r", "src"), Int(0)))});

  size_t result_size = 0;
  for (auto _ : state) {
    Relation r = MustValue(db.EvalQuery(query));
    result_size = r.size();
    benchmark::DoNotOptimize(result_size);
  }
  state.counters["result"] = static_cast<double>(result_size);
  state.counters["edges"] = static_cast<double>(g.edges.size());
}

void BM_Chain_FullThenFilter(benchmark::State& state) {
  RunPushdown(state, Shape::kChain, false);
}
void BM_Chain_SeededPushdown(benchmark::State& state) {
  RunPushdown(state, Shape::kChain, true);
}
void BM_Dag_FullThenFilter(benchmark::State& state) {
  RunPushdown(state, Shape::kDag, false);
}
void BM_Dag_SeededPushdown(benchmark::State& state) {
  RunPushdown(state, Shape::kDag, true);
}
void BM_Random_FullThenFilter(benchmark::State& state) {
  RunPushdown(state, Shape::kRandom, false);
}
void BM_Random_SeededPushdown(benchmark::State& state) {
  RunPushdown(state, Shape::kRandom, true);
}

DATACON_BENCHMARK_COLD(BM_Chain_FullThenFilter)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Chain_SeededPushdown)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Dag_FullThenFilter)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Dag_SeededPushdown)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Random_FullThenFilter)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Random_SeededPushdown)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Selectivity sweep: the query binds one of `k` distinct sources on a
// layered DAG; the narrower the slice, the bigger the pushdown win.
void BM_SelectivitySweep(benchmark::State& state) {
  const bool pushdown = state.range(0) != 0;
  const int width = static_cast<int>(state.range(1));
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = pushdown;
  Database db(options);
  workload::EdgeList g = workload::LayeredDag(10, width, 2, 7);
  Must(workload::SetupClosure(&db, "g", g));
  CalcExprPtr query = Union({IdentityBranch(
      "r", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("r", "src"), Int(0)))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustValue(db.EvalQuery(query)).size());
  }
}

DATACON_BENCHMARK_COLD(BM_SelectivitySweep)
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({0, 32})
    ->Args({1, 32})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datacon

BENCHMARK_MAIN();
