// Experiment E7 — magic-seed constructor specialization.
//
// A transitive-closure query that binds the source attribute (`v.src = k`)
// only needs the edges reachable from k, yet the unspecialized engine
// materializes the full closure and filters afterwards. The adornment
// analysis (analysis/adorn.h) detects the binding at compile time and the
// specialization plan (core/specialize.h) restricts the fixpoint to the
// relevant-value closure. This benchmark measures the same bound query with
// PRAGMA SPECIALIZE off and on; capture rules are disabled throughout so
// the generic fixpoint engine is isolated (the seeded-TC capture would
// otherwise answer the query before specialization could). Workloads where
// the seed reaches a small fraction of the graph (disjoint chains, shallow
// DAG layers) show the largest gap; a strongly connected graph shows the
// overhead floor, since everything is relevant.

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

/// `count` disjoint chains of `length` nodes each; the seed sits on chain 0,
/// so 1/count of the graph is relevant.
workload::EdgeList DisjointChains(int count, int length) {
  workload::EdgeList g;
  g.node_count = count * length;
  for (int c = 0; c < count; ++c) {
    for (int i = 0; i < length - 1; ++i) {
      g.edges.emplace_back(c * length + i, c * length + i + 1);
    }
  }
  return g;
}

/// The bound closure query `{ EACH v IN g_E {g_tc}: v.src = seed }`.
CalcExprPtr BoundClosureQuery(int seed) {
  return Union({IdentityBranch(
      "v", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("v", "src"), Int(seed)))});
}

void RunBoundClosure(benchmark::State& state, const workload::EdgeList& g,
                     int seed) {
  const bool specialize = state.range(0) != 0;
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;  // isolate the generic engine
  options.specialize = specialize;
  Database db(options);
  Must(workload::SetupClosure(&db, "g", g));
  CalcExprPtr query = BoundClosureQuery(seed);
  size_t rows = 0;
  for (auto _ : state) {
    rows = MustValue(db.EvalQuery(query)).size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["edges"] = static_cast<double>(g.edges.size());
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["specialize"] = specialize ? 1.0 : 0.0;
  state.counters["pruned"] =
      static_cast<double>(db.last_stats().seed_tuples_pruned);
}

void BM_Specialize_DisjointChains(benchmark::State& state) {
  // 40 chains of 60 nodes; the bound query touches one chain.
  RunBoundClosure(state, DisjointChains(40, 60), /*seed=*/0);
}

void BM_Specialize_LayeredDag(benchmark::State& state) {
  // Part-explosion shape: the seed explodes one root of many.
  RunBoundClosure(state, workload::LayeredDag(8, 64, 2, /*seed=*/29),
                  /*seed=*/0);
}

void BM_Specialize_RandomDigraph(benchmark::State& state) {
  // Sparse random graph: reachability from one node covers a fraction.
  RunBoundClosure(state, workload::RandomDigraph(600, 1100, /*seed=*/31),
                  /*seed=*/0);
}

void BM_Specialize_CycleWorstCase(benchmark::State& state) {
  // A single cycle: every node is reachable from the seed, so the
  // specialized run pays the magic-closure overhead for no pruning.
  RunBoundClosure(state, workload::Cycle(300), /*seed=*/0);
}

DATACON_BENCHMARK_COLD(BM_Specialize_DisjointChains)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Specialize_LayeredDag)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Specialize_RandomDigraph)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Specialize_CycleWorstCase)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datacon

int main(int argc, char** argv) {
  return datacon::bench::RunBenchmarks(argc, argv, "specialize");
}
