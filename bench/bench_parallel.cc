// Experiment E6 — parallel branch execution.
//
// The fixpoint engine chunks the outermost scan of every branch across a
// worker pool; each chunk runs the remaining join/filter pipeline into a
// thread-local relation and the chunks are merged under set semantics. This
// benchmark measures the same workloads at 1/2/4/8 worker threads:
// transitive closure over chain and random graphs (n >= 2000 edges) and the
// non-closure-shaped same-generation recursion. Speedup is bounded by the
// machine's core count — on a single-core host every thread count performs
// like the serial path plus a small merge overhead.

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

void RunClosure(benchmark::State& state, const workload::EdgeList& g) {
  const size_t threads = static_cast<size_t>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;  // isolate the generic engine
  options.eval.exec.num_threads = threads;
  Database db(options);
  Must(workload::SetupClosure(&db, "g", g));
  RangePtr range = Constructed(Rel("g_E"), "g_tc");
  size_t closure_size = 0;
  for (auto _ : state) {
    closure_size = MustValue(db.EvalRange(range)).size();
    benchmark::DoNotOptimize(closure_size);
  }
  state.counters["edges"] = static_cast<double>(g.edges.size());
  state.counters["closure"] = static_cast<double>(closure_size);
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_Parallel_ChainClosure(benchmark::State& state) {
  RunClosure(state, workload::Chain(256));
}

void BM_Parallel_RandomClosure(benchmark::State& state) {
  // n >= 2000 edges: the acceptance workload for the parallel executor.
  RunClosure(state, workload::RandomDigraph(700, 2100, /*seed=*/17));
}

void BM_Parallel_WideRandomClosure(benchmark::State& state) {
  RunClosure(state, workload::RandomDigraph(2000, 6000, /*seed=*/23));
}

Status SetupSameGeneration(Database* db, const workload::EdgeList& tree) {
  DATACON_RETURN_IF_ERROR(db->DefineRelationType(
      "uprel",
      Schema({{"child", ValueType::kInt}, {"parent", ValueType::kInt}})));
  DATACON_RETURN_IF_ERROR(db->DefineRelationType(
      "pairrel", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}})));
  DATACON_RETURN_IF_ERROR(db->CreateRelation("Up", "uprel"));
  for (const auto& [parent, child] : tree.edges) {
    DATACON_RETURN_IF_ERROR(
        db->Insert("Up", Tuple({Value::Int(child), Value::Int(parent)})));
  }
  auto body = Union(
      {MakeBranch({FieldRef("u", "child"), FieldRef("v", "child")},
                  {Each("u", Rel("Rel")), Each("v", Rel("Rel"))},
                  Eq(FieldRef("u", "parent"), FieldRef("v", "parent"))),
       MakeBranch({FieldRef("u", "child"), FieldRef("v", "child")},
                  {Each("u", Rel("Rel")), Each("v", Rel("Rel")),
                   Each("s", Constructed(Rel("Rel"), "same_gen"))},
                  And({Eq(FieldRef("u", "parent"), FieldRef("s", "x")),
                       Eq(FieldRef("s", "y"), FieldRef("v", "parent"))}))});
  return db->DefineConstructor(std::make_shared<ConstructorDecl>(
      "same_gen", FormalRelation{"Rel", "uprel"},
      std::vector<FormalRelation>{}, std::vector<FormalScalar>{}, "pairrel",
      body));
}

void BM_Parallel_SameGeneration(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.eval.exec.num_threads = threads;
  Database db(options);
  Must(SetupSameGeneration(&db, workload::KaryTree(/*depth=*/10, 2)));
  RangePtr range = Constructed(Rel("Up"), "same_gen");
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = MustValue(db.EvalRange(range)).size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["threads"] = static_cast<double>(threads);
}

DATACON_BENCHMARK_COLD(BM_Parallel_ChainClosure)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Parallel_RandomClosure)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Parallel_WideRandomClosure)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Parallel_SameGeneration)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datacon

int main(int argc, char** argv) {
  return datacon::bench::RunBenchmarks(argc, argv, "parallel");
}
