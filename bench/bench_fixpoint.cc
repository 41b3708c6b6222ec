// Experiment E2 — evaluation strategies for recursive constructors
// (section 3.2's REPEAT loop vs section 4's compiled evaluation vs the
// transitive-closure capture rule).
//
// The paper's claim: recognizing the recursion at compile time and
// generating an appropriate fixpoint algorithm beats the naive loop; a
// capture rule specializing the closure beats the generic fixpoint again.
// Expected shape: naive >> semi-naive > capture, with the gap growing with
// the recursion depth of the data (chain worst, tree mild).

#include <benchmark/benchmark.h>

#include <cmath>

#include "ast/builder.h"
#include "bench_util.h"
#include "core/database.h"
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
      return workload::KaryTree(/*depth=*/1, /*fanout=*/2).node_count > n
                 ? workload::Chain(n)
                 : workload::KaryTree(
                       /*depth=*/static_cast<int>(std::log2(n)), 2);
    case Shape::kRandom:
      return workload::RandomDigraph(n, 2 * n, /*seed=*/17);
  }
  return workload::Chain(n);
}

void RunClosure(benchmark::State& state, Shape shape,
                FixpointStrategy strategy, bool capture) {
  const int n = static_cast<int>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.eval.strategy = strategy;
  options.use_capture_rules = capture;
  Database db(options);
  workload::EdgeList g = MakeGraph(shape, n);
  Must(workload::SetupClosure(&db, "g", g));
  RangePtr range = Constructed(Rel("g_E"), "g_tc");

  size_t closure_size = 0;
  for (auto _ : state) {
    Relation r = MustValue(db.EvalRange(range));
    closure_size = r.size();
    benchmark::DoNotOptimize(closure_size);
  }
  state.counters["edges"] = static_cast<double>(g.edges.size());
  state.counters["closure"] = static_cast<double>(closure_size);
  state.counters["rounds"] = static_cast<double>(db.last_stats().iterations);
}

void BM_Chain_Naive(benchmark::State& state) {
  RunClosure(state, Shape::kChain, FixpointStrategy::kNaive, false);
}
void BM_Chain_SemiNaive(benchmark::State& state) {
  RunClosure(state, Shape::kChain, FixpointStrategy::kSemiNaive, false);
}
void BM_Chain_Capture(benchmark::State& state) {
  RunClosure(state, Shape::kChain, FixpointStrategy::kSemiNaive, true);
}
void BM_Tree_Naive(benchmark::State& state) {
  RunClosure(state, Shape::kTree, FixpointStrategy::kNaive, false);
}
void BM_Tree_SemiNaive(benchmark::State& state) {
  RunClosure(state, Shape::kTree, FixpointStrategy::kSemiNaive, false);
}
void BM_Tree_Capture(benchmark::State& state) {
  RunClosure(state, Shape::kTree, FixpointStrategy::kSemiNaive, true);
}
void BM_Random_Naive(benchmark::State& state) {
  RunClosure(state, Shape::kRandom, FixpointStrategy::kNaive, false);
}
void BM_Random_SemiNaive(benchmark::State& state) {
  RunClosure(state, Shape::kRandom, FixpointStrategy::kSemiNaive, false);
}
void BM_Random_Capture(benchmark::State& state) {
  RunClosure(state, Shape::kRandom, FixpointStrategy::kSemiNaive, true);
}

DATACON_BENCHMARK_COLD(BM_Chain_Naive)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Chain_SemiNaive)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Chain_Capture)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Tree_Naive)
    ->Arg(63)
    ->Arg(255)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Tree_SemiNaive)
    ->Arg(63)
    ->Arg(255)
    ->Arg(1023)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Tree_Capture)
    ->Arg(63)
    ->Arg(255)
    ->Arg(1023)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Random_Naive)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Random_SemiNaive)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_Random_Capture)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Same-generation: recursive but NOT closure-shaped — the capture rule
// cannot fire, so this isolates the generic engines on a harder recursion.
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

void RunSameGeneration(benchmark::State& state, FixpointStrategy strategy) {
  const int depth = static_cast<int>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.eval.strategy = strategy;
  Database db(options);
  Must(SetupSameGeneration(&db, workload::KaryTree(depth, 2)));
  RangePtr range = Constructed(Rel("Up"), "same_gen");
  size_t size = 0;
  for (auto _ : state) {
    size = MustValue(db.EvalRange(range)).size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["pairs"] = static_cast<double>(size);
}

void BM_SameGen_Naive(benchmark::State& state) {
  RunSameGeneration(state, FixpointStrategy::kNaive);
}
void BM_SameGen_SemiNaive(benchmark::State& state) {
  RunSameGeneration(state, FixpointStrategy::kSemiNaive);
}

DATACON_BENCHMARK_COLD(BM_SameGen_Naive)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_SameGen_SemiNaive)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Ablation: the hash-join acceleration inside branch execution (a DESIGN.md
// design choice) against pure filtered nested loops.
void BM_Ablation_HashJoins(benchmark::State& state) {
  const bool hash_joins = state.range(0) != 0;
  const int n = static_cast<int>(state.range(1));
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;
  options.eval.exec.use_hash_joins = hash_joins;
  Database db(options);
  Must(workload::SetupClosure(&db, "g", workload::Chain(n)));
  RangePtr range = Constructed(Rel("g_E"), "g_tc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustValue(db.EvalRange(range)).size());
  }
}

DATACON_BENCHMARK_COLD(BM_Ablation_HashJoins)
    ->Args({1, 32})
    ->Args({0, 32})
    ->Args({1, 64})
    ->Args({0, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datacon

int main(int argc, char** argv) {
  return datacon::bench::RunBenchmarks(argc, argv, "fixpoint");
}
