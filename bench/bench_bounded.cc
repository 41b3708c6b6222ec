// Experiment E3 — bounded unrolling (section 3.1's ahead_n) versus the
// recursive least fixpoint (ahead).
//
// ahead_n is generated as a tower of non-recursive constructors
// (ahead_2 joins the base with itself; ahead_k joins the base with
// ahead_{k-1}); the unbounded `ahead` is the recursive constructor. On a
// chain of length L, ahead_k is complete only for k >= L; the bench shows
// the cost of unrolling growing linearly in k while the fixpoint pays only
// for the rounds the data actually needs — the reason the paper introduces
// recursion rather than asking programmers to pick n.

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

/// Defines ahead_2 .. ahead_<max_k> as non-recursive towers over prefix g.
Status DefineTower(Database* db, int max_k) {
  for (int k = 2; k <= max_k; ++k) {
    std::string name = "ahead_" + std::to_string(k);
    RangePtr step_range = k == 2
                              ? Rel("Rel")
                              : Constructed(Rel("Rel"),
                                            "ahead_" + std::to_string(k - 1));
    auto body = Union(
        {IdentityBranch("r", Rel("Rel"), True()),
         MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                    {Each("f", Rel("Rel")), Each("b", step_range)},
                    Eq(FieldRef("f", "dst"), FieldRef("b", "src")))});
    DATACON_RETURN_IF_ERROR(
        db->DefineConstructor(std::make_shared<ConstructorDecl>(
            name, FormalRelation{"Rel", "g_edgerel"},
            std::vector<FormalRelation>{}, std::vector<FormalScalar>{},
            "g_edgerel", body)));
  }
  return Status::OK();
}

void BM_BoundedUnrolling(benchmark::State& state) {
  const int n = 48;  // chain length (diameter 47)
  const int k = static_cast<int>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;
  options.inline_nonrecursive = false;  // measure the materializing form
  Database db(options);
  Must(workload::SetupClosure(&db, "g", workload::Chain(n)));
  Must(DefineTower(&db, k));
  RangePtr range = Constructed(Rel("g_E"), "ahead_" + std::to_string(k));
  size_t size = 0;
  for (auto _ : state) {
    size = MustValue(db.EvalRange(range)).size();
    benchmark::DoNotOptimize(size);
  }
  // Completeness indicator: how much of the true closure ahead_k covers.
  state.counters["pairs"] = static_cast<double>(size);
}

void BM_RecursiveFixpoint(benchmark::State& state) {
  const int n = 48;
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;
  Database db(options);
  Must(workload::SetupClosure(&db, "g", workload::Chain(n)));
  RangePtr range = Constructed(Rel("g_E"), "g_tc");
  size_t size = 0;
  for (auto _ : state) {
    size = MustValue(db.EvalRange(range)).size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["pairs"] = static_cast<double>(size);
}

// Crossover: on shallow data (diameter 6), a shallow unrolling is complete
// and competitive; the fixpoint stops by itself at the data's depth.
void BM_BoundedOnShallowData(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;
  options.inline_nonrecursive = false;
  Database db(options);
  Must(workload::SetupClosure(&db, "g", workload::KaryTree(5, 2)));
  Must(DefineTower(&db, k));
  RangePtr range = Constructed(Rel("g_E"), "ahead_" + std::to_string(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustValue(db.EvalRange(range)).size());
  }
}

void BM_FixpointOnShallowData(benchmark::State& state) {
  DatabaseOptions options = bench::ColdOptions();
  options.use_capture_rules = false;
  Database db(options);
  Must(workload::SetupClosure(&db, "g", workload::KaryTree(5, 2)));
  RangePtr range = Constructed(Rel("g_E"), "g_tc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustValue(db.EvalRange(range)).size());
  }
}

DATACON_BENCHMARK_COLD(BM_BoundedUnrolling)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_RecursiveFixpoint)->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_BoundedOnShallowData)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);
DATACON_BENCHMARK_COLD(BM_FixpointOnShallowData)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datacon

BENCHMARK_MAIN();
