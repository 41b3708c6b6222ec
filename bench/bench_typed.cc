// Experiment E14 — proof-carrying typed evaluation.
//
// When every definition in the catalog was admitted with PRAGMA TYPECHECK
// on, the whole-program inference (analysis/typecheck.h) has already
// discharged every per-tuple type test the interpreter would otherwise run,
// and the evaluator switches to the typed-proven variant that elides them
// (ra/eval.h). This benchmark measures the same bounded-closure query with
// typechecking off (checked interpreter) and on (typed-proven): a
// three-column path constructor whose length attribute is computed
// arithmetically, so the hot loop runs a real EvalTerm/EvalPred walk per
// derived tuple. The shape is deliberately NOT a binary transitive closure
// (capture rules would shortcut it) and the length filter is not an
// equi-join conjunct (hash probes would bypass the predicate walk). The
// cache is disabled so every iteration re-derives.

#include <benchmark/benchmark.h>

#include <vector>

#include "ast/builder.h"
#include "bench_util.h"
#include "core/database.h"
#include "ra/env.h"
#include "ra/eval.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction
using bench::Must;
using bench::MustValue;

/// Declares the three-column bounded-path constructor over integer edges:
///   CONSTRUCTOR paths FOR Rel: edgerel (): pathrel;
///   BEGIN <r.src, r.dst, 1> OF EACH r IN Rel: TRUE,
///         <f.src, b.dst, f.len + 1> OF EACH f IN Rel {paths},
///         EACH b IN Rel: f.dst = b.src AND f.len < bound
///   END paths;
/// and loads `g` into the edge relation E.
void SetupBoundedPaths(Database* db, const workload::EdgeList& g, int bound) {
  Must(db->DefineRelationType(
      "edgerel",
      Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}})));
  Must(db->DefineRelationType("pathrel", Schema({{"src", ValueType::kInt},
                                                 {"dst", ValueType::kInt},
                                                 {"len", ValueType::kInt}})));
  Must(db->CreateRelation("E", "edgerel"));
  auto body = Union(
      {MakeBranch({FieldRef("r", "src"), FieldRef("r", "dst"), Int(1)},
                  {Each("r", Rel("Rel"))}, True()),
       MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst"),
                   Add(FieldRef("f", "len"), Int(1))},
                  {Each("f", Constructed(Rel("Rel"), "paths")),
                   Each("b", Rel("Rel"))},
                  And({Eq(FieldRef("f", "dst"), FieldRef("b", "src")),
                       Lt(FieldRef("f", "len"), Int(bound))}))});
  auto decl = std::make_shared<ConstructorDecl>(
      "paths", FormalRelation{"Rel", "edgerel"}, std::vector<FormalRelation>{},
      std::vector<FormalScalar>{}, "pathrel", body);
  Must(db->DefineConstructor(decl));
  Must(workload::LoadEdges(db, "E", g));
}

void RunBoundedPaths(benchmark::State& state, const workload::EdgeList& g,
                     int bound) {
  const bool typecheck = state.range(0) != 0;
  DatabaseOptions options;
  options.typecheck = typecheck;
  options.cache = false;  // every iteration must re-derive
  Database db(options);
  SetupBoundedPaths(&db, g, bound);
  CalcExprPtr query =
      Union({IdentityBranch("p", Constructed(Rel("E"), "paths"), True())});
  size_t rows = 0;
  for (auto _ : state) {
    rows = MustValue(db.EvalQuery(query)).size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["edges"] = static_cast<double>(g.edges.size());
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["typecheck"] = typecheck ? 1.0 : 0.0;
  state.counters["typed_proven"] = db.last_record().typed_proven ? 1.0 : 0.0;
}

/// The dispatch elision in isolation: the step branch's predicate and
/// target term walked per candidate pair, exactly what the branch executor
/// runs in its inner loop. End-to-end closure timings fold this into
/// indexing and materialization; here it is the whole measurement.
void BM_Typed_PredWalk(benchmark::State& state) {
  class NoRelations : public RelationResolver {
   public:
    Result<const Relation*> Resolve(const Range& range) const override {
      return Status::NotFound("relation '" + range.relation() + "'");
    }
  };
  const bool proven = state.range(0) != 0;
  Schema schema({{"src", ValueType::kInt},
                 {"dst", ValueType::kInt},
                 {"len", ValueType::kInt}});
  std::vector<Tuple> fs;
  std::vector<Tuple> bs;
  for (int64_t i = 0; i < 512; ++i) {
    fs.push_back(Tuple(
        {Value::Int(i % 11), Value::Int(i % 7), Value::Int(i % 64)}));
    bs.push_back(Tuple(
        {Value::Int((i * 5) % 7), Value::Int(i % 13), Value::Int(0)}));
  }
  PredPtr pred = And({Eq(FieldRef("f", "dst"), FieldRef("b", "src")),
                      Lt(FieldRef("f", "len"), Int(48))});
  TermPtr target = Add(FieldRef("f", "len"), Int(1));
  NoRelations resolver;
  Evaluator eval(&resolver, proven);
  int64_t matched = 0;
  int64_t sum = 0;
  for (auto _ : state) {
    matched = 0;
    sum = 0;
    Environment env;
    for (size_t i = 0; i < fs.size(); ++i) {
      env.Bind("f", &fs[i], &schema);
      env.Bind("b", &bs[i], &schema);
      if (MustValue(eval.EvalPred(*pred, env))) {
        ++matched;
        sum += MustValue(eval.EvalTerm(*target, env)).AsInt();
      }
    }
    benchmark::DoNotOptimize(matched);
    benchmark::DoNotOptimize(sum);
  }
  state.counters["pairs"] = static_cast<double>(fs.size());
  state.counters["matched"] = static_cast<double>(matched);
  state.counters["typed_proven"] = proven ? 1.0 : 0.0;
}

void BM_Typed_Chain(benchmark::State& state) {
  // One long chain: quadratically many paths, each re-extended per round.
  RunBoundedPaths(state, workload::Chain(90), /*bound=*/90);
}

void BM_Typed_Grid(benchmark::State& state) {
  // Dense join fan-out: many distinct (src, dst, len) triples per pair.
  RunBoundedPaths(state, workload::Grid(10, 10), /*bound=*/12);
}

void BM_Typed_LayeredDag(benchmark::State& state) {
  // Part-explosion shape with short paths: fixpoint rounds are cheap, the
  // per-tuple target/filter walk dominates.
  RunBoundedPaths(state, workload::LayeredDag(6, 48, 3, /*seed=*/17),
                  /*bound=*/8);
}

BENCHMARK(BM_Typed_PredWalk)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Typed_Chain)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Typed_Grid)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Typed_LayeredDag)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datacon

int main(int argc, char** argv) {
  return datacon::bench::RunBenchmarks(argc, argv, "typed");
}
