#include "ra/branch_exec.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "ast/printer.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "ra/analysis.h"
#include "ra/branch_plan.h"
#include "storage/index.h"

namespace datacon {

namespace {

/// A read-only resolver over ranges materialized before a parallel fan-out.
///
/// SystemEvaluator::Resolve mutates its selector-chain caches, so worker
/// threads must never call it; Prewarm resolves every range the branch
/// predicate can mention once, on the calling thread, and workers resolve
/// by pointer lookup only. The snapshotted relations stay valid for the
/// duration of the ExecuteBranch call (the underlying resolver's contract).
class SnapshotResolver : public RelationResolver {
 public:
  /// Resolves all quantifier/membership ranges of `pred` through `base`.
  Status Prewarm(const Pred& pred, const RelationResolver* base) {
    // These are the only ranges the evaluator can ask a resolver for during
    // branch execution; materializing them up front makes the per-tuple
    // pipeline resolver-free and therefore safe to fan out.
    std::vector<const Range*> ranges;
    ForEachRangeWithParity(
        pred, 0, [&](const Range& r, int) { ranges.push_back(&r); });
    if (ranges.empty()) return Status::OK();
    if (base == nullptr) {
      return Status::Internal("predicate ranges without a resolver: " +
                              ToString(pred));
    }
    for (const Range* r : ranges) {
      if (cache_.count(r) > 0) continue;
      DATACON_ASSIGN_OR_RETURN(const Relation* rel, base->Resolve(*r));
      cache_[r] = rel;
    }
    return Status::OK();
  }

  Result<const Relation*> Resolve(const Range& range) const override {
    auto it = cache_.find(&range);
    if (it == cache_.end()) {
      return Status::Internal("range not pre-materialized before fan-out: " +
                              ToString(range));
    }
    return it->second;
  }

 private:
  /// Keyed by AST node identity: the evaluator always resolves the exact
  /// Range objects reachable from the branch predicate.
  std::map<const Range*, const Relation*> cache_;
};

/// `rel`'s own index on `columns` (Relation::IndexOn), counting a physical
/// build — traced as an `index build` span — when this call creates it.
/// Only ever called on the thread that owns the branch execution, before
/// any fan-out: workers must never create an index.
const HashIndex& RequestIndex(const Relation& rel,
                              const std::vector<int>& columns,
                              const std::string& var, BranchExecStats* stats) {
  if (const HashIndex* index = rel.FindIndex(columns)) return *index;
  TraceSpan span("index build");
  if (span.active()) {
    span.AddArg("binding", var);
    span.AddArg("tuples", static_cast<int64_t>(rel.size()));
  }
  ++stats->physical_index_builds;
  return rel.IndexOn(columns);
}

/// Compiles a QuantProbeShape for every SOME quantifier in `pred`, nested
/// ones included, whose range is a plain name resolving to a catalog
/// relation variable and whose body has top-level key equalities on its
/// variable.
void CompileQuantProbes(const Pred& pred, const RelationResolver* resolver,
                        std::vector<QuantProbeShape>* out) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
    case Pred::Kind::kCompare:
    case Pred::Kind::kIn:
      return;
    case Pred::Kind::kAnd:
      for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
        CompileQuantProbes(*op, resolver, out);
      }
      return;
    case Pred::Kind::kOr:
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        CompileQuantProbes(*op, resolver, out);
      }
      return;
    case Pred::Kind::kNot:
      CompileQuantProbes(*static_cast<const NotPred&>(pred).operand(),
                         resolver, out);
      return;
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(pred);
      CompileQuantProbes(*p.body(), resolver, out);
      // A plain name resolves to its catalog relation without evaluating
      // anything; any other range (or a failing resolution, which the
      // evaluation then reports) keeps the scan.
      if (p.quantifier() != Quantifier::kSome || !p.range()->IsPlain() ||
          resolver == nullptr) {
        return;
      }
      std::vector<VarEquality> keys;
      for (const PredPtr& c : FlattenConjuncts(p.body())) {
        if (std::optional<VarEquality> eq = MatchVarEquality(*c, p.var())) {
          keys.push_back(std::move(*eq));
        }
      }
      if (keys.empty()) return;
      Result<const Relation*> rel = resolver->Resolve(*p.range());
      if (!rel.ok() || !rel.value()->is_catalog_variable()) return;
      // (column, key term) in column order, like PlanBranchLevels' keys.
      std::vector<std::pair<int, TermPtr>> by_column;
      for (VarEquality& eq : keys) {
        std::optional<int> idx = rel.value()->schema().FieldIndex(eq.field);
        if (!idx.has_value()) return;
        by_column.emplace_back(*idx, std::move(eq.other));
      }
      std::stable_sort(by_column.begin(), by_column.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      QuantProbeShape shape{&p, rel.value(), {}, {}};
      for (auto& [column, term] : by_column) {
        shape.columns.push_back(column);
        shape.keys.push_back(std::move(term));
      }
      out->push_back(std::move(shape));
      return;
    }
  }
  DATACON_UNREACHABLE("pred kind");
}

/// The compiled, read-only execution state of one branch: shared without
/// synchronization by every worker of a fan-out. All mutable state (the
/// environment, the output relation, the counters) is passed through the
/// call chain and owned per worker.
struct BranchPipeline {
  const Branch* branch;
  const std::vector<ResolvedBinding>* bindings;
  const std::vector<BranchLevelPlan>* levels;
  /// Per level: the bound relation's own index when the level probes, else
  /// null. Requested before execution, so workers only read them.
  const std::vector<const HashIndex*>* indexes;
  size_t n;

  /// Binds `t` at `level`, applies `filters` (the level's), and descends.
  Status TryTuple(size_t level, const Tuple& t,
                  const std::vector<PredPtr>& filters, const Evaluator& eval,
                  Environment& env, Relation* out,
                  BranchExecStats* stats) const {
    if (level == 0) ++stats->outer_tuples;
    const ResolvedBinding& b = (*bindings)[level];
    env.Bind(b.var, &t, &b.relation->schema());
    for (const PredPtr& f : filters) {
      DATACON_ASSIGN_OR_RETURN(bool ok, eval.EvalPred(*f, env));
      if (!ok) return Status::OK();
    }
    return Descend(level + 1, eval, env, out, stats);
  }

  /// The tuples a probing `level` fetches under `env`: evaluates the outer
  /// sides of the key equalities and looks them up. Null when the key
  /// cannot be used — it fails to evaluate, or a checked run finds a value
  /// of the wrong type — and the level must run its `scan_filters` over
  /// every tuple instead, which reports or rejects exactly what the
  /// probe-free plan would.
  const std::vector<const Tuple*>* Probe(size_t level, const Evaluator& eval,
                                         const Environment& env,
                                         BranchExecStats* stats) const {
    const BranchLevelPlan& lv = (*levels)[level];
    const Schema& schema = (*bindings)[level].relation->schema();
    std::vector<Value> key_values;
    key_values.reserve(lv.keys.size());
    for (const BranchLevelPlan::KeyEquality& k : lv.keys) {
      Result<Value> v = eval.EvalTerm(*k.outer, env);
      if (!v.ok() || (!eval.typed_proven() &&
                      v->type() != schema.field(k.inner_field_index).type)) {
        return nullptr;
      }
      key_values.push_back(std::move(v).value());
    }
    ++stats->index_probes;
    return &(*indexes)[level]->Probe(Tuple(std::move(key_values)));
  }

  /// What `level` reads under `env`: a probe's hits under the level's
  /// filters, or — `hits` null — every tuple of its relation under the
  /// filters of a scan (`scan_filters` when a probe had to fall back).
  struct Candidates {
    const std::vector<const Tuple*>* hits;
    const std::vector<PredPtr>* filters;
  };
  Candidates CandidatesOf(size_t level, const Evaluator& eval,
                          const Environment& env,
                          BranchExecStats* stats) const {
    const BranchLevelPlan& lv = (*levels)[level];
    if ((*indexes)[level] == nullptr) return {nullptr, &lv.filters};
    const std::vector<const Tuple*>* hits = Probe(level, eval, env, stats);
    return {hits, hits != nullptr ? &lv.filters : &lv.scan_filters};
  }

  /// Runs levels [level, n) of the pipeline under the bindings already in
  /// `env`; at the innermost level, projects and inserts into `out`.
  Status Descend(size_t level, const Evaluator& eval, Environment& env,
                 Relation* out, BranchExecStats* stats) const {
    if (level == n) {
      ++stats->env_count;
      Tuple result;
      if (branch->targets().has_value()) {
        std::vector<Value> values;
        values.reserve(branch->targets()->size());
        for (const TermPtr& t : *branch->targets()) {
          DATACON_ASSIGN_OR_RETURN(Value v, eval.EvalTerm(*t, env));
          values.push_back(std::move(v));
        }
        result = Tuple(std::move(values));
      } else {
        result = *env.Lookup((*bindings)[0].var)->tuple;
      }
      DATACON_ASSIGN_OR_RETURN(
          bool grew, eval.typed_proven() ? out->InsertProven(std::move(result))
                                         : out->Insert(std::move(result)));
      if (grew) ++stats->inserted;
      return Status::OK();
    }

    const Candidates c = CandidatesOf(level, eval, env, stats);
    if (c.hits != nullptr) {
      for (const Tuple* t : *c.hits) {
        DATACON_RETURN_IF_ERROR(
            TryTuple(level, *t, *c.filters, eval, env, out, stats));
      }
    } else {
      for (const Tuple& t : (*bindings)[level].relation->tuples()) {
        DATACON_RETURN_IF_ERROR(
            TryTuple(level, t, *c.filters, eval, env, out, stats));
      }
    }
    env.Unbind((*bindings)[level].var);
    return Status::OK();
  }
};

}  // namespace

Result<CompiledBranch> CompileBranch(const Branch& branch,
                                     const std::vector<BindingSchema>& bindings,
                                     const RelationResolver* resolver,
                                     const BranchExecOptions& options) {
  const size_t n = bindings.size();
  if (n != branch.bindings().size()) {
    return Status::Internal("resolved bindings do not match branch arity");
  }
  if (!branch.targets().has_value() && n != 1) {
    return Status::TypeError(
        "a branch without a target list must bind exactly one variable: " +
        ToString(branch));
  }
  CompiledBranch compiled;
  DATACON_ASSIGN_OR_RETURN(compiled.levels,
                           PlanBranchLevels(branch, bindings, options));
  compiled.index_columns.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (const BranchLevelPlan::KeyEquality& k : compiled.levels[i].keys) {
      compiled.index_columns[i].push_back(k.inner_field_index);
    }
  }
  if (options.use_hash_joins) {
    CompileQuantProbes(*branch.pred(), resolver, &compiled.quant_probes);
  }
  return compiled;
}

Status ExecuteBranch(const Branch& branch,
                     const std::vector<ResolvedBinding>& bindings,
                     const Evaluator& eval, const Environment& base_env,
                     Relation* out, BranchExecStats* stats,
                     const BranchExecOptions& options) {
  std::vector<BindingSchema> schemas;
  schemas.reserve(bindings.size());
  for (const ResolvedBinding& b : bindings) {
    schemas.push_back(BindingSchema{b.var, &b.relation->schema(),
                                    b.relation->is_catalog_variable()});
  }
  DATACON_ASSIGN_OR_RETURN(
      CompiledBranch compiled,
      CompileBranch(branch, schemas, eval.resolver(), options));
  return RunBranch(branch, compiled, bindings, eval, base_env, out, stats,
                   options);
}

Status RunBranch(const Branch& branch, const CompiledBranch& compiled,
                 const std::vector<ResolvedBinding>& bindings,
                 const Evaluator& eval, const Environment& base_env,
                 Relation* out, BranchExecStats* stats,
                 const BranchExecOptions& options) {
  const size_t n = bindings.size();
  if (n != compiled.levels.size()) {
    return Status::Internal("resolved bindings do not match branch arity");
  }

  // The pipeline inserts into `out` while scanning and probing the bound
  // relations, so the output must not alias any of them: inserting into a
  // relation whose index bucket is being iterated invalidates the
  // iteration, and growing an unordered_set mid-scan invalidates the scan.
  // No engine code path aliases; reject rather than miscompute if one ever
  // does.
  for (size_t i = 0; i < n; ++i) {
    if (bindings[i].relation == out) {
      return Status::Internal(
          "branch output aliases binding '" + bindings[i].var +
          "': inserts during execution would invalidate its scan");
    }
  }

  // Every index the execution probes — probing levels' and quantifiers' —
  // is the relation's own (Relation::IndexOn), requested here on the
  // calling thread: workers of a fan-out only read them. A catalog
  // relation's or a fixpoint total's index outlives the call, so it is
  // built once and extended by later inserts instead of rebuilt per call.
  BranchExecStats build_stats;
  std::vector<const HashIndex*> indexes(n, nullptr);
  for (size_t i = 0; i < n; ++i) {
    if (compiled.index_columns[i].empty()) continue;
    indexes[i] = &RequestIndex(*bindings[i].relation,
                               compiled.index_columns[i], bindings[i].var,
                               &build_stats);
    ++build_stats.index_builds;
  }
  QuantProbes probes;
  probes.reserve(compiled.quant_probes.size());
  for (const QuantProbeShape& shape : compiled.quant_probes) {
    probes.push_back(QuantProbe{
        shape.quant, shape.relation,
        &RequestIndex(*shape.relation, shape.columns, shape.quant->var(),
                      &build_stats),
        &shape.keys});
  }
  const Evaluator probing(eval.resolver(), eval.typed_proven(), &probes);

  BranchPipeline pipeline{&branch, &bindings, &compiled.levels, &indexes, n};

  // Level 0 is driven here: serially, or chunked across the pool when
  // there are enough candidates (a probe's hits, else the whole relation).
  const Relation& outer = *bindings[0].relation;
  Environment env(&base_env);
  const BranchPipeline::Candidates outer_candidates =
      pipeline.CandidatesOf(0, probing, env, &build_stats);
  const std::vector<const Tuple*>* hits = outer_candidates.hits;
  const std::vector<PredPtr>& outer_filters = *outer_candidates.filters;
  const size_t outer_count = hits != nullptr ? hits->size() : outer.size();

  size_t num_threads = options.pool != nullptr
                           ? options.pool->size()
                           : ThreadPool::ResolveThreadCount(options.num_threads);
  if (num_threads <= 1 || outer_count < options.min_parallel_tuples) {
    // Serial path: exactly the historical single-threaded pipeline.
    TraceSpan span("branch");
    if (span.active()) {
      span.AddArg("outer_tuples", static_cast<int64_t>(outer_count));
    }
    BranchExecStats local_stats = build_stats;
    auto run = [&](const Tuple& t) {
      return pipeline.TryTuple(0, t, outer_filters, probing, env, out,
                               &local_stats);
    };
    if (hits != nullptr) {
      for (const Tuple* t : *hits) DATACON_RETURN_IF_ERROR(run(*t));
    } else {
      for (const Tuple& t : outer.tuples()) DATACON_RETURN_IF_ERROR(run(t));
    }
    if (span.active()) {
      span.AddArg("inserted", static_cast<int64_t>(local_stats.inserted));
    }
    if (stats != nullptr) *stats = local_stats;
    return Status::OK();
  }

  // Parallel path: materialize every range the predicate can mention, so
  // workers never touch the (cache-mutating) engine resolver, then chunk
  // the outermost candidates across the pool. Each chunk runs the
  // remaining pipeline into its own output relation; the chunks are merged
  // under set semantics (and key enforcement) at the end.
  TraceSpan fanout_span("fanout");
  if (fanout_span.active()) {
    fanout_span.AddArg("outer_tuples", static_cast<int64_t>(outer_count));
    fanout_span.AddArg("threads", static_cast<int64_t>(num_threads));
  }
  SnapshotResolver snapshot;
  DATACON_RETURN_IF_ERROR(snapshot.Prewarm(*branch.pred(), eval.resolver()));
  Evaluator worker_eval(&snapshot, eval.typed_proven(), &probes);

  std::vector<const Tuple*> outer_tuples;
  if (hits != nullptr) {
    outer_tuples = *hits;
  } else {
    outer_tuples.reserve(outer.size());
    for (const Tuple& t : outer.tuples()) outer_tuples.push_back(&t);
  }

  // A few chunks per worker so the shared queue evens out skew (some outer
  // tuples probe into far larger inner fans than others).
  size_t chunk_count = num_threads * 4;
  if (chunk_count > outer_tuples.size()) chunk_count = outer_tuples.size();

  std::unique_ptr<ThreadPool> transient_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    transient_pool = std::make_unique<ThreadPool>(num_threads);
    pool = transient_pool.get();
  }

  std::vector<Relation> chunk_outs;
  std::vector<BranchExecStats> chunk_stats(chunk_count);
  std::vector<Status> chunk_status(chunk_count);
  chunk_outs.reserve(chunk_count);
  for (size_t c = 0; c < chunk_count; ++c) {
    chunk_outs.emplace_back(out->schema());
  }

  // A runtime error in any chunk makes the whole fan-out moot: `failed` is
  // a cooperative abort flag so the remaining chunks stop scanning instead
  // of burning the pool on a doomed branch. It never influences the result
  // or the counters of a successful execution (it is only set on error).
  std::atomic<bool> failed{false};

  const size_t total = outer_tuples.size();
  for (size_t c = 0; c < chunk_count; ++c) {
    const size_t begin = total * c / chunk_count;
    const size_t end = total * (c + 1) / chunk_count;
    pool->Submit([&, c, begin, end] {
      // The chunk span is recorded on the worker's own thread, so each
      // worker shows up as its own track in the trace viewer.
      TraceSpan chunk_span("chunk");
      if (chunk_span.active()) {
        chunk_span.AddArg("chunk", static_cast<int64_t>(c));
        chunk_span.AddArg("tuples", static_cast<int64_t>(end - begin));
      }
      Environment env(&base_env);
      Relation* chunk_out = &chunk_outs[c];
      BranchExecStats* cs = &chunk_stats[c];
      Status status = Status::OK();
      for (size_t i = begin;
           i < end && status.ok() && !failed.load(std::memory_order_relaxed);
           ++i) {
        status = pipeline.TryTuple(0, *outer_tuples[i], outer_filters,
                                   worker_eval, env, chunk_out, cs);
      }
      if (chunk_span.active()) {
        chunk_span.AddArg("derived", static_cast<int64_t>(chunk_out->size()));
      }
      if (!status.ok()) failed.store(true, std::memory_order_relaxed);
      chunk_status[c] = std::move(status);
    });
  }
  pool->Wait();

  // Error determinism: which chunk fails first depends on worker timing
  // (the abort flag may have stopped a low chunk before it reached its own
  // error), so on any failure the error to surface is recomputed by a
  // serial scan in tuple order — the same first-by-tuple-order error the
  // THREADS=1 path reports, at the cost of one extra scan on the (already
  // doomed) error path only.
  bool any_failed = false;
  for (size_t c = 0; c < chunk_count && !any_failed; ++c) {
    any_failed = !chunk_status[c].ok();
  }
  if (any_failed) {
    Environment env(&base_env);
    Relation scratch(out->schema());
    BranchExecStats discard;
    Status serial = Status::OK();
    for (size_t i = 0; i < total && serial.ok(); ++i) {
      serial = pipeline.TryTuple(0, *outer_tuples[i], outer_filters,
                                 worker_eval, env, &scratch, &discard);
    }
    if (!serial.ok()) return serial;
    // The serial re-scan did not reproduce the failure (it cannot see
    // cross-chunk effects); fall back to the lowest failed chunk.
    for (size_t c = 0; c < chunk_count; ++c) {
      DATACON_RETURN_IF_ERROR(chunk_status[c]);
    }
  }

  // Merge. `inserted` is counted against the shared output, not the chunk
  // outputs: two chunks may both derive a tuple (each locally "new"), but
  // the branch contributed it once.
  const size_t before = out->size();
  BranchExecStats merged = build_stats;
  merged.snapshots = 1;
  merged.chunks = chunk_count;
  for (size_t c = 0; c < chunk_count; ++c) {
    merged.env_count += chunk_stats[c].env_count;
    merged.outer_tuples += chunk_stats[c].outer_tuples;
    merged.index_probes += chunk_stats[c].index_probes;
    DATACON_RETURN_IF_ERROR(out->InsertAll(chunk_outs[c]));
  }
  merged.inserted = out->size() - before;
  if (fanout_span.active()) {
    fanout_span.AddArg("chunks", static_cast<int64_t>(chunk_count));
    fanout_span.AddArg("inserted", static_cast<int64_t>(merged.inserted));
  }
  if (stats != nullptr) *stats = merged;
  return Status::OK();
}

}  // namespace datacon
