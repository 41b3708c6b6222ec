#ifndef DATACON_RA_BRANCH_PLAN_H_
#define DATACON_RA_BRANCH_PLAN_H_

#include <string>
#include <vector>

#include "ast/branch.h"
#include "common/result.h"
#include "types/schema.h"

namespace datacon {

class ThreadPool;

/// Per-binding compiled form of a branch: which equality conjuncts become
/// hash-probe keys at this binding's level and which conjuncts run as
/// filters once the level's variable is bound.
struct BranchLevelPlan {
  /// One hash-key component: `inner_field_index` of this level's relation
  /// equals `outer` (a term over earlier levels only; at level 0, a term
  /// over no binding of the branch — a literal or a parameter).
  struct KeyEquality {
    int inner_field_index;
    TermPtr outer;
  };
  /// In column order: equalities over the same columns share one index.
  std::vector<KeyEquality> keys;
  std::vector<PredPtr> filters;
  /// Probing levels only: every conjunct of the level, keys included, in
  /// source order — the scan a probe falls back to when its key cannot be
  /// used (it fails to evaluate, or a checked run finds a value of the
  /// wrong type), so the fallback reports exactly what the probe-free plan
  /// would.
  std::vector<PredPtr> scan_filters;
};

/// The schema each binding ranges over, in branch order.
struct BindingSchema {
  std::string var;
  const Schema* schema;
  /// The binding ranges over a catalog relation variable
  /// (Relation::is_catalog_variable), whose indexes outlive the query:
  /// only then may level 0 probe instead of scanning.
  bool catalog_variable = false;
};

/// Options controlling physical branch execution.
struct BranchExecOptions {
  /// When false, equality conjuncts are never turned into hash probes —
  /// not at inner levels, not at level 0, not inside SOME quantifiers:
  /// every join runs as a filtered nested loop and every quantifier as a
  /// scan. Exists for the ablation benchmarks and the differential tests;
  /// always leave on in real use.
  bool use_hash_joins = true;
  /// Worker threads for the outermost scan of a branch: 1 = serial (the
  /// default, exactly the historical behavior), 0 = hardware concurrency,
  /// N = exactly N threads. See DESIGN.md §4.7 for the threading model.
  size_t num_threads = 1;
  /// Outer relations smaller than this run serially even when num_threads
  /// allows a fan-out — chunking overhead would dominate the work.
  size_t min_parallel_tuples = 32;
  /// Optional engine-owned worker pool reused across calls (the fixpoint
  /// engine installs one so per-round fan-outs do not respawn threads).
  /// When null and the resolved thread count exceeds 1, ExecuteBranch
  /// spins up a transient pool for the single call.
  ThreadPool* pool = nullptr;
};

/// Assigns every top-level conjunct of `branch` to the earliest level where
/// its variables are bound, turning probe-able equalities into hash keys
/// when `options.use_hash_joins`: at inner levels, and at level 0 when the
/// binding is a catalog relation variable. Fails when a conjunct references
/// a variable no binding provides.
Result<std::vector<BranchLevelPlan>> PlanBranchLevels(
    const Branch& branch, const std::vector<BindingSchema>& bindings,
    const BranchExecOptions& options = {});

/// Renders the physical plan of one branch, e.g.
///   `scan(f IN g_E) -> probe(b IN g_E {g_tc} on dst = f.src) ->
///    filter(...) -> project<f.src, b.dst>`.
/// Used by Database::Explain.
Result<std::string> ExplainBranchPlan(
    const Branch& branch, const std::vector<BindingSchema>& bindings,
    const BranchExecOptions& options = {});

}  // namespace datacon

#endif  // DATACON_RA_BRANCH_PLAN_H_
