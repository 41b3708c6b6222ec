#ifndef DATACON_RA_BRANCH_EXEC_H_
#define DATACON_RA_BRANCH_EXEC_H_

#include <string>
#include <vector>

#include "ast/branch.h"
#include "common/status.h"
#include "ra/branch_plan.h"
#include "ra/env.h"
#include "ra/eval.h"
#include "storage/relation.h"

namespace datacon {

/// A branch binding whose range has already been materialized by the core
/// engine (selectors applied, constructed relations resolved to the current
/// fixpoint approximation or, in semi-naive rounds, to a delta).
struct ResolvedBinding {
  std::string var;
  const Relation* relation;
};

/// Statistics of one branch execution, reported to benchmarks, EXPLAIN
/// ANALYZE, and the fixpoint profile. All counters except the two marked
/// "execution detail" are deterministic: bit-identical at every thread
/// count, because they count logical work (which tuples were scanned,
/// probed, considered), not how that work was scheduled. All but
/// physical_index_builds are also history-free: they do not depend on which
/// indexes earlier statements left behind.
struct BranchExecStats {
  /// Environments reaching the innermost level (tuples considered).
  size_t env_count = 0;
  /// Tuples inserted into the output (new, after deduplication).
  size_t inserted = 0;
  /// Tuples tried at the outermost level — every tuple of a scan, the hits
  /// of a level-0 probe (serial or summed over chunks).
  size_t outer_tuples = 0;
  /// Indexed levels (inner join levels and a probing level 0), counted
  /// whether the level's index was built or reused.
  size_t index_builds = 0;
  /// Probe calls against those indexes (one per key lookup).
  size_t index_probes = 0;
  /// Indexes this execution actually built: a relation's own index
  /// (Relation::IndexOn) created on its first request, or rebuilt after a
  /// mutation dropped it — for join levels and quantifier probes alike.
  /// Depends on what earlier statements left behind.
  size_t physical_index_builds = 0;
  /// Execution detail: snapshot-resolver materializations before a fan-out.
  /// Varies with the thread count (0 on the serial path).
  size_t snapshots = 0;
  /// Execution detail: chunks dispatched to the worker pool.
  size_t chunks = 0;
};

/// The index access of one SOME quantifier as the compile step finds it
/// (see QuantProbe): the quantifier, the catalog relation variable its
/// plain range names (catalog relations outlive every compiled program),
/// the probed columns in order, and the key term per column. The index
/// itself is requested per execution: Clear, Subtract and assignment drop
/// a relation's indexes.
struct QuantProbeShape {
  const QuantPred* quant;
  const Relation* relation;
  std::vector<int> columns;
  std::vector<TermPtr> keys;
};

/// The compile step of one branch: its per-level plan (PlanBranchLevels),
/// the index columns of every probing level, and the shapes of its
/// quantifier probes. Holds no index and no pointer to a relation built for
/// one execution, so it stays valid across executions over the same
/// binding schemas; RunBranch only reads it (fan-out workers share it).
struct CompiledBranch {
  std::vector<BranchLevelPlan> levels;
  /// Per level: the probed columns (the keys' inner fields, in column
  /// order), empty for a scanning level.
  std::vector<std::vector<int>> index_columns;
  std::vector<QuantProbeShape> quant_probes;
};

/// Compiles one constructive branch over bindings of the given schemas:
///
///   [<targets> OF] EACH v1 IN R1, ..., EACH vn IN Rn : pred
///
/// becomes a left-deep pipeline of scans and hash joins. Top-level
/// equi-join conjuncts (`vi.f = <expr over earlier variables>`) become
/// probes of the bound relation's own index (Relation::IndexOn), and so
/// does level 0 over a catalog relation variable with a
/// `v1.f = <literal or parameter>` conjunct; a SOME quantifier whose range
/// `resolver` resolves to a catalog relation variable, with
/// `v.f = <term free of v>` in its body, probes too (QuantProbeShape).
/// Every other conjunct is evaluated as a filter at the earliest level
/// where its variables are bound.
Result<CompiledBranch> CompileBranch(const Branch& branch,
                                     const std::vector<BindingSchema>& bindings,
                                     const RelationResolver* resolver,
                                     const BranchExecOptions& options = {});

/// The run step: executes `compiled` (CompileBranch over these bindings'
/// schemas) with the given relations bound. Every index the plan probes is
/// requested from its relation here, on the calling thread. Result tuples
/// are appended to `out` with set semantics (and key enforcement, if `out`
/// declares a key).
///
/// `eval` carries the resolver used for quantifier/membership ranges inside
/// the predicate; `base_env` carries scalar parameter bindings.
Status RunBranch(const Branch& branch, const CompiledBranch& compiled,
                 const std::vector<ResolvedBinding>& bindings,
                 const Evaluator& eval, const Environment& base_env,
                 Relation* out, BranchExecStats* stats = nullptr,
                 const BranchExecOptions& options = {});

/// Compiles and runs one branch once (CompileBranch, then RunBranch).
Status ExecuteBranch(const Branch& branch,
                     const std::vector<ResolvedBinding>& bindings,
                     const Evaluator& eval, const Environment& base_env,
                     Relation* out, BranchExecStats* stats = nullptr,
                     const BranchExecOptions& options = {});

}  // namespace datacon

#endif  // DATACON_RA_BRANCH_EXEC_H_
