#ifndef DATACON_CORE_REWRITE_H_
#define DATACON_CORE_REWRITE_H_

#include <optional>
#include <string>

#include "ast/branch.h"
#include "ast/decl.h"
#include "common/result.h"
#include "core/catalog.h"

namespace datacon {

/// The section 4 propagation rules (a compiler-side application of the
/// range-nesting equivalences N1–N3 of [JaKo 83]):
///
/// A query branch ranging over a *non-recursive* constructor application is
/// replaced by one branch per constructor-body branch — case 3 (union)
/// distributes the query over the body; case 2 (join) substitutes, for each
/// reference to a result field of the constructed variable, the body
/// branch's corresponding target term; case 1 (selector) is the degenerate
/// single-branch single-variable instance. The rewritten query never
/// materializes the constructed relation.
///
/// Returns the rewritten expression, or nullopt when nothing was inlined
/// (no binding over a non-recursive constructor application). Recursive
/// constructors and ranges with selector applications after the
/// constructor are left untouched.
Result<std::optional<CalcExprPtr>> InlineNonRecursiveApplications(
    const CalcExprPtr& expr, const Catalog& catalog);

/// A compiled "seeded transitive closure" plan (the paper's constant
/// propagation into a recursive constructor, section 4): the query
///
///   { ... EACH v IN Base {tc_ctor}: v.<source_field> = <constant> AND rest }
///
/// is answered by computing reachability from the constant only. The plan
/// records which branch binding to replace and where the seed comes from.
struct SeededTcPlan {
  /// Index of the branch within the query expression (always 0: the plan
  /// applies to single-branch queries only).
  size_t branch_index = 0;
  /// Index of the binding ranging over the closure.
  size_t binding_index = 0;
  /// The application's plain base range (edges of the closure).
  RangePtr edges_range;
  /// Schema of the closure result.
  Schema result_schema;
  /// The seed: a literal value, or the name of a prepared-query parameter.
  std::optional<Value> seed_literal;
  std::optional<std::string> seed_param;
};

/// Detects a seeded-TC plan for `expr`, returning only plans that apply:
/// `expr` is one branch whose only constructed range is a binding over
/// `Base {c}`, where the base is constructor-free, `c` passes
/// DetectCapturedClosure, the predicate references no constructed range,
/// and it conjoins `v.<first result field> = <literal or parameter>`.
Result<std::optional<SeededTcPlan>> DetectSeededTc(const CalcExpr& expr,
                                                   const Catalog& catalog);

}  // namespace datacon

#endif  // DATACON_CORE_REWRITE_H_
