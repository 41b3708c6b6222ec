#ifndef DATACON_CORE_CAPTURE_H_
#define DATACON_CORE_CAPTURE_H_

#include <optional>
#include <string>
#include <vector>

#include "ast/decl.h"
#include "common/result.h"
#include "core/catalog.h"
#include "storage/relation.h"
#include "types/schema.h"
#include "types/value.h"

namespace datacon {

/// Result of the transitive-closure capture rule (section 4, step 3:
/// "attempt to employ capture rules [Ullm 84] to detect special cases such
/// as [Schn 78]").
///
/// A constructor matches when it has the paper's `ahead` shape over binary
/// relations:
///
///   CONSTRUCTOR c FOR Rel: basetype (): resulttype;
///   BEGIN EACH r IN Rel: TRUE,
///         <f.a0, b.t1> OF EACH f IN Rel, EACH b IN Rel {c}: f.a1 = b.t0
///   END c
///
/// (left-linear; the mirrored right-linear form also matches). Such a
/// constructor denotes the transitive closure of its base, which a
/// specialized frontier algorithm computes without generic join machinery.
///
/// The detector reads only the declaration, so it records the fields it
/// matched by name; DetectCapturedClosure confirms them by position.
struct TransitiveClosureInfo {
  /// True for the `ahead` orientation (recursive tuple extends on the
  /// right); false for the mirrored right-linear form.
  bool left_linear = true;
  /// The base branch's projection <r.base_first, r.base_second>; both empty
  /// for the identity branch.
  std::string base_first, base_second;
  /// The step branch's projected (`target`) and joined (`join`) fields of
  /// the variable over the plain base (`outer`) and over the recursive
  /// application (`rec`).
  std::string outer_target, outer_join, rec_target, rec_join;
};

/// Detects the transitive-closure shape by field names. Returns nullopt
/// when the constructor is well-formed but differently shaped.
std::optional<TransitiveClosureInfo> DetectTransitiveClosure(
    const ConstructorDecl& decl);

/// The capture rule's one complete test: DetectTransitiveClosure, then its
/// fields confirmed by position against the constructor's declared base
/// and result schemas in `catalog`. Both must be binary, the base branch
/// the identity or <r.f0, r.f1>, and the step either left-linear
/// <outer.f0, rec.f1> joined on outer.f1 = rec.f0, or right-linear
/// <rec.f0, outer.f1> joined on rec.f1 = outer.f0.
std::optional<TransitiveClosureInfo> DetectCapturedClosure(
    const ConstructorDecl& decl, const Catalog& catalog);

/// The full transitive closure of the binary relation `edges`, computed by
/// a breadth-first frontier per source node. `result_schema` must be binary
/// with field types matching `edges`.
Result<Relation> FullClosure(const Relation& edges,
                             const Schema& result_schema);

/// The tuples of the transitive closure whose first component is in
/// `seeds` — the "magic" variant used when a query binds the source
/// attribute (the paper's `Infront [hidden_by("table")] {ahead}` plan):
/// only reachability from the seeds is ever computed. Walks the edges'
/// own index on the source column (Relation::IndexOn), so a lookup over an
/// indexed relation costs O(answer), not O(edges).
Result<Relation> SeededClosure(const Relation& edges,
                               const std::vector<Value>& seeds,
                               const Schema& result_schema);

}  // namespace datacon

#endif  // DATACON_CORE_CAPTURE_H_
