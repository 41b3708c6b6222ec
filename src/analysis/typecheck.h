#ifndef DATACON_ANALYSIS_TYPECHECK_H_
#define DATACON_ANALYSIS_TYPECHECK_H_

#include <map>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "ast/branch.h"
#include "ast/decl.h"
#include "ast/source_loc.h"
#include "core/catalog.h"
#include "types/value.h"

namespace datacon {

/// The type checker (DESIGN §4.8, §4.16): one walk over every term,
/// predicate, and range, which is both level 1's definition analysis and
/// whole-program type inference. Each row in scope carries its range's
/// declared Schema and its inference cells.
///
/// The declared side is level 1: E101 for an unknown relation, selector,
/// constructor, parameter, tuple variable, or field; E102 for structural
/// defects; and type mismatches between declared types, which keep
/// inference's codes (E130 argument/target types, W240/E131 comparisons,
/// E131 arithmetic) and are *fatal* — core/semantics.h's Status API returns
/// the first fatal finding.
///
/// The inferred side propagates types from target lists and identity
/// ranges through constructor recursion, over the SCC condensation of the
/// constructor reference graph, on the lattice
///
///     unknown  ⊑  INTEGER | STRING | BOOLEAN  ⊑  conflict
///
/// bottom-up (never seeded from the declarations), so comparing it with the
/// declarations yields genuine findings: E130 conflicts, W241 unconstrained
/// attributes, and W242 union name mismatches. A catalog whose every
/// definition passes is
/// *typed-proven*: evaluation may elide per-tuple type dispatch (ra/eval.h).

/// What fixed an inference cell's type. Rendered only when a finding cites
/// it; the pointers borrow from the checked declarations' ASTs.
struct TypeOrigin {
  enum class Kind {
    kNone,
    kTerm,          // `term`: a literal, parameter, field reference, or sum
    kRelation,      // `name`: a range's base relation
    kBaseRelation,  // `name`: a selector's base relation parameter
    kConstructor,   // `name`: a constructor application's result
    kIdentity,      // `range`: an identity branch over the range
  };

  Kind kind = Kind::kNone;
  const Term* term = nullptr;
  const std::string* name = nullptr;
  const Range* range = nullptr;

  /// e.g. "literal 3", "'r.qty'", "relation 'Item'"; empty for kNone.
  std::string ToString() const;
};

/// One attribute's inference cell. `loc`/`origin` describe the first
/// contribution that fixed the type; `other_*` the contribution that
/// conflicted with it (valid only in the kConflict state).
struct InferredType {
  enum class State { kUnknown, kKnown, kConflict };

  State state = State::kUnknown;
  ValueType type = ValueType::kInt;
  SourceLoc loc;
  TypeOrigin origin;
  ValueType other_type = ValueType::kInt;
  SourceLoc other_loc;
  TypeOrigin other_origin;

  static InferredType Unknown() { return InferredType{}; }
  static InferredType Known(ValueType type, SourceLoc loc, TypeOrigin origin);

  /// "INTEGER", "?", or "<conflict>".
  std::string ToString() const;
};

/// The inferred full schema (names + types) of one derived relation.
struct InferredSchema {
  std::vector<std::string> names;
  std::vector<InferredType> columns;

  /// "RECORD src: STRING; len: INTEGER END" with "?" for unknown columns.
  std::string ToString() const;
};

/// The outcome of inference over a whole catalog.
struct TypeInference {
  /// Constructor name -> inferred result schema.
  std::map<std::string, InferredSchema> constructors;
  std::vector<Diagnostic> diagnostics;

  bool HasErrors() const;
};

/// Runs inference and checking over every selector and constructor in the
/// catalog. Constructors are processed as one group, so mutual recursion
/// across existing definitions is typed precisely. Cell origins borrow from
/// the catalog's declarations.
TypeInference InferCatalogTypes(const Catalog& catalog);

/// Type-checks one constructor group (the unit of mutual recursion) against
/// `catalog`. Members of `group` are resolved from the group itself, so the
/// pass works whether or not they are registered in the catalog yet — the
/// define path runs it after provisional registration, the lint path
/// before.
std::vector<Diagnostic> TypecheckConstructorGroup(
    const std::vector<ConstructorDeclPtr>& group, const Catalog& catalog);

/// The define-time verdicts of one TypecheckConstructorGroup pass.
struct GroupVerdict {
  /// Per group member, in order: the first finding level 1 rejects on
  /// (E101 -> kNotFound, anything else -> kTypeError), or OK.
  std::vector<Status> members;
  /// The first remaining error-severity finding (kTypeError), or OK.
  Status inference;
};
GroupVerdict CheckConstructorGroup(const std::vector<ConstructorDeclPtr>& group,
                                   const Catalog& catalog);

/// Type-checks a selector declaration.
std::vector<Diagnostic> TypecheckSelector(const SelectorDecl& decl,
                                          const Catalog& catalog);

/// Type-checks a query expression, inferring its result schema from the
/// first branch; W242 when the union's branches disagree on a result field
/// name.
std::vector<Diagnostic> TypecheckQueryExpr(
    const CalcExpr& expr, const Catalog& catalog,
    const std::map<std::string, ValueType>& placeholders = {});

}  // namespace datacon

#endif  // DATACON_ANALYSIS_TYPECHECK_H_
