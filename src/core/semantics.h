#ifndef DATACON_CORE_SEMANTICS_H_
#define DATACON_CORE_SEMANTICS_H_

#include <map>
#include <string>

#include "ast/branch.h"
#include "ast/decl.h"
#include "ast/range.h"
#include "common/result.h"
#include "core/catalog.h"
#include "types/schema.h"

namespace datacon {

/// Level-1 checks (run at definition time, section 4). Each is one run of
/// the type checker in analysis/typecheck.h and returns its first fatal
/// finding: E101 as kNotFound, every other code as kTypeError.

/// The declared schema a range expression denotes over the catalog's
/// relation variables: the base relation's schema, carried through each
/// constructor application's result type (selectors preserve it).
/// Application arguments are not checked — the checks below do that in
/// context; an unknown relation, relation type, or constructor is
/// kNotFound.
Result<const Schema*> RangeSchemaOf(const Range& range, const Catalog& catalog);

/// Checks a selector declaration against the catalog.
Status CheckSelectorDecl(const SelectorDecl& decl, const Catalog& catalog);

/// Type-checks a constructor declaration against the catalog: every branch's
/// ranges, predicate, and target list against the declared result type.
/// (The positivity test is separate; see positivity.h.)
Status CheckConstructorDecl(const ConstructorDecl& decl,
                            const Catalog& catalog);

/// Type-checks a query expression expected to produce `result_schema`.
/// `placeholders` declares the types of free scalar parameters (prepared
/// query forms, section 4).
Status CheckQuery(const CalcExpr& expr, const Catalog& catalog,
                  const Schema& result_schema,
                  const std::map<std::string, ValueType>& placeholders = {});

/// Infers a result schema for a query expression: the schema of the first
/// branch's range for identity branches, or synthesized fields c0..ck-1 from
/// the target terms' types. All branches must agree positionally.
Result<Schema> InferQuerySchema(const CalcExpr& expr, const Catalog& catalog,
                                const std::map<std::string, ValueType>&
                                    placeholders = {});

}  // namespace datacon

#endif  // DATACON_CORE_SEMANTICS_H_
