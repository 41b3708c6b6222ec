#ifndef DATACON_RA_ANALYSIS_H_
#define DATACON_RA_ANALYSIS_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ast/branch.h"
#include "ast/pred.h"
#include "ast/range.h"
#include "ast/term.h"

namespace datacon {

/// The one deep collector over terms, ranges, predicates and branches.
/// Ranges contribute the selector arguments of their application chain,
/// through nested constructor arguments; predicates contribute their
/// comparisons, membership tuples, and quantifier and membership ranges.

/// Adds the tuple variables occurring free in `term` to `out`.
void CollectFreeVars(const Term& term, std::set<std::string>* out);

/// Adds the tuple variables a correlated range references to `out` (the
/// `r` of `Rel [near(r.pos)]`).
void CollectFreeVars(const Range& range, std::set<std::string>* out);

/// Adds the tuple variables occurring free in `pred` to `out`. Quantifier
/// variables are bound in their body and therefore excluded.
void CollectFreeVars(const Pred& pred, std::set<std::string>* out);

/// Adds the scalar parameters `pred` references to `out`.
void CollectParamRefs(const Pred& pred, std::set<std::string>* out);

/// Adds the scalar parameters `branch` references anywhere — binding
/// ranges, predicate, target list — to `out`.
void CollectParamRefs(const Branch& branch, std::set<std::string>* out);

/// The free tuple variables of `pred`.
std::set<std::string> FreeVars(const Pred& pred);

/// A conjunct `var.field = other` (either orientation) whose `other` side
/// is free of `var`: the shape a hash probe on `var`'s `field` answers.
struct VarEquality {
  std::string field;
  TermPtr other;
};

/// The VarEquality `conjunct` is over `var`, or nullopt.
std::optional<VarEquality> MatchVarEquality(const Pred& conjunct,
                                            const std::string& var);

/// Splits `pred` into its top-level conjuncts: an AndPred flattens
/// (recursively through nested ANDs); anything else is a single conjunct.
/// A literal TRUE produces no conjuncts.
std::vector<PredPtr> FlattenConjuncts(const PredPtr& pred);

/// Rebuilds a predicate from conjuncts: empty -> TRUE, singleton -> itself,
/// otherwise an AndPred.
PredPtr ConjunctsToPred(std::vector<PredPtr> conjuncts);

}  // namespace datacon

#endif  // DATACON_RA_ANALYSIS_H_
