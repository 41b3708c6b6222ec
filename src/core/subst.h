#ifndef DATACON_CORE_SUBST_H_
#define DATACON_CORE_SUBST_H_

#include <map>
#include <string>
#include <utility>

#include "ast/branch.h"
#include "ast/pred.h"
#include "ast/range.h"
#include "ast/term.h"
#include "types/value.h"

namespace datacon {

/// The one AST substitution. Instantiating a selector/constructor definition
/// replaces formal names by actuals (section 3.2: "replacing all formal
/// parameters by their actual values"); the section 4 propagation rules and
/// constraint residues rewrite field references into other terms.
///
/// A single traversal applies every map everywhere: binding, quantifier and
/// membership ranges (selector arguments included), constructor arguments
/// nested inside them, predicates and target lists. Replacement terms and
/// ranges are inserted as given, never substituted again. Source locations
/// survive, and a subtree nothing applies to comes back as the same pointer.
struct Substitution {
  /// Formal relation name -> actual range. The actual's suffix chain is
  /// spliced in front of any suffixes the occurrence carries.
  std::map<std::string, RangePtr> relations;
  /// Scalar parameter name -> actual term (a literal constant, or a
  /// placeholder parameter of an enclosing prepared query form).
  std::map<std::string, TermPtr> scalars;
  /// (tuple variable, field) -> replacement term: a predicate over a
  /// constructed variable rewritten onto a branch's target terms, or a
  /// residue's delta variable replaced by parameters. Semantic analysis
  /// forbids shadowing, so quantifiers never hide a mapped variable.
  std::map<std::pair<std::string, std::string>, TermPtr> fields;
  /// Tuple variable renames, applied to binding variables, quantifier
  /// variables and field references alike. A field reference `fields`
  /// replaces is not renamed.
  std::map<std::string, std::string> vars;
};

TermPtr SubstituteTerm(const TermPtr& term, const Substitution& subst);
RangePtr SubstituteRange(const RangePtr& range, const Substitution& subst);
PredPtr SubstitutePred(const PredPtr& pred, const Substitution& subst);
BranchPtr SubstituteBranch(const BranchPtr& branch, const Substitution& subst);
CalcExprPtr SubstituteExpr(const CalcExprPtr& expr, const Substitution& subst);

}  // namespace datacon

#endif  // DATACON_CORE_SUBST_H_
