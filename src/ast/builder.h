#ifndef DATACON_AST_BUILDER_H_
#define DATACON_AST_BUILDER_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "ast/branch.h"
#include "ast/decl.h"
#include "ast/pred.h"
#include "ast/range.h"
#include "ast/term.h"

namespace datacon::build {

/// Terse factory functions for assembling ASTs programmatically — the
/// programmatic face of the DBPL fragment, used throughout tests, examples,
/// and the parser.

// --- Terms ---

inline TermPtr FieldRef(std::string var, std::string field) {
  return std::make_shared<FieldRefTerm>(std::move(var), std::move(field));
}
inline TermPtr Int(int64_t v) {
  return std::make_shared<LiteralTerm>(Value::Int(v));
}
inline TermPtr Str(std::string v) {
  return std::make_shared<LiteralTerm>(Value::String(v));
}
inline TermPtr BoolLit(bool v) {
  return std::make_shared<LiteralTerm>(Value::Bool(v));
}
inline TermPtr Param(std::string name) {
  return std::make_shared<ParamRefTerm>(std::move(name));
}
inline TermPtr Arith(ArithOp op, TermPtr l, TermPtr r) {
  return std::make_shared<ArithTerm>(op, std::move(l), std::move(r));
}
inline TermPtr Add(TermPtr l, TermPtr r) {
  return Arith(ArithOp::kAdd, std::move(l), std::move(r));
}
inline TermPtr Sub(TermPtr l, TermPtr r) {
  return Arith(ArithOp::kSub, std::move(l), std::move(r));
}

// --- Ranges ---

/// A plain relation reference.
inline RangePtr Rel(std::string name) {
  return std::make_shared<Range>(std::move(name));
}

/// `base [name(args)]` — appends a selector application.
RangePtr Selected(const RangePtr& base, std::string name,
                  std::vector<TermPtr> args = {});

/// `base {name(args)}` — appends a constructor application. `scalar_args`
/// supplies the constructor's scalar parameters (after the relation
/// arguments, as in the surface syntax).
RangePtr Constructed(const RangePtr& base, std::string name,
                     std::vector<RangePtr> args = {},
                     std::vector<TermPtr> scalar_args = {});

// --- Predicates ---

inline PredPtr True() { return std::make_shared<BoolPred>(true); }
inline PredPtr False() { return std::make_shared<BoolPred>(false); }
inline PredPtr Cmp(CompareOp op, TermPtr l, TermPtr r) {
  return std::make_shared<ComparePred>(op, std::move(l), std::move(r));
}
inline PredPtr Eq(TermPtr l, TermPtr r) {
  return Cmp(CompareOp::kEq, std::move(l), std::move(r));
}
inline PredPtr Ne(TermPtr l, TermPtr r) {
  return Cmp(CompareOp::kNe, std::move(l), std::move(r));
}
inline PredPtr Lt(TermPtr l, TermPtr r) {
  return Cmp(CompareOp::kLt, std::move(l), std::move(r));
}
inline PredPtr Le(TermPtr l, TermPtr r) {
  return Cmp(CompareOp::kLe, std::move(l), std::move(r));
}
inline PredPtr And(std::vector<PredPtr> ops) {
  return std::make_shared<AndPred>(std::move(ops));
}
inline PredPtr Or(std::vector<PredPtr> ops) {
  return std::make_shared<OrPred>(std::move(ops));
}
inline PredPtr Not(PredPtr p) { return std::make_shared<NotPred>(std::move(p)); }
inline PredPtr Some(std::string var, RangePtr range, PredPtr body) {
  return std::make_shared<QuantPred>(Quantifier::kSome, std::move(var),
                                     std::move(range), std::move(body));
}
inline PredPtr All(std::string var, RangePtr range, PredPtr body) {
  return std::make_shared<QuantPred>(Quantifier::kAll, std::move(var),
                                     std::move(range), std::move(body));
}
inline PredPtr In(std::vector<TermPtr> tuple, RangePtr range) {
  return std::make_shared<InPred>(std::move(tuple), std::move(range));
}

// --- Branches and expressions ---

inline Binding Each(std::string var, RangePtr range) {
  return Binding{std::move(var), std::move(range), SourceLoc{}};
}

/// A branch with an explicit target list.
inline BranchPtr MakeBranch(std::vector<TermPtr> targets,
                            std::vector<Binding> bindings, PredPtr pred) {
  return std::make_shared<Branch>(std::move(bindings), std::move(pred),
                                  std::move(targets));
}

/// An identity branch (`EACH v IN R: pred`, no target list).
inline BranchPtr IdentityBranch(std::string var, RangePtr range, PredPtr pred) {
  std::vector<Binding> bs;
  bs.push_back(Each(std::move(var), std::move(range)));
  return std::make_shared<Branch>(std::move(bs), std::move(pred));
}

inline CalcExprPtr Union(std::vector<BranchPtr> branches) {
  return std::make_shared<CalcExpr>(std::move(branches));
}

}  // namespace datacon::build

#endif  // DATACON_AST_BUILDER_H_
