#include "ra/analysis.h"

#include "ast/builder.h"
#include "common/check.h"

namespace datacon {

namespace {

/// What one collector gathers: `leaf` sees every non-arithmetic term. With
/// `scoped`, a quantifier's variable is bound in its body, so the body's
/// contribution leaves it out (tuple variables; parameters live in another
/// namespace, which a quantifier variable of the same name does not hide).
struct Collector {
  void (*leaf)(const Term& term, std::set<std::string>* out);
  bool scoped;
};

void AddVar(const Term& term, std::set<std::string>* out) {
  if (term.kind() == Term::Kind::kFieldRef) {
    out->insert(static_cast<const FieldRefTerm&>(term).var());
  }
}

void AddParam(const Term& term, std::set<std::string>* out) {
  if (term.kind() == Term::Kind::kParamRef) {
    out->insert(static_cast<const ParamRefTerm&>(term).name());
  }
}

constexpr Collector kFreeVars{&AddVar, true};
constexpr Collector kParamRefs{&AddParam, false};

void Collect(const Collector& c, const Term& term, std::set<std::string>* out) {
  if (term.kind() != Term::Kind::kArith) {
    c.leaf(term, out);
    return;
  }
  const auto& t = static_cast<const ArithTerm&>(term);
  Collect(c, *t.lhs(), out);
  Collect(c, *t.rhs(), out);
}

void Collect(const Collector& c, const Range& range,
             std::set<std::string>* out) {
  for (const RangeApp& app : range.apps()) {
    for (const TermPtr& t : app.term_args) Collect(c, *t, out);
    for (const RangePtr& r : app.range_args) Collect(c, *r, out);
  }
}

void Collect(const Collector& c, const Pred& pred, std::set<std::string>* out) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
      return;
    case Pred::Kind::kCompare: {
      const auto& p = static_cast<const ComparePred&>(pred);
      Collect(c, *p.lhs(), out);
      Collect(c, *p.rhs(), out);
      return;
    }
    case Pred::Kind::kAnd:
      for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
        Collect(c, *op, out);
      }
      return;
    case Pred::Kind::kOr:
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        Collect(c, *op, out);
      }
      return;
    case Pred::Kind::kNot:
      Collect(c, *static_cast<const NotPred&>(pred).operand(), out);
      return;
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(pred);
      // The range is outside the quantifier's scope: its selector arguments
      // may reference outer variables.
      Collect(c, *p.range(), out);
      if (!c.scoped) {
        Collect(c, *p.body(), out);
        return;
      }
      std::set<std::string> inner;
      Collect(c, *p.body(), &inner);
      inner.erase(p.var());
      out->insert(inner.begin(), inner.end());
      return;
    }
    case Pred::Kind::kIn: {
      const auto& p = static_cast<const InPred&>(pred);
      for (const TermPtr& t : p.tuple()) Collect(c, *t, out);
      Collect(c, *p.range(), out);
      return;
    }
  }
  DATACON_UNREACHABLE("pred kind");
}

}  // namespace

void CollectFreeVars(const Term& term, std::set<std::string>* out) {
  Collect(kFreeVars, term, out);
}

void CollectFreeVars(const Range& range, std::set<std::string>* out) {
  Collect(kFreeVars, range, out);
}

void CollectFreeVars(const Pred& pred, std::set<std::string>* out) {
  Collect(kFreeVars, pred, out);
}

void CollectParamRefs(const Pred& pred, std::set<std::string>* out) {
  Collect(kParamRefs, pred, out);
}

void CollectParamRefs(const Branch& branch, std::set<std::string>* out) {
  for (const Binding& b : branch.bindings()) Collect(kParamRefs, *b.range, out);
  Collect(kParamRefs, *branch.pred(), out);
  if (branch.targets().has_value()) {
    for (const TermPtr& t : *branch.targets()) Collect(kParamRefs, *t, out);
  }
}

std::set<std::string> FreeVars(const Pred& pred) {
  std::set<std::string> out;
  CollectFreeVars(pred, &out);
  return out;
}

std::optional<VarEquality> MatchVarEquality(const Pred& conjunct,
                                            const std::string& var) {
  if (conjunct.kind() != Pred::Kind::kCompare) return std::nullopt;
  const auto& cmp = static_cast<const ComparePred&>(conjunct);
  if (cmp.op() != CompareOp::kEq) return std::nullopt;
  for (bool flip : {false, true}) {
    const Term& side = flip ? *cmp.rhs() : *cmp.lhs();
    const TermPtr& other = flip ? cmp.lhs() : cmp.rhs();
    if (side.kind() != Term::Kind::kFieldRef) continue;
    const auto& ref = static_cast<const FieldRefTerm&>(side);
    if (ref.var() != var) continue;
    std::set<std::string> other_vars;
    CollectFreeVars(*other, &other_vars);
    if (other_vars.count(var) > 0) continue;
    return VarEquality{ref.field(), other};
  }
  return std::nullopt;
}

namespace {
void FlattenInto(const PredPtr& pred, std::vector<PredPtr>* out) {
  if (pred->kind() == Pred::Kind::kAnd) {
    for (const PredPtr& op : static_cast<const AndPred&>(*pred).operands()) {
      FlattenInto(op, out);
    }
    return;
  }
  if (pred->kind() == Pred::Kind::kBool &&
      static_cast<const BoolPred&>(*pred).value()) {
    return;  // TRUE contributes nothing to a conjunction.
  }
  out->push_back(pred);
}
}  // namespace

std::vector<PredPtr> FlattenConjuncts(const PredPtr& pred) {
  std::vector<PredPtr> out;
  FlattenInto(pred, &out);
  return out;
}

PredPtr ConjunctsToPred(std::vector<PredPtr> conjuncts) {
  if (conjuncts.empty()) return build::True();
  if (conjuncts.size() == 1) return conjuncts[0];
  return build::And(std::move(conjuncts));
}

}  // namespace datacon
