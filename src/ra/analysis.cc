#include "ra/analysis.h"

#include "ast/builder.h"
#include "common/check.h"

namespace datacon {

void CollectFreeVars(const Term& term, std::set<std::string>* out) {
  switch (term.kind()) {
    case Term::Kind::kFieldRef:
      out->insert(static_cast<const FieldRefTerm&>(term).var());
      return;
    case Term::Kind::kLiteral:
    case Term::Kind::kParamRef:
      return;
    case Term::Kind::kArith: {
      const auto& t = static_cast<const ArithTerm&>(term);
      CollectFreeVars(*t.lhs(), out);
      CollectFreeVars(*t.rhs(), out);
      return;
    }
  }
  DATACON_UNREACHABLE("term kind");
}

void CollectFreeVars(const Pred& pred, std::set<std::string>* out) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
      return;
    case Pred::Kind::kCompare: {
      const auto& p = static_cast<const ComparePred&>(pred);
      CollectFreeVars(*p.lhs(), out);
      CollectFreeVars(*p.rhs(), out);
      return;
    }
    case Pred::Kind::kAnd:
      for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
        CollectFreeVars(*op, out);
      }
      return;
    case Pred::Kind::kOr:
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        CollectFreeVars(*op, out);
      }
      return;
    case Pred::Kind::kNot:
      CollectFreeVars(*static_cast<const NotPred&>(pred).operand(), out);
      return;
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(pred);
      std::set<std::string> inner;
      CollectFreeVars(*p.body(), &inner);
      inner.erase(p.var());
      out->insert(inner.begin(), inner.end());
      // Selector arguments inside the range may reference outer variables.
      for (const RangeApp& app : p.range()->apps()) {
        for (const TermPtr& t : app.term_args) CollectFreeVars(*t, out);
      }
      return;
    }
    case Pred::Kind::kIn: {
      const auto& p = static_cast<const InPred&>(pred);
      for (const TermPtr& t : p.tuple()) CollectFreeVars(*t, out);
      for (const RangeApp& app : p.range()->apps()) {
        for (const TermPtr& t : app.term_args) CollectFreeVars(*t, out);
      }
      return;
    }
  }
  DATACON_UNREACHABLE("pred kind");
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
