#include "core/subst.h"

#include <iterator>

#include "common/check.h"

namespace datacon {

namespace {

/// Substitutes every element of `in` into `out`; true when any changed.
template <typename Ptr>
bool SubstituteEach(const std::vector<Ptr>& in, const Substitution& subst,
                    Ptr (*fn)(const Ptr&, const Substitution&),
                    std::vector<Ptr>* out) {
  out->reserve(in.size());
  bool changed = false;
  for (const Ptr& x : in) {
    out->push_back(fn(x, subst));
    changed |= out->back() != x;
  }
  return changed;
}

const std::string& Renamed(const Substitution& subst, const std::string& var) {
  auto it = subst.vars.find(var);
  return it == subst.vars.end() ? var : it->second;
}

}  // namespace

TermPtr SubstituteTerm(const TermPtr& term, const Substitution& subst) {
  switch (term->kind()) {
    case Term::Kind::kLiteral:
      return term;
    case Term::Kind::kFieldRef: {
      const auto& t = static_cast<const FieldRefTerm&>(*term);
      if (!subst.fields.empty()) {
        auto it = subst.fields.find({t.var(), t.field()});
        if (it != subst.fields.end()) return it->second;
      }
      const std::string& var = Renamed(subst, t.var());
      if (&var == &t.var()) return term;
      return std::make_shared<FieldRefTerm>(var, t.field());
    }
    case Term::Kind::kParamRef: {
      const auto& t = static_cast<const ParamRefTerm&>(*term);
      auto it = subst.scalars.find(t.name());
      if (it == subst.scalars.end()) return term;
      return it->second;
    }
    case Term::Kind::kArith: {
      const auto& t = static_cast<const ArithTerm&>(*term);
      TermPtr lhs = SubstituteTerm(t.lhs(), subst);
      TermPtr rhs = SubstituteTerm(t.rhs(), subst);
      if (lhs == t.lhs() && rhs == t.rhs()) return term;
      return std::make_shared<ArithTerm>(t.op(), std::move(lhs), std::move(rhs));
    }
  }
  DATACON_UNREACHABLE("term kind");
}

RangePtr SubstituteRange(const RangePtr& range, const Substitution& subst) {
  std::vector<RangeApp> apps;
  apps.reserve(range->apps().size());
  bool changed = false;
  for (const RangeApp& app : range->apps()) {
    RangeApp copy{app.kind, app.name, {}, {}};
    changed |= SubstituteEach(app.term_args, subst, &SubstituteTerm,
                              &copy.term_args);
    changed |= SubstituteEach(app.range_args, subst, &SubstituteRange,
                              &copy.range_args);
    apps.push_back(std::move(copy));
  }

  auto it = subst.relations.find(range->relation());
  if (it == subst.relations.end()) {
    if (!changed) return range;
    return std::make_shared<Range>(range->relation(), std::move(apps));
  }
  // Splice: the actual's own suffix chain comes first, then this
  // occurrence's (substituted) suffixes.
  const RangePtr& actual = it->second;
  if (apps.empty()) return actual;
  std::vector<RangeApp> spliced = actual->apps();
  spliced.insert(spliced.end(), std::make_move_iterator(apps.begin()),
                 std::make_move_iterator(apps.end()));
  return std::make_shared<Range>(actual->relation(), std::move(spliced));
}

PredPtr SubstitutePred(const PredPtr& pred, const Substitution& subst) {
  switch (pred->kind()) {
    case Pred::Kind::kBool:
      return pred;
    case Pred::Kind::kCompare: {
      const auto& p = static_cast<const ComparePred&>(*pred);
      TermPtr lhs = SubstituteTerm(p.lhs(), subst);
      TermPtr rhs = SubstituteTerm(p.rhs(), subst);
      if (lhs == p.lhs() && rhs == p.rhs()) return pred;
      return std::make_shared<ComparePred>(p.op(), std::move(lhs),
                                           std::move(rhs));
    }
    case Pred::Kind::kAnd: {
      std::vector<PredPtr> ops;
      if (!SubstituteEach(static_cast<const AndPred&>(*pred).operands(), subst,
                          &SubstitutePred, &ops)) {
        return pred;
      }
      return std::make_shared<AndPred>(std::move(ops));
    }
    case Pred::Kind::kOr: {
      std::vector<PredPtr> ops;
      if (!SubstituteEach(static_cast<const OrPred&>(*pred).operands(), subst,
                          &SubstitutePred, &ops)) {
        return pred;
      }
      return std::make_shared<OrPred>(std::move(ops));
    }
    case Pred::Kind::kNot: {
      const auto& p = static_cast<const NotPred&>(*pred);
      PredPtr operand = SubstitutePred(p.operand(), subst);
      if (operand == p.operand()) return pred;
      return std::make_shared<NotPred>(std::move(operand));
    }
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(*pred);
      const std::string& var = Renamed(subst, p.var());
      RangePtr range = SubstituteRange(p.range(), subst);
      PredPtr body = SubstitutePred(p.body(), subst);
      if (&var == &p.var() && range == p.range() && body == p.body()) {
        return pred;
      }
      return std::make_shared<QuantPred>(p.quantifier(), var, std::move(range),
                                         std::move(body), p.loc());
    }
    case Pred::Kind::kIn: {
      const auto& p = static_cast<const InPred&>(*pred);
      std::vector<TermPtr> tuple;
      bool changed = SubstituteEach(p.tuple(), subst, &SubstituteTerm, &tuple);
      RangePtr range = SubstituteRange(p.range(), subst);
      if (!changed && range == p.range()) return pred;
      return std::make_shared<InPred>(std::move(tuple), std::move(range));
    }
  }
  DATACON_UNREACHABLE("pred kind");
}

BranchPtr SubstituteBranch(const BranchPtr& branch, const Substitution& subst) {
  bool changed = false;
  std::vector<Binding> bindings;
  bindings.reserve(branch->bindings().size());
  for (const Binding& b : branch->bindings()) {
    const std::string& var = Renamed(subst, b.var);
    RangePtr range = SubstituteRange(b.range, subst);
    changed |= &var != &b.var || range != b.range;
    bindings.push_back(Binding{var, std::move(range), b.loc});
  }
  PredPtr pred = SubstitutePred(branch->pred(), subst);
  changed |= pred != branch->pred();
  std::optional<std::vector<TermPtr>> targets;
  if (branch->targets().has_value()) {
    targets.emplace();
    changed |= SubstituteEach(*branch->targets(), subst, &SubstituteTerm,
                              &*targets);
  }
  if (!changed) return branch;
  return std::make_shared<Branch>(std::move(bindings), std::move(pred),
                                  std::move(targets), branch->loc());
}

CalcExprPtr SubstituteExpr(const CalcExprPtr& expr, const Substitution& subst) {
  std::vector<BranchPtr> branches;
  if (!SubstituteEach(expr->branches(), subst, &SubstituteBranch, &branches)) {
    return expr;
  }
  return std::make_shared<CalcExpr>(std::move(branches));
}

}  // namespace datacon
