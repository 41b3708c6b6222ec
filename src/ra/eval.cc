#include "ra/eval.h"

#include "ast/printer.h"
#include "common/check.h"

namespace datacon {

// The walk is compiled twice (Proven = false/true). The checked variant
// tests operand types and constructs kTypeError on mismatch; the proven
// variant reduces those tests to DATACON_DCHECKs, which vanish in release
// builds — the type checker already discharged them (DESIGN §4.16).
// Division/MOD by zero stays a checked runtime error in both variants: no
// static analysis here proves divisors non-zero.

template <bool Proven>
Result<Value> Evaluator::EvalTermImpl(const Term& term,
                                      const Environment& env) const {
  switch (term.kind()) {
    case Term::Kind::kLiteral:
      return static_cast<const LiteralTerm&>(term).value();
    case Term::Kind::kParamRef: {
      const auto& t = static_cast<const ParamRefTerm&>(term);
      const Value* v = env.LookupParam(t.name());
      if (v == nullptr) {
        return Status::NotFound("unbound parameter '" + t.name() + "'");
      }
      return *v;
    }
    case Term::Kind::kFieldRef: {
      const auto& t = static_cast<const FieldRefTerm&>(term);
      const Environment::TupleBinding* b = env.Lookup(t.var());
      if (b == nullptr) {
        return Status::NotFound("unbound tuple variable '" + t.var() + "'");
      }
      std::optional<int> idx = b->schema->FieldIndex(t.field());
      if (!idx.has_value()) {
        return Status::NotFound("no field '" + t.field() + "' in " +
                                b->schema->ToString());
      }
      return b->tuple->value(*idx);
    }
    case Term::Kind::kArith: {
      const auto& t = static_cast<const ArithTerm&>(term);
      DATACON_ASSIGN_OR_RETURN(Value lhs, EvalTermImpl<Proven>(*t.lhs(), env));
      DATACON_ASSIGN_OR_RETURN(Value rhs, EvalTermImpl<Proven>(*t.rhs(), env));
      if constexpr (Proven) {
        DATACON_DCHECK(
            lhs.type() == ValueType::kInt && rhs.type() == ValueType::kInt,
            "typed-proven arithmetic over non-integers in " + ToString(term));
      } else {
        if (lhs.type() != ValueType::kInt || rhs.type() != ValueType::kInt) {
          return Status::TypeError("arithmetic over non-integers in " +
                                   ToString(term));
        }
      }
      int64_t a = lhs.AsInt(), b = rhs.AsInt();
      switch (t.op()) {
        case ArithOp::kAdd:
          return Value::Int(a + b);
        case ArithOp::kSub:
          return Value::Int(a - b);
        case ArithOp::kMul:
          return Value::Int(a * b);
        case ArithOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          return Value::Int(a / b);
        case ArithOp::kMod:
          if (b == 0) return Status::InvalidArgument("MOD by zero");
          return Value::Int(a % b);
      }
      DATACON_UNREACHABLE("arith op");
    }
  }
  DATACON_UNREACHABLE("term kind");
}

template <bool Proven>
Result<bool> Evaluator::EvalPredImpl(const Pred& pred,
                                     const Environment& env) const {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
      return static_cast<const BoolPred&>(pred).value();
    case Pred::Kind::kCompare: {
      const auto& p = static_cast<const ComparePred&>(pred);
      DATACON_ASSIGN_OR_RETURN(Value lhs, EvalTermImpl<Proven>(*p.lhs(), env));
      DATACON_ASSIGN_OR_RETURN(Value rhs, EvalTermImpl<Proven>(*p.rhs(), env));
      if constexpr (Proven) {
        DATACON_DCHECK(lhs.type() == rhs.type(),
                       "typed-proven comparison across types in " +
                           ToString(pred));
      } else {
        if (lhs.type() != rhs.type()) {
          return Status::TypeError("comparison across types in " +
                                   ToString(pred));
        }
      }
      int c = lhs.Compare(rhs);
      switch (p.op()) {
        case CompareOp::kEq:
          return c == 0;
        case CompareOp::kNe:
          return c != 0;
        case CompareOp::kLt:
          return c < 0;
        case CompareOp::kLe:
          return c <= 0;
        case CompareOp::kGt:
          return c > 0;
        case CompareOp::kGe:
          return c >= 0;
      }
      DATACON_UNREACHABLE("compare op");
    }
    case Pred::Kind::kAnd: {
      for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
        DATACON_ASSIGN_OR_RETURN(bool v, EvalPredImpl<Proven>(*op, env));
        if (!v) return false;
      }
      return true;
    }
    case Pred::Kind::kOr: {
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        DATACON_ASSIGN_OR_RETURN(bool v, EvalPredImpl<Proven>(*op, env));
        if (v) return true;
      }
      return false;
    }
    case Pred::Kind::kNot: {
      DATACON_ASSIGN_OR_RETURN(
          bool v, EvalPredImpl<Proven>(
                      *static_cast<const NotPred&>(pred).operand(), env));
      return !v;
    }
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(pred);
      const QuantProbe* probe = FindProbe(p);
      if (probe != nullptr) {
        if (std::optional<Tuple> key = ProbeKey<Proven>(*probe, env)) {
          // SOME over the tuples matching the key: the others make the
          // body's key equalities false.
          const Schema* schema = &probe->relation->schema();
          Environment inner(&env);
          for (const Tuple* t : probe->index->Probe(*key)) {
            inner.Bind(p.var(), t, schema);
            DATACON_ASSIGN_OR_RETURN(bool v,
                                     EvalPredImpl<Proven>(*p.body(), inner));
            if (v) return true;
          }
          return false;
        }
      }
      if (resolver_ == nullptr) {
        return Status::Internal("quantifier range without a resolver: " +
                                ToString(pred));
      }
      DATACON_ASSIGN_OR_RETURN(const Relation* rel,
                               resolver_->Resolve(*p.range()));
      // SOME: exists an element making the body true.
      // ALL: every element makes the body true (vacuously true when empty).
      Environment inner(&env);
      for (const Tuple& t : rel->tuples()) {
        inner.Bind(p.var(), &t, &rel->schema());
        DATACON_ASSIGN_OR_RETURN(bool v, EvalPredImpl<Proven>(*p.body(), inner));
        if (p.quantifier() == Quantifier::kSome && v) return true;
        if (p.quantifier() == Quantifier::kAll && !v) return false;
      }
      return p.quantifier() == Quantifier::kAll;
    }
    case Pred::Kind::kIn: {
      const auto& p = static_cast<const InPred&>(pred);
      if (resolver_ == nullptr) {
        return Status::Internal("membership range without a resolver: " +
                                ToString(pred));
      }
      DATACON_ASSIGN_OR_RETURN(const Relation* rel,
                               resolver_->Resolve(*p.range()));
      std::vector<Value> values;
      values.reserve(p.tuple().size());
      for (const TermPtr& t : p.tuple()) {
        DATACON_ASSIGN_OR_RETURN(Value v, EvalTermImpl<Proven>(*t, env));
        values.push_back(std::move(v));
      }
      return rel->Contains(Tuple(std::move(values)));
    }
  }
  DATACON_UNREACHABLE("pred kind");
}

template <bool Proven>
std::optional<Tuple> Evaluator::ProbeKey(const QuantProbe& probe,
                                         const Environment& env) const {
  const std::vector<int>& columns = probe.index->columns();
  std::vector<Value> values;
  const std::vector<TermPtr>& keys = *probe.keys;
  values.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    Result<Value> v = EvalTermImpl<Proven>(*keys[i], env);
    if (!v.ok()) return std::nullopt;
    if constexpr (!Proven) {
      if (v->type() != probe.relation->schema().field(columns[i]).type) {
        return std::nullopt;
      }
    }
    values.push_back(std::move(v).value());
  }
  return Tuple(std::move(values));
}

Result<Value> Evaluator::EvalTerm(const Term& term,
                                  const Environment& env) const {
  return typed_proven_ ? EvalTermImpl<true>(term, env)
                       : EvalTermImpl<false>(term, env);
}

Result<bool> Evaluator::EvalPred(const Pred& pred,
                                 const Environment& env) const {
  return typed_proven_ ? EvalPredImpl<true>(pred, env)
                       : EvalPredImpl<false>(pred, env);
}

}  // namespace datacon
