#include "ast/printer.h"

#include "common/check.h"
#include "types/value.h"

namespace datacon {

namespace {

/// Parenthesization is kept simple and unambiguous: AND/OR operands that are
/// themselves AND/OR are parenthesized, NOT and quantifier bodies always are.
std::string PredToString(const Pred& pred, bool parenthesize_compound);

std::string TermToString(const Term& term) {
  switch (term.kind()) {
    case Term::Kind::kFieldRef: {
      const auto& t = static_cast<const FieldRefTerm&>(term);
      return t.var() + "." + t.field();
    }
    case Term::Kind::kLiteral: {
      const auto& t = static_cast<const LiteralTerm&>(term);
      return t.value().ToString();
    }
    case Term::Kind::kParamRef: {
      const auto& t = static_cast<const ParamRefTerm&>(term);
      return t.name();
    }
    case Term::Kind::kArith: {
      const auto& t = static_cast<const ArithTerm&>(term);
      std::string out = "(";
      out += TermToString(*t.lhs());
      out += ' ';
      out += ArithOpName(t.op());
      out += ' ';
      out += TermToString(*t.rhs());
      out += ')';
      return out;
    }
  }
  DATACON_UNREACHABLE("term kind");
}

std::string RangeToString(const Range& range) {
  std::string out = range.relation();
  for (const RangeApp& app : range.apps()) {
    if (app.kind == RangeApp::Kind::kSelector) {
      out += " [" + app.name;
      if (!app.term_args.empty()) {
        out += "(";
        for (size_t i = 0; i < app.term_args.size(); ++i) {
          if (i > 0) out += ", ";
          out += TermToString(*app.term_args[i]);
        }
        out += ")";
      }
      out += "]";
    } else {
      out += " {" + app.name;
      if (!app.range_args.empty() || !app.term_args.empty()) {
        out += "(";
        bool first = true;
        for (const RangePtr& arg : app.range_args) {
          if (!first) out += ", ";
          first = false;
          out += RangeToString(*arg);
        }
        for (const TermPtr& arg : app.term_args) {
          if (!first) out += ", ";
          first = false;
          out += TermToString(*arg);
        }
        out += ")";
      }
      out += "}";
    }
  }
  return out;
}

std::string PredToString(const Pred& pred, bool parenthesize_compound) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
      return static_cast<const BoolPred&>(pred).value() ? "TRUE" : "FALSE";
    case Pred::Kind::kCompare: {
      const auto& p = static_cast<const ComparePred&>(pred);
      return TermToString(*p.lhs()) + " " + CompareOpName(p.op()) + " " +
             TermToString(*p.rhs());
    }
    case Pred::Kind::kAnd: {
      const auto& p = static_cast<const AndPred&>(pred);
      if (p.operands().empty()) return "TRUE";
      std::string out;
      for (size_t i = 0; i < p.operands().size(); ++i) {
        if (i > 0) out += " AND ";
        out += PredToString(*p.operands()[i], /*parenthesize_compound=*/true);
      }
      if (parenthesize_compound && p.operands().size() > 1) {
        return "(" + out + ")";
      }
      return out;
    }
    case Pred::Kind::kOr: {
      const auto& p = static_cast<const OrPred&>(pred);
      if (p.operands().empty()) return "FALSE";
      std::string out;
      for (size_t i = 0; i < p.operands().size(); ++i) {
        if (i > 0) out += " OR ";
        out += PredToString(*p.operands()[i], /*parenthesize_compound=*/true);
      }
      if (parenthesize_compound && p.operands().size() > 1) {
        return "(" + out + ")";
      }
      return out;
    }
    case Pred::Kind::kNot: {
      const auto& p = static_cast<const NotPred&>(pred);
      return "NOT (" +
             PredToString(*p.operand(), /*parenthesize_compound=*/false) + ")";
    }
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(pred);
      std::string q = p.quantifier() == Quantifier::kSome ? "SOME" : "ALL";
      return q + " " + p.var() + " IN " + RangeToString(*p.range()) + " (" +
             PredToString(*p.body(), /*parenthesize_compound=*/false) + ")";
    }
    case Pred::Kind::kIn: {
      const auto& p = static_cast<const InPred&>(pred);
      std::string out = "<";
      for (size_t i = 0; i < p.tuple().size(); ++i) {
        if (i > 0) out += ", ";
        out += TermToString(*p.tuple()[i]);
      }
      out += "> IN " + RangeToString(*p.range());
      return out;
    }
  }
  DATACON_UNREACHABLE("pred kind");
}

}  // namespace

std::string ToString(const Term& term) { return TermToString(term); }
std::string ToString(const Range& range) { return RangeToString(range); }
std::string ToString(const Pred& pred) {
  return PredToString(pred, /*parenthesize_compound=*/false);
}

std::string ToString(const Branch& branch) {
  std::string out;
  if (branch.targets().has_value()) {
    out += "<";
    const auto& ts = *branch.targets();
    for (size_t i = 0; i < ts.size(); ++i) {
      if (i > 0) out += ", ";
      out += TermToString(*ts[i]);
    }
    out += "> OF ";
  }
  for (size_t i = 0; i < branch.bindings().size(); ++i) {
    if (i > 0) out += ", ";
    const Binding& b = branch.bindings()[i];
    out += "EACH " + b.var + " IN " + RangeToString(*b.range);
  }
  out += ": " + ToString(*branch.pred());
  return out;
}

std::string ToString(const CalcExpr& expr) {
  std::string out = "{";
  for (size_t i = 0; i < expr.branches().size(); ++i) {
    if (i > 0) out += ",\n ";
    out += ToString(*expr.branches()[i]);
  }
  out += "}";
  return out;
}

std::string ToString(const SelectorDecl& decl) {
  std::string out = "SELECTOR " + decl.name();
  if (!decl.params().empty()) {
    out += " (";
    for (size_t i = 0; i < decl.params().size(); ++i) {
      if (i > 0) out += "; ";
      out += decl.params()[i].name;
      out += ": ";
      out += ValueTypeName(decl.params()[i].type);
    }
    out += ")";
  }
  out += " FOR " + decl.base().name + ": " + decl.base().type_name + ";\n";
  out += "BEGIN EACH " + decl.var() + " IN " + decl.base().name + ": " +
         ToString(*decl.pred()) + "\nEND " + decl.name();
  return out;
}

std::string ToString(const ConstructorDecl& decl) {
  std::string out = "CONSTRUCTOR " + decl.name() + " FOR " + decl.base().name +
                    ": " + decl.base().type_name;
  if (!decl.rel_params().empty() || !decl.scalar_params().empty()) {
    out += " (";
    bool first = true;
    for (const FormalRelation& r : decl.rel_params()) {
      if (!first) out += "; ";
      first = false;
      out += r.name + ": " + r.type_name;
    }
    for (const FormalScalar& s : decl.scalar_params()) {
      if (!first) out += "; ";
      first = false;
      out += s.name + ": " + std::string(ValueTypeName(s.type));
    }
    out += ")";
  }
  out += ": " + decl.result_type_name() + ";\nBEGIN ";
  for (size_t i = 0; i < decl.body()->branches().size(); ++i) {
    if (i > 0) out += ",\n      ";
    out += ToString(*decl.body()->branches()[i]);
  }
  out += "\nEND " + decl.name();
  return out;
}

std::string ToString(const ConstraintDecl& decl) {
  std::string out = "CONSTRAINT " + decl.name() + " ";
  switch (decl.kind()) {
    case ConstraintDecl::Kind::kDenial: {
      out += "DENY ";
      for (size_t i = 0; i < decl.bindings().size(); ++i) {
        if (i > 0) out += ", ";
        const Binding& b = decl.bindings()[i];
        out += "EACH " + b.var + " IN " + ToString(*b.range);
      }
      out += ": " + ToString(*decl.pred());
      break;
    }
    case ConstraintDecl::Kind::kKey: {
      out += "KEY <";
      for (size_t i = 0; i < decl.key_fields().size(); ++i) {
        if (i > 0) out += ", ";
        out += decl.key_fields()[i];
      }
      out += "> ON " + decl.relation();
      break;
    }
    case ConstraintDecl::Kind::kForeign: {
      out += "FOREIGN " + decl.fk_field() + " OF " + ToString(*decl.fk_range()) +
             " REFERENCES " + decl.ref_field() + " OF " +
             ToString(*decl.ref_range());
      break;
    }
  }
  return out;
}

}  // namespace datacon
