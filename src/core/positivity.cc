#include "core/positivity.h"

#include "ast/printer.h"

namespace datacon {

namespace {

Status CheckExprPositivity(const CalcExpr& expr, const std::string& context) {
  Status violation = Status::OK();
  for (const BranchPtr& branch : expr.branches()) {
    ForEachRangeWithParity(*branch, [&](const Range& range, int parity) {
      if (!violation.ok()) return;
      if (parity % 2 != 0 && range.ContainsConstructor()) {
        violation = Status::PositivityViolation(
            context + ": constructed relation '" + ToString(range) +
            "' occurs under " + std::to_string(parity) +
            " NOT(s)/ALL(s); the positivity constraint requires an even "
            "total (section 3.3)");
      }
    });
    if (!violation.ok()) return violation;
  }
  return Status::OK();
}

}  // namespace

Status CheckPositivity(const ConstructorDecl& decl) {
  return CheckExprPositivity(*decl.body(), "constructor '" + decl.name() + "'");
}

Status CheckPositivity(const CalcExpr& expr) {
  return CheckExprPositivity(expr, "expression");
}

}  // namespace datacon
