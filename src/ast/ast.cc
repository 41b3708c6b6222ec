#include <memory>

#include "ast/branch.h"
#include "ast/builder.h"
#include "ast/pred.h"
#include "ast/range.h"
#include "ast/term.h"
#include "common/check.h"

namespace datacon {

std::string ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "DIV";
    case ArithOp::kMod:
      return "MOD";
  }
  return "?";
}

std::string CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "#";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool Range::ContainsConstructor() const {
  for (const RangeApp& app : apps_) {
    if (app.kind == RangeApp::Kind::kConstructor) return true;
    for (const RangePtr& arg : app.range_args) {
      if (arg->ContainsConstructor()) return true;
    }
  }
  return false;
}

namespace build {

RangePtr Selected(const RangePtr& base, std::string name,
                  std::vector<TermPtr> args) {
  std::vector<RangeApp> apps = base->apps();
  RangeApp app;
  app.kind = RangeApp::Kind::kSelector;
  app.name = std::move(name);
  app.term_args = std::move(args);
  apps.push_back(std::move(app));
  return std::make_shared<Range>(base->relation(), std::move(apps));
}

RangePtr Constructed(const RangePtr& base, std::string name,
                     std::vector<RangePtr> args,
                     std::vector<TermPtr> scalar_args) {
  std::vector<RangeApp> apps = base->apps();
  RangeApp app;
  app.kind = RangeApp::Kind::kConstructor;
  app.name = std::move(name);
  app.range_args = std::move(args);
  app.term_args = std::move(scalar_args);
  apps.push_back(std::move(app));
  return std::make_shared<Range>(base->relation(), std::move(apps));
}

}  // namespace build

void ForEachRangeWithParity(
    const Pred& pred, int parity,
    const std::function<void(const Range&, int parity)>& fn) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
    case Pred::Kind::kCompare:
      return;
    case Pred::Kind::kAnd:
      for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
        ForEachRangeWithParity(*op, parity, fn);
      }
      return;
    case Pred::Kind::kOr:
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        ForEachRangeWithParity(*op, parity, fn);
      }
      return;
    case Pred::Kind::kNot:
      // Everything inside the negated factor is under one more NOT.
      ForEachRangeWithParity(*static_cast<const NotPred&>(pred).operand(),
                             parity + 1, fn);
      return;
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(pred);
      // Only a universal quantifier's *range* counts as "under" it
      // (section 3.3); SOME ranges and both bodies keep the current parity.
      fn(*p.range(), p.quantifier() == Quantifier::kAll ? parity + 1 : parity);
      ForEachRangeWithParity(*p.body(), parity, fn);
      return;
    }
    case Pred::Kind::kIn:
      fn(*static_cast<const InPred&>(pred).range(), parity);
      return;
  }
  DATACON_UNREACHABLE("pred kind");
}

void ForEachRangeWithParity(
    const Branch& branch,
    const std::function<void(const Range&, int parity)>& fn) {
  for (const Binding& b : branch.bindings()) fn(*b.range, 0);
  ForEachRangeWithParity(*branch.pred(), 0, fn);
}

}  // namespace datacon
