#ifndef DATACON_AST_BRANCH_H_
#define DATACON_AST_BRANCH_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ast/pred.h"
#include "ast/range.h"
#include "ast/source_loc.h"
#include "ast/term.h"

namespace datacon {

/// `EACH v IN range` — binds tuple variable `v` to each element of `range`.
struct Binding {
  std::string var;
  RangePtr range;
  /// Position of the binding's EACH keyword (invalid for built ASTs).
  SourceLoc loc;
};

class Branch;
using BranchPtr = std::shared_ptr<const Branch>;

/// One constructive branch of a relational expression:
///
///   [<t1, ..., tk> OF] EACH v1 IN R1, ..., EACH vn IN Rn : pred
///
/// Without a target list the branch copies the (single) bound variable's
/// tuple unchanged — the paper's `EACH r IN Rel: TRUE`.
class Branch {
 public:
  /// An identity branch (no target list). A separate constructor rather
  /// than a defaulted std::nullopt argument: moving a disengaged optional
  /// temporary trips GCC 12's -Wmaybe-uninitialized under the sanitizers.
  Branch(std::vector<Binding> bindings, PredPtr pred)
      : bindings_(std::move(bindings)), pred_(std::move(pred)) {}

  Branch(std::vector<Binding> bindings, PredPtr pred,
         std::optional<std::vector<TermPtr>> targets, SourceLoc loc = {})
      : bindings_(std::move(bindings)),
        pred_(std::move(pred)),
        targets_(std::move(targets)),
        loc_(loc) {}

  const std::vector<Binding>& bindings() const { return bindings_; }
  const PredPtr& pred() const { return pred_; }

  /// Target list, if declared; absent means identity projection of the
  /// single bound variable.
  const std::optional<std::vector<TermPtr>>& targets() const {
    return targets_;
  }

  /// Position where the branch starts (invalid for built ASTs).
  const SourceLoc& loc() const { return loc_; }

 private:
  std::vector<Binding> bindings_;
  PredPtr pred_;
  std::optional<std::vector<TermPtr>> targets_;
  SourceLoc loc_;
};

class CalcExpr;
using CalcExprPtr = std::shared_ptr<const CalcExpr>;

/// A relational calculus expression: the union of its constructive
/// branches — `{branch1, branch2, ...}` in the paper's notation.
class CalcExpr {
 public:
  explicit CalcExpr(std::vector<BranchPtr> branches)
      : branches_(std::move(branches)) {}

  const std::vector<BranchPtr>& branches() const { return branches_; }

 private:
  std::vector<BranchPtr> branches_;
};

/// Invokes `fn(range, parity)` for every range expression occurring in the
/// branch — binding ranges, quantifier ranges, and membership ranges —
/// where `parity` is the total number of enclosing NOTs and ALLs, counted
/// exactly as defined in section 3.3 of the paper:
///
///  * everything inside `NOT f` is under that NOT;
///  * the *range* of `ALL v IN exp (p)` is under that ALL, but names
///    occurring only in the body `p` are not;
///  * branch binding ranges are at parity 0.
///
/// Constructor arguments nested inside a range share the range's parity
/// (`fn` receives the outermost range; use Range::ContainsConstructor to
/// inspect nesting). The one walker over the predicate kinds' ranges.
void ForEachRangeWithParity(
    const Branch& branch,
    const std::function<void(const Range&, int parity)>& fn);

/// Same traversal over a bare predicate (its quantifier and membership
/// ranges), starting at `initial_parity`.
void ForEachRangeWithParity(
    const Pred& pred, int initial_parity,
    const std::function<void(const Range&, int parity)>& fn);

}  // namespace datacon

#endif  // DATACON_AST_BRANCH_H_
