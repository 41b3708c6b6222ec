#ifndef DATACON_ANALYSIS_LINT_H_
#define DATACON_ANALYSIS_LINT_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "ast/branch.h"
#include "ast/decl.h"
#include "core/catalog.h"

namespace datacon {

/// Knobs of the lint pipeline.
struct LintOptions {
  /// Mirrors DatabaseOptions::allow_stratified_negation: when set, an
  /// odd-parity constructed range over a *different* recursion component is
  /// reported as W212 (informative) instead of E103.
  bool allow_stratified_negation = false;
  /// Run the adornment/relevance analysis (analysis/adorn.h) over every
  /// query/assignment/EXPLAIN expression and report W220/W221/W222 where an
  /// adorned constructor application cannot be specialized. Off by default —
  /// the findings only matter when PRAGMA SPECIALIZE performance is wanted.
  /// The `datacon-lint --adorn` flag turns it on.
  bool adorn = false;
  /// Audit declared constraints against the script's own data flow: W231
  /// when a constraint is refuted by the facts the script inserts, W232
  /// when no statement of the script can ever change one of the
  /// constraint's input relations. Off by default — both checks replay the
  /// script's definitions/inserts into a scratch database. The
  /// `datacon-lint --constraints` flag turns it on.
  bool constraints = false;
  /// Run whole-program type inference (analysis/typecheck.h) over every
  /// selector, constructor group, and query expression and report
  /// E130/E131/W240/W241/W242. Off by default; the `datacon-lint
  /// --types` flag and `DatabaseOptions::typecheck` (CHECK SCRIPT) turn it
  /// on.
  bool types = false;
};

/// Lints one selector declaration against `catalog` (which supplies the
/// relations and selectors/constructors its predicate may reference).
/// Reports E101 unknown names, E110 unsafe variables, W202 unused
/// parameters, W203 shadowing, W205 always-false predicate, and W206
/// constant conjuncts.
std::vector<Diagnostic> LintSelector(const SelectorDecl& decl,
                                     const Catalog& catalog);

/// Lints a set of (possibly mutually recursive) constructors. Group members
/// may reference each other and themselves even when not yet registered in
/// `catalog` — the pre-definition path of `PRAGMA LINT = ON`. On top of the
/// branch-level passes this classifies recursion per strongly connected
/// component: W210 non-differentiable branches, W211 non-linear recursion,
/// and E103/W212 for constructed ranges under odd NOT/ALL parity.
std::vector<Diagnostic> LintConstructorGroup(
    const std::vector<ConstructorDeclPtr>& group, const Catalog& catalog,
    const LintOptions& options = {});

/// LintConstructorGroup for a single constructor.
std::vector<Diagnostic> LintConstructor(const ConstructorDecl& decl,
                                        const Catalog& catalog,
                                        const LintOptions& options = {});

/// Lints a free-standing query expression (the branch-level passes only —
/// a query cannot introduce recursion).
std::vector<Diagnostic> LintQueryExpr(const CalcExpr& expr,
                                      const Catalog& catalog);

/// Lints a query range expression: E101 for unknown relation/selector/
/// constructor names.
std::vector<Diagnostic> LintQueryRange(const Range& range,
                                       const Catalog& catalog);

/// Lints every selector and constructor registered in `catalog`, sorted by
/// source span. The whole-database entry point behind `Database::Lint` and
/// `CHECK SCRIPT;`.
LintReport LintCatalogDecls(const Catalog& catalog,
                            const LintOptions& options = {});

}  // namespace datacon

#endif  // DATACON_ANALYSIS_LINT_H_
