#include "analysis/lint.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis/constraint.h"
#include "analysis/fold.h"
#include "analysis/typecheck.h"
#include "ast/printer.h"
#include "core/positivity.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "ra/analysis.h"

namespace datacon {

namespace {

// --- Walkers ---------------------------------------------------------------

/// Visits `range` and, recursively, every constructor-argument range nested
/// inside its application chain (all at the same position in the source).
void ForEachRangeDeep(const Range& range,
                      const std::function<void(const Range&)>& fn) {
  fn(range);
  for (const RangeApp& app : range.apps()) {
    for (const RangePtr& arg : app.range_args) ForEachRangeDeep(*arg, fn);
  }
}

/// Constructor names applied anywhere inside `range` (deep).
void CollectCtorNames(const Range& range, std::set<std::string>* out) {
  ForEachRangeDeep(range, [out](const Range& r) {
    for (const RangeApp& app : r.apps()) {
      if (app.kind == RangeApp::Kind::kConstructor) out->insert(app.name);
    }
  });
}

bool RangeMentionsCtor(const Range& range, const std::set<std::string>& names) {
  bool found = false;
  ForEachRangeDeep(range, [&](const Range& r) {
    if (found) return;
    for (const RangeApp& app : r.apps()) {
      if (app.kind == RangeApp::Kind::kConstructor && names.count(app.name)) {
        found = true;
        return;
      }
    }
  });
  return found;
}

// --- Name resolution -------------------------------------------------------

/// Resolution context of one declaration body: the catalog plus the formal
/// names the declaration introduces and any not-yet-registered constructors
/// of the same definition group.
struct NameEnv {
  const Catalog* catalog = nullptr;
  std::set<std::string> relation_params;
  std::set<std::string> scalar_params;
  std::set<std::string> pending_ctors;

  bool KnownRelation(const std::string& name) const {
    return relation_params.count(name) > 0 ||
           catalog->LookupRelation(name).ok();
  }
  bool KnownSelector(const std::string& name) const {
    return catalog->LookupSelector(name).ok();
  }
  bool KnownConstructor(const std::string& name) const {
    return pending_ctors.count(name) > 0 ||
           catalog->LookupConstructor(name).ok();
  }
};

/// E101 for every unresolvable name in `range` (deep). `loc` is the nearest
/// enclosing source position (ranges carry none of their own).
void CheckRangeNames(const Range& range, const NameEnv& env, SourceLoc loc,
                     std::vector<Diagnostic>* out) {
  ForEachRangeDeep(range, [&](const Range& r) {
    if (!env.KnownRelation(r.relation())) {
      out->push_back(MakeDiagnostic(
          kDiagUnknownName, "unknown relation '" + r.relation() + "'", loc));
    }
    for (const RangeApp& app : r.apps()) {
      if (app.kind == RangeApp::Kind::kSelector) {
        if (!env.KnownSelector(app.name)) {
          out->push_back(MakeDiagnostic(
              kDiagUnknownName, "unknown selector '" + app.name + "'", loc));
        }
      } else if (!env.KnownConstructor(app.name)) {
        out->push_back(MakeDiagnostic(
            kDiagUnknownName, "unknown constructor '" + app.name + "'", loc));
      }
    }
  });
}

/// Resolves names and reports W203 shadowing through a predicate, tracking
/// the tuple variables in scope.
void WalkPred(const Pred& pred, const NameEnv& env,
              std::set<std::string>* bound, SourceLoc enclosing_loc,
              std::vector<Diagnostic>* out) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
    case Pred::Kind::kCompare:
      break;
    case Pred::Kind::kAnd:
      for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
        WalkPred(*op, env, bound, enclosing_loc, out);
      }
      break;
    case Pred::Kind::kOr:
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        WalkPred(*op, env, bound, enclosing_loc, out);
      }
      break;
    case Pred::Kind::kNot:
      WalkPred(*static_cast<const NotPred&>(pred).operand(), env, bound,
               enclosing_loc, out);
      break;
    case Pred::Kind::kQuant: {
      const auto& quant = static_cast<const QuantPred&>(pred);
      SourceLoc loc = quant.loc().valid() ? quant.loc() : enclosing_loc;
      CheckRangeNames(*quant.range(), env, loc, out);
      if (env.scalar_params.count(quant.var())) {
        out->push_back(MakeDiagnostic(
            kDiagShadowedName, "quantifier variable '" + quant.var() +
                                   "' shadows scalar parameter '" +
                                   quant.var() + "'",
            loc));
      } else if (bound->count(quant.var())) {
        out->push_back(MakeDiagnostic(
            kDiagShadowedName, "quantifier variable '" + quant.var() +
                                   "' shadows an enclosing variable",
            loc));
      }
      bool inserted = bound->insert(quant.var()).second;
      WalkPred(*quant.body(), env, bound, loc, out);
      if (inserted) bound->erase(quant.var());
      break;
    }
    case Pred::Kind::kIn:
      CheckRangeNames(*static_cast<const InPred&>(pred).range(), env,
                      enclosing_loc, out);
      break;
  }
}

// --- Branch passes ---------------------------------------------------------

/// Connectivity over a branch's binding variables (W204).
class UnionFind {
 public:
  void Add(const std::string& x) { parent_.emplace(x, x); }
  bool Contains(const std::string& x) const { return parent_.count(x) > 0; }
  const std::string& Find(const std::string& x) {
    const std::string* cur = &x;
    while (parent_.at(*cur) != *cur) cur = &parent_.at(*cur);
    return *cur;
  }
  void Union(const std::string& a, const std::string& b) {
    std::string ra = Find(a);
    std::string rb = Find(b);
    if (ra != rb) parent_[ra] = rb;
  }
  size_t ComponentCount() {
    std::set<std::string> roots;
    for (const auto& [node, parent] : parent_) roots.insert(Find(node));
    return roots.size();
  }

 private:
  std::map<std::string, std::string> parent_;
};

/// The passes shared by constructor branches and query branches: E101 name
/// resolution, E110 unsafe variables, W201 unused bindings, W203 shadowing,
/// W204 cross products, W205 dead branches, W206 constant conjuncts.
void LintBranch(const Branch& branch, const NameEnv& env,
                std::vector<Diagnostic>* out) {
  const SourceLoc branch_loc = branch.loc();
  std::set<std::string> binding_vars;
  for (const Binding& b : branch.bindings()) {
    SourceLoc loc = b.loc.valid() ? b.loc : branch_loc;
    CheckRangeNames(*b.range, env, loc, out);
    if (env.scalar_params.count(b.var)) {
      out->push_back(MakeDiagnostic(
          kDiagShadowedName,
          "tuple variable '" + b.var + "' shadows scalar parameter '" + b.var +
              "'",
          loc));
    }
    if (!binding_vars.insert(b.var).second) {
      out->push_back(MakeDiagnostic(
          kDiagShadowedName,
          "tuple variable '" + b.var +
              "' rebinds an earlier binding of the same branch",
          loc));
    }
  }

  std::set<std::string> in_scope = binding_vars;
  WalkPred(*branch.pred(), env, &in_scope, branch_loc, out);

  // E110: a free variable of the predicate, a correlated range or the
  // target list that no binding introduces ranges over nothing — the
  // declaration is unsafe.
  std::set<std::string> used = FreeVars(*branch.pred());
  for (const Binding& b : branch.bindings()) CollectFreeVars(*b.range, &used);
  if (branch.targets().has_value()) {
    for (const TermPtr& t : *branch.targets()) CollectFreeVars(*t, &used);
  }
  for (const std::string& v : used) {
    if (binding_vars.count(v) == 0) {
      out->push_back(MakeDiagnostic(
          kDiagUnsafeVariable,
          "variable '" + v + "' is not bound by any range", branch_loc));
    }
  }

  // W201: a binding no conjunct, correlated range or target mentions
  // contributes nothing but a cardinality factor. Identity branches use
  // their single binding as the implicit target.
  if (branch.targets().has_value()) {
    for (const Binding& b : branch.bindings()) {
      if (used.count(b.var) == 0) {
        out->push_back(MakeDiagnostic(
            kDiagUnusedBinding,
            "tuple variable '" + b.var +
                "' is bound but used neither in the predicate nor in the "
                "target list",
            b.loc.valid() ? b.loc : branch_loc));
      }
    }
  }

  // W204: with several bindings, every binding variable should be linked to
  // the others through some conjunct (or a correlated range); otherwise the
  // branch enumerates a cross product.
  if (binding_vars.size() >= 2) {
    UnionFind uf;
    for (const std::string& v : binding_vars) uf.Add(v);
    auto link = [&](const std::set<std::string>& vars) {
      const std::string* first = nullptr;
      for (const std::string& v : vars) {
        if (binding_vars.count(v) == 0) continue;
        if (first == nullptr) {
          first = &v;
        } else {
          uf.Union(*first, v);
        }
      }
    };
    for (const PredPtr& conjunct : FlattenConjuncts(branch.pred())) {
      link(FreeVars(*conjunct));
    }
    for (const Binding& b : branch.bindings()) {
      std::set<std::string> corr;
      CollectFreeVars(*b.range, &corr);
      corr.insert(b.var);
      link(corr);
    }
    size_t groups = uf.ComponentCount();
    if (groups > 1) {
      out->push_back(MakeDiagnostic(
          kDiagCrossProduct,
          "the " + std::to_string(binding_vars.size()) +
              " bindings fall into " + std::to_string(groups) +
              " groups not linked by any conjunct; the branch enumerates a "
              "cross product",
          branch_loc));
    }
  }

  // W205 / W206 via constant folding.
  FoldOutcome whole = FoldPred(*branch.pred());
  if (whole == FoldOutcome::kFalse) {
    out->push_back(MakeDiagnostic(
        kDiagAlwaysFalseBranch,
        "the predicate folds to FALSE; the branch never produces tuples",
        branch_loc));
  } else if (branch.pred()->kind() == Pred::Kind::kAnd) {
    for (const PredPtr& op :
         static_cast<const AndPred&>(*branch.pred()).operands()) {
      if (FoldPred(*op) == FoldOutcome::kTrue) {
        out->push_back(MakeDiagnostic(
            kDiagConstantConjunct,
            "conjunct '" + ToString(*op) +
                "' folds to TRUE and never restricts the branch",
            branch_loc));
      }
    }
  } else if (whole == FoldOutcome::kTrue &&
             branch.pred()->kind() != Pred::Kind::kBool) {
    // A literal TRUE is the idiomatic copy branch (`EACH r IN Rel: TRUE`);
    // anything else that folds to TRUE is an accident.
    out->push_back(MakeDiagnostic(
        kDiagConstantConjunct,
        "predicate '" + ToString(*branch.pred()) +
            "' folds to TRUE and never restricts the branch",
        branch_loc));
  }
}

/// W207 over the branches of one body.
void LintDuplicateBranches(const CalcExpr& body,
                           std::vector<Diagnostic>* out) {
  std::map<std::string, size_t> seen;
  for (size_t i = 0; i < body.branches().size(); ++i) {
    const Branch& branch = *body.branches()[i];
    auto [it, inserted] = seen.emplace(ToString(branch), i + 1);
    if (!inserted) {
      out->push_back(MakeDiagnostic(
          kDiagDuplicateBranch,
          "branch " + std::to_string(i + 1) + " repeats branch " +
              std::to_string(it->second) + " verbatim",
          branch.loc()));
    }
  }
}

// --- Recursion classification ----------------------------------------------

/// Constructor names referenced anywhere in `decl`'s body (bindings,
/// quantifier ranges, membership ranges; deep through constructor args).
std::set<std::string> ReferencedCtors(const ConstructorDecl& decl) {
  std::set<std::string> out;
  for (const BranchPtr& branch : decl.body()->branches()) {
    ForEachRangeWithParity(
        *branch, [&](const Range& r, int) { CollectCtorNames(r, &out); });
  }
  return out;
}

/// Per-SCC recursion classification over `all` (catalog constructors plus a
/// pending group), reporting only for the names in `targets`: W210
/// non-differentiable branches, W211 non-linear recursion, and the parity
/// report E103/W212 for constructed ranges under odd NOT/ALL nesting.
void ClassifyRecursion(
    const std::vector<std::pair<std::string, const ConstructorDecl*>>& all,
    const std::set<std::string>& targets, const LintOptions& options,
    std::vector<Diagnostic>* out) {
  std::map<std::string, int> index;
  for (size_t i = 0; i < all.size(); ++i) {
    index.emplace(all[i].first, static_cast<int>(i));
  }
  Digraph graph(static_cast<int>(all.size()));
  for (size_t i = 0; i < all.size(); ++i) {
    for (const std::string& ref : ReferencedCtors(*all[i].second)) {
      auto it = index.find(ref);
      if (it != index.end()) graph.AddEdge(static_cast<int>(i), it->second);
    }
  }
  SccDecomposition scc = ComputeScc(graph);

  for (size_t i = 0; i < all.size(); ++i) {
    const auto& [name, decl] = all[i];
    if (targets.count(name) == 0) continue;
    int comp = scc.component_of[i];
    std::set<std::string> in_component;
    if (scc.cyclic[static_cast<size_t>(comp)]) {
      for (int node : scc.components[static_cast<size_t>(comp)]) {
        in_component.insert(all[static_cast<size_t>(node)].first);
      }
    }

    for (const BranchPtr& branch : decl->body()->branches()) {
      const SourceLoc loc = branch->loc();
      if (!in_component.empty()) {
        int recursive_bindings = 0;
        for (const Binding& b : branch->bindings()) {
          if (RangeMentionsCtor(*b.range, in_component)) ++recursive_bindings;
        }
        bool recursive_pred = false;
        ForEachRangeWithParity(*branch->pred(), 0, [&](const Range& r, int) {
          if (RangeMentionsCtor(r, in_component)) recursive_pred = true;
        });
        if (recursive_pred) {
          out->push_back(MakeDiagnostic(
              kDiagNonDifferentiable,
              "the branch predicate references the recursive component of '" +
                  name +
                  "'; semi-naive evaluation falls back to full "
                  "re-evaluation for this branch",
              loc));
        }
        if (recursive_bindings >= 2) {
          out->push_back(MakeDiagnostic(
              kDiagNonLinearRecursion,
              "the branch binds " + std::to_string(recursive_bindings) +
                  " recursive ranges (non-linear recursion); each fixpoint "
                  "round is quadratic in the new tuples",
              loc));
        }
      }

      // Parity report: constructed ranges under odd NOT/ALL nesting are
      // either outright non-stratifiable (recursive with themselves) or
      // stratified negation (accepted only with allow_stratified_negation).
      ForEachRangeWithParity(*branch, [&](const Range& range, int parity) {
        if (parity % 2 == 0) return;
        std::set<std::string> ctors;
        CollectCtorNames(range, &ctors);
        for (const std::string& ctor : ctors) {
          if (in_component.count(ctor) > 0) {
            out->push_back(MakeDiagnostic(
                kDiagNonStratifiable,
                "constructed range '{" + ctor +
                    "}' occurs under an odd number of NOTs/ALLs inside its "
                    "own recursive component",
                loc));
          } else if (options.allow_stratified_negation) {
            out->push_back(MakeDiagnostic(
                kDiagStratifiedNegation,
                "constructed range '{" + ctor +
                    "}' occurs under an odd number of NOTs/ALLs; accepted "
                    "as stratified negation",
                loc));
          } else {
            out->push_back(MakeDiagnostic(
                kDiagNonStratifiable,
                "constructed range '{" + ctor +
                    "}' occurs under an odd number of NOTs/ALLs (the "
                    "positivity constraint of section 3.3)",
                loc));
          }
        }
      });
    }
  }
}

}  // namespace

// --- Entry points ----------------------------------------------------------

std::vector<Diagnostic> LintSelector(const SelectorDecl& decl,
                                     const Catalog& catalog) {
  std::vector<Diagnostic> out;
  const SourceLoc decl_loc = decl.loc();

  Result<const SelectorDecl*> existing = catalog.LookupSelector(decl.name());
  if (existing.ok() && existing.value() != &decl) {
    out.push_back(MakeDiagnostic(
        kDiagRedefinition, "selector '" + decl.name() + "' is already defined",
        decl_loc));
  }

  NameEnv env;
  env.catalog = &catalog;
  env.relation_params.insert(decl.base().name);
  for (const FormalScalar& p : decl.params()) env.scalar_params.insert(p.name);

  if (env.scalar_params.count(decl.var()) > 0) {
    out.push_back(MakeDiagnostic(
        kDiagShadowedName, "tuple variable '" + decl.var() +
                               "' shadows scalar parameter '" + decl.var() +
                               "'",
        decl_loc));
  }

  std::set<std::string> in_scope = {decl.var()};
  WalkPred(*decl.pred(), env, &in_scope, decl_loc, &out);

  for (const std::string& v : FreeVars(*decl.pred())) {
    if (v != decl.var()) {
      out.push_back(MakeDiagnostic(
          kDiagUnsafeVariable,
          "variable '" + v + "' is not bound by any range", decl_loc));
    }
  }

  std::set<std::string> used_params;
  CollectParamRefs(*decl.pred(), &used_params);
  for (const FormalScalar& p : decl.params()) {
    if (used_params.count(p.name) == 0) {
      out.push_back(MakeDiagnostic(
          kDiagUnusedParameter,
          "scalar parameter '" + p.name + "' is never referenced", decl_loc));
    }
  }

  FoldOutcome whole = FoldPred(*decl.pred());
  if (whole == FoldOutcome::kFalse) {
    out.push_back(MakeDiagnostic(
        kDiagAlwaysFalseBranch,
        "the predicate folds to FALSE; the selector selects nothing",
        decl_loc));
  } else if (decl.pred()->kind() == Pred::Kind::kAnd) {
    for (const PredPtr& op :
         static_cast<const AndPred&>(*decl.pred()).operands()) {
      if (FoldPred(*op) == FoldOutcome::kTrue) {
        out.push_back(MakeDiagnostic(
            kDiagConstantConjunct,
            "conjunct '" + ToString(*op) +
                "' folds to TRUE and never restricts the selection",
            decl_loc));
      }
    }
  } else if (whole == FoldOutcome::kTrue &&
             decl.pred()->kind() != Pred::Kind::kBool) {
    out.push_back(MakeDiagnostic(
        kDiagConstantConjunct,
        "predicate '" + ToString(*decl.pred()) +
            "' folds to TRUE; the selector never filters",
        decl_loc));
  }
  return out;
}

std::vector<Diagnostic> LintConstructorGroup(
    const std::vector<ConstructorDeclPtr>& group, const Catalog& catalog,
    const LintOptions& options) {
  std::vector<Diagnostic> out;
  std::set<std::string> group_names;
  for (const ConstructorDeclPtr& decl : group) group_names.insert(decl->name());

  std::set<std::string> earlier_in_group;
  for (const ConstructorDeclPtr& decl : group) {
    const SourceLoc decl_loc = decl->loc();
    Result<const ConstructorDecl*> existing =
        catalog.LookupConstructor(decl->name());
    if ((existing.ok() && existing.value() != decl.get()) ||
        !earlier_in_group.insert(decl->name()).second) {
      out.push_back(MakeDiagnostic(
          kDiagRedefinition,
          "constructor '" + decl->name() + "' is already defined", decl_loc));
    }

    NameEnv env;
    env.catalog = &catalog;
    env.pending_ctors = group_names;
    env.relation_params.insert(decl->base().name);
    for (const FormalRelation& p : decl->rel_params()) {
      env.relation_params.insert(p.name);
    }
    for (const FormalScalar& p : decl->scalar_params()) {
      env.scalar_params.insert(p.name);
    }

    for (const BranchPtr& branch : decl->body()->branches()) {
      LintBranch(*branch, env, &out);
    }
    LintDuplicateBranches(*decl->body(), &out);

    // W202: formal parameters the body never mentions.
    std::set<std::string> used_params;
    std::set<std::string> used_relations;
    for (const BranchPtr& branch : decl->body()->branches()) {
      CollectParamRefs(*branch, &used_params);
      ForEachRangeWithParity(*branch, [&](const Range& r, int) {
        ForEachRangeDeep(r, [&](const Range& inner) {
          used_relations.insert(inner.relation());
        });
      });
    }
    for (const FormalScalar& p : decl->scalar_params()) {
      if (used_params.count(p.name) == 0) {
        out.push_back(MakeDiagnostic(
            kDiagUnusedParameter,
            "scalar parameter '" + p.name + "' is never referenced",
            decl_loc));
      }
    }
    for (const FormalRelation& p : decl->rel_params()) {
      if (used_relations.count(p.name) == 0) {
        out.push_back(MakeDiagnostic(
            kDiagUnusedParameter,
            "relation parameter '" + p.name + "' is never used as a range",
            decl_loc));
      }
    }
    if (used_relations.count(decl->base().name) == 0) {
      out.push_back(MakeDiagnostic(
          kDiagUnusedParameter,
          "base relation parameter '" + decl->base().name +
              "' is never used as a range",
          decl_loc));
    }
  }

  // Recursion classification sees the whole constructor universe: the
  // catalog plus the pending group (the group wins on a name clash, so a
  // redefinition is classified by its new body).
  std::vector<std::pair<std::string, const ConstructorDecl*>> all;
  for (const auto& [name, decl] : catalog.constructors()) {
    if (group_names.count(name) == 0) all.emplace_back(name, decl.get());
  }
  for (const ConstructorDeclPtr& decl : group) {
    all.emplace_back(decl->name(), decl.get());
  }
  ClassifyRecursion(all, group_names, options, &out);
  return out;
}

std::vector<Diagnostic> LintConstructor(const ConstructorDecl& decl,
                                        const Catalog& catalog,
                                        const LintOptions& options) {
  // Wrap in a non-owning shared_ptr; the group API wants shared ownership
  // but never stores it beyond the call.
  ConstructorDeclPtr alias(&decl, [](const ConstructorDecl*) {});
  return LintConstructorGroup({alias}, catalog, options);
}

std::vector<Diagnostic> LintQueryExpr(const CalcExpr& expr,
                                      const Catalog& catalog) {
  std::vector<Diagnostic> out;
  NameEnv env;
  env.catalog = &catalog;
  for (const BranchPtr& branch : expr.branches()) {
    LintBranch(*branch, env, &out);
  }
  LintDuplicateBranches(expr, &out);
  return out;
}

std::vector<Diagnostic> LintQueryRange(const Range& range,
                                       const Catalog& catalog) {
  std::vector<Diagnostic> out;
  NameEnv env;
  env.catalog = &catalog;
  CheckRangeNames(range, env, SourceLoc{}, &out);
  return out;
}

LintReport LintCatalogDecls(const Catalog& catalog,
                            const LintOptions& options) {
  LintReport report;
  for (const auto& entry : catalog.selectors()) {
    report.Append(LintSelector(*entry.second, catalog));
  }
  std::vector<ConstructorDeclPtr> all;
  for (const auto& entry : catalog.constructors()) {
    all.push_back(entry.second);
  }
  report.Append(LintConstructorGroup(all, catalog, options));
  for (const auto& entry : catalog.constraints()) {
    report.Append(LintConstraint(*entry.second, catalog));
  }
  if (options.types) {
    report.Append(InferCatalogTypes(catalog).diagnostics);
  }
  report.SortBySpan();
  return report;
}

}  // namespace datacon
