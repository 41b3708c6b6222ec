#include "core/rewrite.h"

#include "ast/builder.h"
#include "common/check.h"
#include "core/capture.h"
#include "core/positivity.h"
#include "core/subst.h"
#include "ra/analysis.h"

namespace datacon {

namespace {

std::string Renamed(const std::map<std::string, std::string>& renames,
                    const std::string& var) {
  auto it = renames.find(var);
  return it == renames.end() ? var : it->second;
}

TermPtr RenameTermVars(const TermPtr& term,
                       const std::map<std::string, std::string>& renames) {
  switch (term->kind()) {
    case Term::Kind::kLiteral:
    case Term::Kind::kParamRef:
      return term;
    case Term::Kind::kFieldRef: {
      const auto& t = static_cast<const FieldRefTerm&>(*term);
      auto it = renames.find(t.var());
      if (it == renames.end()) return term;
      return std::make_shared<FieldRefTerm>(it->second, t.field());
    }
    case Term::Kind::kArith: {
      const auto& t = static_cast<const ArithTerm&>(*term);
      return std::make_shared<ArithTerm>(t.op(),
                                         RenameTermVars(t.lhs(), renames),
                                         RenameTermVars(t.rhs(), renames));
    }
  }
  DATACON_UNREACHABLE("term kind");
}

RangePtr RenameRangeVars(const RangePtr& range,
                         const std::map<std::string, std::string>& renames) {
  std::vector<RangeApp> apps;
  apps.reserve(range->apps().size());
  for (const RangeApp& app : range->apps()) {
    RangeApp copy;
    copy.kind = app.kind;
    copy.name = app.name;
    for (const TermPtr& t : app.term_args) {
      copy.term_args.push_back(RenameTermVars(t, renames));
    }
    for (const RangePtr& r : app.range_args) {
      copy.range_args.push_back(RenameRangeVars(r, renames));
    }
    apps.push_back(std::move(copy));
  }
  return std::make_shared<Range>(range->relation(), std::move(apps));
}

PredPtr RenamePredVars(const PredPtr& pred,
                       const std::map<std::string, std::string>& renames) {
  switch (pred->kind()) {
    case Pred::Kind::kBool:
      return pred;
    case Pred::Kind::kCompare: {
      const auto& p = static_cast<const ComparePred&>(*pred);
      return std::make_shared<ComparePred>(p.op(),
                                           RenameTermVars(p.lhs(), renames),
                                           RenameTermVars(p.rhs(), renames));
    }
    case Pred::Kind::kAnd: {
      std::vector<PredPtr> ops;
      for (const PredPtr& op : static_cast<const AndPred&>(*pred).operands()) {
        ops.push_back(RenamePredVars(op, renames));
      }
      return std::make_shared<AndPred>(std::move(ops));
    }
    case Pred::Kind::kOr: {
      std::vector<PredPtr> ops;
      for (const PredPtr& op : static_cast<const OrPred&>(*pred).operands()) {
        ops.push_back(RenamePredVars(op, renames));
      }
      return std::make_shared<OrPred>(std::move(ops));
    }
    case Pred::Kind::kNot: {
      const auto& p = static_cast<const NotPred&>(*pred);
      return std::make_shared<NotPred>(RenamePredVars(p.operand(), renames));
    }
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(*pred);
      return std::make_shared<QuantPred>(
          p.quantifier(), Renamed(renames, p.var()),
          RenameRangeVars(p.range(), renames),
          RenamePredVars(p.body(), renames));
    }
    case Pred::Kind::kIn: {
      const auto& p = static_cast<const InPred&>(*pred);
      std::vector<TermPtr> tuple;
      for (const TermPtr& t : p.tuple()) {
        tuple.push_back(RenameTermVars(t, renames));
      }
      return std::make_shared<InPred>(std::move(tuple),
                                      RenameRangeVars(p.range(), renames));
    }
  }
  DATACON_UNREACHABLE("pred kind");
}

}  // namespace

BranchPtr RenameVars(const BranchPtr& branch,
                     const std::map<std::string, std::string>& renames) {
  std::vector<Binding> bindings;
  bindings.reserve(branch->bindings().size());
  for (const Binding& b : branch->bindings()) {
    bindings.push_back(Binding{Renamed(renames, b.var),
                               RenameRangeVars(b.range, renames), b.loc});
  }
  std::optional<std::vector<TermPtr>> targets;
  if (branch->targets().has_value()) {
    targets.emplace();
    for (const TermPtr& t : *branch->targets()) {
      targets->push_back(RenameTermVars(t, renames));
    }
  }
  return std::make_shared<Branch>(std::move(bindings),
                                  RenamePredVars(branch->pred(), renames),
                                  std::move(targets), branch->loc());
}

namespace {

/// True when the constructor's body contains no constructor application at
/// all — inlining it can never lose recursion.
bool IsNonRecursiveBody(const ConstructorDecl& decl) {
  bool found = false;
  for (const BranchPtr& branch : decl.body()->branches()) {
    ForEachRangeWithParity(*branch, [&](const Range& range, int) {
      if (range.ContainsConstructor()) found = true;
    });
  }
  return !found;
}

/// Inlines the constructor application ending `binding`'s range into the
/// query branch; appends the resulting branches to `out`.
Status InlineBinding(const Branch& query_branch, size_t binding_index,
                     const ConstructorDecl& ctor, const Catalog& catalog,
                     int* fresh_counter, std::vector<BranchPtr>* out) {
  const Binding& binding = query_branch.bindings()[binding_index];
  const RangeApp& app = binding.range->apps().back();

  // Base of the application: the range minus its final application.
  std::vector<RangeApp> base_apps(binding.range->apps().begin(),
                                  binding.range->apps().end() - 1);
  RangePtr base = std::make_shared<Range>(binding.range->relation(),
                                          std::move(base_apps));

  Substitution subst;
  subst.relations.emplace(ctor.base().name, base);
  for (size_t i = 0; i < app.range_args.size(); ++i) {
    subst.relations.emplace(ctor.rel_params()[i].name, app.range_args[i]);
  }
  for (size_t i = 0; i < app.term_args.size(); ++i) {
    subst.scalars.emplace(ctor.scalar_params()[i].name, app.term_args[i]);
  }
  CalcExprPtr body = SubstituteExpr(ctor.body(), subst);

  DATACON_ASSIGN_OR_RETURN(const Schema* result_schema,
                           catalog.LookupRelationType(ctor.result_type_name()));
  DATACON_ASSIGN_OR_RETURN(const Schema* base_schema,
                           catalog.LookupRelationType(ctor.base().type_name));

  for (const BranchPtr& body_branch_raw : body->branches()) {
    // Keep inlined variables distinct from the query's.
    std::map<std::string, std::string> renames;
    std::set<std::string> body_vars;
    for (const Binding& b : body_branch_raw->bindings()) body_vars.insert(b.var);
    for (const std::string& v : body_vars) {
      renames[v] = "__inl" + std::to_string((*fresh_counter)++) + "_" + v;
    }
    BranchPtr body_branch = RenameVars(body_branch_raw, renames);

    // Case 2 (join): each reference to a result field of the inlined
    // variable is replaced by the body branch's target term for that field.
    FieldSubstitution fields;
    std::vector<TermPtr> produced;
    if (body_branch->targets().has_value()) {
      produced = *body_branch->targets();
    } else {
      // Identity body branch: the produced tuple is the bound variable's,
      // field for field (positionally against the result schema).
      const Binding& only = body_branch->bindings()[0];
      for (int i = 0; i < base_schema->arity(); ++i) {
        produced.push_back(std::make_shared<FieldRefTerm>(
            only.var, base_schema->field(i).name));
      }
    }
    for (int i = 0; i < result_schema->arity(); ++i) {
      fields[{binding.var, result_schema->field(i).name}] =
          produced[static_cast<size_t>(i)];
    }

    std::vector<Binding> bindings;
    for (size_t j = 0; j < query_branch.bindings().size(); ++j) {
      if (j == binding_index) {
        for (const Binding& b : body_branch->bindings()) bindings.push_back(b);
      } else {
        bindings.push_back(query_branch.bindings()[j]);
      }
    }

    std::vector<PredPtr> conjuncts;
    conjuncts.push_back(body_branch->pred());
    conjuncts.push_back(SubstituteFields(query_branch.pred(), fields));
    PredPtr pred = ConjunctsToPred(FlattenConjuncts(build::And(conjuncts)));

    std::vector<TermPtr> targets;
    if (query_branch.targets().has_value()) {
      for (const TermPtr& t : *query_branch.targets()) {
        targets.push_back(SubstituteFields(t, fields));
      }
    } else {
      // Identity query branch: produce the constructed tuple itself.
      for (int i = 0; i < result_schema->arity(); ++i) {
        targets.push_back(produced[static_cast<size_t>(i)]);
      }
    }
    out->push_back(std::make_shared<Branch>(std::move(bindings),
                                            std::move(pred),
                                            std::move(targets)));
  }
  return Status::OK();
}

}  // namespace

Result<std::optional<CalcExprPtr>> InlineNonRecursiveApplications(
    const CalcExprPtr& expr, const Catalog& catalog) {
  CalcExprPtr current = expr;
  bool any_change = false;
  // Nested non-recursive applications unfold in successive passes; ten
  // levels is far beyond anything a sane program contains.
  for (int pass = 0; pass < 10; ++pass) {
    bool changed = false;
    int fresh_counter = 0;
    std::vector<BranchPtr> out;
    for (const BranchPtr& branch : current->branches()) {
      std::optional<size_t> target_binding;
      const ConstructorDecl* target_ctor = nullptr;
      for (size_t j = 0; j < branch->bindings().size(); ++j) {
        const RangePtr& range = branch->bindings()[j].range;
        if (range->apps().empty() ||
            range->apps().back().kind != RangeApp::Kind::kConstructor) {
          continue;
        }
        Result<const ConstructorDecl*> ctor =
            catalog.LookupConstructor(range->apps().back().name);
        if (!ctor.ok()) return ctor.status();
        if (!IsNonRecursiveBody(*ctor.value())) continue;
        target_binding = j;
        target_ctor = ctor.value();
        break;
      }
      if (!target_binding.has_value()) {
        out.push_back(branch);
        continue;
      }
      DATACON_RETURN_IF_ERROR(InlineBinding(*branch, *target_binding,
                                            *target_ctor, catalog,
                                            &fresh_counter, &out));
      changed = true;
    }
    if (!changed) break;
    any_change = true;
    current = std::make_shared<CalcExpr>(std::move(out));
  }
  if (!any_change) return std::optional<CalcExprPtr>();
  return std::optional<CalcExprPtr>(current);
}

Result<std::optional<SeededTcPlan>> DetectSeededTc(const CalcExpr& expr,
                                                   const Catalog& catalog) {
  // The plan answers the whole query: one branch whose only constructed
  // range is the closure binding, `Base {c}` over a constructor-free base
  // with `c` an argument-free, schema-checked closure.
  const std::optional<SeededTcPlan> none;
  if (expr.branches().size() != 1) return none;
  const Branch& branch = *expr.branches()[0];
  bool pred_constructed = false;
  ForEachRangeWithParity(*branch.pred(), 0, [&](const Range& r, int) {
    if (r.ContainsConstructor()) pred_constructed = true;
  });
  std::optional<size_t> closure;
  for (size_t j = 0; j < branch.bindings().size(); ++j) {
    if (!branch.bindings()[j].range->ContainsConstructor()) continue;
    if (closure.has_value()) return none;
    closure = j;
  }
  if (pred_constructed || !closure.has_value()) return none;
  const Binding& binding = branch.bindings()[*closure];
  const RangePtr& range = binding.range;
  const RangeApp& app = range->apps().back();
  if (app.kind != RangeApp::Kind::kConstructor || !app.range_args.empty() ||
      !app.term_args.empty()) {
    return none;
  }
  std::vector<RangeApp> base_apps(range->apps().begin(),
                                  range->apps().end() - 1);
  RangePtr edges =
      std::make_shared<Range>(range->relation(), std::move(base_apps));
  if (edges->ContainsConstructor()) return none;
  DATACON_ASSIGN_OR_RETURN(const ConstructorDecl* ctor,
                           catalog.LookupConstructor(app.name));
  if (!DetectCapturedClosure(*ctor, catalog).has_value()) return none;
  DATACON_ASSIGN_OR_RETURN(
      const Schema* result_schema,
      catalog.LookupRelationType(ctor->result_type_name()));
  const std::string& source_field = result_schema->field(0).name;

  for (const PredPtr& conjunct : FlattenConjuncts(branch.pred())) {
    if (conjunct->kind() != Pred::Kind::kCompare) continue;
    const auto& cmp = static_cast<const ComparePred&>(*conjunct);
    if (cmp.op() != CompareOp::kEq) continue;
    for (bool flip : {false, true}) {
      const TermPtr& lhs = flip ? cmp.rhs() : cmp.lhs();
      const TermPtr& rhs = flip ? cmp.lhs() : cmp.rhs();
      if (lhs->kind() != Term::Kind::kFieldRef) continue;
      const auto& field = static_cast<const FieldRefTerm&>(*lhs);
      if (field.var() != binding.var || field.field() != source_field) {
        continue;
      }
      SeededTcPlan plan;
      plan.binding_index = *closure;
      plan.edges_range = edges;
      plan.result_schema = *result_schema;
      if (rhs->kind() == Term::Kind::kLiteral) {
        plan.seed_literal = static_cast<const LiteralTerm&>(*rhs).value();
      } else if (rhs->kind() == Term::Kind::kParamRef) {
        plan.seed_param = static_cast<const ParamRefTerm&>(*rhs).name();
      } else {
        continue;
      }
      return std::optional<SeededTcPlan>(std::move(plan));
    }
  }
  return none;
}

}  // namespace datacon
