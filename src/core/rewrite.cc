#include "core/rewrite.h"

#include "ast/builder.h"
#include "core/capture.h"
#include "core/positivity.h"
#include "core/subst.h"
#include "ra/analysis.h"

namespace datacon {

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
Status InlineBinding(const BranchPtr& query_branch, size_t binding_index,
                     const ConstructorDecl& ctor, const Catalog& catalog,
                     int* fresh_counter, std::vector<BranchPtr>* out) {
  const Binding& binding = query_branch->bindings()[binding_index];
  const RangeApp& app = binding.range->apps().back();

  // Base of the application: the range minus its final application.
  std::vector<RangeApp> base_apps(binding.range->apps().begin(),
                                  binding.range->apps().end() - 1);
  RangePtr base = std::make_shared<Range>(binding.range->relation(),
                                          std::move(base_apps));

  Substitution formals;
  formals.relations.emplace(ctor.base().name, base);
  for (size_t i = 0; i < app.range_args.size(); ++i) {
    formals.relations.emplace(ctor.rel_params()[i].name, app.range_args[i]);
  }
  for (size_t i = 0; i < app.term_args.size(); ++i) {
    formals.scalars.emplace(ctor.scalar_params()[i].name, app.term_args[i]);
  }

  DATACON_ASSIGN_OR_RETURN(const Schema* result_schema,
                           catalog.LookupRelationType(ctor.result_type_name()));
  DATACON_ASSIGN_OR_RETURN(const Schema* base_schema,
                           catalog.LookupRelationType(ctor.base().type_name));

  for (const BranchPtr& ctor_branch : ctor.body()->branches()) {
    // Keep inlined variables distinct from the query's: fresh names are
    // numbered in variable-name order.
    formals.vars.clear();
    for (const Binding& b : ctor_branch->bindings()) formals.vars[b.var];
    for (auto& [var, fresh] : formals.vars) {
      fresh = "__inl" + std::to_string((*fresh_counter)++) + "_" + var;
    }
    BranchPtr body_branch = SubstituteBranch(ctor_branch, formals);

    // Case 2 (join): each reference to a result field of the inlined
    // variable is replaced by the body branch's target term for that field.
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
    Substitution fields;
    for (int i = 0; i < result_schema->arity(); ++i) {
      fields.fields[{binding.var, result_schema->field(i).name}] =
          produced[static_cast<size_t>(i)];
    }
    BranchPtr query = SubstituteBranch(query_branch, fields);

    std::vector<Binding> bindings;
    for (size_t j = 0; j < query->bindings().size(); ++j) {
      if (j == binding_index) {
        for (const Binding& b : body_branch->bindings()) bindings.push_back(b);
      } else {
        bindings.push_back(query->bindings()[j]);
      }
    }

    PredPtr pred = ConjunctsToPred(FlattenConjuncts(
        build::And({body_branch->pred(), query->pred()})));

    // An identity query branch produces the constructed tuple itself.
    std::vector<TermPtr> targets =
        query->targets().has_value()
            ? *query->targets()
            : std::vector<TermPtr>(produced.begin(),
                                   produced.begin() + result_schema->arity());
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
      DATACON_RETURN_IF_ERROR(InlineBinding(branch, *target_binding,
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
