#include "core/access_path.h"

#include <set>

#include "ast/builder.h"
#include "ast/printer.h"
#include "ra/analysis.h"

namespace datacon {

Result<PhysicalAccessPath> PhysicalAccessPath::Build(Database* db,
                                                     CalcExprPtr form,
                                                     const std::string& param) {
  if (form->branches().size() != 1) {
    return Status::Unsupported(
        "a physical access path requires a single-branch query form");
  }
  const Branch& branch = *form->branches()[0];

  // Locate the `<var>.<field> = <param>` conjunct.
  std::vector<PredPtr> conjuncts = FlattenConjuncts(branch.pred());
  std::optional<size_t> bound_index;
  const FieldRefTerm* bound_field = nullptr;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (conjuncts[i]->kind() != Pred::Kind::kCompare) continue;
    const auto& cmp = static_cast<const ComparePred&>(*conjuncts[i]);
    if (cmp.op() != CompareOp::kEq) continue;
    for (bool flip : {false, true}) {
      const TermPtr& lhs = flip ? cmp.rhs() : cmp.lhs();
      const TermPtr& rhs = flip ? cmp.lhs() : cmp.rhs();
      if (lhs->kind() != Term::Kind::kFieldRef ||
          rhs->kind() != Term::Kind::kParamRef ||
          static_cast<const ParamRefTerm&>(*rhs).name() != param) {
        continue;
      }
      bound_index = i;
      bound_field = &static_cast<const FieldRefTerm&>(*lhs);
      break;
    }
    if (bound_index.has_value()) break;
  }
  if (!bound_index.has_value()) {
    return Status::Unsupported("query form does not bind parameter '" + param +
                               "' to an attribute with an equality");
  }

  // Strip the conjunct; the rest of the form — ranges, predicate and
  // targets — must no longer mention the parameter (it becomes a free
  // variable of the materialization).
  std::vector<PredPtr> rest;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i != *bound_index) rest.push_back(conjuncts[i]);
  }
  BranchPtr stripped = std::make_shared<Branch>(
      branch.bindings(), ConjunctsToPred(std::move(rest)), branch.targets());
  std::set<std::string> params;
  CollectParamRefs(*stripped, &params);
  if (params.count(param) > 0) {
    return Status::Unsupported(
        "parameter '" + param +
        "' occurs outside its binding equality; cannot materialize");
  }

  // The probe column: identity branches expose the range's fields; target
  // branches expose the target positions.
  CalcExprPtr unrestricted =
      std::make_shared<CalcExpr>(std::vector<BranchPtr>{stripped});

  DATACON_ASSIGN_OR_RETURN(Relation materialized,
                           db->EvalQuery(unrestricted));

  int probe_column = -1;
  if (branch.targets().has_value()) {
    for (size_t i = 0; i < branch.targets()->size(); ++i) {
      const TermPtr& t = (*branch.targets())[i];
      if (t->kind() != Term::Kind::kFieldRef) continue;
      const auto& f = static_cast<const FieldRefTerm&>(*t);
      if (f.var() == bound_field->var() && f.field() == bound_field->field()) {
        probe_column = static_cast<int>(i);
        break;
      }
    }
  } else {
    std::optional<int> idx =
        materialized.schema().FieldIndex(bound_field->field());
    if (idx.has_value()) probe_column = *idx;
  }
  if (probe_column < 0) {
    return Status::Unsupported(
        "the bound attribute '" + ToString(*bound_field) +
        "' does not appear in the query result; cannot partition on it");
  }

  PhysicalAccessPath path;
  path.schema_ = materialized.schema();
  path.materialized_ =
      std::make_shared<Relation>(std::move(materialized));
  path.index_ = std::make_shared<HashIndex>(
      *path.materialized_, std::vector<int>{probe_column});
  path.probe_column_ = probe_column;
  return path;
}

Result<Relation> PhysicalAccessPath::Execute(const Value& value) const {
  Relation out(schema_);
  for (const Tuple* t : index_->Probe(Tuple({value}))) {
    DATACON_ASSIGN_OR_RETURN(bool grew, out.Insert(*t));
    (void)grew;
  }
  return out;
}

}  // namespace datacon
