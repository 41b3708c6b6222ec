#include "ra/branch_plan.h"

#include <algorithm>
#include <set>

#include "ast/printer.h"
#include "ra/analysis.h"

namespace datacon {

Result<std::vector<BranchLevelPlan>> PlanBranchLevels(
    const Branch& branch, const std::vector<BindingSchema>& bindings,
    const BranchExecOptions& options) {
  const size_t n = bindings.size();
  std::vector<BranchLevelPlan> levels(n);
  std::set<std::string> bound;

  std::vector<PredPtr> conjuncts = FlattenConjuncts(branch.pred());
  std::vector<bool> assigned(conjuncts.size(), false);

  for (size_t i = 0; i < n; ++i) {
    const std::string& var = bindings[i].var;
    const Schema& schema = *bindings[i].schema;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (assigned[c]) continue;
      std::set<std::string> fv = FreeVars(*conjuncts[c]);
      bool ready = true;
      for (const std::string& v : fv) {
        if (v != var && bound.count(v) == 0) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      assigned[c] = true;
      levels[i].scan_filters.push_back(conjuncts[c]);
      // Probe-able at inner levels, and at level 0 over a catalog relation
      // variable: its index outlives the query, whereas indexing a relation
      // built for this query costs as much as the scan it replaces. At
      // level 0 nothing else is bound, so a key term references no binding.
      bool probed = false;
      if (options.use_hash_joins && (i > 0 || bindings[0].catalog_variable)) {
        std::optional<VarEquality> eq = MatchVarEquality(*conjuncts[c], var);
        if (eq.has_value()) {
          std::optional<int> idx = schema.FieldIndex(eq->field);
          if (!idx.has_value()) {
            return Status::NotFound("no field '" + eq->field +
                                    "' in range of '" + var + "'");
          }
          levels[i].keys.push_back(
              BranchLevelPlan::KeyEquality{*idx, eq->other});
          probed = true;
        }
      }
      if (!probed) levels[i].filters.push_back(conjuncts[c]);
    }
    bound.insert(var);
  }
  for (BranchLevelPlan& level : levels) {
    if (level.keys.empty()) level.scan_filters.clear();
    // Keys in column order, so equalities over the same columns share one
    // index of the relation whatever order the conjuncts come in.
    std::stable_sort(level.keys.begin(), level.keys.end(),
                     [](const BranchLevelPlan::KeyEquality& a,
                        const BranchLevelPlan::KeyEquality& b) {
                       return a.inner_field_index < b.inner_field_index;
                     });
  }
  for (size_t c = 0; c < conjuncts.size(); ++c) {
    if (!assigned[c]) {
      return Status::Internal("conjunct references unbound variable: " +
                              ToString(*conjuncts[c]));
    }
  }
  return levels;
}

Result<std::string> ExplainBranchPlan(const Branch& branch,
                                      const std::vector<BindingSchema>& bindings,
                                      const BranchExecOptions& options) {
  DATACON_ASSIGN_OR_RETURN(std::vector<BranchLevelPlan> levels,
                           PlanBranchLevels(branch, bindings, options));
  std::string out;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (i > 0) out += " -> ";
    const Binding& b = branch.bindings()[i];
    const BranchLevelPlan& level = levels[i];
    if (!level.keys.empty()) {
      out += "probe(" + b.var + " IN " + ToString(*b.range) + " on ";
      for (size_t k = 0; k < level.keys.size(); ++k) {
        if (k > 0) out += ", ";
        out += bindings[i].schema->field(level.keys[k].inner_field_index).name +
               " = " + ToString(*level.keys[k].outer);
      }
      out += ")";
    } else {
      out += "scan(" + b.var + " IN " + ToString(*b.range) + ")";
    }
    for (const PredPtr& f : level.filters) {
      out += " -> filter(" + ToString(*f) + ")";
    }
  }
  out += " -> project";
  if (branch.targets().has_value()) {
    out += "<";
    for (size_t i = 0; i < branch.targets()->size(); ++i) {
      if (i > 0) out += ", ";
      out += ToString(*(*branch.targets())[i]);
    }
    out += ">";
  } else {
    out += "<" + branch.bindings()[0].var + ">";
  }
  return out;
}

}  // namespace datacon
