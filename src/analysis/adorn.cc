#include "analysis/adorn.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "core/positivity.h"
#include "ra/analysis.h"

namespace datacon {

namespace {

/// A binding of a scanned branch, pre-resolved against the graph: the
/// application node of its range head (or -1 for constructor-free ranges)
/// and the schema of the full range.
struct BindingInfo {
  int node = -1;
  const Schema* schema = nullptr;
  bool ctor_free = true;
};

/// One branch of a node body (or of the query expression) with its bindings
/// resolved, its predicate flattened, and its predicate-level constructor
/// references collected with their NOT/ALL parity.
struct BranchScan {
  const Branch* branch = nullptr;
  std::vector<BindingInfo> bindings;
  std::vector<PredPtr> conjuncts;
  std::vector<std::pair<int, int>> pred_refs;  // (node, parity)
};

/// One use site of an application node. `owner` is the node whose body
/// contains the site, or -1 for the query expression itself. Binding sites
/// carry the equality constraints discovered statically; predicate-range
/// sites never constrain (`unconstrained`).
struct Site {
  int target = -1;
  int owner = -1;
  int branch_index = -1;
  size_t binding = 0;
  bool unconstrained = false;
  bool negated = false;
  std::map<int, std::vector<AdornSeed>> static_attrs;
};

/// The schema a range denotes, resolved through declarations only — no
/// term-level checks, so ranges carrying prepared-query placeholders still
/// resolve (the level-1 checker has already validated them).
Result<const Schema*> LooseRangeSchema(const Range& range,
                                       const Catalog& catalog) {
  DATACON_ASSIGN_OR_RETURN(const std::string* type_name,
                           catalog.LookupRelationTypeName(range.relation()));
  DATACON_ASSIGN_OR_RETURN(const Schema* schema,
                           catalog.LookupRelationType(*type_name));
  for (const RangeApp& app : range.apps()) {
    if (app.kind != RangeApp::Kind::kConstructor) continue;
    DATACON_ASSIGN_OR_RETURN(const ConstructorDecl* ctor,
                             catalog.LookupConstructor(app.name));
    DATACON_ASSIGN_OR_RETURN(
        schema, catalog.LookupRelationType(ctor->result_type_name()));
  }
  return schema;
}

void AddSeed(std::map<int, std::vector<AdornSeed>>* attrs, int attr,
             AdornSeed seed) {
  seed.attr = attr;
  (*attrs)[attr].push_back(std::move(seed));
}

/// Constraints implied by the trailing selector applications of a use-site
/// range: a selector conjunct `v.f = <param>` whose actual argument is a
/// constant (or a prepared-query placeholder), or `v.f = literal` directly,
/// binds result attribute f. Selector applications are schema-preserving,
/// so `schema` is the node's result schema throughout.
void SelectorConstraints(const std::vector<RangeApp>& trailing,
                         const Schema& schema, const Catalog& catalog,
                         std::map<int, std::vector<AdornSeed>>* out) {
  for (const RangeApp& app : trailing) {
    if (app.kind != RangeApp::Kind::kSelector) continue;
    Result<const SelectorDecl*> sel = catalog.LookupSelector(app.name);
    if (!sel.ok()) continue;
    for (const PredPtr& c : FlattenConjuncts((*sel)->pred())) {
      if (c->kind() != Pred::Kind::kCompare) continue;
      const auto& cmp = static_cast<const ComparePred&>(*c);
      if (cmp.op() != CompareOp::kEq) continue;
      for (bool flip : {false, true}) {
        const Term& lhs = flip ? *cmp.rhs() : *cmp.lhs();
        const Term& rhs = flip ? *cmp.lhs() : *cmp.rhs();
        if (lhs.kind() != Term::Kind::kFieldRef) continue;
        const auto& field_ref = static_cast<const FieldRefTerm&>(lhs);
        if (field_ref.var() != (*sel)->var()) continue;
        std::optional<int> attr = schema.FieldIndex(field_ref.field());
        if (!attr.has_value()) continue;
        if (rhs.kind() == Term::Kind::kLiteral) {
          AdornSeed seed;
          seed.literal = static_cast<const LiteralTerm&>(rhs).value();
          AddSeed(out, *attr, std::move(seed));
        } else if (rhs.kind() == Term::Kind::kParamRef) {
          const std::string& formal =
              static_cast<const ParamRefTerm&>(rhs).name();
          const auto& params = (*sel)->params();
          for (size_t i = 0; i < params.size(); ++i) {
            if (params[i].name != formal || i >= app.term_args.size()) continue;
            const Term& arg = *app.term_args[i];
            if (arg.kind() == Term::Kind::kLiteral) {
              AdornSeed seed;
              seed.literal = static_cast<const LiteralTerm&>(arg).value();
              AddSeed(out, *attr, std::move(seed));
            } else if (arg.kind() == Term::Kind::kParamRef) {
              AdornSeed seed;
              seed.param = static_cast<const ParamRefTerm&>(arg).name();
              AddSeed(out, *attr, std::move(seed));
            }
            break;
          }
        }
      }
    }
  }
}

/// Constraints implied by top-level conjuncts `var.f = literal|parameter`.
void ConjunctConstraints(const std::vector<PredPtr>& conjuncts,
                         const std::string& var, const Schema& schema,
                         std::map<int, std::vector<AdornSeed>>* out) {
  for (const PredPtr& c : conjuncts) {
    if (c->kind() != Pred::Kind::kCompare) continue;
    const auto& cmp = static_cast<const ComparePred&>(*c);
    if (cmp.op() != CompareOp::kEq) continue;
    for (bool flip : {false, true}) {
      const Term& lhs = flip ? *cmp.rhs() : *cmp.lhs();
      const Term& rhs = flip ? *cmp.lhs() : *cmp.rhs();
      if (lhs.kind() != Term::Kind::kFieldRef) continue;
      const auto& field_ref = static_cast<const FieldRefTerm&>(lhs);
      if (field_ref.var() != var) continue;
      std::optional<int> attr = schema.FieldIndex(field_ref.field());
      if (!attr.has_value()) continue;
      if (rhs.kind() == Term::Kind::kLiteral) {
        AdornSeed seed;
        seed.literal = static_cast<const LiteralTerm&>(rhs).value();
        AddSeed(out, *attr, std::move(seed));
      } else if (rhs.kind() == Term::Kind::kParamRef) {
        AdornSeed seed;
        seed.param = static_cast<const ParamRefTerm&>(rhs).name();
        AddSeed(out, *attr, std::move(seed));
      }
    }
  }
}

Result<BranchScan> ScanBranch(const Branch& branch,
                              const ApplicationGraph& graph,
                              const Catalog& catalog) {
  BranchScan scan;
  scan.branch = &branch;
  for (const Binding& b : branch.bindings()) {
    BindingInfo info;
    DATACON_ASSIGN_OR_RETURN(info.schema, LooseRangeSchema(*b.range, catalog));
    info.ctor_free = !b.range->ContainsConstructor();
    if (!info.ctor_free) {
      RangeSplit split = SplitAtLastConstructor(*b.range);
      DATACON_ASSIGN_OR_RETURN(info.node, graph.FindNode(**split.ctor_head));
    }
    scan.bindings.push_back(std::move(info));
  }
  scan.conjuncts = FlattenConjuncts(branch.pred());
  ForEachRangeWithParity(*branch.pred(), 0,
                         [&](const Range& range, int parity) {
                           if (!range.ContainsConstructor()) return;
                           RangeSplit split = SplitAtLastConstructor(range);
                           Result<int> node =
                               graph.FindNode(**split.ctor_head);
                           if (node.ok()) {
                             scan.pred_refs.emplace_back(*node, parity);
                           }
                         });
  return scan;
}

std::string SeedToString(const AdornSeed& seed) {
  if (seed.literal.has_value()) return seed.literal->ToString();
  if (seed.param.has_value()) return "$" + *seed.param;
  return "?";
}

}  // namespace

std::string AdornNode::AdornmentString() const {
  if (bound.empty()) return "-";
  std::string out;
  out.reserve(bound.size());
  for (bool b : bound) out.push_back(b ? 'b' : 'f');
  return out;
}

std::string AdornmentAnalysis::ToText(const ApplicationGraph& graph) const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const AdornNode& node = nodes[i];
    out += "  [" + graph.nodes()[i].key + "] adornment: " +
           node.AdornmentString();
    if (node.bound_attr >= 0) {
      out += " (drives on '" +
             graph.nodes()[i].result_schema.field(node.bound_attr).name + "')";
    }
    out += "\n";
    if (!node.seeds.empty()) {
      out += "    seeds:";
      for (const AdornSeed& seed : node.seeds) {
        out += ' ';
        out += SeedToString(seed);
      }
      out += "\n";
    }
    for (size_t bi = 0; bi < node.branches.size(); ++bi) {
      out += "    branch " + std::to_string(bi + 1) + ": " +
             node.branches[bi].detail + "\n";
    }
    out += node.specializable ? "    -> specialized (magic-seed fixpoint)\n"
                              : "    -> full evaluation\n";
  }
  return out;
}

Result<AdornmentAnalysis> AnalyzeAdornment(const CalcExpr& expr,
                                           const ApplicationGraph& graph,
                                           const Catalog& catalog) {
  AdornmentAnalysis out;
  const std::vector<ApplicationGraph::Node>& nodes = graph.nodes();
  const size_t n = nodes.size();
  out.nodes.resize(n);
  for (size_t t = 0; t < n; ++t) {
    out.nodes[t].bound.assign(
        static_cast<size_t>(nodes[t].result_schema.arity()), false);
  }
  if (n == 0) return out;

  DATACON_ASSIGN_OR_RETURN(SccDecomposition scc, graph.Stratify());

  // --- Scan every branch of every node body, plus the query expression. ---
  std::vector<std::vector<BranchScan>> scans(n);
  std::vector<BranchScan> query_scans;
  for (size_t u = 0; u < n; ++u) {
    for (const BranchPtr& branch : nodes[u].body->branches()) {
      DATACON_ASSIGN_OR_RETURN(BranchScan scan,
                               ScanBranch(*branch, graph, catalog));
      scans[u].push_back(std::move(scan));
    }
  }
  for (const BranchPtr& branch : expr.branches()) {
    DATACON_ASSIGN_OR_RETURN(BranchScan scan,
                             ScanBranch(*branch, graph, catalog));
    query_scans.push_back(std::move(scan));
  }

  // --- Enumerate use sites. ---
  std::vector<Site> sites;
  auto collect_sites = [&](int owner, const std::vector<BranchScan>& bscans) {
    for (size_t bi = 0; bi < bscans.size(); ++bi) {
      const BranchScan& scan = bscans[bi];
      for (size_t j = 0; j < scan.bindings.size(); ++j) {
        if (scan.bindings[j].node < 0) continue;
        Site site;
        site.target = scan.bindings[j].node;
        site.owner = owner;
        site.branch_index = static_cast<int>(bi);
        site.binding = j;
        const Binding& binding = scan.branch->bindings()[j];
        const Schema& result_schema =
            nodes[static_cast<size_t>(site.target)].result_schema;
        RangeSplit split = SplitAtLastConstructor(*binding.range);
        SelectorConstraints(split.trailing_selectors, result_schema, catalog,
                            &site.static_attrs);
        ConjunctConstraints(scan.conjuncts, binding.var, result_schema,
                            &site.static_attrs);
        sites.push_back(std::move(site));
      }
      for (const auto& [node, parity] : scan.pred_refs) {
        Site site;
        site.target = node;
        site.owner = owner;
        site.branch_index = static_cast<int>(bi);
        site.unconstrained = true;
        site.negated = (parity % 2) == 1;
        sites.push_back(std::move(site));
      }
    }
  };
  collect_sites(-1, query_scans);
  for (size_t u = 0; u < n; ++u) collect_sites(static_cast<int>(u), scans[u]);

  // --- Target resolution: which (binding, field) feeds a result attr. ---
  auto target_source = [](const BranchScan& scan, int attr)
      -> std::optional<std::pair<size_t, int>> {
    const Branch& branch = *scan.branch;
    if (!branch.targets().has_value()) {
      if (branch.bindings().size() != 1) return std::nullopt;
      if (attr >= scan.bindings[0].schema->arity()) return std::nullopt;
      return std::make_pair(size_t{0}, attr);
    }
    if (attr >= static_cast<int>(branch.targets()->size())) {
      return std::nullopt;
    }
    const Term& term = *(*branch.targets())[static_cast<size_t>(attr)];
    if (term.kind() != Term::Kind::kFieldRef) return std::nullopt;
    const auto& field_ref = static_cast<const FieldRefTerm&>(term);
    for (size_t j = 0; j < branch.bindings().size(); ++j) {
      if (branch.bindings()[j].var != field_ref.var()) continue;
      std::optional<int> idx =
          scan.bindings[j].schema->FieldIndex(field_ref.field());
      if (!idx.has_value()) return std::nullopt;
      return std::make_pair(j, *idx);
    }
    return std::nullopt;
  };

  auto target_literal = [](const BranchScan& scan,
                           int attr) -> const Value* {
    const Branch& branch = *scan.branch;
    if (!branch.targets().has_value()) return nullptr;
    if (attr >= static_cast<int>(branch.targets()->size())) return nullptr;
    const Term& term = *(*branch.targets())[static_cast<size_t>(attr)];
    if (term.kind() != Term::Kind::kLiteral) return nullptr;
    return &static_cast<const LiteralTerm&>(term).value();
  };

  // The attributes of a binding site's target that become bound when the
  // owner's result attribute `owner_attr` is bound: the copied field when
  // the target term reads this binding directly, or the joined fields when
  // it reads another (constructor-free) binding the site equi-joins with.
  auto dynamic_attrs = [&](const Site& site, int owner_attr) -> std::set<int> {
    std::set<int> result;
    const BranchScan& scan =
        scans[static_cast<size_t>(site.owner)]
             [static_cast<size_t>(site.branch_index)];
    std::optional<std::pair<size_t, int>> src =
        target_source(scan, owner_attr);
    if (!src.has_value()) return result;
    const auto& [source_binding, source_field] = *src;
    if (source_binding == site.binding) {
      result.insert(source_field);
      return result;
    }
    if (!scan.bindings[source_binding].ctor_free) return result;
    const std::string& site_var = scan.branch->bindings()[site.binding].var;
    const std::string& source_var =
        scan.branch->bindings()[source_binding].var;
    for (const PredPtr& c : scan.conjuncts) {
      if (c->kind() != Pred::Kind::kCompare) continue;
      const auto& cmp = static_cast<const ComparePred&>(*c);
      if (cmp.op() != CompareOp::kEq) continue;
      for (bool flip : {false, true}) {
        const Term& lhs = flip ? *cmp.rhs() : *cmp.lhs();
        const Term& rhs = flip ? *cmp.lhs() : *cmp.rhs();
        if (lhs.kind() != Term::Kind::kFieldRef ||
            rhs.kind() != Term::Kind::kFieldRef) {
          continue;
        }
        const auto& left = static_cast<const FieldRefTerm&>(lhs);
        const auto& right = static_cast<const FieldRefTerm&>(rhs);
        if (left.var() != site_var || right.var() != source_var) continue;
        std::optional<int> attr =
            scan.bindings[site.binding].schema->FieldIndex(left.field());
        if (attr.has_value()) result.insert(*attr);
      }
    }
    return result;
  };

  // --- Candidate bound sets: greatest fixpoint of the must-intersection
  // over all use sites (an attribute stays bound only when EVERY site
  // constrains it, statically or through its owner's own adornment). ---
  std::vector<std::set<int>> candidates(n);
  std::vector<bool> has_site(n, false);
  for (const Site& site : sites) {
    has_site[static_cast<size_t>(site.target)] = true;
  }
  for (size_t t = 0; t < n; ++t) {
    if (!has_site[t]) continue;  // unreachable: stays unadorned
    for (int a = 0; a < nodes[t].result_schema.arity(); ++a) {
      candidates[t].insert(a);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t t = 0; t < n; ++t) {
      std::set<int> acc = candidates[t];
      for (const Site& site : sites) {
        if (site.target != static_cast<int>(t)) continue;
        std::set<int> site_attrs;
        if (!site.unconstrained) {
          for (const auto& [attr, seeds] : site.static_attrs) {
            site_attrs.insert(attr);
          }
          if (site.owner >= 0) {
            for (int a : candidates[static_cast<size_t>(site.owner)]) {
              std::set<int> d = dynamic_attrs(site, a);
              site_attrs.insert(d.begin(), d.end());
            }
          }
        }
        std::set<int> next;
        std::set_intersection(acc.begin(), acc.end(), site_attrs.begin(),
                              site_attrs.end(),
                              std::inserter(next, next.begin()));
        acc = std::move(next);
      }
      if (acc != candidates[t]) {
        candidates[t] = std::move(acc);
        changed = true;
      }
    }
  }

  // --- Driving attribute: one bound attribute per node, validated so that
  // every site justifies the specific choice (not just some candidate). ---
  std::vector<int> driving(n, -1);
  for (size_t t = 0; t < n; ++t) {
    if (!candidates[t].empty()) driving[t] = *candidates[t].begin();
  }
  changed = true;
  while (changed) {
    changed = false;
    for (const Site& site : sites) {
      const size_t t = static_cast<size_t>(site.target);
      if (driving[t] < 0) continue;
      bool covered = site.static_attrs.count(driving[t]) > 0;
      if (!covered && !site.unconstrained && site.owner >= 0 &&
          driving[static_cast<size_t>(site.owner)] >= 0) {
        covered = dynamic_attrs(
                      site, driving[static_cast<size_t>(site.owner)])
                      .count(driving[t]) > 0;
      }
      if (site.unconstrained) covered = false;
      if (!covered) {
        driving[t] = -1;
        changed = true;
      }
    }
  }

  for (size_t t = 0; t < n; ++t) {
    for (int a : candidates[t]) {
      out.nodes[t].bound[static_cast<size_t>(a)] = true;
    }
    out.nodes[t].bound_attr = driving[t];
  }

  auto same_component = [&](int x, int y) {
    return scc.component_of[static_cast<size_t>(x)] ==
           scc.component_of[static_cast<size_t>(y)];
  };

  // --- Per-branch classification for adorned nodes. ---
  for (size_t t = 0; t < n; ++t) {
    if (driving[t] < 0) continue;
    AdornNode& adorned = out.nodes[t];
    const int a = driving[t];
    for (size_t bi = 0; bi < scans[t].size(); ++bi) {
      const BranchScan& scan = scans[t][bi];
      AdornBranch ab;
      bool pred_recursive = false;
      for (const auto& [node, parity] : scan.pred_refs) {
        if (same_component(node, static_cast<int>(t))) pred_recursive = true;
      }
      std::vector<size_t> recursive;
      for (size_t j = 0; j < scan.bindings.size(); ++j) {
        if (scan.bindings[j].node >= 0 &&
            same_component(scan.bindings[j].node, static_cast<int>(t))) {
          recursive.push_back(j);
        }
      }
      // Finds a conjunct that carries the bound value into the recursive
      // binding: a literal/parameter equality on its driving field (a
      // static seed) or an equi-join hop through the filtered source
      // binding. Returns false when boundness is dropped (W221).
      auto constrain_recursive =
          [&](size_t rec_j,
              std::optional<std::pair<size_t, int>> src) -> bool {
        const int rec_node = scan.bindings[rec_j].node;
        const int rec_driving = driving[static_cast<size_t>(rec_node)];
        if (rec_driving < 0) return false;
        const std::string& rec_var = scan.branch->bindings()[rec_j].var;
        for (const PredPtr& c : scan.conjuncts) {
          if (c->kind() != Pred::Kind::kCompare) continue;
          const auto& cmp = static_cast<const ComparePred&>(*c);
          if (cmp.op() != CompareOp::kEq) continue;
          for (bool flip : {false, true}) {
            const Term& lhs = flip ? *cmp.rhs() : *cmp.lhs();
            const Term& rhs = flip ? *cmp.lhs() : *cmp.rhs();
            if (lhs.kind() != Term::Kind::kFieldRef) continue;
            const auto& left = static_cast<const FieldRefTerm&>(lhs);
            if (left.var() != rec_var) continue;
            std::optional<int> attr =
                scan.bindings[rec_j].schema->FieldIndex(left.field());
            if (!attr.has_value() || *attr != rec_driving) continue;
            if (rhs.kind() == Term::Kind::kLiteral) {
              AdornSeed seed;
              seed.attr = rec_driving;
              seed.literal = static_cast<const LiteralTerm&>(rhs).value();
              ab.seeds.push_back(seed);
              out.nodes[static_cast<size_t>(rec_node)].seeds.push_back(seed);
              ab.filters.push_back({rec_j, rec_driving, rec_node});
              return true;
            }
            if (rhs.kind() == Term::Kind::kParamRef) {
              AdornSeed seed;
              seed.attr = rec_driving;
              seed.param = static_cast<const ParamRefTerm&>(rhs).name();
              ab.seeds.push_back(seed);
              out.nodes[static_cast<size_t>(rec_node)].seeds.push_back(seed);
              ab.filters.push_back({rec_j, rec_driving, rec_node});
              return true;
            }
            if (rhs.kind() == Term::Kind::kFieldRef && src.has_value()) {
              const auto& right = static_cast<const FieldRefTerm&>(rhs);
              const auto& [source_binding, source_field] = *src;
              if (source_binding == rec_j) continue;
              if (right.var() !=
                  scan.branch->bindings()[source_binding].var) {
                continue;
              }
              if (!scan.bindings[source_binding].ctor_free) continue;
              std::optional<int> to_field =
                  scan.bindings[source_binding].schema->FieldIndex(
                      right.field());
              if (!to_field.has_value()) continue;
              AdornBranch::Transfer step;
              step.target_node = rec_node;
              step.via_base = scan.branch->bindings()[source_binding].range;
              step.from_field = source_field;
              step.to_field = *to_field;
              ab.transfers.push_back(std::move(step));
              ab.filters.push_back({rec_j, rec_driving, rec_node});
              return true;
            }
          }
        }
        return false;
      };

      if (pred_recursive) {
        ab.kind = AdornBranch::Kind::kLost;
        ab.lost_code = std::string(kDiagAdornmentNegation);
        ab.detail =
            "lost (W222): a recursive reference occurs inside the branch "
            "predicate; relevance cannot be restricted";
      } else if (recursive.size() >= 2) {
        ab.kind = AdornBranch::Kind::kLost;
        ab.lost_code = std::string(kDiagAdornmentNonLinear);
        ab.detail = "lost (W220): the adornment is lost across a non-linear "
                    "branch (" +
                    std::to_string(recursive.size()) +
                    " recursive bindings)";
      } else {
        std::optional<std::pair<size_t, int>> src = target_source(scan, a);
        const Value* literal = target_literal(scan, a);
        const std::string bound_field =
            nodes[t].result_schema.field(a).name;
        if (src.has_value() && !recursive.empty() &&
            src->first == recursive[0]) {
          // The bound attribute is copied out of the recursive binding
          // itself: the relevant values propagate verbatim.
          const int rec_node = scan.bindings[src->first].node;
          if (driving[static_cast<size_t>(rec_node)] == src->second) {
            ab.kind = AdornBranch::Kind::kPropagating;
            ab.filters.push_back({src->first, src->second, rec_node});
            AdornBranch::Transfer step;
            step.target_node = rec_node;
            ab.transfers.push_back(std::move(step));
            ab.detail = "propagating: '" + bound_field +
                        "' flows verbatim through recursive binding '" +
                        scan.branch->bindings()[src->first].var + "'";
          } else {
            ab.kind = AdornBranch::Kind::kLost;
            ab.lost_code = std::string(kDiagAdornmentFreeJoin);
            ab.detail = "lost (W221): the bound attribute does not align "
                        "with the recursive occurrence's adornment";
          }
        } else if (src.has_value()) {
          const auto& [source_binding, source_field] = *src;
          ab.filters.push_back(
              {source_binding, source_field, static_cast<int>(t)});
          const int source_node = scan.bindings[source_binding].node;
          if (source_node >= 0 &&
              !same_component(source_node, static_cast<int>(t))) {
            AdornBranch::Transfer step;
            step.target_node = source_node;
            ab.transfers.push_back(std::move(step));
          }
          if (recursive.empty()) {
            ab.kind = AdornBranch::Kind::kPushable;
            ab.detail = "pushable: restrict binding '" +
                        scan.branch->bindings()[source_binding].var +
                        "' on field '" +
                        scan.bindings[source_binding]
                            .schema->field(source_field)
                            .name +
                        "'";
          } else if (constrain_recursive(recursive[0], src)) {
            ab.kind = AdornBranch::Kind::kPropagating;
            ab.detail = "propagating: magic step carries '" + bound_field +
                        "' into recursive binding '" +
                        scan.branch->bindings()[recursive[0]].var + "'";
          } else {
            ab.kind = AdornBranch::Kind::kLost;
            ab.lost_code = std::string(kDiagAdornmentFreeJoin);
            ab.detail = "lost (W221): no equality conjunct carries the "
                        "bound value into recursive binding '" +
                        scan.branch->bindings()[recursive[0]].var + "'";
          }
        } else if (literal != nullptr && recursive.empty()) {
          ab.kind = AdornBranch::Kind::kPushable;
          ab.detail = "pushable: '" + bound_field +
                      "' is constant-valued (" + literal->ToString() + ")";
        } else if (literal != nullptr &&
                   constrain_recursive(recursive[0], std::nullopt)) {
          ab.kind = AdornBranch::Kind::kPropagating;
          ab.detail = "propagating: constant '" + bound_field +
                      "' branch with seeded recursive binding";
        } else if (recursive.empty()) {
          ab.kind = AdornBranch::Kind::kPushable;
          ab.detail = "pushable: '" + bound_field +
                      "' is computed (no range restriction)";
        } else {
          ab.kind = AdornBranch::Kind::kLost;
          ab.lost_code = std::string(kDiagAdornmentFreeJoin);
          ab.detail = "lost (W221): the bound attribute is not a direct "
                      "field copy; the binding is dropped by a free-variable "
                      "join";
        }
      }
      if (ab.kind == AdornBranch::Kind::kLost) {
        ab.filters.clear();
        ab.transfers.clear();
        ab.seeds.clear();
      }
      adorned.branches.push_back(std::move(ab));
    }
  }

  // --- Component eligibility: every member adorned, every branch usable.
  std::vector<bool> component_ok(
      static_cast<size_t>(scc.component_count()), true);
  for (size_t t = 0; t < n; ++t) {
    const size_t comp = static_cast<size_t>(scc.component_of[t]);
    if (driving[t] < 0) {
      component_ok[comp] = false;
      continue;
    }
    for (const AdornBranch& ab : out.nodes[t].branches) {
      if (ab.kind == AdornBranch::Kind::kLost) component_ok[comp] = false;
    }
  }

  // --- Coverage: a node may only be restricted when every use site's
  // demand reaches its magic set — through a static seed, or through a
  // transfer recorded by an active owner. Deactivation cascades. ---
  std::vector<bool> active(n, false);
  for (size_t t = 0; t < n; ++t) {
    active[t] = driving[t] >= 0 &&
                component_ok[static_cast<size_t>(scc.component_of[t])];
  }
  changed = true;
  while (changed) {
    changed = false;
    for (const Site& site : sites) {
      const size_t t = static_cast<size_t>(site.target);
      if (!active[t]) continue;
      bool covered = site.static_attrs.count(driving[t]) > 0;
      if (!covered && site.owner >= 0 &&
          active[static_cast<size_t>(site.owner)]) {
        const AdornBranch& ab =
            out.nodes[static_cast<size_t>(site.owner)]
                .branches[static_cast<size_t>(site.branch_index)];
        for (const AdornBranch::Transfer& step : ab.transfers) {
          if (step.target_node == site.target) {
            covered = true;
            break;
          }
        }
      }
      if (!covered) {
        const int comp = scc.component_of[t];
        for (size_t m = 0; m < n; ++m) {
          if (scc.component_of[m] == comp && active[m]) {
            active[m] = false;
            changed = true;
          }
        }
      }
    }
  }
  for (size_t t = 0; t < n; ++t) {
    out.nodes[t].specializable = active[t];
    if (active[t]) out.any_specializable = true;
  }

  // --- Root seeds: every static equality on an active node's driving
  // attribute feeds the relevant-value closure (extra values are sound). ---
  for (const Site& site : sites) {
    const size_t t = static_cast<size_t>(site.target);
    if (!active[t]) continue;
    auto it = site.static_attrs.find(driving[t]);
    if (it == site.static_attrs.end()) continue;
    for (const AdornSeed& seed : it->second) {
      out.nodes[t].seeds.push_back(seed);
    }
  }

  // --- Diagnostics: only for applications someone actually tried to bind
  // (a static equality exists) that are provably unspecializable. ---
  std::vector<bool> requested(n, false);
  for (const Site& site : sites) {
    if (!site.static_attrs.empty()) {
      requested[static_cast<size_t>(site.target)] = true;
    }
  }
  std::vector<bool> component_reported(
      static_cast<size_t>(scc.component_count()), false);
  for (size_t t = 0; t < n; ++t) {
    if (!requested[t] || active[t]) continue;
    const size_t comp = static_cast<size_t>(scc.component_of[t]);
    if (component_reported[comp]) continue;
    component_reported[comp] = true;
    bool emitted = false;
    for (const Site& site : sites) {
      if (site.target == static_cast<int>(t) && site.negated) {
        out.diagnostics.push_back(MakeDiagnostic(
            kDiagAdornmentNegation,
            "application '" + nodes[t].key +
                "': relevance propagation is blocked by a reference under "
                "negation; evaluated unspecialized"));
        emitted = true;
        break;
      }
    }
    if (!emitted) {
      for (size_t m = 0; m < n && !emitted; ++m) {
        if (scc.component_of[m] != static_cast<int>(comp)) continue;
        for (const AdornBranch& ab : out.nodes[m].branches) {
          if (ab.kind != AdornBranch::Kind::kLost) continue;
          out.diagnostics.push_back(MakeDiagnostic(
              ab.lost_code, "application '" + nodes[m].key + "': " +
                                ab.detail + "; evaluated unspecialized"));
          emitted = true;
          break;
        }
      }
    }
    if (!emitted) {
      out.diagnostics.push_back(MakeDiagnostic(
          kDiagAdornmentFreeJoin,
          "application '" + nodes[t].key +
              "': the bound attribute is not constrained at every use site; "
              "evaluated unspecialized"));
    }
  }

  return out;
}

}  // namespace datacon
