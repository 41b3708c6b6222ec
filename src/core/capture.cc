#include "core/capture.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "ra/analysis.h"
#include "storage/index.h"

namespace datacon {

namespace {

struct FieldOf {
  std::string var;
  std::string field;
};

std::optional<FieldOf> AsField(const TermPtr& t) {
  if (t->kind() != Term::Kind::kFieldRef) return std::nullopt;
  const auto& f = static_cast<const FieldRefTerm&>(*t);
  return FieldOf{f.var(), f.field()};
}

/// True when `branch` is the closure's base case: the identity over the
/// formal base `rel`, or a projection <r.a, r.b> of it onto two distinct
/// fields, which `info` records.
bool IsBaseBranch(const Branch& branch, const std::string& rel,
                  TransitiveClosureInfo* info) {
  if (branch.bindings().size() != 1) return false;
  const Binding& b = branch.bindings()[0];
  if (b.range->relation() != rel || !b.range->IsPlain()) return false;
  if (!FlattenConjuncts(branch.pred()).empty()) return false;  // pred != TRUE
  if (!branch.targets().has_value()) return true;
  const auto& ts = *branch.targets();
  if (ts.size() != 2) return false;
  std::optional<FieldOf> f0 = AsField(ts[0]);
  std::optional<FieldOf> f1 = AsField(ts[1]);
  if (!f0.has_value() || !f1.has_value() || f0->var != b.var ||
      f1->var != b.var || f0->field == f1->field) {
    return false;
  }
  info->base_first = f0->field;
  info->base_second = f1->field;
  return true;
}

}  // namespace

std::optional<TransitiveClosureInfo> DetectTransitiveClosure(
    const ConstructorDecl& decl) {
  if (!decl.rel_params().empty() || !decl.scalar_params().empty()) {
    return std::nullopt;
  }
  if (decl.body()->branches().size() != 2) return std::nullopt;
  const std::string& rel = decl.base().name;

  TransitiveClosureInfo info;
  const Branch* base_branch = nullptr;
  const Branch* step_branch = nullptr;
  for (const BranchPtr& b : decl.body()->branches()) {
    if (base_branch == nullptr && IsBaseBranch(*b, rel, &info)) {
      base_branch = b.get();
    } else {
      step_branch = b.get();
    }
  }
  if (base_branch == nullptr || step_branch == nullptr) return std::nullopt;

  // The step branch: EACH f IN Rel, EACH b IN Rel{decl} joined on one
  // equality, projecting <outer-source, recursive-target> (left-linear) or
  // the mirror image (right-linear).
  if (step_branch->bindings().size() != 2) return std::nullopt;
  const Binding* outer = nullptr;   // over the plain base
  const Binding* rec = nullptr;     // over Rel{decl}
  for (const Binding& b : step_branch->bindings()) {
    if (b.range->relation() != rel) return std::nullopt;
    if (b.range->IsPlain()) {
      if (outer != nullptr) return std::nullopt;
      outer = &b;
    } else {
      const auto& apps = b.range->apps();
      if (apps.size() != 1 || apps[0].kind != RangeApp::Kind::kConstructor ||
          apps[0].name != decl.name() || !apps[0].range_args.empty() ||
          !apps[0].term_args.empty()) {
        return std::nullopt;
      }
      if (rec != nullptr) return std::nullopt;
      rec = &b;
    }
  }
  if (outer == nullptr || rec == nullptr) return std::nullopt;

  std::vector<PredPtr> conjuncts = FlattenConjuncts(step_branch->pred());
  if (conjuncts.size() != 1 ||
      conjuncts[0]->kind() != Pred::Kind::kCompare) {
    return std::nullopt;
  }
  const auto& cmp = static_cast<const ComparePred&>(*conjuncts[0]);
  if (cmp.op() != CompareOp::kEq) return std::nullopt;
  std::optional<FieldOf> lhs = AsField(cmp.lhs());
  std::optional<FieldOf> rhs = AsField(cmp.rhs());
  if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
  // Normalize: the join must connect the outer variable and the recursive
  // variable.
  const FieldOf* outer_side = nullptr;
  const FieldOf* rec_side = nullptr;
  for (const FieldOf* side : {&*lhs, &*rhs}) {
    if (side->var == outer->var) outer_side = side;
    if (side->var == rec->var) rec_side = side;
  }
  if (outer_side == nullptr || rec_side == nullptr) return std::nullopt;

  if (!step_branch->targets().has_value()) return std::nullopt;
  const auto& ts = *step_branch->targets();
  if (ts.size() != 2) return std::nullopt;
  std::optional<FieldOf> t0 = AsField(ts[0]);
  std::optional<FieldOf> t1 = AsField(ts[1]);
  if (!t0.has_value() || !t1.has_value()) return std::nullopt;

  // Left-linear (`ahead`): <outer.src, rec.tgt>, join outer.dst = rec.src;
  // right-linear mirror: <rec.src, outer.dst>, join rec.tgt = outer.src.
  info.left_linear = t0->var == outer->var;
  const FieldOf& outer_target = info.left_linear ? *t0 : *t1;
  const FieldOf& rec_target = info.left_linear ? *t1 : *t0;
  if (outer_target.var != outer->var || rec_target.var != rec->var ||
      outer_side->field == outer_target.field ||
      rec_side->field == rec_target.field) {
    return std::nullopt;
  }
  info.outer_target = outer_target.field;
  info.outer_join = outer_side->field;
  info.rec_target = rec_target.field;
  info.rec_join = rec_side->field;
  return info;
}

std::optional<TransitiveClosureInfo> DetectCapturedClosure(
    const ConstructorDecl& decl, const Catalog& catalog) {
  std::optional<TransitiveClosureInfo> info = DetectTransitiveClosure(decl);
  if (!info.has_value()) return std::nullopt;
  Result<const Schema*> base =
      catalog.LookupRelationType(decl.base().type_name);
  Result<const Schema*> result =
      catalog.LookupRelationType(decl.result_type_name());
  if (!base.ok() || !result.ok() || base.value()->arity() != 2 ||
      result.value()->arity() != 2) {
    return std::nullopt;
  }
  auto base_field = [&](int i) { return base.value()->field(i).name; };
  auto result_field = [&](int i) { return result.value()->field(i).name; };
  if (!info->base_first.empty() && (info->base_first != base_field(0) ||
                                    info->base_second != base_field(1))) {
    return std::nullopt;
  }
  // The position each variable projects; it joins on the other one.
  const int outer = info->left_linear ? 0 : 1;
  if (info->outer_target != base_field(outer) ||
      info->outer_join != base_field(1 - outer) ||
      info->rec_target != result_field(1 - outer) ||
      info->rec_join != result_field(outer)) {
    return std::nullopt;
  }
  return info;
}

namespace {

/// Adjacency of a binary relation: first column -> list of second columns.
std::unordered_map<Value, std::vector<Value>> BuildAdjacency(
    const Relation& edges) {
  std::unordered_map<Value, std::vector<Value>> adj;
  adj.reserve(edges.size());
  for (const Tuple& t : edges.tuples()) {
    adj[t.value(0)].push_back(t.value(1));
  }
  return adj;
}

/// Appends (source, x) for every x reachable from `source` via >= 1 edge;
/// `for_each_next(v, fn)` calls `fn` on every successor of `v`.
template <typename ForEachNext>
Status ClosureFrom(const Value& source, const ForEachNext& for_each_next,
                   Relation* out) {
  std::unordered_set<Value> visited;
  std::deque<Value> frontier;
  frontier.push_back(source);
  while (!frontier.empty()) {
    Value v = std::move(frontier.front());
    frontier.pop_front();
    Status status = Status::OK();
    for_each_next(v, [&](const Value& next) {
      if (!status.ok() || !visited.insert(next).second) return;
      Result<bool> grew = out->Insert(Tuple({source, next}));
      if (!grew.ok()) {
        status = grew.status();
        return;
      }
      frontier.push_back(next);
    });
    DATACON_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

}  // namespace

Result<Relation> FullClosure(const Relation& edges,
                             const Schema& result_schema) {
  if (edges.schema().arity() != 2 || result_schema.arity() != 2) {
    return Status::TypeError("transitive closure requires binary relations");
  }
  std::unordered_map<Value, std::vector<Value>> adj = BuildAdjacency(edges);
  auto for_each_next = [&adj](const Value& v, const auto& fn) {
    auto it = adj.find(v);
    if (it == adj.end()) return;
    for (const Value& next : it->second) fn(next);
  };
  Relation out(result_schema);
  for (const auto& [source, unused] : adj) {
    (void)unused;
    DATACON_RETURN_IF_ERROR(ClosureFrom(source, for_each_next, &out));
  }
  return out;
}

Result<Relation> SeededClosure(const Relation& edges,
                               const std::vector<Value>& seeds,
                               const Schema& result_schema) {
  if (edges.schema().arity() != 2 || result_schema.arity() != 2) {
    return Status::TypeError("transitive closure requires binary relations");
  }
  // The edges' own index on the source column: built on the first seeded
  // lookup and kept current by later inserts, so a lookup visits only the
  // edges reachable from its seeds.
  const HashIndex& by_src = edges.IndexOn({0});
  auto for_each_next = [&by_src](const Value& v, const auto& fn) {
    for (const Tuple* t : by_src.Probe(Tuple({v}))) fn(t->value(1));
  };
  Relation out(result_schema);
  for (const Value& seed : seeds) {
    DATACON_RETURN_IF_ERROR(ClosureFrom(seed, for_each_next, &out));
  }
  return out;
}

}  // namespace datacon
