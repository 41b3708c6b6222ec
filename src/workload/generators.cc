#include "workload/generators.h"

#include <random>
#include <set>
#include <utility>

#include "ast/builder.h"

namespace datacon::workload {

using build::Constructed;
using build::Each;
using build::Eq;
using build::FieldRef;
using build::IdentityBranch;
using build::MakeBranch;
using build::Rel;
using build::True;
using build::Union;

EdgeList Chain(int n) {
  EdgeList out;
  out.node_count = n;
  for (int i = 0; i + 1 < n; ++i) out.edges.emplace_back(i, i + 1);
  return out;
}

EdgeList Cycle(int n) {
  EdgeList out = Chain(n);
  if (n > 1) out.edges.emplace_back(n - 1, 0);
  return out;
}

EdgeList KaryTree(int depth, int fanout) {
  EdgeList out;
  // Node ids breadth-first: node i has children i*fanout+1 .. i*fanout+fanout.
  int count = 1;
  int layer = 1;
  for (int d = 0; d < depth; ++d) {
    layer *= fanout;
    count += layer;
  }
  out.node_count = count;
  for (int i = 0; i < count; ++i) {
    for (int c = 1; c <= fanout; ++c) {
      int child = i * fanout + c;
      if (child >= count) break;
      out.edges.emplace_back(i, child);
    }
  }
  return out;
}

EdgeList RandomDigraph(int n, int edge_count, uint64_t seed) {
  EdgeList out;
  out.node_count = n;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::set<std::pair<int, int>> seen;
  int attempts = 0;
  while (static_cast<int>(seen.size()) < edge_count &&
         attempts < edge_count * 20) {
    ++attempts;
    int a = pick(rng);
    int b = pick(rng);
    if (a == b) continue;
    seen.emplace(a, b);
  }
  out.edges.assign(seen.begin(), seen.end());
  return out;
}

EdgeList Grid(int width, int height) {
  EdgeList out;
  out.node_count = width * height;
  auto id = [width](int x, int y) { return y * width + x; };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (x + 1 < width) out.edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < height) out.edges.emplace_back(id(x, y), id(x, y + 1));
    }
  }
  return out;
}

EdgeList LayeredDag(int layers, int width, int fanout, uint64_t seed) {
  EdgeList out;
  out.node_count = layers * width;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, width - 1);
  std::set<std::pair<int, int>> seen;
  for (int layer = 0; layer + 1 < layers; ++layer) {
    for (int i = 0; i < width; ++i) {
      int from = layer * width + i;
      for (int f = 0; f < fanout; ++f) {
        int to = (layer + 1) * width + pick(rng);
        seen.emplace(from, to);
      }
    }
  }
  out.edges.assign(seen.begin(), seen.end());
  return out;
}

Status LoadEdges(Database* db, const std::string& relation,
                 const EdgeList& edges) {
  for (const auto& [a, b] : edges.edges) {
    DATACON_RETURN_IF_ERROR(
        db->Insert(relation, Tuple({Value::Int(a), Value::Int(b)})));
  }
  return Status::OK();
}

Status SetupClosure(Database* db, const std::string& prefix,
                    const EdgeList& edges) {
  const std::string type_name = prefix + "_edgerel";
  const std::string rel_name = prefix + "_E";
  const std::string ctor_name = prefix + "_tc";
  DATACON_RETURN_IF_ERROR(db->DefineRelationType(
      type_name, Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}})));
  DATACON_RETURN_IF_ERROR(db->CreateRelation(rel_name, type_name));

  // The paper's `ahead` shape, over integer edges:
  //   BEGIN EACH r IN Rel: TRUE,
  //         <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {tc}: f.dst = b.src
  //   END tc
  auto body = Union(
      {IdentityBranch("r", Rel("Rel"), True()),
       MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                  {Each("f", Rel("Rel")),
                   Each("b", Constructed(Rel("Rel"), ctor_name))},
                  Eq(FieldRef("f", "dst"), FieldRef("b", "src")))});
  auto decl = std::make_shared<ConstructorDecl>(
      ctor_name, FormalRelation{"Rel", type_name},
      std::vector<FormalRelation>{}, std::vector<FormalScalar>{}, type_name,
      body);
  DATACON_RETURN_IF_ERROR(db->DefineConstructor(decl));
  return LoadEdges(db, rel_name, edges);
}

Status SetupCadScene(Database* db, int objects, int infront_edges,
                     int ontop_edges, uint64_t seed) {
  DATACON_RETURN_IF_ERROR(db->DefineRelationType(
      "infrontrel",
      Schema({{"front", ValueType::kString}, {"back", ValueType::kString}})));
  DATACON_RETURN_IF_ERROR(db->DefineRelationType(
      "ontoprel",
      Schema({{"top", ValueType::kString}, {"base", ValueType::kString}})));
  DATACON_RETURN_IF_ERROR(db->DefineRelationType(
      "aheadrel",
      Schema({{"head", ValueType::kString}, {"tail", ValueType::kString}})));
  DATACON_RETURN_IF_ERROR(db->DefineRelationType(
      "aboverel",
      Schema({{"high", ValueType::kString}, {"low", ValueType::kString}})));
  DATACON_RETURN_IF_ERROR(db->CreateRelation("Infront", "infrontrel"));
  DATACON_RETURN_IF_ERROR(db->CreateRelation("Ontop", "ontoprel"));

  // Section 3.1, mutual recursion:
  //   CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop_p: ontoprel): aheadrel
  auto ahead_body = Union(
      {IdentityBranch("r", Rel("Rel"), True()),
       MakeBranch({FieldRef("r", "front"), FieldRef("ah", "tail")},
                  {Each("r", Rel("Rel")),
                   Each("ah", Constructed(Rel("Rel"), "ahead",
                                          {Rel("Ontop_p")}))},
                  Eq(FieldRef("r", "back"), FieldRef("ah", "head"))),
       MakeBranch({FieldRef("r", "front"), FieldRef("ab", "low")},
                  {Each("r", Rel("Rel")),
                   Each("ab", Constructed(Rel("Ontop_p"), "above",
                                          {Rel("Rel")}))},
                  Eq(FieldRef("r", "back"), FieldRef("ab", "high")))});
  auto ahead = std::make_shared<ConstructorDecl>(
      "ahead", FormalRelation{"Rel", "infrontrel"},
      std::vector<FormalRelation>{{"Ontop_p", "ontoprel"}},
      std::vector<FormalScalar>{}, "aheadrel", ahead_body);

  //   CONSTRUCTOR above FOR Rel: ontoprel (Infront_p: infrontrel): aboverel
  auto above_body = Union(
      {IdentityBranch("r", Rel("Rel"), True()),
       MakeBranch({FieldRef("r", "top"), FieldRef("ab", "low")},
                  {Each("r", Rel("Rel")),
                   Each("ab", Constructed(Rel("Rel"), "above",
                                          {Rel("Infront_p")}))},
                  Eq(FieldRef("r", "base"), FieldRef("ab", "high"))),
       MakeBranch({FieldRef("r", "top"), FieldRef("ah", "tail")},
                  {Each("r", Rel("Rel")),
                   Each("ah", Constructed(Rel("Infront_p"), "ahead",
                                          {Rel("Rel")}))},
                  Eq(FieldRef("r", "base"), FieldRef("ah", "head")))});
  auto above = std::make_shared<ConstructorDecl>(
      "above", FormalRelation{"Rel", "ontoprel"},
      std::vector<FormalRelation>{{"Infront_p", "infrontrel"}},
      std::vector<FormalScalar>{}, "aboverel", above_body);
  // `ahead` and `above` are mutually recursive: define them as a group.
  DATACON_RETURN_IF_ERROR(db->DefineConstructorGroup({ahead, above}));

  // Random facts over part names p0..p<objects-1>.
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, objects - 1);
  auto part = [](int i) {
    std::string name = "p";
    name += std::to_string(i);
    return Value::String(name);
  };
  std::set<std::pair<int, int>> seen;
  int attempts = 0;
  while (static_cast<int>(seen.size()) < infront_edges &&
         attempts < infront_edges * 20) {
    ++attempts;
    int a = pick(rng);
    int b = pick(rng);
    if (a == b) continue;
    if (!seen.emplace(a, b).second) continue;
    DATACON_RETURN_IF_ERROR(db->Insert("Infront", Tuple({part(a), part(b)})));
  }
  seen.clear();
  attempts = 0;
  while (static_cast<int>(seen.size()) < ontop_edges &&
         attempts < ontop_edges * 20) {
    ++attempts;
    int a = pick(rng);
    int b = pick(rng);
    if (a == b) continue;
    if (!seen.emplace(a, b).second) continue;
    DATACON_RETURN_IF_ERROR(db->Insert("Ontop", Tuple({part(a), part(b)})));
  }
  return Status::OK();
}

}  // namespace datacon::workload
