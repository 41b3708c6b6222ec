// analytic_cold: unbound recursive queries with the materialization cache
// off, rotated in a fixed order over three shapes:
//   0. the paper's ahead-shaped closure over a random digraph (capture path);
//   1. same-generation over a forest of binary trees (generic semi-naive,
//      a three-way join);
//   2. the mutually recursive ahead(Ontop)/above system over a CAD scene
//      (workload::SetupCadScene; one multi-node component).

#include <algorithm>
#include <numeric>
#include <optional>

#include "ast/builder.h"
#include "workload.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using datacon::Database;
using datacon::DatabaseOptions;
using datacon::Interpreter;
using datacon::Relation;
using datacon::Schema;
using datacon::Status;
using datacon::Tuple;
using datacon::Value;
using datacon::ValueType;
namespace build = datacon::build;

constexpr char kDefinitions[] = R"(
TYPE edgerel = RELATION OF RECORD src, dst: INTEGER END;
TYPE uprel = RELATION OF RECORD child, parent: INTEGER END;
TYPE pairrel = RELATION OF RECORD x, y: INTEGER END;
VAR G: edgerel;
VAR Up: uprel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: TRUE,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {tc}: f.dst = b.src
END tc;
CONSTRUCTOR sg FOR Rel: uprel (): pairrel;
BEGIN <u.child, v.child> OF EACH u IN Rel, EACH v IN Rel: u.parent = v.parent,
      <u.child, v.child> OF EACH u IN Rel, EACH s IN Rel {sg}, EACH v IN Rel:
        u.parent = s.x AND s.y = v.parent
END sg;
)";

const char* const kQueries[3] = {
    "QUERY G {tc};",
    "QUERY Up {sg};",
    "QUERY Infront {ahead(Ontop)};",
};
const char* const kShapes[3] = {"closure", "same_generation", "ahead_above"};

struct Sizes {
  int graph_nodes;
  int graph_edges;
  int trees;
  int tree_depth;
  int cad_objects;
  int cad_infront;
  int cad_ontop;
};

// Dense enough that nearly every node joins the giant strongly connected
// component, so closure sizes (and timings) barely vary with the seed.
constexpr Sizes kFull = {210, 1050, 5, 6, 80, 240, 240};
constexpr Sizes kTiny = {20, 40, 1, 3, 12, 20, 20};

Value PartValue(int id) { return Value::String("p" + std::to_string(id)); }

class AnalyticCold : public Workload {
 public:
  AnalyticCold(uint64_t seed, bool tiny)
      : seed_(seed), sizes_(tiny ? kTiny : kFull) {
    graph_ = datacon::workload::RandomDigraph(sizes_.graph_nodes,
                                              sizes_.graph_edges, seed);
    // A forest of complete binary trees, relabelled by a seeded
    // permutation so node ids carry no structure.
    const datacon::workload::EdgeList tree =
        datacon::workload::KaryTree(sizes_.tree_depth, 2);
    tree_nodes_ = tree.node_count * sizes_.trees;
    std::vector<int> label(static_cast<size_t>(tree_nodes_));
    std::iota(label.begin(), label.end(), 0);
    Rng rng(seed ^ 0x5eed5eedULL);
    std::shuffle(label.begin(), label.end(), rng.engine());
    depth_.assign(static_cast<size_t>(tree_nodes_), 0);
    tree_of_.assign(static_cast<size_t>(tree_nodes_), 0);
    for (int t = 0; t < sizes_.trees; ++t) {
      const int offset = t * tree.node_count;
      for (int i = 0; i < tree.node_count; ++i) {
        tree_of_[static_cast<size_t>(label[static_cast<size_t>(offset + i)])] =
            t;
      }
      for (const auto& [parent, child] : tree.edges) {
        const int p = label[static_cast<size_t>(offset + parent)];
        const int c = label[static_cast<size_t>(offset + child)];
        child_parent_.emplace_back(c, p);
      }
    }
    // Depths follow from the breadth-first ids of KaryTree.
    for (int t = 0; t < sizes_.trees; ++t) {
      for (const auto& [parent, child] : tree.edges) {
        const int offset = t * tree.node_count;
        depth_[static_cast<size_t>(label[static_cast<size_t>(offset + child)])] =
            depth_[static_cast<size_t>(
                label[static_cast<size_t>(offset + parent)])] +
            1;
      }
    }
    std::vector<size_t> per_depth(static_cast<size_t>(sizes_.tree_depth + 1));
    for (int v = 0; v < tree_nodes_; ++v) ++per_depth[static_cast<size_t>(depth_[static_cast<size_t>(v)])];
    sg_expected_ = 0;
    for (size_t d = 1; d < per_depth.size(); ++d) {
      const size_t per_tree = per_depth[d] / static_cast<size_t>(sizes_.trees);
      sg_expected_ += per_tree * per_tree * static_cast<size_t>(sizes_.trees);
    }
    reach_.emplace(sizes_.graph_nodes, graph_.edges);
  }

  Status Setup(std::vector<double>* insert_us) override {
    DatabaseOptions options;
    options.cache = false;
    interp_.reset();
    db_.reset();
    db_ = std::make_unique<Database>(options);
    interp_ = std::make_unique<Interpreter>(db_.get());
    DATACON_RETURN_IF_ERROR(interp_->Execute(kDefinitions));
    Status status;
    for (const auto& [a, b] : graph_.edges) {
      const int64_t ns = TimedInsert(
          db_.get(), "G", Tuple({Value::Int(a), Value::Int(b)}), &status);
      DATACON_RETURN_IF_ERROR(status);
      if (insert_us != nullptr) insert_us->push_back(static_cast<double>(ns) / 1e3);
    }
    for (const auto& [c, p] : child_parent_) {
      const int64_t ns = TimedInsert(
          db_.get(), "Up", Tuple({Value::Int(c), Value::Int(p)}), &status);
      DATACON_RETURN_IF_ERROR(status);
      if (insert_us != nullptr) insert_us->push_back(static_cast<double>(ns) / 1e3);
    }
    DATACON_RETURN_IF_ERROR(datacon::workload::SetupCadScene(
        db_.get(), sizes_.cad_objects, sizes_.cad_infront, sizes_.cad_ontop,
        seed_ ^ 0xcadcadULL));
    if (!ahead_.has_value()) LoadCadFacts();
    return Status::OK();
  }

  OpOutcome Run(int64_t index, Tracer* tracer, int64_t query_id,
                bool keep_answer) override {
    const int shape = static_cast<int>(index % 3);
    const std::string text = kQueries[shape];
    QueryRun run = RunQuery(interp_.get(), text, tracer, query_id);
    return CheckedQuery(std::move(run), kShapes[shape], text, Oracle(shape),
                        keep_answer);
  }

  int64_t ops_per_setup_sample() const override { return 1; }
  int64_t window_ops() const override { return 3; }  // one rotation
  double measured_share() const override { return 0.4; }

  Database* db() override { return db_.get(); }

  std::vector<BranchInput> BranchInputs() override {
    using build::Each;
    using build::Eq;
    using build::FieldRef;
    using build::Rel;
    const Relation* g = db_->GetRelation("G").value();
    const Relation* up = db_->GetRelation("Up").value();
    const Relation* infront = db_->GetRelation("Infront").value();
    closure_delta_ = PairRelation(
        Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}),
        LargestClosureDelta(sizes_.graph_nodes, graph_.edges), IntValue);
    sg_delta_ = PairRelation(
        Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}),
        LargestSameGenDelta(tree_nodes_, child_parent_), IntValue);
    ahead_delta_ = PairRelation(
        Schema({{"head", ValueType::kString}, {"tail", ValueType::kString}}),
        LargestAheadDelta(sizes_.cad_objects, infront_, ontop_), PartValue);
    std::vector<BranchInput> out;
    out.push_back(
        {"closure",
         build::MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                           {Each("f", Rel("G")), Each("b", Rel("D"))},
                           Eq(FieldRef("f", "dst"), FieldRef("b", "src"))),
         {{"f", g}, {"b", &closure_delta_}},
         closure_delta_.schema()});
    out.push_back(
        {"same_generation",
         build::MakeBranch(
             {FieldRef("u", "child"), FieldRef("v", "child")},
             {Each("u", Rel("Up")), Each("s", Rel("D")), Each("v", Rel("Up"))},
             build::And({Eq(FieldRef("u", "parent"), FieldRef("s", "x")),
                         Eq(FieldRef("s", "y"), FieldRef("v", "parent"))})),
         {{"u", up}, {"s", &sg_delta_}, {"v", up}},
         sg_delta_.schema()});
    out.push_back(
        {"ahead",
         build::MakeBranch({FieldRef("r", "front"), FieldRef("ah", "tail")},
                           {Each("r", Rel("Infront")), Each("ah", Rel("D"))},
                           Eq(FieldRef("r", "back"), FieldRef("ah", "head"))),
         {{"r", infront}, {"ah", &ahead_delta_}},
         ahead_delta_.schema()});
    return out;
  }

  std::vector<std::pair<int, int>> ReducedClosure() override {
    return datacon::workload::RandomDigraph(12, 20, seed_).edges;
  }

  std::pair<std::string, std::vector<Tuple>> FreshFacts(int count) override {
    std::vector<Tuple> facts;
    const int base = sizes_.graph_nodes;
    for (int i = 0; i < count; ++i) {
      facts.push_back(Tuple({Value::Int(base + 2 * i), Value::Int(base + 2 * i + 1)}));
    }
    return {"G", std::move(facts)};
  }

 private:
  void LoadCadFacts() {
    auto collect = [&](const char* name, Edges* out) {
      for (const Tuple& t : db_->GetRelation(name).value()->tuples()) {
        out->emplace_back(DecodePart(t.value(0)), DecodePart(t.value(1)));
      }
      std::sort(out->begin(), out->end());
    };
    collect("Infront", &infront_);
    collect("Ontop", &ontop_);
    ahead_.emplace(sizes_.cad_objects, infront_, ontop_);
  }

  PairOracle Oracle(int shape) const {
    switch (shape) {
      case 0:
        return {reach_->Total(),
                [this](int a, int b) {
                  return a < sizes_.graph_nodes && b < sizes_.graph_nodes &&
                         reach_->Has(a, b);
                },
                DecodeInt};
      case 1:
        return {sg_expected_,
                [this](int a, int b) {
                  if (a >= tree_nodes_ || b >= tree_nodes_) return false;
                  const size_t ua = static_cast<size_t>(a);
                  const size_t ub = static_cast<size_t>(b);
                  return depth_[ua] >= 1 && depth_[ua] == depth_[ub] &&
                         tree_of_[ua] == tree_of_[ub];
                },
                DecodeInt};
      default:
        return {ahead_->Total(),
                [this](int a, int b) { return ahead_->Has(a, b); },
                DecodePart};
    }
  }

  uint64_t seed_;
  Sizes sizes_;
  datacon::workload::EdgeList graph_;
  Edges child_parent_;
  int tree_nodes_ = 0;
  std::vector<int> depth_;
  std::vector<int> tree_of_;
  size_t sg_expected_ = 0;
  Edges infront_;
  Edges ontop_;
  std::optional<ReachSets> reach_;
  std::optional<AheadOracle> ahead_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Interpreter> interp_;
  Relation closure_delta_;
  Relation sg_delta_;
  Relation ahead_delta_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalyticCold(uint64_t seed, bool tiny) {
  return std::make_unique<AnalyticCold>(seed, tiny);
}

}  // namespace perfbench
