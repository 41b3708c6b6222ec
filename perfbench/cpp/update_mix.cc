// update_mix: writes beside reads on a parts forest. A seeded stream of
//   90% single-fact Database::Insert into Uses, which carries a KEY, a
//       FOREIGN and a self-join DENY constraint; 2 of every 90 inserts are
//       generated to violate one of them and must be rejected;
//    1% Erase via GetMutableRelation (invalidates the cache and forces
//       full constraint rechecks);
//    9% refreshes of the standing closure query `Uses {explode}`.
// The mix is exact within every block of 100 operations, in a fixed order
// (refreshes evenly spaced, the erase mid-block), so where the expensive
// operations fall does not change with the seed; the seed picks the parts.
// Default options: the materialization cache is on. Every epoch of
// `epoch_ops` operations starts from a freshly set-up database, so each
// epoch replays the same states whatever the program's speed.

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "ast/builder.h"
#include "workload.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using datacon::Database;
using datacon::Interpreter;
using datacon::Relation;
using datacon::Schema;
using datacon::Status;
using datacon::Tuple;
using datacon::Value;
using datacon::ValueType;
namespace build = datacon::build;

constexpr char kDefinitions[] = R"(
TYPE partrel = RELATION OF RECORD pid, kind: INTEGER END;
TYPE userel = RELATION OF RECORD src, dst: INTEGER END;
VAR Part: partrel;
VAR Uses: userel;
CONSTRUCTOR explode FOR Rel: userel (): userel;
BEGIN EACH r IN Rel: TRUE,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {explode}: f.dst = b.src
END explode;
)";

constexpr char kConstraints[] = R"(
CONSTRAINT one_parent KEY <dst> ON Uses;
CONSTRAINT uses_src FOREIGN src OF Uses REFERENCES pid OF Part;
CONSTRAINT no_two_cycle DENY EACH a IN Uses, EACH b IN Uses:
  a.src = b.dst AND a.dst = b.src;
)";

constexpr char kRefresh[] = "QUERY Uses {explode};";

struct Sizes {
  int base_parts;  // parts of the initial forest
  int roots;
  int fanout;      // subparts per assembly in the initial forest
  int epoch_ops;
};

constexpr Sizes kFull = {1000, 4, 2, 200};
constexpr Sizes kTiny = {60, 2, 2, 200};

enum class Op { kInsert, kViolation, kErase, kRefresh };

/// One block of the operation mix: 88 valid inserts, 2 violations, 1 erase
/// and 9 refreshes (slots 10, 21, ..., 98).
std::vector<Op> Block() {
  std::vector<Op> block(100, Op::kInsert);
  for (size_t slot = 10; slot < block.size(); slot += 11) {
    block[slot] = Op::kRefresh;
  }
  block[30] = Op::kViolation;
  block[70] = Op::kViolation;
  block[50] = Op::kErase;
  return block;
}

uint64_t Key(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

/// The benchmark's model of Uses: a forest over part ids.
struct Forest {
  std::vector<int> parent;  // -1: root (or not yet attached)
  std::vector<int> children;
  Edges edges;
  std::unordered_set<uint64_t> edge_set;

  void Add(int src, int dst) {
    parent[static_cast<size_t>(dst)] = src;
    ++children[static_cast<size_t>(src)];
    edges.emplace_back(src, dst);
    edge_set.insert(Key(src, dst));
  }
  void Remove(size_t edge_index) {
    const auto [src, dst] = edges[edge_index];
    parent[static_cast<size_t>(dst)] = -1;
    --children[static_cast<size_t>(src)];
    edge_set.erase(Key(src, dst));
    edges[edge_index] = edges.back();
    edges.pop_back();
  }
  /// The oracle's accept/reject decision for inserting (src, dst).
  bool Accepts(int src, int dst, int registered) const {
    if (src < 0 || dst < 0 || src >= registered || dst >= registered) {
      return false;  // FOREIGN
    }
    if (edge_set.count(Key(src, dst)) > 0) return true;  // no-op insert
    if (parent[static_cast<size_t>(dst)] >= 0) return false;  // KEY <dst>
    return edge_set.count(Key(dst, src)) == 0;                // DENY 2-cycle
  }
  /// Whether `a` is a proper ancestor of `d` (bounded walk).
  bool Ancestor(int a, int d) const {
    int v = parent[static_cast<size_t>(d)];
    for (size_t steps = 0; v >= 0 && steps < parent.size(); ++steps) {
      if (v == a) return true;
      v = parent[static_cast<size_t>(v)];
    }
    return false;
  }
  size_t ClosureSize(int attached) const {
    size_t total = 0;
    for (int d = 0; d < attached; ++d) {
      for (int v = parent[static_cast<size_t>(d)]; v >= 0;
           v = parent[static_cast<size_t>(v)]) {
        ++total;
      }
    }
    return total;
  }
};

class UpdateMix : public Workload {
 public:
  UpdateMix(uint64_t seed, bool tiny)
      : seed_(seed), sizes_(tiny ? kTiny : kFull), stream_(0) {
    // The initial forest has a fixed shape (`roots` complete `fanout`-ary
    // trees, filled breadth-first) so closure sizes do not swing with the
    // seed; the seed relabels the parts and drives the operation stream.
    for (int i = sizes_.roots; i < sizes_.base_parts; ++i) {
      base_edges_.emplace_back((i - sizes_.roots) / sizes_.fanout, i);
    }
    // Registered parts: the forest plus a reserve that valid inserts
    // attach, one fresh part each. The model works on ids; the engine sees
    // a seeded permutation of them.
    registered_ = sizes_.base_parts + sizes_.epoch_ops;
    label_.resize(static_cast<size_t>(registered_));
    std::iota(label_.begin(), label_.end(), 0);
    Rng rng(seed ^ 0xf0e57ULL);
    std::shuffle(label_.begin(), label_.end(), rng.engine());
    id_of_label_.resize(label_.size());
    for (size_t id = 0; id < label_.size(); ++id) {
      id_of_label_[static_cast<size_t>(label_[id])] = static_cast<int>(id);
    }
  }

  Status Setup(std::vector<double>* /*insert_us*/) override {
    interp_.reset();
    db_.reset();
    db_ = std::make_unique<Database>();
    interp_ = std::make_unique<Interpreter>(db_.get());
    DATACON_RETURN_IF_ERROR(interp_->Execute(kDefinitions));
    for (int p = 0; p < registered_; ++p) {
      DATACON_RETURN_IF_ERROR(
          db_->Insert("Part", Tuple({Label(p), Value::Int(p % 7)})));
    }
    for (const auto& [src, dst] : base_edges_) {
      DATACON_RETURN_IF_ERROR(db_->Insert("Uses", Tuple({Label(src), Label(dst)})));
    }
    DATACON_RETURN_IF_ERROR(interp_->Execute(kConstraints));
    // Restart the model and the operation stream.
    model_ = Forest();
    model_.parent.assign(static_cast<size_t>(registered_), -1);
    model_.children.assign(static_cast<size_t>(registered_), 0);
    for (const auto& [src, dst] : base_edges_) model_.Add(src, dst);
    next_fresh_ = sizes_.base_parts;
    violations_ = 0;
    stream_ = Rng(seed_ ^ 0x0b5e55edULL);
    return Status::OK();
  }

  int64_t epoch_ops() const override { return sizes_.epoch_ops; }
  bool setup_inserts_count() const override { return false; }
  int64_t ops_per_setup_sample() const override { return 250; }
  int64_t window_ops() const override { return sizes_.epoch_ops; }
  double measured_share() const override { return 0.3; }

  OpOutcome Run(int64_t index, Tracer* tracer, int64_t query_id,
                bool keep_answer) override {
    switch (block_[static_cast<size_t>(index) % block_.size()]) {
      case Op::kInsert:
        return Insert(/*violate=*/false, tracer, query_id);
      case Op::kViolation:
        return Insert(/*violate=*/true, tracer, query_id);
      case Op::kErase:
        return Erase(tracer, query_id);
      case Op::kRefresh:
        break;
    }
    QueryRun run = RunQuery(interp_.get(), kRefresh, tracer, query_id);
    const int attached = next_fresh_;
    PairOracle oracle{model_.ClosureSize(attached),
                      [this, attached](int a, int d) {
                        return a < attached && d < attached &&
                               model_.Ancestor(a, d);
                      },
                      [this](const Value& v) { return IdOf(v); }};
    return CheckedQuery(std::move(run), "refresh", kRefresh, oracle,
                        keep_answer);
  }

  Database* db() override { return db_.get(); }

  std::vector<BranchInput> BranchInputs() override {
    using build::Each;
    using build::Eq;
    using build::FieldRef;
    using build::Rel;
    delta_ = PairRelation(
        Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}),
        LargestClosureDelta(registered_, model_.edges),
        [this](int id) { return Label(id); });
    return {{"explode",
             build::MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                               {Each("f", Rel("Uses")), Each("b", Rel("D"))},
                               Eq(FieldRef("f", "dst"), FieldRef("b", "src"))),
             {{"f", db_->GetRelation("Uses").value()}, {"b", &delta_}},
             delta_.schema()}};
  }

  std::vector<std::pair<int, int>> ReducedClosure() override {
    Edges out;
    for (const auto& [src, dst] : base_edges_) {
      if (dst < 24) out.emplace_back(src, dst);
    }
    return out;
  }

  std::pair<std::string, std::vector<Tuple>> FreshFacts(int count) override {
    std::vector<Tuple> facts;
    Rng rng(seed_ ^ 0xfac7ULL);
    for (int i = 0; i < count && i < sizes_.epoch_ops; ++i) {
      const int parent = static_cast<int>(rng.Uniform(0, sizes_.base_parts - 1));
      facts.push_back(Tuple({Label(parent), Label(sizes_.base_parts + i)}));
    }
    return {"Uses", std::move(facts)};
  }

 private:
  /// The engine's value for part `id`; ids past the registered parts keep
  /// their number, which no registered label uses.
  Value Label(int id) const {
    return Value::Int(id < registered_ ? label_[static_cast<size_t>(id)] : id);
  }
  int IdOf(const Value& v) const {
    const int label = DecodeInt(v);
    return label < 0 || label >= registered_
               ? -1
               : id_of_label_[static_cast<size_t>(label)];
  }

  /// A part currently in the forest, uniformly.
  int AttachedPart() {
    return static_cast<int>(stream_.Uniform(0, next_fresh_ - 1));
  }

  /// The next insert of the stream: a fresh leaf under an attached part,
  /// or, for a violation, a fact breaking the KEY, FOREIGN and DENY
  /// constraints in turn.
  std::pair<int, int> NextInsert(bool violate) {
    if (!violate || next_fresh_ >= registered_) {
      return {AttachedPart(), next_fresh_};
    }
    switch (violations_++ % 3) {
      case 0: {  // KEY <dst>: a second parent for an attached non-root part
        for (int tries = 0; tries < 64; ++tries) {
          const int child = AttachedPart();
          const int parent = model_.parent[static_cast<size_t>(child)];
          const int other = AttachedPart();
          if (parent >= 0 && other != parent && other != child) {
            return {other, child};
          }
        }
        break;
      }
      case 1:
        break;
      default:  // DENY: reverse an edge that leaves a root
        for (const auto& [src, dst] : model_.edges) {
          if (model_.parent[static_cast<size_t>(src)] < 0) return {dst, src};
        }
        break;
    }
    return {registered_ + 1, next_fresh_};  // FOREIGN: unregistered assembly
  }

  OpOutcome Insert(bool violate, Tracer* tracer, int64_t query_id) {
    const auto [src, dst] = NextInsert(violate);
    const bool expect_accept = model_.Accepts(src, dst, registered_);
    OpOutcome out;
    out.kind = OpKind::kInsert;
    out.label = expect_accept ? "insert" : "reject";
    Status status;
    {
      ScopedSpan span(tracer, "op.insert", query_id);
      out.ns = TimedInsert(db_.get(), "Uses", Tuple({Label(src), Label(dst)}),
                           &status);
    }
    if (status.ok() != expect_accept) {
      out.failed = true;
      out.why = "insert <" + std::to_string(src) + ", " + std::to_string(dst) +
                ">: expected " + (expect_accept ? "accept" : "reject") +
                ", got " + status.ToString();
      return out;
    }
    if (expect_accept) {
      model_.Add(src, dst);
      if (dst == next_fresh_) ++next_fresh_;
    } else {
      out.expected_reject = true;
    }
    return out;
  }

  OpOutcome Erase(Tracer* tracer, int64_t query_id) {
    if (model_.edges.empty()) {
      OpOutcome out;
      out.kind = OpKind::kErase;
      out.failed = true;
      out.why = "erase: Uses is empty";
      return out;
    }
    const size_t pick = static_cast<size_t>(
        stream_.Uniform(0, static_cast<int64_t>(model_.edges.size()) - 1));
    const auto [src, dst] = model_.edges[pick];
    OpOutcome out;
    out.kind = OpKind::kErase;
    out.label = "erase";
    bool erased = false;
    {
      ScopedSpan span(tracer, "op.erase", query_id);
      const int64_t start = NowNs();
      datacon::Result<Relation*> rel = db_->GetMutableRelation("Uses");
      erased = rel.ok() &&
               rel.value()->Erase(Tuple({Label(src), Label(dst)}));
      out.ns = NowNs() - start;
    }
    if (!erased) {
      out.failed = true;
      out.why = "erase <" + std::to_string(src) + ", " + std::to_string(dst) +
                "> removed nothing";
      return out;
    }
    model_.Remove(pick);
    return out;
  }

  uint64_t seed_;
  Sizes sizes_;
  Edges base_edges_;
  int registered_ = 0;
  std::vector<int> label_;
  std::vector<int> id_of_label_;
  Forest model_;
  int next_fresh_ = 0;
  int violations_ = 0;
  const std::vector<Op> block_ = Block();
  Rng stream_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Interpreter> interp_;
  Relation delta_;
};

}  // namespace

std::unique_ptr<Workload> MakeUpdateMix(uint64_t seed, bool tiny) {
  return std::make_unique<UpdateMix>(seed, tiny);
}

}  // namespace perfbench
