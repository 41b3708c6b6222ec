// point_lookup: "explode part k" over a bill-of-materials layered DAG, k
// Zipf-skewed so hot parts repeat. Each query is DBPL text run through
// Interpreter::Execute, in the two surface forms users write (60/40):
//   {EACH v IN Part {explode}: v.src = k}   -- seeded-closure capture path
//   Part {explode} [from_src(k)]            -- adornment + magic-seed plan
// Default options: the materialization cache is on. Every epoch of
// `epoch_ops` lookups starts from a freshly set-up database (an empty cache)
// and replays the same lookups, so every window does the same work.

#include <algorithm>
#include <numeric>

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
TYPE partrel = RELATION OF RECORD src, dst: INTEGER END;
VAR Part: partrel;
SELECTOR from_src (S: INTEGER) FOR Rel: partrel;
BEGIN EACH r IN Rel: r.src = S END from_src;
CONSTRUCTOR explode FOR Rel: partrel (): partrel;
BEGIN EACH r IN Rel: TRUE,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {explode}: f.dst = b.src
END explode;
)";

struct Sizes {
  int layers;
  int width;
  int fanout;
  int epoch_ops;
};

constexpr Sizes kFull = {8, 400, 2, 200};
constexpr Sizes kTiny = {4, 10, 2, 50};
constexpr double kZipfS = 1.0;
// The two forms differ several-fold in latency. At an even split the median
// would fall in the gap between them and swing from run to run, so the
// seeded form takes 3 of every 5 lookups and the median lies inside its mode.
constexpr int kSeededOf5 = 3;

class PointLookup : public Workload {
 public:
  PointLookup(uint64_t seed, bool tiny)
      : seed_(seed),
        sizes_(tiny ? kTiny : kFull),
        bom_(datacon::workload::LayeredDag(sizes_.layers, sizes_.width,
                                           sizes_.fanout, seed)),
        reach_(bom_.node_count, bom_.edges) {
    // Zipf ranks index every assembly (a part with subparts). Consecutive
    // ranks cycle through the assembly layers, so the hot set spans every
    // depth of the hierarchy whatever the seed; within a layer the order is
    // a seeded permutation.
    Rng rng(seed ^ 0x2a2a2aULL);
    const int layers = sizes_.layers - 1;
    std::vector<std::vector<int>> by_layer(static_cast<size_t>(layers));
    for (int layer = 0; layer < layers; ++layer) {
      std::vector<int>& parts = by_layer[static_cast<size_t>(layer)];
      for (int i = 0; i < sizes_.width; ++i) {
        parts.push_back(layer * sizes_.width + i);
      }
      std::shuffle(parts.begin(), parts.end(), rng.engine());
    }
    for (int i = 0; i < sizes_.width; ++i) {
      for (int layer = 0; layer < layers; ++layer) {
        assemblies_.push_back(
            by_layer[static_cast<size_t>(layer)][static_cast<size_t>(i)]);
      }
    }
    // An epoch's Zipf ranks are the ranks at evenly spaced points of the
    // distribution, and every fifth rank in that order takes the forms in
    // the same 3:2 pattern, so every seed looks up the same ranks in the
    // same forms; the seed shuffles the order. Random draws would change the
    // share of hot, deep and rare parts, and so every latency, from seed to
    // seed.
    const Zipf zipf(static_cast<int>(assemblies_.size()), kZipfS);
    for (int i = 0; i < sizes_.epoch_ops; ++i) {
      const double u = (i + 0.5) / sizes_.epoch_ops;
      lookups_.push_back({assemblies_[static_cast<size_t>(zipf.RankAt(u))],
                          i % 5 < kSeededOf5});
    }
    Rng order(seed ^ 0x100cU);
    std::shuffle(lookups_.begin(), lookups_.end(), order.engine());
  }

  Status Setup(std::vector<double>* insert_us) override {
    interp_.reset();
    db_.reset();
    db_ = std::make_unique<Database>();
    interp_ = std::make_unique<Interpreter>(db_.get());
    DATACON_RETURN_IF_ERROR(interp_->Execute(kDefinitions));
    Status status;
    for (const auto& [a, b] : bom_.edges) {
      const int64_t ns = TimedInsert(
          db_.get(), "Part", Tuple({Value::Int(a), Value::Int(b)}), &status);
      DATACON_RETURN_IF_ERROR(status);
      if (insert_us != nullptr) insert_us->push_back(static_cast<double>(ns) / 1e3);
    }
    return Status::OK();
  }

  OpOutcome Run(int64_t index, Tracer* tracer, int64_t query_id,
                bool keep_answer) override {
    const auto [part, seeded_form] =
        lookups_[static_cast<size_t>(index) % lookups_.size()];
    const std::string k = std::to_string(part);
    const std::string text =
        seeded_form ? "QUERY {EACH v IN Part {explode}: v.src = " + k + "};"
                    : "QUERY Part {explode} [from_src(" + k + ")];";
    QueryRun run = RunQuery(interp_.get(), text, tracer, query_id);
    PairOracle oracle{reach_.RowCount(part),
                      [this, part](int a, int b) {
                        return a == part && b < reach_.size() &&
                               reach_.Has(a, b);
                      },
                      DecodeInt};
    return CheckedQuery(std::move(run),
                        seeded_form ? "seeded_each" : "selector", text, oracle,
                        keep_answer);
  }

  int64_t epoch_ops() const override { return sizes_.epoch_ops; }
  int64_t ops_per_setup_sample() const override { return 16; }
  int64_t window_ops() const override { return sizes_.epoch_ops; }
  double measured_share() const override { return 0.25; }

  Database* db() override { return db_.get(); }

  std::vector<BranchInput> BranchInputs() override {
    using build::Each;
    using build::Eq;
    using build::FieldRef;
    using build::Rel;
    delta_ = PairRelation(
        Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}),
        LargestClosureDelta(bom_.node_count, bom_.edges), IntValue);
    return {{"explode",
             build::MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                               {Each("f", Rel("Part")), Each("b", Rel("D"))},
                               Eq(FieldRef("f", "dst"), FieldRef("b", "src"))),
             {{"f", db_->GetRelation("Part").value()}, {"b", &delta_}},
             delta_.schema()}};
  }

  std::vector<std::pair<int, int>> ReducedClosure() override {
    return datacon::workload::LayeredDag(4, 4, 2, seed_).edges;
  }

  std::pair<std::string, std::vector<Tuple>> FreshFacts(int count) override {
    std::vector<Tuple> facts;
    const int base = bom_.node_count;
    for (int i = 0; i < count; ++i) {
      facts.push_back(Tuple({Value::Int(base + 2 * i), Value::Int(base + 2 * i + 1)}));
    }
    return {"Part", std::move(facts)};
  }

 private:
  uint64_t seed_;
  Sizes sizes_;
  datacon::workload::EdgeList bom_;
  ReachSets reach_;
  std::vector<int> assemblies_;
  /// One epoch of lookups: the part and whether the seeded form asks.
  std::vector<std::pair<int, bool>> lookups_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Interpreter> interp_;
  Relation delta_;
};

}  // namespace

std::unique_ptr<Workload> MakePointLookup(uint64_t seed, bool tiny) {
  return std::make_unique<PointLookup>(seed, tiny);
}

}  // namespace perfbench
