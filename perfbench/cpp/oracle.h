#ifndef PERFBENCH_CPP_ORACLE_H_
#define PERFBENCH_CPP_ORACLE_H_

// Reference answers computed by the benchmark's own code, independent of the
// engine: reachability by breadth-first search, the paper's ahead/above
// system as reachability over the union graph, and reference semi-naive
// rounds that record one differential-round input per shape.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "storage/relation.h"

namespace perfbench {

using Edges = std::vector<std::pair<int, int>>;

/// The transitive closure (paths of length >= 1) of a digraph over node ids
/// 0..n-1, one bitset row per source.
class ReachSets {
 public:
  ReachSets(int n, const Edges& edges);

  bool Has(int from, int to) const {
    return (rows_[Index(from, to)] >> (to & 63)) & 1U;
  }
  /// Number of nodes reachable from `from`.
  size_t RowCount(int from) const;
  /// Number of closure pairs.
  size_t Total() const { return total_; }
  int size() const { return n_; }

 private:
  size_t Index(int from, int to) const {
    return static_cast<size_t>(from) * words_ + static_cast<size_t>(to >> 6);
  }
  int n_;
  size_t words_;
  std::vector<uint64_t> rows_;
  size_t total_ = 0;
};

/// The expected answer of a binary query: `expected_count` pairs, each
/// accepted by `has`. `decode` maps a result value to its node id (-1 when
/// the value is not a node of the instance).
struct PairOracle {
  size_t expected_count = 0;
  std::function<bool(int, int)> has;
  std::function<int(const datacon::Value&)> decode;
};

/// Checks `rel` against `oracle`; on mismatch returns false and describes
/// the first difference in `why`.
bool MatchesOracle(const datacon::Relation& rel, const PairOracle& oracle,
                   std::string* why);

/// Integer node ids as values.
int DecodeInt(const datacon::Value& v);
/// "p<i>" part names (workload::SetupCadScene) as node ids.
int DecodePart(const datacon::Value& v);

/// The paper's ahead/above system over Infront/Ontop facts: ahead(x, y)
/// holds iff some path x -> ... -> y in Infront ∪ Ontop starts with an
/// Infront edge.
class AheadOracle {
 public:
  AheadOracle(int n, const Edges& infront, const Edges& ontop);
  bool Has(int from, int to) const;
  size_t Total() const { return total_; }

 private:
  int n_;
  ReachSets reach_;                         // over the union graph
  std::vector<std::vector<int>> infront_;   // successor lists
  std::vector<std::vector<uint64_t>> rows_;
  size_t total_ = 0;
};

/// The largest delta of the reference semi-naive evaluation of the linear
/// closure T = E ∪ E∘T (delta_1 = E; delta_k+1 = E∘delta_k minus T).
Edges LargestClosureDelta(int n, const Edges& edges);

/// The largest delta of the reference semi-naive same-generation
/// evaluation over child->parent edges: delta_1 = siblings,
/// delta_k+1 = {(c1, c2) : (parent(c1), parent(c2)) in delta_k} minus T.
Edges LargestSameGenDelta(int n, const Edges& child_parent);

/// The largest ahead-delta of the reference semi-naive evaluation of the
/// ahead/above system.
Edges LargestAheadDelta(int n, const Edges& infront, const Edges& ontop);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_ORACLE_H_
