#include "oracle.h"

#include <unordered_set>

namespace perfbench {

namespace {

uint64_t Key(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}
int First(uint64_t key) { return static_cast<int>(key >> 32); }
int Second(uint64_t key) { return static_cast<int>(key & 0xffffffffU); }

std::vector<std::vector<int>> Lists(int n, const Edges& edges, bool forward) {
  std::vector<std::vector<int>> out(static_cast<size_t>(n));
  for (const auto& [a, b] : edges) {
    if (forward) {
      out[static_cast<size_t>(a)].push_back(b);
    } else {
      out[static_cast<size_t>(b)].push_back(a);
    }
  }
  return out;
}

Edges ToEdges(const std::vector<uint64_t>& keys) {
  Edges out;
  out.reserve(keys.size());
  for (uint64_t k : keys) out.emplace_back(First(k), Second(k));
  return out;
}

}  // namespace

ReachSets::ReachSets(int n, const Edges& edges)
    : n_(n), words_(static_cast<size_t>(n + 63) / 64) {
  rows_.assign(static_cast<size_t>(n) * words_, 0);
  const std::vector<std::vector<int>> succ = Lists(n, edges, true);
  std::vector<int> stack;
  for (int s = 0; s < n; ++s) {
    uint64_t* row = &rows_[static_cast<size_t>(s) * words_];
    stack.assign(succ[static_cast<size_t>(s)].begin(),
                 succ[static_cast<size_t>(s)].end());
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      uint64_t& word = row[v >> 6];
      const uint64_t bit = uint64_t{1} << (v & 63);
      if (word & bit) continue;
      word |= bit;
      ++total_;
      for (int w : succ[static_cast<size_t>(v)]) stack.push_back(w);
    }
  }
}

size_t ReachSets::RowCount(int from) const {
  size_t count = 0;
  for (size_t w = 0; w < words_; ++w) {
    count += static_cast<size_t>(
        __builtin_popcountll(rows_[static_cast<size_t>(from) * words_ + w]));
  }
  return count;
}

bool MatchesOracle(const datacon::Relation& rel, const PairOracle& oracle,
                   std::string* why) {
  if (rel.size() != oracle.expected_count) {
    *why = "expected " + std::to_string(oracle.expected_count) +
           " tuples, got " + std::to_string(rel.size());
    return false;
  }
  for (const datacon::Tuple& t : rel.tuples()) {
    if (t.values().size() != 2) {
      *why = "non-binary result tuple";
      return false;
    }
    const int a = oracle.decode(t.value(0));
    const int b = oracle.decode(t.value(1));
    if (a < 0 || b < 0 || !oracle.has(a, b)) {
      *why = "unexpected tuple " + t.value(0).ToString() + ", " +
             t.value(1).ToString();
      return false;
    }
  }
  return true;
}

int DecodeInt(const datacon::Value& v) {
  if (v.type() != datacon::ValueType::kInt) return -1;
  const int64_t x = v.AsInt();
  return x < 0 || x > INT32_MAX ? -1 : static_cast<int>(x);
}

int DecodePart(const datacon::Value& v) {
  if (v.type() != datacon::ValueType::kString) return -1;
  const std::string& s = v.AsString();
  if (s.size() < 2 || s[0] != 'p') return -1;
  int id = 0;
  for (size_t i = 1; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9' || id > 100000000) return -1;
    id = id * 10 + (s[i] - '0');
  }
  return id;
}

AheadOracle::AheadOracle(int n, const Edges& infront, const Edges& ontop)
    : n_(n), reach_(n, [&] {
        Edges all = infront;
        all.insert(all.end(), ontop.begin(), ontop.end());
        return all;
      }()),
      infront_(Lists(n, infront, true)) {
  const size_t words = static_cast<size_t>(n + 63) / 64;
  rows_.assign(static_cast<size_t>(n), std::vector<uint64_t>(words, 0));
  for (int x = 0; x < n; ++x) {
    std::vector<uint64_t>& row = rows_[static_cast<size_t>(x)];
    for (int z : infront_[static_cast<size_t>(x)]) {
      row[static_cast<size_t>(z >> 6)] |= uint64_t{1} << (z & 63);
      for (int y = 0; y < n; ++y) {
        if (reach_.Has(z, y)) {
          row[static_cast<size_t>(y >> 6)] |= uint64_t{1} << (y & 63);
        }
      }
    }
    for (uint64_t w : row) total_ += static_cast<size_t>(__builtin_popcountll(w));
  }
}

bool AheadOracle::Has(int from, int to) const {
  if (from >= n_ || to >= n_) return false;
  return (rows_[static_cast<size_t>(from)][static_cast<size_t>(to >> 6)] >>
          (to & 63)) & 1U;
}

Edges LargestClosureDelta(int n, const Edges& edges) {
  const std::vector<std::vector<int>> pred = Lists(n, edges, false);
  std::unordered_set<uint64_t> total;
  std::vector<uint64_t> delta;
  for (const auto& [a, b] : edges) {
    if (total.insert(Key(a, b)).second) delta.push_back(Key(a, b));
  }
  std::vector<uint64_t> largest = delta;
  while (!delta.empty()) {
    std::vector<uint64_t> next;
    for (uint64_t d : delta) {
      for (int a : pred[static_cast<size_t>(First(d))]) {
        const uint64_t k = Key(a, Second(d));
        if (total.insert(k).second) next.push_back(k);
      }
    }
    delta.swap(next);
    if (delta.size() > largest.size()) largest = delta;
  }
  return ToEdges(largest);
}

Edges LargestSameGenDelta(int n, const Edges& child_parent) {
  std::vector<std::vector<int>> children(static_cast<size_t>(n));
  for (const auto& [c, p] : child_parent) {
    children[static_cast<size_t>(p)].push_back(c);
  }
  std::unordered_set<uint64_t> total;
  std::vector<uint64_t> delta;
  for (const auto& kids : children) {
    for (int c1 : kids) {
      for (int c2 : kids) {
        if (total.insert(Key(c1, c2)).second) delta.push_back(Key(c1, c2));
      }
    }
  }
  std::vector<uint64_t> largest = delta;
  while (!delta.empty()) {
    std::vector<uint64_t> next;
    for (uint64_t d : delta) {
      for (int c1 : children[static_cast<size_t>(First(d))]) {
        for (int c2 : children[static_cast<size_t>(Second(d))]) {
          if (total.insert(Key(c1, c2)).second) next.push_back(Key(c1, c2));
        }
      }
    }
    delta.swap(next);
    if (delta.size() > largest.size()) largest = delta;
  }
  return ToEdges(largest);
}

Edges LargestAheadDelta(int n, const Edges& infront, const Edges& ontop) {
  const std::vector<std::vector<int>> pred_in = Lists(n, infront, false);
  const std::vector<std::vector<int>> pred_on = Lists(n, ontop, false);
  std::unordered_set<uint64_t> ahead;
  std::unordered_set<uint64_t> above;
  std::vector<uint64_t> d_ahead;
  std::vector<uint64_t> d_above;
  for (const auto& [a, b] : infront) {
    if (ahead.insert(Key(a, b)).second) d_ahead.push_back(Key(a, b));
  }
  for (const auto& [a, b] : ontop) {
    if (above.insert(Key(a, b)).second) d_above.push_back(Key(a, b));
  }
  std::vector<uint64_t> largest = d_ahead;
  while (!d_ahead.empty() || !d_above.empty()) {
    std::vector<uint64_t> next_ahead;
    std::vector<uint64_t> next_above;
    for (const std::vector<uint64_t>* delta : {&d_ahead, &d_above}) {
      for (uint64_t d : *delta) {
        for (int x : pred_in[static_cast<size_t>(First(d))]) {
          const uint64_t k = Key(x, Second(d));
          if (ahead.insert(k).second) next_ahead.push_back(k);
        }
        for (int x : pred_on[static_cast<size_t>(First(d))]) {
          const uint64_t k = Key(x, Second(d));
          if (above.insert(k).second) next_above.push_back(k);
        }
      }
    }
    d_ahead.swap(next_ahead);
    d_above.swap(next_above);
    if (d_ahead.size() > largest.size()) largest = d_ahead;
  }
  return ToEdges(largest);
}

}  // namespace perfbench
