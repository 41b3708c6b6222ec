#include "storage/index.h"

#include <algorithm>

#include "common/hash.h"

namespace datacon {

size_t HashIndex::Projection::operator()(const Tuple* t) const {
  // Tuple::Hash over the projected values, without building the tuple.
  size_t seed = columns.size();
  for (int c : columns) HashCombine(seed, t->value(c).Hash());
  return seed;
}

bool HashIndex::Projection::operator()(const Tuple* a, const Tuple* b) const {
  for (int c : columns) {
    if (!(a->value(c) == b->value(c))) return false;
  }
  return true;
}

bool HashIndex::Projection::operator()(const Tuple* a,
                                       const Tuple& key) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!(a->value(columns[i]) == key.value(static_cast<int>(i)))) {
      return false;
    }
  }
  return true;
}

HashIndex::HashIndex(Owned, const Relation& rel, std::vector<int> columns)
    : size_at_build_(rel.size()),
      columns_(columns),
      buckets_(rel.size(), Projection{columns}, Projection{columns}) {
  for (const Tuple& t : rel.tuples()) Add(&t);
}

HashIndex::HashIndex(const Relation& rel, std::vector<int> columns)
    : HashIndex(Owned{}, rel, std::move(columns)) {
  rel_ = &rel;
  generation_at_build_ = rel.generation();
}

void HashIndex::Add(const Tuple* t) { buckets_[t].push_back(t); }

void HashIndex::Remove(const Tuple* t) {
  auto it = buckets_.find(t);
  if (it == buckets_.end()) return;
  std::vector<const Tuple*>& bucket = it->second;
  // Order-preserving: probes keep returning tuples in index order.
  bucket.erase(std::find(bucket.begin(), bucket.end(), t));
  if (bucket.empty()) {
    buckets_.erase(it);
  } else if (it->first == t) {
    // The bucket was keyed by the erased tuple: re-key it by a survivor.
    auto node = buckets_.extract(it);
    node.key() = node.mapped().front();
    buckets_.insert(std::move(node));
  }
}

const std::vector<const Tuple*>& HashIndex::Probe(const Tuple& key) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return empty_;
  return it->second;
}

bool HashIndex::InSync() const {
  return rel_ == nullptr || rel_->generation() == generation_at_build_;
}

}  // namespace datacon
