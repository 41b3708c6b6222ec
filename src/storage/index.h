#ifndef DATACON_STORAGE_INDEX_H_
#define DATACON_STORAGE_INDEX_H_

#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "storage/tuple.h"

namespace datacon {

/// A hash index over a relation: maps the projection of each stored tuple
/// onto `columns` to the list of matching tuples.
///
/// Two kinds share this class:
///
///  * *Relation-owned* indexes (Relation::IndexOn, DESIGN §4.3) are built
///    on the first request and kept current by the owning relation: every
///    insert extends them and every erase removes the tuple's pointer, so
///    they never go stale and InSync() is always true.
///  * *Standalone* indexes (the public constructor) are snapshots, used by
///    materialized physical access paths and the storage benchmarks. They
///    hold pointers into the relation's tuple set and are valid as long as
///    no tuple is erased from it (inserts do not invalidate unordered_set
///    element pointers, but tuples inserted after construction are not
///    indexed — a probe would silently miss them). `rel` must outlive the
///    index; InSync() detects the grown-after-build hazard.
class HashIndex {
 public:
  /// Builds a standalone snapshot index of `rel` on the given column
  /// positions.
  HashIndex(const Relation& rel, std::vector<int> columns);

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// The column positions this index covers.
  const std::vector<int>& columns() const { return columns_; }

  /// All indexed tuples whose projection equals `key` (empty if none).
  const std::vector<const Tuple*>& Probe(const Tuple& key) const;

  /// Number of distinct keys.
  size_t key_count() const { return buckets_.size(); }

  /// Tuples the indexed relation held when the index was built.
  size_t size_at_build() const { return size_at_build_; }

  /// True while the index reflects the relation's tuple set. Always true
  /// for a relation-owned index. A standalone index is keyed on
  /// Relation::generation(): any mutation since the build (including an
  /// insert+erase pair of equal cardinality, which a size comparison
  /// cannot see) desynchronizes it. Probing a desynchronized index returns
  /// stale results and must be treated as an error by the caller.
  bool InSync() const;

 private:
  friend class Relation;

  /// Tag of the relation-owned constructor.
  struct Owned {};
  /// A relation-owned index over `rel`'s stored tuples (see IndexOn).
  HashIndex(Owned, const Relation& rel, std::vector<int> columns);

  /// Relation-owned maintenance: index a newly stored tuple / drop an
  /// erased one (by its stored address).
  void Add(const Tuple* t);
  void Remove(const Tuple* t);

  /// Hashes and compares a stored tuple by its projection onto the
  /// columns, and a probe key (already projected) by its values — so a
  /// bucket is keyed by one of its own stored tuples and no key tuple is
  /// ever materialized. Transparent: Probe looks a key Tuple up directly.
  struct Projection {
    using is_transparent = void;
    std::vector<int> columns;

    size_t operator()(const Tuple* t) const;
    size_t operator()(const Tuple& key) const { return key.Hash(); }
    bool operator()(const Tuple* a, const Tuple* b) const;
    bool operator()(const Tuple* a, const Tuple& key) const;
    bool operator()(const Tuple& key, const Tuple* a) const {
      return (*this)(a, key);
    }
  };

  /// The relation a standalone index snapshots; null when relation-owned.
  const Relation* rel_ = nullptr;
  size_t size_at_build_;
  uint64_t generation_at_build_ = 0;
  std::vector<int> columns_;
  /// Bucket key: the first stored tuple of the bucket (any member serves,
  /// they share the projection); value: every stored tuple with it.
  std::unordered_map<const Tuple*, std::vector<const Tuple*>, Projection,
                     Projection>
      buckets_;
  std::vector<const Tuple*> empty_;
};

}  // namespace datacon

#endif  // DATACON_STORAGE_INDEX_H_
