#ifndef DATACON_STORAGE_RELATION_H_
#define DATACON_STORAGE_RELATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/tuple.h"
#include "types/schema.h"

namespace datacon {

class HashIndex;

/// An in-memory relation variable: a set of tuples over a Schema, with the
/// paper's key constraint (section 2.2) enforced on every insertion.
///
/// Inserting a tuple that already exists is a no-op; inserting a tuple that
/// agrees with a stored tuple on the key attributes but differs elsewhere
/// fails with kKeyViolation — the runtime test the paper derives from the
/// annotated set-type definition:
///
///   IF ALL x1,x2 IN rex (x1.key=x2.key ==> x1=x2) THEN rel:=rex ELSE <exc.>
///
/// Relations with an all-attribute key behave as plain sets (the default for
/// derived relations produced by constructors).
class Relation {
 public:
  /// Whether a relation keeps the bounded insert log behind InsertedSince.
  /// Only catalog relation variables log (Catalog::CreateRelation): the
  /// materialization cache and constraint residues observe them by name.
  /// Engine-owned relations (scratch, deltas, totals, query results) never
  /// do, so derived tuples are not copied into a log nobody reads.
  enum class InsertLog { kOff, kOn };

  /// An empty relation over an empty schema.
  Relation();

  /// An empty relation over `schema`.
  explicit Relation(Schema schema, InsertLog log = InsertLog::kOff);

  /// A copy starts without indexes and with an empty insert log at its own
  /// generation: it never shares the source's (both point into the
  /// source's tuple set).
  Relation(const Relation& other);
  /// A move takes the source's indexes and insert log along — the stored
  /// tuples they point at move with the set, so they stay valid.
  Relation(Relation&& other) noexcept;
  ~Relation();

  /// Assignment replaces the *contents* of an existing relation variable,
  /// not its identity: the target's generation keeps counting up (it never
  /// adopts the source's, which would let a stale observer see an equal
  /// generation across a wholesale content swap), the target keeps its own
  /// InsertLog setting, and the insert log and every index are discarded —
  /// a bulk replacement is structural churn, like Clear.
  Relation& operator=(const Relation& other);
  Relation& operator=(Relation&& other) noexcept;

  /// Number of stored tuples.
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Monotonic change counter: starts at 0 and strictly increases on every
  /// mutation that changes the tuple set (a growing Insert, a removing
  /// Erase, a non-empty Clear, any assignment). Failed or no-op mutations
  /// do not bump it. Equal generations of the *same relation object* imply
  /// an unchanged tuple set — the staleness key for hash indexes and the
  /// materialization cache.
  uint64_t generation() const { return generation_; }

  /// The tuples inserted since the relation was at generation `since`, in
  /// insertion order, or nullopt when that history is not reconstructible —
  /// the relation keeps no insert log, an Erase/Clear/assignment
  /// intervened, the bounded insert log overflowed, or `since` predates
  /// this object's history. An engaged empty vector means "nothing
  /// changed" (always answerable for the current generation).
  std::optional<std::vector<Tuple>> InsertedSince(uint64_t since) const;

  /// Insert-log bound: one delta entry per grown insert is retained, up to
  /// this many, after which delta reconstruction degrades to nullopt
  /// (callers fall back to full recomputation).
  static constexpr size_t kMaxInsertLog = 1 << 16;

  const Schema& schema() const { return schema_; }

  /// The stored tuple set (unordered).
  const std::unordered_set<Tuple, TupleHash>& tuples() const {
    return tuples_;
  }

  /// True iff `t` is stored.
  bool Contains(const Tuple& t) const { return tuples_.count(t) > 0; }

  /// True for catalog relation variables — the relations created with the
  /// insert log on (Catalog::CreateRelation). They outlive every query, so
  /// an index built on one keeps paying off across statements; the branch
  /// executor probes them even at a branch's outermost level.
  bool is_catalog_variable() const { return log_inserts_; }

  /// This relation's own hash index on `columns` (DESIGN §4.3): built from
  /// the stored tuples on the first request, then kept current — every
  /// insert extends it and every erase removes the tuple's pointer — so it
  /// never goes stale. Clear, Subtract and assignment drop every index (the
  /// next request rebuilds).
  ///
  /// Building mutates the relation's index set, so it is not thread-safe:
  /// a parallel fan-out requests every index its workers probe before
  /// dispatching, and workers only ever call FindIndex.
  const HashIndex& IndexOn(const std::vector<int>& columns) const;

  /// The index on `columns` if this relation holds one, else null. Never
  /// builds, so concurrent callers are safe.
  const HashIndex* FindIndex(const std::vector<int>& columns) const;

  /// Number of indexes this relation holds.
  size_t index_count() const { return indexes_.size(); }

  /// Inserts `t`. Fails with kTypeError on arity mismatch and with
  /// kKeyViolation when `t` collides with a differing tuple on the key.
  /// Returns true when the relation grew, false when `t` was present.
  Result<bool> Insert(const Tuple& t);
  /// Same, moving `t` into the relation when it grows.
  Result<bool> Insert(Tuple&& t);

  /// Insert for tuples whose types are statically discharged: the caller
  /// holds a whole-program proof (analysis/typecheck.h) that `t` matches
  /// this schema, so the per-tuple arity/type validation reduces to a
  /// debug assertion. Key enforcement still runs — key facts are data,
  /// not types.
  Result<bool> InsertProven(const Tuple& t);
  Result<bool> InsertProven(Tuple&& t);

  /// Inserts every tuple of `other` (union-compatible schema required).
  /// Atomic: the key constraint is checked — both against stored tuples and
  /// between distinct new tuples of the batch — before anything is applied,
  /// so a failing InsertAll leaves the relation unchanged. Arity and field
  /// types are not re-checked per tuple: every stored tuple matches its
  /// relation's schema (it was validated on the way in), and union
  /// compatibility makes `other`'s field types this schema's.
  Status InsertAll(const Relation& other);

  /// Removes every tuple that `other` also stores (set difference in
  /// place). The fixpoint turns a round's raw output into the new delta
  /// this way, without copying a tuple.
  void Subtract(const Relation& other);

  /// Removes `t`; returns true when something was removed.
  bool Erase(const Tuple& t);

  /// Removes all tuples, keeping the schema.
  void Clear();

  /// Set equality over the stored tuples (schemas must be union-compatible;
  /// key declarations are not compared).
  bool SameTuples(const Relation& other) const;

  /// Stored tuples in lexicographic order — deterministic output for tests,
  /// examples, and golden files.
  std::vector<Tuple> SortedTuples() const;

  /// Renders the relation as `{<...>, <...>}` in sorted order.
  std::string ToString() const;

 private:
  /// Arity/type/key validation of `t` against this relation's stored
  /// tuples (the per-tuple half of Insert, without mutating).
  Status ValidateTuple(const Tuple& t) const;

  /// The mutation half of Insert/InsertProven, after validation. Set
  /// semantics hash and probe once (a try-insert); a proper key checks the
  /// key index before the tuple goes in.
  template <typename T>
  Result<bool> InsertValidated(T&& t);

  /// Records a tuple-set change that is not a pure insert: the insert log
  /// can no longer reconstruct deltas, so it restarts at the new
  /// generation. `keep_indexes` is true for an Erase, which has already
  /// removed the tuple from every index; any other such change drops them.
  void NoteStructuralChange(bool keep_indexes = false);

  Schema schema_;
  std::unordered_set<Tuple, TupleHash> tuples_;
  /// Key projection -> stored tuple, maintained only when the key is a
  /// proper subset of the attributes.
  std::unordered_map<Tuple, Tuple, TupleHash> key_to_tuple_;
  bool enforce_key_ = false;
  std::vector<int> key_positions_;

  uint64_t generation_ = 0;
  bool log_inserts_ = false;
  /// The stored tuples of generations log_base_+1 ..
  /// log_base_+insert_log_.size(), in order; insert-only histories keep
  /// log_base_ + insert_log_.size() == generation_. Pointers into the
  /// node-based tuples_ survive rehashing, and every change that removes a
  /// tuple (Erase, Clear, Subtract, assignment) restarts the log, so none
  /// dangles.
  uint64_t log_base_ = 0;
  std::vector<const Tuple*> insert_log_;

  /// The indexes requested of this relation, by column list (IndexOn).
  /// Mutable: building one on a const relation changes no tuple.
  mutable std::map<std::vector<int>, std::unique_ptr<HashIndex>> indexes_;
};

}  // namespace datacon

#endif  // DATACON_STORAGE_RELATION_H_
