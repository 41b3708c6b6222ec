#include "storage/relation.h"

#include <algorithm>

#include "common/check.h"
#include "storage/index.h"

namespace datacon {

Relation::Relation() = default;

Relation::Relation(Schema schema, InsertLog log)
    : schema_(std::move(schema)), log_inserts_(log == InsertLog::kOn) {
  enforce_key_ = !schema_.KeyIsAllAttributes();
  if (enforce_key_) key_positions_ = schema_.EffectiveKey();
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      tuples_(other.tuples_),
      key_to_tuple_(other.key_to_tuple_),
      enforce_key_(other.enforce_key_),
      key_positions_(other.key_positions_),
      generation_(other.generation_),
      log_inserts_(other.log_inserts_),
      // The source's log points into its own tuples: restart ours.
      log_base_(other.generation_) {}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      tuples_(std::move(other.tuples_)),
      key_to_tuple_(std::move(other.key_to_tuple_)),
      enforce_key_(other.enforce_key_),
      key_positions_(std::move(other.key_positions_)),
      generation_(other.generation_),
      log_inserts_(other.log_inserts_),
      log_base_(other.log_base_),
      insert_log_(std::move(other.insert_log_)),
      indexes_(std::move(other.indexes_)) {
  other.indexes_.clear();
}

Relation::~Relation() = default;

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  tuples_ = other.tuples_;
  key_to_tuple_ = other.key_to_tuple_;
  enforce_key_ = other.enforce_key_;
  key_positions_ = other.key_positions_;
  NoteStructuralChange();
  return *this;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  tuples_ = std::move(other.tuples_);
  key_to_tuple_ = std::move(other.key_to_tuple_);
  enforce_key_ = other.enforce_key_;
  key_positions_ = std::move(other.key_positions_);
  // `other`'s indexes point into the tuples this relation now owns.
  other.indexes_.clear();
  NoteStructuralChange();
  return *this;
}

void Relation::NoteStructuralChange(bool keep_indexes) {
  ++generation_;
  insert_log_.clear();
  log_base_ = generation_;
  if (!keep_indexes) indexes_.clear();
}

const HashIndex& Relation::IndexOn(const std::vector<int>& columns) const {
  std::unique_ptr<HashIndex>& index = indexes_[columns];
  if (index == nullptr) {
    index.reset(new HashIndex(HashIndex::Owned{}, *this, columns));
  }
  return *index;
}

const HashIndex* Relation::FindIndex(const std::vector<int>& columns) const {
  auto it = indexes_.find(columns);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::optional<std::vector<Tuple>> Relation::InsertedSince(
    uint64_t since) const {
  if (since == generation_) return std::vector<Tuple>();
  if (!log_inserts_ || since > generation_ || since < log_base_) {
    return std::nullopt;
  }
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(generation_ - since));
  for (size_t i = static_cast<size_t>(since - log_base_);
       i < insert_log_.size(); ++i) {
    out.push_back(*insert_log_[i]);
  }
  return out;
}

Status Relation::ValidateTuple(const Tuple& t) const {
  if (t.arity() != schema_.arity()) {
    return Status::TypeError("tuple arity " + std::to_string(t.arity()) +
                             " does not match schema arity " +
                             std::to_string(schema_.arity()));
  }
  for (int i = 0; i < t.arity(); ++i) {
    if (t.value(i).type() != schema_.field(i).type) {
      return Status::TypeError("field '" + schema_.field(i).name +
                               "' expects " +
                               std::string(ValueTypeName(schema_.field(i).type)) +
                               ", got " + t.value(i).ToString());
    }
  }
  return Status::OK();
}

Result<bool> Relation::Insert(const Tuple& t) {
  DATACON_RETURN_IF_ERROR(ValidateTuple(t));
  return InsertValidated(t);
}

Result<bool> Relation::Insert(Tuple&& t) {
  DATACON_RETURN_IF_ERROR(ValidateTuple(t));
  return InsertValidated(std::move(t));
}

Result<bool> Relation::InsertProven(const Tuple& t) {
  DATACON_DCHECK(ValidateTuple(t).ok(),
                 "typed-proven insert violates the relation schema");
  return InsertValidated(t);
}

Result<bool> Relation::InsertProven(Tuple&& t) {
  DATACON_DCHECK(ValidateTuple(t).ok(),
                 "typed-proven insert violates the relation schema");
  return InsertValidated(std::move(t));
}

template <typename T>
Result<bool> Relation::InsertValidated(T&& t) {
  const Tuple* stored = nullptr;
  if (!enforce_key_) {
    auto [it, fresh] = tuples_.insert(std::forward<T>(t));
    if (!fresh) return false;
    stored = &*it;
  } else {
    if (tuples_.count(t) > 0) return false;
    Tuple key = t.Project(key_positions_);
    auto it = key_to_tuple_.find(key);
    if (it != key_to_tuple_.end()) {
      // A distinct tuple with the same key is stored: the section 2.2 key
      // constraint fails.
      return Status::KeyViolation("key " + key.ToString() +
                                  " already identifies " +
                                  it->second.ToString() +
                                  "; cannot insert " + t.ToString());
    }
    key_to_tuple_.emplace(std::move(key), t);
    stored = &*tuples_.insert(std::forward<T>(t)).first;
  }
  for (auto& [columns, index] : indexes_) index->Add(stored);
  ++generation_;
  if (!log_inserts_) return true;
  if (insert_log_.size() >= kMaxInsertLog) {
    // Log overflow: delta reconstruction for observers older than this
    // point degrades to "not reconstructible".
    insert_log_.clear();
    log_base_ = generation_;
  } else {
    insert_log_.push_back(stored);
  }
  return true;
}

Status Relation::InsertAll(const Relation& other) {
  if (!schema_.UnionCompatible(other.schema_)) {
    return Status::TypeError("InsertAll between incompatible schemas: " +
                             schema_.ToString() + " vs " +
                             other.schema_.ToString());
  }
  // Check the whole batch's keys before applying any of it, so a failing
  // batch leaves the relation unchanged (the atomicity half of the section
  // 2.2 assignment semantics). Under set semantics nothing can fail.
  if (enforce_key_) {
    std::unordered_map<Tuple, const Tuple*, TupleHash> staged_keys;
    for (const Tuple& t : other.tuples_) {
      if (tuples_.count(t) > 0) continue;
      Tuple key = t.Project(key_positions_);
      auto stored = key_to_tuple_.find(key);
      if (stored != key_to_tuple_.end()) {
        return Status::KeyViolation("key " + key.ToString() +
                                    " already identifies " +
                                    stored->second.ToString() +
                                    "; cannot insert " + t.ToString());
      }
      auto [staged, fresh] = staged_keys.try_emplace(std::move(key), &t);
      if (!fresh) {
        return Status::KeyViolation("key " + staged->first.ToString() +
                                    " identifies both " +
                                    staged->second->ToString() + " and " +
                                    t.ToString() + " within one batch");
      }
    }
  }
  // Stored tuples match their schema, and union compatibility makes that
  // schema's field types ours: no per-tuple type check is needed.
  for (const Tuple& t : other.tuples_) {
    DATACON_DCHECK(ValidateTuple(t).ok(),
                   "stored tuple violates its relation schema");
    Result<bool> grew = InsertValidated(t);
    DATACON_CHECK(grew.ok(), "key-checked batch insert failed");
  }
  return Status::OK();
}

void Relation::Subtract(const Relation& other) {
  bool removed = false;
  for (auto it = tuples_.begin(); it != tuples_.end();) {
    if (other.tuples_.count(*it) == 0) {
      ++it;
      continue;
    }
    if (enforce_key_) key_to_tuple_.erase(it->Project(key_positions_));
    it = tuples_.erase(it);
    removed = true;
  }
  if (removed) NoteStructuralChange();
}

bool Relation::Erase(const Tuple& t) {
  auto it = tuples_.find(t);
  if (it == tuples_.end()) return false;
  if (enforce_key_) key_to_tuple_.erase(t.Project(key_positions_));
  for (auto& [columns, index] : indexes_) index->Remove(&*it);
  tuples_.erase(it);
  NoteStructuralChange(/*keep_indexes=*/true);
  return true;
}

void Relation::Clear() {
  if (tuples_.empty()) return;
  tuples_.clear();
  key_to_tuple_.clear();
  NoteStructuralChange();
}

bool Relation::SameTuples(const Relation& other) const {
  if (tuples_.size() != other.tuples_.size()) return false;
  for (const Tuple& t : tuples_) {
    if (other.tuples_.count(t) == 0) return false;
  }
  return true;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out(tuples_.begin(), tuples_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::string Relation::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const Tuple& t : SortedTuples()) {
    if (!first) out += ", ";
    first = false;
    out += t.ToString();
  }
  out += "}";
  return out;
}

}  // namespace datacon
