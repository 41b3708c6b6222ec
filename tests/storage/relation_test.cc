#include "storage/relation.h"

#include <gtest/gtest.h>

#include <memory>

#include "ast/builder.h"
#include "core/database.h"
#include "storage/index.h"

namespace datacon {
namespace {

Schema SetSchema() {
  return Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
}

Schema KeyedSchema() {
  // `RELATION part OF objecttype` — the key identifies the element.
  return Schema({{"part", ValueType::kString}, {"weight", ValueType::kInt}},
                {0});
}

TEST(Relation, InsertAndContains) {
  Relation r(SetSchema());
  EXPECT_TRUE(r.empty());
  Result<bool> grew = r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  ASSERT_TRUE(grew.ok());
  EXPECT_TRUE(grew.value());
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(r.Contains(Tuple({Value::Int(2), Value::Int(1)})));
}

TEST(Relation, DuplicateInsertIsNoOp) {
  Relation r(SetSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  Result<bool> again = r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
  EXPECT_EQ(r.size(), 1u);
}

TEST(Relation, InsertRejectsArityMismatch) {
  Relation r(SetSchema());
  EXPECT_EQ(r.Insert(Tuple({Value::Int(1)})).status().code(),
            StatusCode::kTypeError);
}

TEST(Relation, InsertRejectsTypeMismatch) {
  Relation r(SetSchema());
  EXPECT_EQ(r.Insert(Tuple({Value::Int(1), Value::String("x")}))
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST(Relation, KeyConstraintEnforced) {
  // Section 2.2: two tuples agreeing on the key but differing elsewhere
  // violate the annotated set-type definition.
  Relation r(KeyedSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::String("vase"), Value::Int(3)})).ok());
  Result<bool> conflict =
      r.Insert(Tuple({Value::String("vase"), Value::Int(4)}));
  EXPECT_EQ(conflict.status().code(), StatusCode::kKeyViolation);
  EXPECT_EQ(r.size(), 1u);
  // Re-inserting the identical tuple stays a no-op.
  Result<bool> same = r.Insert(Tuple({Value::String("vase"), Value::Int(3)}));
  ASSERT_TRUE(same.ok());
  EXPECT_FALSE(same.value());
}

TEST(Relation, KeyFreedByErase) {
  Relation r(KeyedSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::String("vase"), Value::Int(3)})).ok());
  EXPECT_TRUE(r.Erase(Tuple({Value::String("vase"), Value::Int(3)})));
  EXPECT_TRUE(r.Insert(Tuple({Value::String("vase"), Value::Int(4)})).ok());
  EXPECT_EQ(r.size(), 1u);
}

TEST(Relation, EraseMissingReturnsFalse) {
  Relation r(SetSchema());
  EXPECT_FALSE(r.Erase(Tuple({Value::Int(1), Value::Int(2)})));
}

TEST(Relation, InsertAllChecksCompatibility) {
  Relation r(SetSchema());
  Relation strings(
      Schema({{"x", ValueType::kString}, {"y", ValueType::kString}}));
  ASSERT_TRUE(
      strings.Insert(Tuple({Value::String("a"), Value::String("b")})).ok());
  EXPECT_EQ(r.InsertAll(strings).code(), StatusCode::kTypeError);

  Relation ints(SetSchema());
  ASSERT_TRUE(ints.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  ASSERT_TRUE(ints.Insert(Tuple({Value::Int(3), Value::Int(4)})).ok());
  EXPECT_TRUE(r.InsertAll(ints).ok());
  EXPECT_EQ(r.size(), 2u);
}

TEST(Relation, ClearKeepsSchema) {
  Relation r(KeyedSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::String("a"), Value::Int(1)})).ok());
  r.Clear();
  EXPECT_TRUE(r.empty());
  // The key constraint still applies after Clear.
  ASSERT_TRUE(r.Insert(Tuple({Value::String("a"), Value::Int(2)})).ok());
  EXPECT_EQ(r.Insert(Tuple({Value::String("a"), Value::Int(3)}))
                .status()
                .code(),
            StatusCode::kKeyViolation);
}

TEST(Relation, SameTuples) {
  Relation a(SetSchema());
  Relation b(SetSchema());
  EXPECT_TRUE(a.SameTuples(b));
  ASSERT_TRUE(a.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  EXPECT_FALSE(a.SameTuples(b));
  ASSERT_TRUE(b.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  EXPECT_TRUE(a.SameTuples(b));
  ASSERT_TRUE(b.Insert(Tuple({Value::Int(5), Value::Int(6)})).ok());
  EXPECT_FALSE(a.SameTuples(b));
}

TEST(Relation, SortedTuplesIsDeterministic) {
  Relation r(SetSchema());
  for (int i : {5, 3, 9, 1}) {
    ASSERT_TRUE(r.Insert(Tuple({Value::Int(i), Value::Int(0)})).ok());
  }
  std::vector<Tuple> sorted = r.SortedTuples();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].value(0).AsInt(), 1);
  EXPECT_EQ(sorted[3].value(0).AsInt(), 9);
}

TEST(Relation, ToStringSortedForm) {
  Relation r(SetSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(2), Value::Int(0)})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(0)})).ok());
  EXPECT_EQ(r.ToString(), "{<1, 0>, <2, 0>}");
}

TEST(Relation, InsertAllIsAtomicOnKeyViolation) {
  // Regression: InsertAll used to apply tuples one by one and return on the
  // first key violation, leaving the earlier tuples of the batch behind.
  // The whole batch is now validated first — on failure nothing changes.
  Relation r(KeyedSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::String("vase"), Value::Int(3)})).ok());
  const uint64_t generation = r.generation();

  Relation batch(Schema({{"part", ValueType::kString},
                         {"weight", ValueType::kInt}}));
  ASSERT_TRUE(batch.Insert(Tuple({Value::String("cup"), Value::Int(1)})).ok());
  ASSERT_TRUE(
      batch.Insert(Tuple({Value::String("vase"), Value::Int(9)})).ok());

  EXPECT_EQ(r.InsertAll(batch).code(), StatusCode::kKeyViolation);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.Contains(Tuple({Value::String("cup"), Value::Int(1)})));
  EXPECT_EQ(r.generation(), generation);
}

TEST(Relation, InsertAllIsAtomicOnWithinBatchConflict) {
  // Two fresh tuples agreeing on the key but differing elsewhere conflict
  // with each other even though neither conflicts with the stored state.
  Relation r(KeyedSchema());
  Relation batch(Schema({{"part", ValueType::kString},
                         {"weight", ValueType::kInt}}));
  ASSERT_TRUE(batch.Insert(Tuple({Value::String("cup"), Value::Int(1)})).ok());
  ASSERT_TRUE(batch.Insert(Tuple({Value::String("cup"), Value::Int(2)})).ok());
  EXPECT_EQ(r.InsertAll(batch).code(), StatusCode::kKeyViolation);
  EXPECT_TRUE(r.empty());
}

TEST(Relation, InsertAllIsAtomicOnTypeError) {
  Relation r(SetSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  const uint64_t generation = r.generation();
  Relation strings(
      Schema({{"x", ValueType::kString}, {"y", ValueType::kString}}));
  ASSERT_TRUE(
      strings.Insert(Tuple({Value::String("a"), Value::String("b")})).ok());
  EXPECT_EQ(r.InsertAll(strings).code(), StatusCode::kTypeError);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.generation(), generation);
}

TEST(Relation, GenerationCountsStructuralChanges) {
  Relation r(SetSchema());
  EXPECT_EQ(r.generation(), 0u);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  EXPECT_EQ(r.generation(), 1u);
  // A duplicate insert and a missing erase change nothing.
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  EXPECT_FALSE(r.Erase(Tuple({Value::Int(9), Value::Int(9)})));
  EXPECT_EQ(r.generation(), 1u);
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_EQ(r.generation(), 2u);
  // Clearing an already-empty relation is a no-op.
  r.Clear();
  EXPECT_EQ(r.generation(), 2u);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(3), Value::Int(4)})).ok());
  r.Clear();
  EXPECT_EQ(r.generation(), 4u);
}

TEST(Relation, InsertedSinceReplaysInsertOnlyChurn) {
  Relation r(SetSchema(), Relation::InsertLog::kOn);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  const uint64_t mark = r.generation();
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(3), Value::Int(4)})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(5), Value::Int(6)})).ok());

  std::optional<std::vector<Tuple>> delta = r.InsertedSince(mark);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 2u);
  EXPECT_EQ((*delta)[0].value(0).AsInt(), 3);
  EXPECT_EQ((*delta)[1].value(0).AsInt(), 5);

  std::optional<std::vector<Tuple>> none = r.InsertedSince(r.generation());
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());

  // A future generation is unanswerable.
  EXPECT_FALSE(r.InsertedSince(r.generation() + 1).has_value());
}

TEST(Relation, InsertedSinceUnavailableAfterErase) {
  Relation r(SetSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  const uint64_t mark = r.generation();
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(3), Value::Int(4)})).ok());
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(1), Value::Int(2)})));
  // The erase makes the interval non-reconstructible as inserts only.
  EXPECT_FALSE(r.InsertedSince(mark).has_value());
  // But from the current generation on, the answer is exact again.
  std::optional<std::vector<Tuple>> now = r.InsertedSince(r.generation());
  ASSERT_TRUE(now.has_value());
  EXPECT_TRUE(now->empty());
}

TEST(Relation, AssignmentKeepsGenerationMonotonic) {
  // Database::Assign replaces a relation's contents via operator=. The
  // target keeps its identity, so its generation must keep counting up —
  // a cache that pinned the old generation may never see it again.
  Relation r(SetSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  const uint64_t before = r.generation();

  Relation fresh(SetSchema());
  ASSERT_TRUE(fresh.Insert(Tuple({Value::Int(9), Value::Int(9)})).ok());
  r = std::move(fresh);
  EXPECT_GT(r.generation(), before);
  EXPECT_FALSE(r.InsertedSince(before).has_value());

  Relation other(SetSchema());
  const uint64_t mid = r.generation();
  r = other;  // copy assignment, same contract
  EXPECT_GT(r.generation(), mid);
}

TEST(Relation, InsertLogOverflowDegradesGracefully) {
  Relation r(SetSchema(), Relation::InsertLog::kOn);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(-1), Value::Int(0)})).ok());
  const uint64_t mark = r.generation();
  const int n = static_cast<int>(Relation::kMaxInsertLog) + 1;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(r.Insert(Tuple({Value::Int(i), Value::Int(i)})).ok());
  }
  // The bounded log overflowed, so the old mark is unanswerable...
  EXPECT_FALSE(r.InsertedSince(mark).has_value());
  // ...but marks after the overflow work again.
  const uint64_t late = r.generation();
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(-2), Value::Int(0)})).ok());
  std::optional<std::vector<Tuple>> delta = r.InsertedSince(late);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->size(), 1u);
}

TEST(Relation, CopyRestartsInsertLogAtItsOwnGeneration) {
  Relation r(SetSchema(), Relation::InsertLog::kOn);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  const uint64_t mark = r.generation();
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(3), Value::Int(4)})).ok());

  Relation copy(r);
  EXPECT_EQ(copy.generation(), r.generation());
  // The source's log points into the source's tuples: the copy replays
  // nothing before its own generation...
  EXPECT_FALSE(copy.InsertedSince(mark).has_value());
  // ...but logs what it inserts from there on.
  const uint64_t copied = copy.generation();
  ASSERT_TRUE(copy.Insert(Tuple({Value::Int(5), Value::Int(6)})).ok());
  std::optional<std::vector<Tuple>> delta = copy.InsertedSince(copied);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ((*delta)[0], Tuple({Value::Int(5), Value::Int(6)}));
  // The source still replays its own history.
  std::optional<std::vector<Tuple>> source = r.InsertedSince(mark);
  ASSERT_TRUE(source.has_value());
  ASSERT_EQ(source->size(), 1u);
  EXPECT_EQ((*source)[0], Tuple({Value::Int(3), Value::Int(4)}));
}

TEST(Relation, MoveKeepsInsertLog) {
  Relation r(SetSchema(), Relation::InsertLog::kOn);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  const uint64_t mark = r.generation();
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(3), Value::Int(4)})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(5), Value::Int(6)})).ok());

  Relation moved(std::move(r));
  std::optional<std::vector<Tuple>> delta = moved.InsertedSince(mark);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 2u);
  EXPECT_EQ((*delta)[0], Tuple({Value::Int(3), Value::Int(4)}));
  EXPECT_EQ((*delta)[1], Tuple({Value::Int(5), Value::Int(6)}));
}

TEST(Relation, InsertedSinceSurvivesRehash) {
  // The log points at stored tuples; growing the set through many rehashes
  // must leave every logged tuple readable, in insertion order.
  Relation r(SetSchema(), Relation::InsertLog::kOn);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(-1), Value::Int(0)})).ok());
  const uint64_t mark = r.generation();
  constexpr int kInserts = 10000;
  for (int i = 0; i < kInserts; ++i) {
    ASSERT_TRUE(r.Insert(Tuple({Value::Int(i), Value::Int(2 * i)})).ok());
  }
  std::optional<std::vector<Tuple>> delta = r.InsertedSince(mark);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), static_cast<size_t>(kInserts));
  for (int i = 0; i < kInserts; ++i) {
    ASSERT_EQ((*delta)[static_cast<size_t>(i)],
              Tuple({Value::Int(i), Value::Int(2 * i)}));
  }
}

TEST(Relation, KeyViolatingInsertIsNotLogged) {
  Relation r(KeyedSchema(), Relation::InsertLog::kOn);
  ASSERT_TRUE(r.Insert(Tuple({Value::String("a"), Value::Int(1)})).ok());
  const uint64_t mark = r.generation();
  EXPECT_EQ(
      r.Insert(Tuple({Value::String("a"), Value::Int(2)})).status().code(),
      StatusCode::kKeyViolation);
  ASSERT_TRUE(r.Insert(Tuple({Value::String("b"), Value::Int(3)})).ok());
  std::optional<std::vector<Tuple>> delta = r.InsertedSince(mark);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ((*delta)[0], Tuple({Value::String("b"), Value::Int(3)}));
}

TEST(Relation, DefaultRelationKeepsNoInsertLog) {
  // Engine-owned relations (scratch, deltas, totals, results) do not log:
  // an older generation is unanswerable, the current one is exact.
  Relation r(SetSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  const uint64_t mark = r.generation();
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(3), Value::Int(4)})).ok());
  EXPECT_FALSE(r.InsertedSince(mark).has_value());
  EXPECT_FALSE(r.InsertedSince(0).has_value());
  std::optional<std::vector<Tuple>> now = r.InsertedSince(r.generation());
  ASSERT_TRUE(now.has_value());
  EXPECT_TRUE(now->empty());
}

/// One two-int relation variable `E` in a fresh database.
std::unique_ptr<Database> EdgeDb() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->DefineRelationType("edge", SetSchema()).ok());
  EXPECT_TRUE(db->CreateRelation("E", "edge").ok());
  return db;
}

/// True when catalog relation `name` replays one insert made after a mark.
bool ReplaysNextInsert(Database* db, const std::string& name, int64_t v) {
  Relation* rel = db->GetMutableRelation(name).value();
  const uint64_t mark = rel->generation();
  EXPECT_TRUE(rel->Insert(Tuple({Value::Int(v), Value::Int(v)})).ok());
  std::optional<std::vector<Tuple>> delta = rel->InsertedSince(mark);
  return delta.has_value() && delta->size() == 1 &&
         (*delta)[0] == Tuple({Value::Int(v), Value::Int(v)});
}

TEST(Relation, CatalogRelationLogsThroughMutableAccess) {
  std::unique_ptr<Database> db = EdgeDb();
  const uint64_t mark = db->GetRelation("E").value()->generation();
  ASSERT_TRUE(db->Insert("E", Tuple({Value::Int(1), Value::Int(2)})).ok());
  std::optional<std::vector<Tuple>> delta =
      db->GetRelation("E").value()->InsertedSince(mark);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->size(), 1u);
  EXPECT_TRUE(ReplaysNextInsert(db.get(), "E", 7));
}

TEST(Relation, CatalogRelationKeepsLoggingAfterAssign) {
  std::unique_ptr<Database> db = EdgeDb();
  Relation value(SetSchema());  // a non-logging source
  ASSERT_TRUE(value.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  const uint64_t before = db->GetRelation("E").value()->generation();
  ASSERT_TRUE(db->Assign("E", value).ok());
  // The wholesale replacement itself is not replayable...
  EXPECT_FALSE(db->GetRelation("E").value()->InsertedSince(before).has_value());
  // ...but the variable keeps its log for the inserts that follow.
  EXPECT_TRUE(ReplaysNextInsert(db.get(), "E", 8));
}

TEST(Relation, CatalogRelationKeepsLoggingAfterConstraintRollback) {
  std::unique_ptr<Database> db = EdgeDb();
  ASSERT_TRUE(db->DefineConstraint(std::make_shared<const ConstraintDecl>(
                                       "no_loop",
                                       std::vector<Binding>{build::Each(
                                           "p", build::Rel("E"))},
                                       build::Eq(build::FieldRef("p", "a"),
                                                 build::FieldRef("p", "b"))))
                  .ok());
  ASSERT_TRUE(db->Insert("E", Tuple({Value::Int(1), Value::Int(2)})).ok());
  // Rejected insert: rolled back by Erase.
  EXPECT_EQ(db->Insert("E", Tuple({Value::Int(3), Value::Int(3)})).code(),
            StatusCode::kConstraintViolation);
  // Rejected assignment: rolled back by assigning the saved value back.
  Relation bad(SetSchema());
  ASSERT_TRUE(bad.Insert(Tuple({Value::Int(4), Value::Int(4)})).ok());
  EXPECT_EQ(db->Assign("E", bad).code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(db->GetRelation("E").value()->size(), 1u);

  Relation* rel = db->GetMutableRelation("E").value();
  const uint64_t mark = rel->generation();
  ASSERT_TRUE(db->Insert("E", Tuple({Value::Int(5), Value::Int(6)})).ok());
  std::optional<std::vector<Tuple>> delta = rel->InsertedSince(mark);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ((*delta)[0], Tuple({Value::Int(5), Value::Int(6)}));
}

TEST(Relation, CatalogIndexTracksConstraintRollbacks) {
  // A rejected statement's rollback erases through the catalog relation's
  // own indexes, so a probe afterwards sees exactly the surviving tuples.
  std::unique_ptr<Database> db = EdgeDb();
  ASSERT_TRUE(db->DefineConstraint(std::make_shared<const ConstraintDecl>(
                                       "no_loop",
                                       std::vector<Binding>{build::Each(
                                           "p", build::Rel("E"))},
                                       build::Eq(build::FieldRef("p", "a"),
                                                 build::FieldRef("p", "b"))))
                  .ok());
  ASSERT_TRUE(db->Insert("E", Tuple({Value::Int(1), Value::Int(2)})).ok());
  const Relation* rel = db->GetRelation("E").value();
  const HashIndex& by_a = rel->IndexOn({0});
  EXPECT_EQ(db->InsertAll("E", {Tuple({Value::Int(1), Value::Int(5)}),
                                Tuple({Value::Int(1), Value::Int(1)})})
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(rel->FindIndex({0}), &by_a);
  ASSERT_EQ(by_a.Probe(Tuple({Value::Int(1)})).size(), 1u);
  EXPECT_EQ(*by_a.Probe(Tuple({Value::Int(1)}))[0],
            Tuple({Value::Int(1), Value::Int(2)}));
  ASSERT_TRUE(db->Insert("E", Tuple({Value::Int(1), Value::Int(3)})).ok());
  EXPECT_EQ(by_a.Probe(Tuple({Value::Int(1)})).size(), 2u);
}

TEST(Relation, InsertAllSameTypesStillEnforcesKeys) {
  // Identical schemas take InsertAll's no-revalidation path; the key is
  // still checked against stored tuples and within the batch, atomically.
  Relation r(KeyedSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::String("vase"), Value::Int(3)})).ok());
  const uint64_t generation = r.generation();

  Relation against_stored(KeyedSchema());
  ASSERT_TRUE(
      against_stored.Insert(Tuple({Value::String("cup"), Value::Int(1)})).ok());
  ASSERT_TRUE(
      against_stored.Insert(Tuple({Value::String("vase"), Value::Int(9)}))
          .ok());
  EXPECT_EQ(r.InsertAll(against_stored).code(), StatusCode::kKeyViolation);

  // A keyed batch cannot hold two tuples with one key, so the within-batch
  // conflict comes from a set-semantics batch of identical field types.
  Relation within_batch(Schema(
      {{"part", ValueType::kString}, {"weight", ValueType::kInt}}));
  ASSERT_TRUE(
      within_batch.Insert(Tuple({Value::String("cup"), Value::Int(1)})).ok());
  ASSERT_TRUE(
      within_batch.Insert(Tuple({Value::String("cup"), Value::Int(2)})).ok());
  EXPECT_EQ(r.InsertAll(within_batch).code(), StatusCode::kKeyViolation);

  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.generation(), generation);
  EXPECT_EQ(r.SortedTuples(), std::vector<Tuple>({Tuple(
                                 {Value::String("vase"), Value::Int(3)})}));

  // A clean same-type batch goes in whole.
  Relation clean(KeyedSchema());
  ASSERT_TRUE(clean.Insert(Tuple({Value::String("cup"), Value::Int(1)})).ok());
  ASSERT_TRUE(clean.Insert(Tuple({Value::String("vase"), Value::Int(3)})).ok());
  ASSERT_TRUE(r.InsertAll(clean).ok());
  EXPECT_EQ(r.size(), 2u);
}

TEST(Relation, SubtractRemovesSharedTuplesAndFreesKeys) {
  Relation r(KeyedSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::String("a"), Value::Int(1)})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::String("b"), Value::Int(2)})).ok());
  Relation other(KeyedSchema());
  ASSERT_TRUE(other.Insert(Tuple({Value::String("a"), Value::Int(1)})).ok());
  const uint64_t generation = r.generation();
  r.Subtract(other);
  EXPECT_EQ(r.SortedTuples(),
            std::vector<Tuple>({Tuple({Value::String("b"), Value::Int(2)})}));
  EXPECT_GT(r.generation(), generation);
  // The removed tuple's key is free again.
  EXPECT_TRUE(r.Insert(Tuple({Value::String("a"), Value::Int(5)})).ok());
  // Subtracting nothing shared is a no-op.
  const uint64_t after = r.generation();
  r.Subtract(other);
  EXPECT_EQ(r.generation(), after);
  EXPECT_EQ(r.size(), 2u);
}

TEST(Relation, CopySemantics) {
  Relation r(KeyedSchema());
  ASSERT_TRUE(r.Insert(Tuple({Value::String("a"), Value::Int(1)})).ok());
  Relation copy = r;
  ASSERT_TRUE(copy.Insert(Tuple({Value::String("b"), Value::Int(2)})).ok());
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  // The copy's key index is independent too.
  EXPECT_EQ(copy.Insert(Tuple({Value::String("b"), Value::Int(9)}))
                .status()
                .code(),
            StatusCode::kKeyViolation);
}

}  // namespace
}  // namespace datacon
