#include "storage/index.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace datacon {
namespace {

Relation EdgeRelation(std::initializer_list<std::pair<int, int>> edges) {
  Relation r(Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}));
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(r.Insert(Tuple({Value::Int(a), Value::Int(b)})).ok());
  }
  return r;
}

TEST(HashIndex, ProbeSingleColumn) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}, {2, 3}});
  HashIndex index(r, {0});
  EXPECT_EQ(index.key_count(), 2u);
  EXPECT_EQ(index.Probe(Tuple({Value::Int(1)})).size(), 2u);
  EXPECT_EQ(index.Probe(Tuple({Value::Int(2)})).size(), 1u);
  EXPECT_TRUE(index.Probe(Tuple({Value::Int(9)})).empty());
}

TEST(HashIndex, ProbeSecondColumn) {
  Relation r = EdgeRelation({{1, 2}, {3, 2}, {4, 5}});
  HashIndex index(r, {1});
  EXPECT_EQ(index.Probe(Tuple({Value::Int(2)})).size(), 2u);
  EXPECT_EQ(index.Probe(Tuple({Value::Int(5)})).size(), 1u);
}

TEST(HashIndex, CompositeKey) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}});
  HashIndex index(r, {0, 1});
  EXPECT_EQ(index.key_count(), 2u);
  EXPECT_EQ(index.Probe(Tuple({Value::Int(1), Value::Int(2)})).size(), 1u);
  EXPECT_TRUE(index.Probe(Tuple({Value::Int(1), Value::Int(4)})).empty());
}

TEST(HashIndex, PointersReferenceStoredTuples) {
  Relation r = EdgeRelation({{7, 8}});
  HashIndex index(r, {0});
  const std::vector<const Tuple*>& hits = index.Probe(Tuple({Value::Int(7)}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->value(1).AsInt(), 8);
  EXPECT_TRUE(r.Contains(*hits[0]));
}

TEST(HashIndex, EmptyRelation) {
  Relation r = EdgeRelation({});
  HashIndex index(r, {0});
  EXPECT_EQ(index.key_count(), 0u);
  EXPECT_TRUE(index.Probe(Tuple({Value::Int(0)})).empty());
}

TEST(HashIndex, ColumnsAccessor) {
  Relation r = EdgeRelation({{1, 2}});
  HashIndex index(r, {1, 0});
  EXPECT_EQ(index.columns(), (std::vector<int>{1, 0}));
}

TEST(HashIndex, InSyncTracksRelationSize) {
  Relation r = EdgeRelation({{1, 2}, {2, 3}});
  HashIndex index(r, {0});
  EXPECT_EQ(index.size_at_build(), 2u);
  EXPECT_TRUE(index.InSync());

  // Growing the relation after the build makes the index stale: a probe
  // silently misses the new tuple, which is exactly the bug the InSync
  // guard exists to catch.
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(9)})).ok());
  EXPECT_FALSE(index.InSync());
  EXPECT_EQ(index.Probe(Tuple({Value::Int(1)})).size(), 1u);
}

TEST(HashIndex, InSyncAfterDuplicateInsert) {
  // Set semantics: re-inserting an existing tuple does not grow the
  // relation, so the index stays in sync.
  Relation r = EdgeRelation({{1, 2}});
  HashIndex index(r, {0});
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  EXPECT_TRUE(index.InSync());
}

TEST(HashIndex, EqualSizeChurnIsOutOfSync) {
  // Regression: the old InSync() compared sizes only, so an erase paired
  // with an insert left a stale index looking "in sync" — probes on the
  // erased tuple returned a dangling hit and the new tuple was invisible.
  // Generations catch the churn even though the size is back to 2.
  Relation r = EdgeRelation({{1, 2}, {2, 3}});
  HashIndex index(r, {0});
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(2), Value::Int(3)})));
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(5), Value::Int(6)})).ok());
  ASSERT_EQ(r.size(), index.size_at_build());
  EXPECT_FALSE(index.InSync());
}

TEST(HashIndex, EraseAloneIsOutOfSync) {
  Relation r = EdgeRelation({{1, 2}, {2, 3}});
  HashIndex index(r, {0});
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(index.InSync());
}

TEST(HashIndex, ClearIsOutOfSync) {
  Relation r = EdgeRelation({{1, 2}});
  HashIndex index(r, {0});
  r.Clear();
  EXPECT_FALSE(index.InSync());
}

// --- Relation-owned indexes (Relation::IndexOn) ---

Tuple Key(int v) { return Tuple({Value::Int(v)}); }

/// The second column of every tuple `index` returns for `key`, sorted.
std::vector<int64_t> Hits(const HashIndex& index, int key) {
  std::vector<int64_t> out;
  for (const Tuple* t : index.Probe(Key(key))) {
    out.push_back(t->value(1).AsInt());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RelationIndex, BuiltOnFirstRequestAndReused) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}});
  EXPECT_EQ(r.index_count(), 0u);
  EXPECT_EQ(r.FindIndex({0}), nullptr);
  const HashIndex& index = r.IndexOn({0});
  EXPECT_EQ(r.index_count(), 1u);
  EXPECT_EQ(&r.IndexOn({0}), &index);
  EXPECT_EQ(r.FindIndex({0}), &index);
  EXPECT_EQ(Hits(index, 1), (std::vector<int64_t>{2, 3}));
  // A different column list is a different index.
  EXPECT_NE(&r.IndexOn({1}), &index);
  EXPECT_EQ(r.index_count(), 2u);
  EXPECT_TRUE(index.InSync());
}

TEST(RelationIndex, InsertsExtendEveryIndex) {
  Relation r = EdgeRelation({{1, 2}});
  const HashIndex& by_src = r.IndexOn({0});
  const HashIndex& by_dst = r.IndexOn({1});
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(5)})).ok());
  ASSERT_TRUE(r.InsertProven(Tuple({Value::Int(4), Value::Int(5)})).ok());
  Relation batch = EdgeRelation({{7, 8}, {1, 9}});
  ASSERT_TRUE(r.InsertAll(batch).ok());
  // A duplicate insert adds nothing.
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  EXPECT_EQ(Hits(by_src, 1), (std::vector<int64_t>{2, 5, 9}));
  EXPECT_EQ(by_dst.Probe(Key(5)).size(), 2u);
  EXPECT_EQ(Hits(by_src, 7), (std::vector<int64_t>{8}));
  EXPECT_TRUE(by_src.InSync());
  EXPECT_EQ(r.index_count(), 2u);
}

TEST(RelationIndex, EraseRemovesTheTuplesPointer) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}, {2, 3}});
  const HashIndex& index = r.IndexOn({0});
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_EQ(Hits(index, 1), (std::vector<int64_t>{3}));
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(2), Value::Int(3)})));
  EXPECT_TRUE(index.Probe(Key(2)).empty());
  EXPECT_EQ(index.key_count(), 1u);
  // The index survives the erase and keeps tracking inserts.
  EXPECT_EQ(r.FindIndex({0}), &index);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(2), Value::Int(6)})).ok());
  EXPECT_EQ(Hits(index, 2), (std::vector<int64_t>{6}));
}

TEST(RelationIndex, ClearSubtractAndAssignmentDropIndexes) {
  Relation r = EdgeRelation({{1, 2}, {2, 3}});
  r.IndexOn({0});
  r.Clear();
  EXPECT_EQ(r.index_count(), 0u);

  r = EdgeRelation({{1, 2}, {2, 3}});
  EXPECT_EQ(r.index_count(), 0u);
  r.IndexOn({0});
  r.Subtract(EdgeRelation({{2, 3}}));
  EXPECT_EQ(r.index_count(), 0u);
  // Rebuilt on the next request, over the current tuples.
  EXPECT_EQ(Hits(r.IndexOn({0}), 1), (std::vector<int64_t>{2}));
  EXPECT_TRUE(r.IndexOn({0}).Probe(Key(2)).empty());

  const Relation source = EdgeRelation({{5, 6}});
  source.IndexOn({0});
  r = source;  // copy assignment
  EXPECT_EQ(r.index_count(), 0u);
  EXPECT_EQ(source.index_count(), 1u);
  r.IndexOn({0});
  Relation moved_from = EdgeRelation({{7, 8}});
  moved_from.IndexOn({0});
  r = std::move(moved_from);  // move assignment
  EXPECT_EQ(r.index_count(), 0u);
  EXPECT_EQ(Hits(r.IndexOn({0}), 7), (std::vector<int64_t>{8}));
}

TEST(RelationIndex, CopyNeverSharesIndexes) {
  Relation r = EdgeRelation({{1, 2}});
  const HashIndex& original = r.IndexOn({0});
  Relation copy = r;
  EXPECT_EQ(copy.index_count(), 0u);
  ASSERT_TRUE(copy.Insert(Tuple({Value::Int(1), Value::Int(9)})).ok());
  // The copy's own index points into the copy; the original's is untouched.
  const HashIndex& copied = copy.IndexOn({0});
  EXPECT_NE(&copied, &original);
  EXPECT_EQ(Hits(copied, 1), (std::vector<int64_t>{2, 9}));
  EXPECT_EQ(Hits(original, 1), (std::vector<int64_t>{2}));
  for (const Tuple* t : copied.Probe(Key(1))) EXPECT_TRUE(copy.Contains(*t));
}

TEST(RelationIndex, MoveKeepsIndexesValid) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}});
  const HashIndex& index = r.IndexOn({0});
  Relation moved(std::move(r));
  ASSERT_EQ(moved.FindIndex({0}), &index);
  EXPECT_EQ(Hits(index, 1), (std::vector<int64_t>{2, 3}));
  for (const Tuple* t : index.Probe(Key(1))) EXPECT_TRUE(moved.Contains(*t));
  // Still maintained by its new owner.
  ASSERT_TRUE(moved.Insert(Tuple({Value::Int(1), Value::Int(4)})).ok());
  EXPECT_EQ(Hits(index, 1), (std::vector<int64_t>{2, 3, 4}));
  ASSERT_TRUE(moved.Erase(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_EQ(Hits(index, 1), (std::vector<int64_t>{3, 4}));
}

TEST(RelationIndex, KeyViolationsLeaveIndexesUnchanged) {
  Relation r(Schema({{"part", ValueType::kInt}, {"weight", ValueType::kInt}},
                    {0}));
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(10)})).ok());
  const HashIndex& by_weight = r.IndexOn({1});
  EXPECT_EQ(r.Insert(Tuple({Value::Int(1), Value::Int(20)})).status().code(),
            StatusCode::kKeyViolation);
  Relation batch(r.schema());
  ASSERT_TRUE(batch.Insert(Tuple({Value::Int(2), Value::Int(20)})).ok());
  ASSERT_TRUE(batch.Insert(Tuple({Value::Int(1), Value::Int(30)})).ok());
  EXPECT_EQ(r.InsertAll(batch).code(), StatusCode::kKeyViolation);
  EXPECT_TRUE(by_weight.Probe(Key(20)).empty());
  EXPECT_TRUE(by_weight.Probe(Key(30)).empty());
  EXPECT_EQ(by_weight.key_count(), 1u);
}

}  // namespace
}  // namespace datacon
