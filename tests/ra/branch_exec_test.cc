#include "ra/branch_exec.h"

#include <gtest/gtest.h>

#include <random>

#include "ast/builder.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

Schema EdgeSchema() {
  return Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}});
}

Relation Edges(std::initializer_list<std::pair<int, int>> pairs) {
  Relation r(EdgeSchema());
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(r.Insert(Tuple({Value::Int(a), Value::Int(b)})).ok());
  }
  return r;
}

Status RunBranch(const BranchPtr& branch,
           const std::vector<ResolvedBinding>& bindings, Relation* out,
           BranchExecStats* stats = nullptr) {
  Evaluator eval(nullptr);
  Environment env;
  return ExecuteBranch(*branch, bindings, eval, env, out, stats);
}

TEST(BranchExec, IdentityCopiesAllTuples) {
  Relation e = Edges({{1, 2}, {2, 3}});
  Relation out(EdgeSchema());
  BranchPtr branch = IdentityBranch("r", Rel("E"), True());
  ASSERT_TRUE(RunBranch(branch, {{"r", &e}}, &out).ok());
  EXPECT_TRUE(out.SameTuples(e));
}

TEST(BranchExec, FilterSelects) {
  Relation e = Edges({{1, 2}, {2, 3}, {1, 5}});
  Relation out(EdgeSchema());
  BranchPtr branch =
      IdentityBranch("r", Rel("E"), Eq(FieldRef("r", "src"), Int(1)));
  ASSERT_TRUE(RunBranch(branch, {{"r", &e}}, &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(BranchExec, ProjectionTargets) {
  Relation e = Edges({{1, 2}});
  Relation out(EdgeSchema());
  BranchPtr branch = MakeBranch({FieldRef("r", "dst"), FieldRef("r", "src")},
                                {Each("r", Rel("E"))}, True());
  ASSERT_TRUE(RunBranch(branch, {{"r", &e}}, &out).ok());
  EXPECT_TRUE(out.Contains(Tuple({Value::Int(2), Value::Int(1)})));
}

TEST(BranchExec, ComputedTargets) {
  Relation e = Edges({{1, 2}});
  Relation out(EdgeSchema());
  BranchPtr branch = MakeBranch(
      {Add(FieldRef("r", "src"), Int(10)), FieldRef("r", "dst")},
      {Each("r", Rel("E"))}, True());
  ASSERT_TRUE(RunBranch(branch, {{"r", &e}}, &out).ok());
  EXPECT_TRUE(out.Contains(Tuple({Value::Int(11), Value::Int(2)})));
}

TEST(BranchExec, EquiJoin) {
  // The paper's ahead_2 join: <f.src, b.dst> where f.dst = b.src.
  Relation e = Edges({{1, 2}, {2, 3}, {3, 4}, {7, 8}});
  Relation out(EdgeSchema());
  BranchPtr branch = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("E")), Each("b", Rel("E"))},
      Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  ASSERT_TRUE(RunBranch(branch, {{"f", &e}, {"b", &e}}, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains(Tuple({Value::Int(1), Value::Int(3)})));
  EXPECT_TRUE(out.Contains(Tuple({Value::Int(2), Value::Int(4)})));
}

TEST(BranchExec, HashJoinProbesInsteadOfScanning) {
  // With n tuples on each side joined on equality, the inner side must be
  // probed, not scanned: env_count stays linear, not quadratic.
  Relation left(EdgeSchema());
  Relation right(EdgeSchema());
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(left.Insert(Tuple({Value::Int(i), Value::Int(i + 1)})).ok());
    ASSERT_TRUE(
        right.Insert(Tuple({Value::Int(i + 1), Value::Int(i + 2)})).ok());
  }
  Relation out(EdgeSchema());
  BranchExecStats stats;
  BranchPtr branch = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("L")), Each("b", Rel("R"))},
      Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  ASSERT_TRUE(RunBranch(branch, {{"f", &left}, {"b", &right}}, &out, &stats).ok());
  EXPECT_EQ(out.size(), static_cast<size_t>(n));
  EXPECT_EQ(stats.env_count, static_cast<size_t>(n));
  EXPECT_EQ(stats.inserted, static_cast<size_t>(n));
}

TEST(BranchExec, ThreeWayJoin) {
  Relation e = Edges({{1, 2}, {2, 3}, {3, 4}});
  Relation out(EdgeSchema());
  BranchPtr branch = MakeBranch(
      {FieldRef("a", "src"), FieldRef("c", "dst")},
      {Each("a", Rel("E")), Each("b", Rel("E")), Each("c", Rel("E"))},
      And({Eq(FieldRef("a", "dst"), FieldRef("b", "src")),
           Eq(FieldRef("b", "dst"), FieldRef("c", "src"))}));
  ASSERT_TRUE(RunBranch(branch, {{"a", &e}, {"b", &e}, {"c", &e}}, &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(Tuple({Value::Int(1), Value::Int(4)})));
}

TEST(BranchExec, CrossProductWhenNoJoinPredicate) {
  Relation a = Edges({{1, 1}, {2, 2}});
  Relation b = Edges({{3, 3}, {4, 4}, {5, 5}});
  Relation out(EdgeSchema());
  BranchPtr branch = MakeBranch({FieldRef("x", "src"), FieldRef("y", "src")},
                                {Each("x", Rel("A")), Each("y", Rel("B"))},
                                True());
  ASSERT_TRUE(RunBranch(branch, {{"x", &a}, {"y", &b}}, &out).ok());
  EXPECT_EQ(out.size(), 6u);
}

TEST(BranchExec, SelfJoinOnSameRelationInstance) {
  Relation e = Edges({{1, 2}, {2, 1}});
  Relation out(EdgeSchema());
  BranchPtr branch = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("E")), Each("b", Rel("E"))},
      Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  ASSERT_TRUE(RunBranch(branch, {{"f", &e}, {"b", &e}}, &out).ok());
  // (1,2)+(2,1)->(1,1); (2,1)+(1,2)->(2,2).
  EXPECT_EQ(out.size(), 2u);
}

TEST(BranchExec, ResidualNonEquiPredicate) {
  Relation e = Edges({{1, 2}, {5, 3}});
  Relation out(EdgeSchema());
  BranchPtr branch = IdentityBranch(
      "r", Rel("E"), Lt(FieldRef("r", "src"), FieldRef("r", "dst")));
  ASSERT_TRUE(RunBranch(branch, {{"r", &e}}, &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(Tuple({Value::Int(1), Value::Int(2)})));
}

TEST(BranchExec, KeyViolationSurfacesFromOutput) {
  Relation e = Edges({{1, 2}, {1, 3}});
  // Output declares src as key: both tuples map to key 1 with different
  // payloads.
  Relation out(Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}},
                      {0}));
  BranchPtr branch = IdentityBranch("r", Rel("E"), True());
  EXPECT_EQ(RunBranch(branch, {{"r", &e}}, &out).code(),
            StatusCode::kKeyViolation);
}

TEST(BranchExec, MissingTargetsRequireSingleBinding) {
  Relation e = Edges({{1, 2}});
  Relation out(EdgeSchema());
  BranchPtr branch = std::make_shared<Branch>(
      std::vector<Binding>{Each("a", Rel("E")), Each("b", Rel("E"))}, True());
  EXPECT_EQ(RunBranch(branch, {{"a", &e}, {"b", &e}}, &out).code(),
            StatusCode::kTypeError);
}

/// Property: the hash-join path computes exactly the same result as a
/// brute-force nested loop with the same predicate.
class JoinEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquivalenceTest, MatchesNestedLoopReference) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  std::uniform_int_distribution<int> pick(0, 9);
  Relation left(EdgeSchema());
  Relation right(EdgeSchema());
  for (int i = 0; i < 30; ++i) {
    (void)left.Insert(Tuple({Value::Int(pick(rng)), Value::Int(pick(rng))}));
    (void)right.Insert(Tuple({Value::Int(pick(rng)), Value::Int(pick(rng))}));
  }

  BranchPtr branch = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("L")), Each("b", Rel("R"))},
      Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  Relation out(EdgeSchema());
  ASSERT_TRUE(RunBranch(branch, {{"f", &left}, {"b", &right}}, &out).ok());

  Relation reference(EdgeSchema());
  for (const Tuple& f : left.tuples()) {
    for (const Tuple& b : right.tuples()) {
      if (f.value(1) == b.value(0)) {
        ASSERT_TRUE(
            reference.Insert(Tuple({f.value(0), b.value(1)})).ok());
      }
    }
  }
  EXPECT_TRUE(out.SameTuples(reference));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest, ::testing::Range(0, 10));

TEST(BranchExec, NestedLoopAblationMatchesHashJoin) {
  // With hash joins disabled every equality runs as a filter; the result
  // must be identical (only slower).
  Relation e = Edges({{1, 2}, {2, 3}, {3, 4}, {2, 5}, {5, 3}});
  BranchPtr branch = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("E")), Each("b", Rel("E"))},
      Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  Evaluator eval(nullptr);
  Environment env;
  Relation with_hash(EdgeSchema());
  ASSERT_TRUE(ExecuteBranch(*branch, {{"f", &e}, {"b", &e}}, eval, env,
                            &with_hash)
                  .ok());
  Relation without_hash(EdgeSchema());
  BranchExecOptions options;
  options.use_hash_joins = false;
  BranchExecStats stats;
  ASSERT_TRUE(ExecuteBranch(*branch, {{"f", &e}, {"b", &e}}, eval, env,
                            &without_hash, &stats, options)
                  .ok());
  EXPECT_TRUE(with_hash.SameTuples(without_hash));
  // Nested loop considers the full cross product.
  EXPECT_EQ(stats.env_count, with_hash.size());
}

TEST(BranchExec, OutputAliasingBindingRejected) {
  // Inserting into a relation that is also being scanned/probed would
  // invalidate the scan and bypass the hash index; the executor must
  // refuse outright instead of miscomputing.
  Relation e = Edges({{1, 2}, {2, 3}});
  BranchPtr branch = IdentityBranch("r", Rel("E"), True());
  Status s = RunBranch(branch, {{"r", &e}}, &e);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("aliases binding"), std::string::npos);
}

TEST(BranchExec, StatsCountScansBuildsAndProbes) {
  Relation left = Edges({{1, 2}, {2, 3}, {3, 4}});
  Relation right = Edges({{2, 5}, {3, 6}, {9, 9}});
  Relation out(EdgeSchema());
  BranchExecStats stats;
  BranchPtr branch = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("L")), Each("b", Rel("R"))},
      Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  ASSERT_TRUE(
      RunBranch(branch, {{"f", &left}, {"b", &right}}, &out, &stats).ok());
  EXPECT_EQ(stats.outer_tuples, 3u);   // every left tuple scanned
  EXPECT_EQ(stats.index_builds, 1u);   // one index over the inner side
  EXPECT_EQ(stats.index_probes, 3u);   // one probe per outer tuple
  EXPECT_EQ(stats.env_count, 2u);      // dst 2 and 3 match
  EXPECT_EQ(stats.inserted, 2u);
  EXPECT_EQ(stats.snapshots, 0u);      // serial path takes no snapshot
  EXPECT_EQ(stats.chunks, 0u);
}

TEST(BranchExec, DeterministicCountersAcrossThreadCounts) {
  Relation e(EdgeSchema());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        e.Insert(Tuple({Value::Int(i % 50), Value::Int(i)})).ok());
  }
  BranchPtr branch = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("E")), Each("b", Rel("E"))},
      Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  Evaluator eval(nullptr);
  Environment env;

  BranchExecStats serial_stats;
  Relation serial_out(EdgeSchema());
  ASSERT_TRUE(ExecuteBranch(*branch, {{"f", &e}, {"b", &e}}, eval, env,
                            &serial_out, &serial_stats)
                  .ok());

  BranchExecOptions parallel;
  parallel.num_threads = 8;
  BranchExecStats parallel_stats;
  Relation parallel_out(EdgeSchema());
  ASSERT_TRUE(ExecuteBranch(*branch, {{"f", &e}, {"b", &e}}, eval, env,
                            &parallel_out, &parallel_stats, parallel)
                  .ok());

  EXPECT_EQ(serial_out.SortedTuples(), parallel_out.SortedTuples());
  EXPECT_EQ(serial_stats.env_count, parallel_stats.env_count);
  EXPECT_EQ(serial_stats.inserted, parallel_stats.inserted);
  EXPECT_EQ(serial_stats.outer_tuples, parallel_stats.outer_tuples);
  EXPECT_EQ(serial_stats.index_builds, parallel_stats.index_builds);
  EXPECT_EQ(serial_stats.index_probes, parallel_stats.index_probes);
  // Scheduling detail is allowed to differ — and does.
  EXPECT_EQ(serial_stats.snapshots, 0u);
  EXPECT_EQ(parallel_stats.snapshots, 1u);
  EXPECT_GT(parallel_stats.chunks, 0u);
}

TEST(BranchExec, ParallelErrorMatchesSerialFirstByTupleOrder) {
  // Two different runtime errors are planted on two different outer
  // tuples: 100 DIV (src - 10) explodes at src = 10, 100 MOD (src - 50)
  // at src = 50. Whichever comes first in tuple order defines THE error
  // of this branch; the parallel path must report exactly that one, not
  // whichever chunk's worker happened to fail first.
  Relation e(EdgeSchema());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(e.Insert(Tuple({Value::Int(i), Value::Int(i)})).ok());
  }
  BranchPtr branch = MakeBranch(
      {Arith(ArithOp::kDiv, Int(100), Sub(FieldRef("r", "src"), Int(10))),
       Arith(ArithOp::kMod, Int(100), Sub(FieldRef("r", "src"), Int(50)))},
      {Each("r", Rel("E"))}, True());
  Evaluator eval(nullptr);
  Environment env;

  Relation serial_out(EdgeSchema());
  Status serial =
      ExecuteBranch(*branch, {{"r", &e}}, eval, env, &serial_out);
  ASSERT_EQ(serial.code(), StatusCode::kInvalidArgument)
      << serial.ToString();

  // The parallel abort flag makes chunk completion order racy; repeat a
  // few times so a lucky schedule cannot hide a wrong-error bug.
  BranchExecOptions parallel;
  parallel.num_threads = 8;
  for (int attempt = 0; attempt < 5; ++attempt) {
    Relation parallel_out(EdgeSchema());
    Status s = ExecuteBranch(*branch, {{"r", &e}}, eval, env, &parallel_out,
                             nullptr, parallel);
    EXPECT_EQ(s.ToString(), serial.ToString()) << "attempt " << attempt;
  }
}

}  // namespace
}  // namespace datacon
