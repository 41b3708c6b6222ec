#include "core/rewrite.h"

#include <gtest/gtest.h>

#include "ast/builder.h"
#include "ast/printer.h"
#include "core/database.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

class RewriteTest : public ::testing::Test {
 protected:
  RewriteTest() {
    EXPECT_TRUE(db_.DefineRelationType(
                       "edge", Schema({{"src", ValueType::kInt},
                                       {"dst", ValueType::kInt}}))
                    .ok());
    EXPECT_TRUE(db_.CreateRelation("E", "edge").ok());
    // ahead_2-style non-recursive constructor (the paper's first example).
    auto body = Union(
        {IdentityBranch("r", Rel("Rel"), True()),
         MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                    {Each("f", Rel("Rel")), Each("b", Rel("Rel"))},
                    Eq(FieldRef("f", "dst"), FieldRef("b", "src")))});
    EXPECT_TRUE(db_.DefineConstructor(std::make_shared<ConstructorDecl>(
                       "ahead_2", FormalRelation{"Rel", "edge"},
                       std::vector<FormalRelation>{},
                       std::vector<FormalScalar>{}, "edge", body))
                    .ok());
    // Recursive closure for seeded detection.
    auto tc_body = Union(
        {IdentityBranch("r", Rel("Rel"), True()),
         MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                    {Each("f", Rel("Rel")),
                     Each("b", Constructed(Rel("Rel"), "tc"))},
                    Eq(FieldRef("f", "dst"), FieldRef("b", "src")))});
    EXPECT_TRUE(db_.DefineConstructor(std::make_shared<ConstructorDecl>(
                       "tc", FormalRelation{"Rel", "edge"},
                       std::vector<FormalRelation>{},
                       std::vector<FormalScalar>{}, "edge", tc_body))
                    .ok());
  }

  Database db_;
};

TEST_F(RewriteTest, InlinesNonRecursiveApplication) {
  // {EACH v IN E{ahead_2}: v.src = 1} unfolds into two branches over E.
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("E"), "ahead_2"),
      Eq(FieldRef("v", "src"), Int(1)))});
  Result<std::optional<CalcExprPtr>> out =
      InlineNonRecursiveApplications(query, db_.catalog());
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out.value().has_value());
  const CalcExpr& rewritten = **out.value();
  ASSERT_EQ(rewritten.branches().size(), 2u);
  // No branch ranges over a constructed relation anymore.
  for (const BranchPtr& b : rewritten.branches()) {
    for (const Binding& binding : b->bindings()) {
      EXPECT_FALSE(binding.range->ContainsConstructor());
    }
    // Every branch got explicit targets.
    EXPECT_TRUE(b->targets().has_value());
  }
}

TEST_F(RewriteTest, InlinedQueryComputesSameResult) {
  ASSERT_TRUE(workload::LoadEdges(&db_, "E",
                                  workload::RandomDigraph(8, 14, 3))
                  .ok());
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("E"), "ahead_2"),
      Eq(FieldRef("v", "src"), Int(1)))});

  db_.options().inline_nonrecursive = false;
  Result<Relation> plain = db_.EvalQuery(query);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  db_.options().inline_nonrecursive = true;
  Result<Relation> inlined = db_.EvalQuery(query);
  ASSERT_TRUE(inlined.ok()) << inlined.status().ToString();
  EXPECT_TRUE(plain->SameTuples(*inlined));
}

TEST_F(RewriteTest, RecursiveApplicationIsLeftAlone) {
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("E"), "tc"), True())});
  Result<std::optional<CalcExprPtr>> out =
      InlineNonRecursiveApplications(query, db_.catalog());
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().has_value());
}

TEST_F(RewriteTest, PlainQueryIsLeftAlone) {
  CalcExprPtr query = Union({IdentityBranch("v", Rel("E"), True())});
  Result<std::optional<CalcExprPtr>> out =
      InlineNonRecursiveApplications(query, db_.catalog());
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().has_value());
}

TEST_F(RewriteTest, InlinePreservesOtherBindings) {
  // A join of a plain binding with a constructed one.
  CalcExprPtr query = Union({MakeBranch(
      {FieldRef("w", "src"), FieldRef("v", "dst")},
      {Each("w", Rel("E")), Each("v", Constructed(Rel("E"), "ahead_2"))},
      Eq(FieldRef("w", "dst"), FieldRef("v", "src")))});
  Result<std::optional<CalcExprPtr>> out =
      InlineNonRecursiveApplications(query, db_.catalog());
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out.value().has_value());
  for (const BranchPtr& b : (*out.value())->branches()) {
    // w's binding survives in every unfolded branch.
    EXPECT_EQ(b->bindings()[0].var, "w");
  }
}

TEST_F(RewriteTest, DetectSeededTcOnLiteral) {
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("E"), "tc"), Eq(FieldRef("v", "src"), Int(0)))});
  Result<std::optional<SeededTcPlan>> plan =
      DetectSeededTc(*query, db_.catalog());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().has_value());
  EXPECT_EQ(ToString(*plan.value()->edges_range), "E");
  ASSERT_TRUE(plan.value()->seed_literal.has_value());
  EXPECT_EQ(*plan.value()->seed_literal, Value::Int(0));
}

TEST_F(RewriteTest, DetectSeededTcOnParameter) {
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("E"), "tc"),
      Eq(Param("start"), FieldRef("v", "src")))});
  Result<std::optional<SeededTcPlan>> plan =
      DetectSeededTc(*query, db_.catalog());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().has_value());
  ASSERT_TRUE(plan.value()->seed_param.has_value());
  EXPECT_EQ(*plan.value()->seed_param, "start");
}

TEST_F(RewriteTest, NoSeededTcWithoutSourceBinding) {
  // Binding the *target* column does not trigger the forward-seeded plan.
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("E"), "tc"), Eq(FieldRef("v", "dst"), Int(0)))});
  Result<std::optional<SeededTcPlan>> plan =
      DetectSeededTc(*query, db_.catalog());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().has_value());
}

TEST_F(RewriteTest, NoSeededTcForNonTcConstructor) {
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("E"), "ahead_2"),
      Eq(FieldRef("v", "src"), Int(0)))});
  // ahead_2 is non-recursive, so it is not a TC shape... but it is also
  // inlined earlier in the pipeline; Detect itself must not fire.
  Result<std::optional<SeededTcPlan>> plan =
      DetectSeededTc(*query, db_.catalog());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().has_value());
}

TEST_F(RewriteTest, NoSeededTcUnlessThePlanAnswersTheWholeQuery) {
  // The seeded plan replaces the closure binding only, so it applies to a
  // single branch whose closure binding is its only constructed range.
  BranchPtr seeded = IdentityBranch("v", Constructed(Rel("E"), "tc"),
                                    Eq(FieldRef("v", "src"), Int(0)));
  const CalcExprPtr queries[] = {
      // A second branch.
      Union({seeded, IdentityBranch("w", Rel("E"), True())}),
      // A second constructed binding.
      Union({MakeBranch(
          {FieldRef("v", "src"), FieldRef("w", "dst")},
          {Each("v", Constructed(Rel("E"), "tc")),
           Each("w", Constructed(Rel("E"), "tc"))},
          And({Eq(FieldRef("v", "src"), Int(0)),
               Eq(FieldRef("v", "dst"), FieldRef("w", "src"))}))}),
      // A constructed range in the predicate.
      Union({IdentityBranch(
          "v", Constructed(Rel("E"), "tc"),
          And({Eq(FieldRef("v", "src"), Int(0)),
               Some("w", Constructed(Rel("E"), "tc"),
                    Eq(FieldRef("w", "src"), FieldRef("v", "dst")))}))}),
  };
  for (const CalcExprPtr& query : queries) {
    Result<std::optional<SeededTcPlan>> plan =
        DetectSeededTc(*query, db_.catalog());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_FALSE(plan.value().has_value()) << ToString(*query);
  }
}

TEST_F(RewriteTest, SeededTcWithResidualConjuncts) {
  ASSERT_TRUE(workload::LoadEdges(&db_, "E", workload::Chain(10)).ok());
  // v.src = 0 AND v.dst # 3 — the seed equality triggers the plan; the
  // residual conjunct filters afterwards.
  CalcExprPtr query = Union({IdentityBranch(
      "v", Constructed(Rel("E"), "tc"),
      And({Eq(FieldRef("v", "src"), Int(0)),
           Ne(FieldRef("v", "dst"), Int(3))}))});
  db_.options().use_capture_rules = true;
  Result<Relation> seeded = db_.EvalQuery(query);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  db_.options().use_capture_rules = false;
  Result<Relation> plain = db_.EvalQuery(query);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(seeded->SameTuples(*plain));
  EXPECT_EQ(seeded->size(), 8u);  // (0,1..9) minus (0,3)
}

}  // namespace
}  // namespace datacon
