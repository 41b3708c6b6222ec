#include "core/access_path.h"

#include <gtest/gtest.h>

#include "ast/builder.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

CalcExprPtr SourceForm() {
  return Union({IdentityBranch(
      "r", Constructed(Rel("g_E"), "g_tc"),
      Eq(FieldRef("r", "src"), Param("start")))});
}

TEST(PhysicalAccessPath, ProbesMatchPerParameterQueries) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g",
                                     workload::RandomDigraph(16, 32, 4))
                  .ok());
  Result<PhysicalAccessPath> path =
      PhysicalAccessPath::Build(&db, SourceForm(), "start");
  ASSERT_TRUE(path.ok()) << path.status().ToString();

  Result<PreparedQuery> prepared =
      db.Prepare(SourceForm(), {{"start", ValueType::kInt}});
  ASSERT_TRUE(prepared.ok());

  for (int node = 0; node < 16; ++node) {
    Result<Relation> probed = path->Execute(Value::Int(node));
    ASSERT_TRUE(probed.ok());
    Result<Relation> computed =
        prepared->Execute({{"start", Value::Int(node)}});
    ASSERT_TRUE(computed.ok());
    EXPECT_TRUE(probed->SameTuples(*computed)) << "node " << node;
  }
}

TEST(PhysicalAccessPath, MaterializesTheFullForm) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(10)).ok());
  Result<PhysicalAccessPath> path =
      PhysicalAccessPath::Build(&db, SourceForm(), "start");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->materialized_size(), 45u);  // 10*9/2
}

TEST(PhysicalAccessPath, ResidualConjunctsApplyAtBuildTime) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(10)).ok());
  CalcExprPtr form = Union({IdentityBranch(
      "r", Constructed(Rel("g_E"), "g_tc"),
      And({Eq(FieldRef("r", "src"), Param("start")),
           Ne(FieldRef("r", "dst"), Int(5))}))});
  Result<PhysicalAccessPath> path =
      PhysicalAccessPath::Build(&db, form, "start");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  Result<Relation> from0 = path->Execute(Value::Int(0));
  ASSERT_TRUE(from0.ok());
  EXPECT_EQ(from0->size(), 8u);  // (0,1..9) minus (0,5)
  EXPECT_FALSE(from0->Contains(Tuple({Value::Int(0), Value::Int(5)})));
}

TEST(PhysicalAccessPath, TargetListFormsSupported) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(6)).ok());
  // <r.dst, r.src> OF ... : r.src = start — the bound attribute sits at
  // target position 1.
  CalcExprPtr form = Union({MakeBranch(
      {FieldRef("r", "dst"), FieldRef("r", "src")},
      {Each("r", Constructed(Rel("g_E"), "g_tc"))},
      Eq(FieldRef("r", "src"), Param("start")))});
  Result<PhysicalAccessPath> path =
      PhysicalAccessPath::Build(&db, form, "start");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  Result<Relation> from2 = path->Execute(Value::Int(2));
  ASSERT_TRUE(from2.ok());
  EXPECT_EQ(from2->size(), 3u);
  EXPECT_TRUE(from2->Contains(Tuple({Value::Int(5), Value::Int(2)})));
}

TEST(PhysicalAccessPath, UnknownValueYieldsEmpty) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  Result<PhysicalAccessPath> path =
      PhysicalAccessPath::Build(&db, SourceForm(), "start");
  ASSERT_TRUE(path.ok());
  Result<Relation> missing = path->Execute(Value::Int(99));
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
}

TEST(PhysicalAccessPath, RejectsMultiBranchForms) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  CalcExprPtr form = Union({
      IdentityBranch("r", Rel("g_E"), Eq(FieldRef("r", "src"), Param("p"))),
      IdentityBranch("q", Rel("g_E"), True()),
  });
  EXPECT_EQ(PhysicalAccessPath::Build(&db, form, "p").status().code(),
            StatusCode::kUnsupported);
}

TEST(PhysicalAccessPath, RejectsFormsWithoutParamEquality) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  CalcExprPtr form = Union({IdentityBranch(
      "r", Rel("g_E"), Lt(FieldRef("r", "src"), Param("p")))});
  EXPECT_EQ(PhysicalAccessPath::Build(&db, form, "p").status().code(),
            StatusCode::kUnsupported);
}

TEST(PhysicalAccessPath, RejectsParamOutsideBindingEquality) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  CalcExprPtr form = Union({IdentityBranch(
      "r", Rel("g_E"),
      And({Eq(FieldRef("r", "src"), Param("p")),
           Ne(FieldRef("r", "dst"), Param("p"))}))});
  EXPECT_EQ(PhysicalAccessPath::Build(&db, form, "p").status().code(),
            StatusCode::kUnsupported);
}

TEST(PhysicalAccessPath, RejectsParamInTargetList) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  CalcExprPtr form = Union({MakeBranch(
      {FieldRef("r", "dst"), Param("start")},
      {Each("r", Constructed(Rel("g_E"), "g_tc"))},
      Eq(FieldRef("r", "src"), Param("start")))});
  Result<PhysicalAccessPath> path =
      PhysicalAccessPath::Build(&db, form, "start");
  EXPECT_EQ(path.status().code(), StatusCode::kUnsupported)
      << path.status().ToString();
}

TEST(PhysicalAccessPath, RejectsParamInMembershipSelectorArgument) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  ASSERT_TRUE(db.DefineSelector(std::make_shared<SelectorDecl>(
                                    "src_is", FormalRelation{"Rel", "g_edgerel"},
                                    std::vector<FormalScalar>{
                                        {"n", ValueType::kInt}},
                                    "s", Eq(FieldRef("s", "src"), Param("n"))))
                  .ok());
  CalcExprPtr form = Union({IdentityBranch(
      "r", Constructed(Rel("g_E"), "g_tc"),
      And({Eq(FieldRef("r", "src"), Param("start")),
           In({FieldRef("r", "src"), FieldRef("r", "dst")},
              Selected(Rel("g_E"), "src_is", {Param("start")}))}))});
  Result<PhysicalAccessPath> path =
      PhysicalAccessPath::Build(&db, form, "start");
  EXPECT_EQ(path.status().code(), StatusCode::kUnsupported)
      << path.status().ToString();
}

TEST(PhysicalAccessPath, SnapshotSemantics) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  Result<PhysicalAccessPath> path =
      PhysicalAccessPath::Build(&db, SourceForm(), "start");
  ASSERT_TRUE(path.ok());
  size_t before = path->Execute(Value::Int(0)).value().size();
  // New facts do not appear until rebuild.
  ASSERT_TRUE(db.Insert("g_E", Tuple({Value::Int(3), Value::Int(9)})).ok());
  EXPECT_EQ(path->Execute(Value::Int(0)).value().size(), before);
  Result<PhysicalAccessPath> rebuilt =
      PhysicalAccessPath::Build(&db, SourceForm(), "start");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_GT(rebuilt->Execute(Value::Int(0)).value().size(), before);
}

}  // namespace
}  // namespace datacon
