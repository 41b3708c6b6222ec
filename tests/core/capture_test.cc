#include "core/capture.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "ast/builder.h"
#include "core/catalog.h"
#include "core/database.h"
#include "lang/interpreter.h"
#include "testutil.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests
using testing::ReferenceClosure;
using testing::ToPairSet;

Schema EdgeSchema() {
  return Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}});
}

ConstructorDeclPtr MakeCtor(CalcExprPtr body) {
  return std::make_shared<ConstructorDecl>(
      "tc", FormalRelation{"Rel", "edge"}, std::vector<FormalRelation>{},
      std::vector<FormalScalar>{}, "edge", std::move(body));
}

BranchPtr BaseBranch() { return IdentityBranch("r", Rel("Rel"), True()); }

BranchPtr LeftLinearStep() {
  return MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                    {Each("f", Rel("Rel")),
                     Each("b", Constructed(Rel("Rel"), "tc"))},
                    Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
}

TEST(DetectTc, AheadShapeMatches) {
  auto info = DetectTransitiveClosure(*MakeCtor(Union({BaseBranch(),
                                                       LeftLinearStep()})));
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->left_linear);
}

TEST(DetectTc, BranchOrderIrrelevant) {
  EXPECT_TRUE(DetectTransitiveClosure(
                  *MakeCtor(Union({LeftLinearStep(), BaseBranch()})))
                  .has_value());
}

TEST(DetectTc, FlippedEqualityMatches) {
  BranchPtr step = MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                              {Each("f", Rel("Rel")),
                               Each("b", Constructed(Rel("Rel"), "tc"))},
                              Eq(FieldRef("b", "src"), FieldRef("f", "dst")));
  EXPECT_TRUE(DetectTransitiveClosure(*MakeCtor(Union({BaseBranch(), step})))
                  .has_value());
}

TEST(DetectTc, RightLinearMatches) {
  // <b.src, f.dst> OF EACH f IN Rel, EACH b IN Rel{tc}: b.dst = f.src.
  BranchPtr step = MakeBranch({FieldRef("b", "src"), FieldRef("f", "dst")},
                              {Each("f", Rel("Rel")),
                               Each("b", Constructed(Rel("Rel"), "tc"))},
                              Eq(FieldRef("b", "dst"), FieldRef("f", "src")));
  auto info = DetectTransitiveClosure(*MakeCtor(Union({BaseBranch(), step})));
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->left_linear);
}

TEST(DetectTc, ExplicitProjectionBaseBranchMatches) {
  BranchPtr base = MakeBranch({FieldRef("r", "src"), FieldRef("r", "dst")},
                              {Each("r", Rel("Rel"))}, True());
  EXPECT_TRUE(DetectTransitiveClosure(
                  *MakeCtor(Union({base, LeftLinearStep()})))
                  .has_value());
}

TEST(DetectTc, RejectsFilteredBase) {
  BranchPtr base = IdentityBranch("r", Rel("Rel"),
                                  Eq(FieldRef("r", "src"), Int(0)));
  EXPECT_FALSE(DetectTransitiveClosure(
                   *MakeCtor(Union({base, LeftLinearStep()})))
                   .has_value());
}

TEST(DetectTc, RejectsExtraJoinConjunct) {
  BranchPtr step = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("Rel")), Each("b", Constructed(Rel("Rel"), "tc"))},
      And({Eq(FieldRef("f", "dst"), FieldRef("b", "src")),
           Ne(FieldRef("f", "src"), FieldRef("b", "dst"))}));
  EXPECT_FALSE(DetectTransitiveClosure(*MakeCtor(Union({BaseBranch(), step})))
                   .has_value());
}

TEST(DetectTc, RejectsThreeBranches) {
  EXPECT_FALSE(DetectTransitiveClosure(*MakeCtor(Union(
                   {BaseBranch(), LeftLinearStep(), LeftLinearStep()})))
                   .has_value());
}

TEST(DetectTc, RejectsParameterizedConstructor) {
  auto decl = std::make_shared<ConstructorDecl>(
      "tc", FormalRelation{"Rel", "edge"},
      std::vector<FormalRelation>{{"P", "edge"}}, std::vector<FormalScalar>{},
      "edge", Union({BaseBranch(), LeftLinearStep()}));
  EXPECT_FALSE(DetectTransitiveClosure(*decl).has_value());
}

TEST(DetectTc, RejectsWrongProjection) {
  // <f.dst, b.dst> — source column from the join side.
  BranchPtr step = MakeBranch({FieldRef("f", "dst"), FieldRef("b", "dst")},
                              {Each("f", Rel("Rel")),
                               Each("b", Constructed(Rel("Rel"), "tc"))},
                              Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  EXPECT_FALSE(DetectTransitiveClosure(*MakeCtor(Union({BaseBranch(), step})))
                   .has_value());
}

TEST(DetectTc, RejectsRecursionThroughOtherConstructor) {
  BranchPtr step = MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst")},
                              {Each("f", Rel("Rel")),
                               Each("b", Constructed(Rel("Rel"), "other"))},
                              Eq(FieldRef("f", "dst"), FieldRef("b", "src")));
  EXPECT_FALSE(DetectTransitiveClosure(*MakeCtor(Union({BaseBranch(), step})))
                   .has_value());
}

// --- The position check (DetectCapturedClosure) ------------------------

ConstructorDeclPtr MakeCtorOver(const std::string& base_type,
                                const std::string& result_type,
                                CalcExprPtr body) {
  return std::make_shared<ConstructorDecl>(
      "tc", FormalRelation{"Rel", base_type}, std::vector<FormalRelation>{},
      std::vector<FormalScalar>{}, result_type, std::move(body));
}

class CapturedClosureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.DefineRelationType("edge", EdgeSchema()).ok());
    ASSERT_TRUE(catalog_
                    .DefineRelationType(
                        "pair", Schema({{"head", ValueType::kInt},
                                        {"tail", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .DefineRelationType(
                        "wide", Schema({{"src", ValueType::kInt},
                                        {"dst", ValueType::kInt},
                                        {"w", ValueType::kInt}}))
                    .ok());
  }

  bool Captured(const ConstructorDecl& decl) const {
    return DetectCapturedClosure(decl, catalog_).has_value();
  }

  Catalog catalog_;
};

TEST_F(CapturedClosureTest, AcceptsEveryClosureOrientation) {
  EXPECT_TRUE(Captured(*MakeCtor(Union({BaseBranch(), LeftLinearStep()}))));
  BranchPtr right = MakeBranch({FieldRef("b", "src"), FieldRef("f", "dst")},
                               {Each("f", Rel("Rel")),
                                Each("b", Constructed(Rel("Rel"), "tc"))},
                               Eq(FieldRef("b", "dst"), FieldRef("f", "src")));
  EXPECT_TRUE(Captured(*MakeCtor(Union({BaseBranch(), right}))));
  BranchPtr base = MakeBranch({FieldRef("r", "src"), FieldRef("r", "dst")},
                              {Each("r", Rel("Rel"))}, True());
  EXPECT_TRUE(Captured(*MakeCtor(Union({base, LeftLinearStep()}))));
  // The `ahead` form: the result type names its fields differently.
  BranchPtr ahead = MakeBranch({FieldRef("f", "src"), FieldRef("b", "tail")},
                               {Each("f", Rel("Rel")),
                                Each("b", Constructed(Rel("Rel"), "tc"))},
                               Eq(FieldRef("f", "dst"), FieldRef("b", "head")));
  EXPECT_TRUE(
      Captured(*MakeCtorOver("edge", "pair", Union({BaseBranch(), ahead}))));
}

TEST_F(CapturedClosureTest, RejectsShapesThatMatchOnlyByName) {
  // Each row passes DetectTransitiveClosure, which reads field names only;
  // by position it is not a transitive closure, so it must not be captured.
  struct Row {
    const char* name;
    ConstructorDeclPtr decl;
  };
  const Row rows[] = {
      {"step projects and joins the swapped fields",
       MakeCtor(Union(
           {BaseBranch(),
            MakeBranch({FieldRef("f", "dst"), FieldRef("b", "dst")},
                       {Each("f", Rel("Rel")),
                        Each("b", Constructed(Rel("Rel"), "tc"))},
                       Eq(FieldRef("f", "src"), FieldRef("b", "src")))}))},
      {"reversed base branch <r.dst, r.src>",
       MakeCtor(Union({MakeBranch({FieldRef("r", "dst"), FieldRef("r", "src")},
                                  {Each("r", Rel("Rel"))}, True()),
                       LeftLinearStep()}))},
      {"mis-oriented right-linear mirror",
       MakeCtor(Union(
           {BaseBranch(),
            MakeBranch({FieldRef("b", "dst"), FieldRef("f", "src")},
                       {Each("f", Rel("Rel")),
                        Each("b", Constructed(Rel("Rel"), "tc"))},
                       Eq(FieldRef("b", "src"), FieldRef("f", "dst")))}))},
      {"ternary base",
       MakeCtorOver(
           "wide", "edge",
           Union({MakeBranch({FieldRef("r", "src"), FieldRef("r", "dst")},
                             {Each("r", Rel("Rel"))}, True()),
                  LeftLinearStep()}))},
  };
  for (const Row& row : rows) {
    EXPECT_TRUE(DetectTransitiveClosure(*row.decl).has_value()) << row.name;
    EXPECT_FALSE(Captured(*row.decl)) << row.name;
  }
}

Relation LoadEdges(const workload::EdgeList& g) {
  Relation r(EdgeSchema());
  for (const auto& [a, b] : g.edges) {
    EXPECT_TRUE(r.Insert(Tuple({Value::Int(a), Value::Int(b)})).ok());
  }
  return r;
}

class ClosureAlgoTest : public ::testing::TestWithParam<int> {};

TEST_P(ClosureAlgoTest, FullClosureMatchesReference) {
  workload::EdgeList g =
      workload::RandomDigraph(14, 30, static_cast<uint64_t>(GetParam()));
  Relation edges = LoadEdges(g);
  Result<Relation> closure = FullClosure(edges, EdgeSchema());
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(ToPairSet(*closure), ReferenceClosure(g));
}

TEST_P(ClosureAlgoTest, SeededClosureIsRestrictedReference) {
  workload::EdgeList g =
      workload::RandomDigraph(14, 30, static_cast<uint64_t>(GetParam()));
  Relation edges = LoadEdges(g);
  std::set<std::pair<int, int>> reference = ReferenceClosure(g);
  for (int seed_node : {0, 3, 7}) {
    Result<Relation> closure =
        SeededClosure(edges, {Value::Int(seed_node)}, EdgeSchema());
    ASSERT_TRUE(closure.ok());
    std::set<std::pair<int, int>> expected;
    for (const auto& [a, b] : reference) {
      if (a == seed_node) expected.emplace(a, b);
    }
    EXPECT_EQ(ToPairSet(*closure), expected) << "seed " << seed_node;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureAlgoTest, ::testing::Range(0, 8));

TEST(Closure, CycleIncludesSelfPairs) {
  Relation edges = LoadEdges(workload::Cycle(3));
  Result<Relation> closure = FullClosure(edges, EdgeSchema());
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->size(), 9u);
  EXPECT_TRUE(closure->Contains(Tuple({Value::Int(0), Value::Int(0)})));
}

TEST(Closure, SeededWithMultipleSeeds) {
  Relation edges = LoadEdges(workload::Chain(5));
  Result<Relation> closure = SeededClosure(
      edges, {Value::Int(0), Value::Int(3)}, EdgeSchema());
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->size(), 5u);  // 0->{1,2,3,4}, 3->{4}
}

TEST(Closure, SeedWithNoOutEdges) {
  Relation edges = LoadEdges(workload::Chain(3));
  Result<Relation> closure = SeededClosure(edges, {Value::Int(2)}, EdgeSchema());
  ASSERT_TRUE(closure.ok());
  EXPECT_TRUE(closure->empty());
}

TEST(Closure, NonBinaryRelationRejected) {
  Relation unary(Schema({{"x", ValueType::kInt}}));
  EXPECT_EQ(FullClosure(unary, unary.schema()).status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(SeededClosure(unary, {Value::Int(0)}, unary.schema())
                .status()
                .code(),
            StatusCode::kTypeError);
}

// --- End to end: the capture rule never changes an answer ---------------

/// Every query answer of `script` as sorted tuple renderings, with the
/// capture rule on or off.
std::vector<std::set<std::string>> Answers(const std::string& script,
                                           bool capture) {
  DatabaseOptions options;
  options.use_capture_rules = capture;
  Database db(options);
  Interpreter interp(&db);
  Status s = interp.Execute(script);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<std::set<std::string>> out;
  for (const Interpreter::QueryResult& r : interp.results()) {
    std::set<std::string> rows;
    for (const Tuple& t : r.relation.tuples()) rows.insert(t.ToString());
    out.push_back(std::move(rows));
  }
  return out;
}

TEST(CaptureRule, AnswersEqualGenericEvaluation) {
  // Closure-shaped bodies over E = {<1,2>, <1,3>, <2,4>}, evaluated
  // in full (`E {c}`) and seeded (`v.front = 1`). The first two are
  // transitive closures and are captured; the other three only look like
  // one by field names and run generically.
  struct Shape {
    const char* base;
    const char* step;
    bool captured;
  };
  const Shape shapes[] = {
      {"EACH r IN Rel: TRUE",
       "<f.front, b.back> OF EACH f IN Rel, EACH b IN Rel {c}: "
       "f.back = b.front",
       true},
      {"<r.front, r.back> OF EACH r IN Rel: TRUE",
       "<b.front, f.back> OF EACH f IN Rel, EACH b IN Rel {c}: "
       "b.back = f.front",
       true},
      {"EACH r IN Rel: TRUE",
       "<f.back, b.back> OF EACH f IN Rel, EACH b IN Rel {c}: "
       "f.front = b.front",
       false},
      {"<r.back, r.front> OF EACH r IN Rel: TRUE",
       "<f.front, b.back> OF EACH f IN Rel, EACH b IN Rel {c}: "
       "f.back = b.front",
       false},
      {"EACH r IN Rel: TRUE",
       "<b.back, f.front> OF EACH f IN Rel, EACH b IN Rel {c}: "
       "b.front = f.back",
       false},
  };
  for (const Shape& shape : shapes) {
    const std::string script =
        std::string(
            "TYPE pairrel = RELATION OF RECORD front, back: INTEGER END;\n"
            "VAR E: pairrel;\n"
            "CONSTRUCTOR c FOR Rel: pairrel (): pairrel;\n"
            "BEGIN ") +
        shape.base + ",\n  " + shape.step +
        "\nEND c;\n"
        "INSERT INTO E <1, 2>, <1, 3>, <2, 4>;\n"
        "QUERY E {c};\n"
        "QUERY {EACH v IN E {c}: v.front = 1};\n";
    std::vector<std::set<std::string>> on = Answers(script, true);
    std::vector<std::set<std::string>> off = Answers(script, false);
    ASSERT_EQ(on.size(), 2u) << shape.step;
    EXPECT_EQ(on[0], off[0]) << "full: " << shape.base << ", " << shape.step;
    EXPECT_EQ(on[1], off[1]) << "seeded: " << shape.base << ", "
                             << shape.step;

    Database db;
    Interpreter interp(&db);
    ASSERT_TRUE(interp.Execute(script).ok());
    Result<std::string> explain = db.Explain(Constructed(Rel("E"), "c"));
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_EQ(explain->find("capture rule") != std::string::npos,
              shape.captured)
        << *explain;
  }
}

}  // namespace
}  // namespace datacon
