// Failure-injection and stress tests: deep recursion, instantiation
// explosions, iteration bounds, hostile parser input, and unusual values.

#include <gtest/gtest.h>

#include "ast/builder.h"
#include "core/database.h"
#include "lang/parser.h"
#include "workload/generators.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

TEST(Robustness, DeepChainFixpoint) {
  // 512 fixpoint rounds, ~131k derived tuples — no stack or memory issues.
  Database db;
  db.options().use_capture_rules = false;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(512)).ok());
  Result<Relation> r =
      db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 512u * 511u / 2u);
  EXPECT_EQ(db.last_stats().iterations, 512u);
}

TEST(Robustness, IterationBoundTripsOnDeepData) {
  Database db;
  db.options().use_capture_rules = false;
  db.options().eval.max_iterations = 10;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(64)).ok());
  Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
  EXPECT_EQ(r.status().code(), StatusCode::kDivergence);
}

TEST(Robustness, InstantiationExplosionIsBounded) {
  // A constructor whose argument grows a selector suffix at each level
  // never closes under substitution; instantiation must stop at its node
  // bound instead of looping.
  Database db;
  ASSERT_TRUE(db.DefineRelationType(
                    "edge", Schema({{"src", ValueType::kInt},
                                    {"dst", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation("E", "edge").ok());
  auto sel = std::make_shared<SelectorDecl>(
      "keep", FormalRelation{"Rel", "edge"}, std::vector<FormalScalar>{},
      "r", True());
  ASSERT_TRUE(db.DefineSelector(sel).ok());
  // c FOR Rel (P): body references P{c(Rel[keep])} — each instantiation
  // wraps the argument in one more [keep].
  auto body = Union(
      {IdentityBranch("r", Rel("Rel"), True()),
       IdentityBranch("x",
                      Constructed(Rel("P"), "c",
                                  {Selected(Rel("Rel"), "keep")}),
                      True())});
  auto decl = std::make_shared<ConstructorDecl>(
      "c", FormalRelation{"Rel", "edge"},
      std::vector<FormalRelation>{{"P", "edge"}},
      std::vector<FormalScalar>{}, "edge", body);
  ASSERT_TRUE(db.DefineConstructor(decl).ok());

  Result<Relation> r =
      db.EvalRange(Constructed(Rel("E"), "c", {Rel("E")}));
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(r.status().message().find("does not close"), std::string::npos);
}

TEST(Robustness, ParserSurvivesHostileInput) {
  const char* inputs[] = {
      "",
      ";",
      "TYPE",
      "TYPE x",
      "TYPE x = RELATION OF RECORD END;",
      "CONSTRUCTOR FOR x;",
      "QUERY {};",
      "QUERY {EACH};",
      "VAR : t;",
      "INSERT INTO;",
      "((((((((((",
      "TYPE t = RELATION OF RECORD a: INTEGER END; VAR R: t; "
      "QUERY {EACH r IN R: r.a = };",
      "\"unterminated",
      "CONSTRUCTOR c FOR Rel: t (): t; BEGIN EACH r IN Rel: TRUE END d;",
  };
  for (const char* input : inputs) {
    Result<Script> script = ParseScript(input);
    if (std::string(input).empty()) {
      EXPECT_TRUE(script.ok());
      continue;
    }
    EXPECT_FALSE(script.ok()) << "accepted: " << input;
    EXPECT_EQ(script.status().code(), StatusCode::kParseError) << input;
  }
}

TEST(Robustness, DeeplyNestedPredicatesParse) {
  std::string pred = "r.a = 1";
  for (int i = 0; i < 200; ++i) pred = "NOT (" + pred + ")";
  std::string source =
      "TYPE t = RELATION OF RECORD a: INTEGER END; VAR R: t; "
      "QUERY {EACH r IN R: " + pred + "};";
  Result<Script> script = ParseScript(source);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
}

TEST(Robustness, WideUnionQuery) {
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(6)).ok());
  std::vector<BranchPtr> branches;
  for (int i = 0; i < 100; ++i) {
    std::string var = "r";
    var += std::to_string(i);
    branches.push_back(IdentityBranch(var, Rel("g_E"),
                                      Eq(FieldRef(var, "src"), Int(i % 6))));
  }
  Result<Relation> r = db.EvalQuery(Union(std::move(branches)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);  // all edges qualify under some branch
}

TEST(Robustness, EmptyStringAndExtremeValues) {
  Database db;
  ASSERT_TRUE(db.DefineRelationType(
                    "t", Schema({{"s", ValueType::kString},
                                 {"n", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation("R", "t").ok());
  ASSERT_TRUE(db.Insert("R", Tuple({Value::String(""),
                                    Value::Int(INT64_MIN)}))
                  .ok());
  ASSERT_TRUE(db.Insert("R", Tuple({Value::String(std::string(10000, 'x')),
                                    Value::Int(INT64_MAX)}))
                  .ok());
  Result<Relation> r = db.EvalQuery(Union({IdentityBranch(
      "r", Rel("R"), Eq(FieldRef("r", "s"), Str("")))}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
}

TEST(Robustness, SelfLoopGraphClosure) {
  Database db;
  workload::EdgeList g;
  g.node_count = 3;
  g.edges = {{0, 0}, {0, 1}, {1, 1}};
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
  for (bool capture : {false, true}) {
    db.options().use_capture_rules = capture;
    Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 3u);
  }
}

TEST(Robustness, DivisionByZeroSurfacesFromQuery) {
  Database db;
  ASSERT_TRUE(db.DefineRelationType(
                    "t", Schema({{"n", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation("R", "t").ok());
  ASSERT_TRUE(db.Insert("R", Tuple({Value::Int(0)})).ok());
  Result<Relation> r = db.EvalQuery(Union({IdentityBranch(
      "r", Rel("R"),
      Eq(Arith(ArithOp::kDiv, Int(1), FieldRef("r", "n")), Int(1)))}));
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Robustness, ConstructedRangeAsConstructorArgument) {
  // E{tc} fed as the relation argument of another constructor.
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(4)).ok());
  auto body = Union({IdentityBranch("x", Rel("P"), True()),
                     IdentityBranch("y", Rel("Rel"), True())});
  auto decl = std::make_shared<ConstructorDecl>(
      "merge", FormalRelation{"Rel", "g_edgerel"},
      std::vector<FormalRelation>{{"P", "g_edgerel"}},
      std::vector<FormalScalar>{}, "g_edgerel", body);
  ASSERT_TRUE(db.DefineConstructor(decl).ok());
  Result<Relation> r = db.EvalRange(Constructed(
      Rel("g_E"), "merge", {Constructed(Rel("g_E"), "g_tc")}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 6u);  // closure of chain(4) ∪ edges = closure
}

TEST(Robustness, ChainedConstructorApplications) {
  // E{tc}{tc} — closure of a closure (idempotent).
  Database db;
  ASSERT_TRUE(workload::SetupClosure(&db, "g", workload::Chain(5)).ok());
  Result<Relation> once = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
  Result<Relation> twice = db.EvalRange(
      Constructed(Constructed(Rel("g_E"), "g_tc"), "g_tc"));
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  EXPECT_TRUE(once->SameTuples(*twice));
}

}  // namespace
}  // namespace datacon
