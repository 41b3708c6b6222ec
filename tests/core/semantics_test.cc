// Level-1 definition analysis through its Status API (core/semantics.h):
// every check the type checker runs at definition time, pinned by
// StatusCode, plus a table pinning that each level-1 defect is rejected by
// Database and reported as an error by the script lint's type pass.

#include "core/semantics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/script_lint.h"
#include "ast/builder.h"
#include "core/database.h"
#include "lang/interpreter.h"
#include "lang/parser.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

class SemanticsTest : public ::testing::Test {
 protected:
  SemanticsTest() {
    EXPECT_TRUE(catalog_
                    .DefineRelationType(
                        "infrontrel", Schema({{"front", ValueType::kString},
                                              {"back", ValueType::kString}}))
                    .ok());
    EXPECT_TRUE(catalog_
                    .DefineRelationType(
                        "aheadrel", Schema({{"head", ValueType::kString},
                                            {"tail", ValueType::kString}}))
                    .ok());
    EXPECT_TRUE(catalog_
                    .DefineRelationType(
                        "numrel", Schema({{"n", ValueType::kInt}}))
                    .ok());
    EXPECT_TRUE(catalog_.CreateRelation("Infront", "infrontrel").ok());
    EXPECT_TRUE(catalog_.CreateRelation("Numbers", "numrel").ok());
    EXPECT_TRUE(catalog_
                    .DefineSelector(std::make_shared<SelectorDecl>(
                        "hidden_by", FormalRelation{"Rel", "infrontrel"},
                        std::vector<FormalScalar>{{"Obj", ValueType::kString}},
                        "r", Eq(FieldRef("r", "front"), Param("Obj"))))
                    .ok());
    EXPECT_TRUE(catalog_
                    .DefineConstructor(std::make_shared<ConstructorDecl>(
                        "ahead", FormalRelation{"Rel", "infrontrel"},
                        std::vector<FormalRelation>{},
                        std::vector<FormalScalar>{}, "aheadrel",
                        Union({IdentityBranch("r", Rel("Rel"), True())})))
                    .ok());
  }

  /// `{EACH q IN range: pred}`.
  static CalcExprPtr Over(RangePtr range, PredPtr pred = True()) {
    return Union({IdentityBranch("q", std::move(range), std::move(pred))});
  }

  StatusCode QueryCode(const CalcExprPtr& expr) {
    return InferQuerySchema(*expr, catalog_).status().code();
  }

  Catalog catalog_;
};

TEST_F(SemanticsTest, RangeSchemaOfPlainRelation) {
  Result<const Schema*> schema = RangeSchemaOf(*Rel("Infront"), catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value()->field(0).name, "front");
  Result<Schema> inferred = InferQuerySchema(*Over(Rel("Infront")), catalog_);
  ASSERT_TRUE(inferred.ok());
  EXPECT_EQ(inferred.value().field(0).name, "front");
}

TEST_F(SemanticsTest, RangeSchemaOfUnknownRelationFails) {
  EXPECT_EQ(RangeSchemaOf(*Rel("Nope"), catalog_).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(QueryCode(Over(Rel("Nope"))), StatusCode::kNotFound);
}

TEST_F(SemanticsTest, RangeSchemaOfFormal) {
  // The formal `Rel` resolves to its declared type inside a body: both
  // columns of infrontrel are visible.
  ConstructorDecl ctor(
      "c2", FormalRelation{"Rel", "infrontrel"}, {}, {}, "aheadrel",
      Union({MakeBranch({FieldRef("r", "front"), FieldRef("r", "back")},
                        {Each("r", Rel("Rel"))}, True())}));
  EXPECT_TRUE(CheckConstructorDecl(ctor, catalog_).ok());
  // Outside a body `Rel` names nothing.
  EXPECT_EQ(QueryCode(Over(Rel("Rel"))), StatusCode::kNotFound);
}

TEST_F(SemanticsTest, SelectorPreservesSchema) {
  Result<Schema> schema = InferQuerySchema(
      *Over(Selected(Rel("Infront"), "hidden_by", {Str("table")})), catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value().field(1).name, "back");
}

TEST_F(SemanticsTest, SelectorArgArityChecked) {
  EXPECT_EQ(QueryCode(Over(Selected(Rel("Infront"), "hidden_by", {}))),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, SelectorArgTypeChecked) {
  EXPECT_EQ(QueryCode(Over(Selected(Rel("Infront"), "hidden_by", {Int(3)}))),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, SelectorBaseTypeChecked) {
  // hidden_by expects infrontrel fields; Numbers has {n}.
  EXPECT_EQ(
      QueryCode(Over(Selected(Rel("Numbers"), "hidden_by", {Str("x")}))),
      StatusCode::kTypeError);
}

TEST_F(SemanticsTest, ConstructorChangesSchema) {
  Result<Schema> schema =
      InferQuerySchema(*Over(Constructed(Rel("Infront"), "ahead")), catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value().field(0).name, "head");
}

TEST_F(SemanticsTest, ConstructorBaseTypeChecked) {
  EXPECT_EQ(QueryCode(Over(Constructed(Rel("Numbers"), "ahead"))),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, ConstructorArgArityChecked) {
  EXPECT_EQ(QueryCode(Over(Constructed(Rel("Infront"), "ahead",
                                       {Rel("Infront")}))),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, TermTypes) {
  auto targets = [](TermPtr t) {
    return Union({MakeBranch({std::move(t)}, {Each("q", Rel("Infront"))},
                             True())});
  };
  const std::map<std::string, ValueType> obj = {{"Obj", ValueType::kString}};
  auto type_of = [&](TermPtr t) {
    Result<Schema> schema = InferQuerySchema(*targets(std::move(t)), catalog_,
                                             obj);
    EXPECT_TRUE(schema.ok()) << schema.status().ToString();
    return schema.ok() ? schema.value().field(0).type : ValueType::kBool;
  };
  EXPECT_EQ(type_of(Int(1)), ValueType::kInt);
  EXPECT_EQ(type_of(Str("x")), ValueType::kString);
  EXPECT_EQ(type_of(Param("Obj")), ValueType::kString);
  EXPECT_EQ(type_of(Add(Int(1), Int(2))), ValueType::kInt);
  EXPECT_EQ(InferQuerySchema(*targets(Param("zz")), catalog_, obj)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(InferQuerySchema(*targets(Add(Str("a"), Int(1))), catalog_, obj)
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckPredComparisonTypes) {
  EXPECT_EQ(QueryCode(Over(Rel("Infront"), Eq(FieldRef("q", "front"),
                                               Str("x")))),
            StatusCode::kOk);
  EXPECT_EQ(QueryCode(Over(Rel("Infront"), Eq(FieldRef("q", "front"),
                                               Int(1)))),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckPredQuantifierScoping) {
  PredPtr p = Some("n", Rel("Numbers"), Eq(FieldRef("n", "n"), Int(1)));
  EXPECT_EQ(QueryCode(Over(Rel("Infront"), p)), StatusCode::kOk);
  // The quantifier variable is gone outside its body.
  EXPECT_EQ(QueryCode(Union({MakeBranch({FieldRef("n", "n")},
                                        {Each("q", Rel("Infront"))}, p)})),
            StatusCode::kNotFound);
  // Body referencing an unbound variable fails.
  PredPtr bad = Some("n", Rel("Numbers"), Eq(FieldRef("m", "n"), Int(1)));
  EXPECT_EQ(QueryCode(Over(Rel("Infront"), bad)), StatusCode::kNotFound);
}

TEST_F(SemanticsTest, CheckPredRejectsShadowing) {
  PredPtr p = Some("n", Rel("Numbers"), Some("n", Rel("Numbers"), True()));
  EXPECT_EQ(QueryCode(Over(Rel("Infront"), p)), StatusCode::kTypeError);
  // A quantifier may not shadow the branch's own binding either.
  EXPECT_EQ(QueryCode(Over(Rel("Infront"), Some("q", Rel("Numbers"), True()))),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckPredMembership) {
  EXPECT_EQ(QueryCode(Over(Rel("Infront"), In({Int(1)}, Rel("Numbers")))),
            StatusCode::kOk);
  EXPECT_EQ(
      QueryCode(Over(Rel("Infront"), In({Int(1), Int(2)}, Rel("Numbers")))),
      StatusCode::kTypeError);
  EXPECT_EQ(QueryCode(Over(Rel("Infront"), In({Str("x")}, Rel("Numbers")))),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckSelectorDecl) {
  SelectorDecl good("s", FormalRelation{"Rel", "infrontrel"}, {}, "r",
                    Eq(FieldRef("r", "front"), Str("x")));
  EXPECT_TRUE(CheckSelectorDecl(good, catalog_).ok());

  SelectorDecl bad_type("s", FormalRelation{"Rel", "nosuch"}, {}, "r", True());
  EXPECT_EQ(CheckSelectorDecl(bad_type, catalog_).code(),
            StatusCode::kNotFound);

  SelectorDecl bad_field("s", FormalRelation{"Rel", "infrontrel"}, {}, "r",
                         Eq(FieldRef("r", "nofield"), Str("x")));
  EXPECT_EQ(CheckSelectorDecl(bad_field, catalog_).code(),
            StatusCode::kNotFound);

  SelectorDecl dup_param(
      "s", FormalRelation{"Rel", "infrontrel"},
      {{"p", ValueType::kInt}, {"p", ValueType::kString}}, "r", True());
  EXPECT_EQ(CheckSelectorDecl(dup_param, catalog_).code(),
            StatusCode::kTypeError);
}

ConstructorDecl MakeCtor(const std::string& result_type, CalcExprPtr body) {
  return ConstructorDecl("c2", FormalRelation{"Rel", "infrontrel"}, {}, {},
                         result_type, std::move(body));
}

TEST_F(SemanticsTest, CheckConstructorIdentityBranchCompatibility) {
  // infrontrel -> aheadrel is positionally compatible.
  EXPECT_TRUE(CheckConstructorDecl(
                  MakeCtor("aheadrel",
                           Union({IdentityBranch("r", Rel("Rel"), True())})),
                  catalog_)
                  .ok());
  // infrontrel -> numrel is not.
  EXPECT_EQ(CheckConstructorDecl(
                MakeCtor("numrel",
                         Union({IdentityBranch("r", Rel("Rel"), True())})),
                catalog_)
                .code(),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckConstructorTargetArity) {
  CalcExprPtr body = Union({MakeBranch(
      {FieldRef("r", "front")}, {Each("r", Rel("Rel"))}, True())});
  EXPECT_EQ(CheckConstructorDecl(MakeCtor("aheadrel", body), catalog_).code(),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckConstructorTargetTypes) {
  CalcExprPtr body = Union({MakeBranch(
      {FieldRef("r", "front"), Int(3)}, {Each("r", Rel("Rel"))}, True())});
  EXPECT_EQ(CheckConstructorDecl(MakeCtor("aheadrel", body), catalog_).code(),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckConstructorEmptyBody) {
  EXPECT_EQ(
      CheckConstructorDecl(MakeCtor("aheadrel", Union({})), catalog_).code(),
      StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckConstructorDuplicateBranchVars) {
  CalcExprPtr body = Union({MakeBranch(
      {FieldRef("r", "front"), FieldRef("r", "back")},
      {Each("r", Rel("Rel")), Each("r", Rel("Rel"))}, True())});
  EXPECT_EQ(CheckConstructorDecl(MakeCtor("aheadrel", body), catalog_).code(),
            StatusCode::kTypeError);
}

TEST_F(SemanticsTest, CheckQueryAgainstSchema) {
  CalcExprPtr expr = Union({IdentityBranch("q", Rel("Infront"), True())});
  Schema compatible({{"a", ValueType::kString}, {"b", ValueType::kString}});
  EXPECT_TRUE(CheckQuery(*expr, catalog_, compatible).ok());
  Schema incompatible({{"a", ValueType::kInt}});
  EXPECT_FALSE(CheckQuery(*expr, catalog_, incompatible).ok());
}

TEST_F(SemanticsTest, CheckQueryWithPlaceholders) {
  CalcExprPtr expr = Union({IdentityBranch(
      "q", Rel("Infront"), Eq(FieldRef("q", "front"), Param("p")))});
  Schema schema({{"a", ValueType::kString}, {"b", ValueType::kString}});
  EXPECT_EQ(CheckQuery(*expr, catalog_, schema).code(), StatusCode::kNotFound);
  EXPECT_TRUE(CheckQuery(*expr, catalog_, schema,
                         {{"p", ValueType::kString}})
                  .ok());
}

TEST_F(SemanticsTest, InferQuerySchemaIdentity) {
  CalcExprPtr expr = Union({IdentityBranch("q", Rel("Infront"), True())});
  Result<Schema> schema = InferQuerySchema(*expr, catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value().field(0).name, "front");
  // Derived results have set semantics regardless of base keys.
  EXPECT_TRUE(schema.value().KeyIsAllAttributes());
}

TEST_F(SemanticsTest, InferQuerySchemaFromTargets) {
  CalcExprPtr expr = Union({MakeBranch(
      {FieldRef("q", "back"), Add(Int(1), Int(2))},
      {Each("q", Rel("Infront"))}, True())});
  Result<Schema> schema = InferQuerySchema(*expr, catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value().field(0).name, "back");
  EXPECT_EQ(schema.value().field(0).type, ValueType::kString);
  EXPECT_EQ(schema.value().field(1).type, ValueType::kInt);
}

TEST_F(SemanticsTest, InferQuerySchemaDisambiguatesDuplicateNames) {
  CalcExprPtr expr = Union({MakeBranch(
      {FieldRef("q", "front"), FieldRef("p", "front")},
      {Each("q", Rel("Infront")), Each("p", Rel("Infront"))}, True())});
  Result<Schema> schema = InferQuerySchema(*expr, catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_NE(schema.value().field(0).name, schema.value().field(1).name);
}

TEST_F(SemanticsTest, InferQuerySchemaChecksAllBranches) {
  CalcExprPtr expr = Union({
      IdentityBranch("q", Rel("Infront"), True()),
      IdentityBranch("p", Rel("Numbers"), True()),  // arity mismatch
  });
  EXPECT_FALSE(InferQuerySchema(*expr, catalog_).ok());
}

// --- Level-1 defects: Database and the lint agree ----------------------------

constexpr const char* kPrelude =
    "TYPE pair = RELATION OF RECORD a, b: INTEGER END;\n"
    "TYPE one = RELATION OF RECORD n: INTEGER END;\n"
    "VAR P: pair;\n"
    "VAR O: one;\n"
    "SELECTOR pick (k: INTEGER) FOR Rel: pair;\n"
    "BEGIN EACH r IN Rel: r.a = k END pick;\n"
    "CONSTRUCTOR swap FOR Rel: pair (): pair;\n"
    "BEGIN <r.b, r.a> OF EACH r IN Rel: TRUE END swap;\n";
constexpr int kDefectLine = 9;  // the line after the prelude

struct Defect {
  const char* what;
  const char* source;  // one line, defining `bad`
  StatusCode code;     // Database's rejection
  const char* lint;    // the lint's error code
};

constexpr Defect kDefects[] = {
    {"unknown relation",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Nope: TRUE "
     "END bad;",
     StatusCode::kNotFound, "E101"},
    {"unknown selector",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel "
     "[nosel(1)]: TRUE END bad;",
     StatusCode::kNotFound, "E101"},
    {"unknown constructor",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel {noctor}: "
     "TRUE END bad;",
     StatusCode::kNotFound, "E101"},
    {"unknown parameter",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel: r.a = zz "
     "END bad;",
     StatusCode::kNotFound, "E101"},
    {"unknown tuple variable",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel: s.a = 1 "
     "END bad;",
     StatusCode::kNotFound, "E110"},
    {"unknown field",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel: r.zz = 1 "
     "END bad;",
     StatusCode::kNotFound, "E101"},
    {"selector arity",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel [pick()]: "
     "TRUE END bad;",
     StatusCode::kTypeError, "E102"},
    {"constructor arity",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel "
     "{swap(P)}: TRUE END bad;",
     StatusCode::kTypeError, "E102"},
    {"selector base schema",
     "CONSTRUCTOR bad FOR Rel: one (): one; BEGIN EACH r IN Rel [pick(1)]: "
     "TRUE END bad;",
     StatusCode::kTypeError, "E102"},
    {"constructor base schema",
     "CONSTRUCTOR bad FOR Rel: one (): pair; BEGIN EACH r IN Rel {swap}: "
     "TRUE END bad;",
     StatusCode::kTypeError, "E102"},
    {"target-list arity",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN <r.a> OF EACH r IN Rel: "
     "TRUE END bad;",
     StatusCode::kTypeError, "E102"},
    {"identity branch not union-compatible",
     "CONSTRUCTOR bad FOR Rel: one (): pair; BEGIN EACH r IN Rel: TRUE END "
     "bad;",
     StatusCode::kTypeError, "E102"},
    {"duplicate variable",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN <r.a, r.b> OF EACH r IN "
     "Rel, EACH r IN Rel: TRUE END bad;",
     StatusCode::kTypeError, "E102"},
    {"shadowing variable",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel: SOME r IN "
     "Rel (r.a = 1) END bad;",
     StatusCode::kTypeError, "E102"},
    {"duplicate formals",
     "CONSTRUCTOR bad FOR Rel: pair (k: INTEGER; k: INTEGER): pair; BEGIN "
     "EACH r IN Rel: r.a = k END bad;",
     StatusCode::kTypeError, "E102"},
    {"membership arity",
     "CONSTRUCTOR bad FOR Rel: pair (): pair; BEGIN EACH r IN Rel: <r.a> IN "
     "P END bad;",
     StatusCode::kTypeError, "E102"},
};

bool LintReportsError(const Script& script, const std::string& code,
                      int line) {
  LintOptions options;
  options.types = true;
  LintReport report = LintScript(script, options);
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) {
                       return d.severity == Severity::kError &&
                              d.code == code && d.loc.line == line;
                     });
}

TEST(Level1Defects, DatabaseRejectsAndLintReports) {
  for (const Defect& defect : kDefects) {
    Database db;
    Interpreter interp(&db);
    ASSERT_TRUE(interp.Execute(kPrelude).ok()) << defect.what;
    Status s = interp.Execute(defect.source);
    EXPECT_EQ(s.code(), defect.code) << defect.what << ": " << s.ToString();
    EXPECT_EQ(db.catalog().constructors().count("bad"), 0u) << defect.what;

    Result<Script> script =
        ParseScript(std::string(kPrelude) + defect.source + "\n");
    ASSERT_TRUE(script.ok()) << defect.what << ": "
                             << script.status().ToString();
    EXPECT_TRUE(LintReportsError(script.value(), defect.lint, kDefectLine))
        << defect.what;
  }
}

TEST(Level1Defects, EmptyBody) {
  // The grammar cannot express an empty body; build it.
  const SourceLoc loc{kDefectLine, 1};
  auto decl = std::make_shared<ConstructorDecl>(
      "bad", FormalRelation{"Rel", "pair"}, std::vector<FormalRelation>{},
      std::vector<FormalScalar>{}, "pair", Union({}), loc);
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kPrelude).ok());
  EXPECT_EQ(db.DefineConstructor(decl).code(), StatusCode::kTypeError);

  Result<Script> script = ParseScript(kPrelude);
  ASSERT_TRUE(script.ok());
  Script with_decl = std::move(script).value();
  with_decl.stmts.push_back(ConstructorStmt{decl});
  EXPECT_TRUE(LintReportsError(with_decl, "E102", kDefectLine));
}

}  // namespace
}  // namespace datacon
