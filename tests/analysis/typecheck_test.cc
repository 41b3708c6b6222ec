// Unit tests for the whole-program type inference (analysis/typecheck.h):
// the lattice fixpoint through constructor recursion, the inferred-schema
// surface, and every new diagnostic (E130/E131, W240/W241/W242). The
// declarations are built programmatically, so level-1's own checks never
// interfere — each finding here comes from the inference pass alone.

#include "analysis/typecheck.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ast/builder.h"
#include "core/catalog.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction

std::vector<std::string> Codes(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) out.push_back(d.code);
  return out;
}

bool HasCode(const std::vector<Diagnostic>& diags, std::string_view code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic& FindCode(const std::vector<Diagnostic>& diags,
                           std::string_view code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return d;
  }
  static Diagnostic missing;
  ADD_FAILURE() << "no diagnostic with code " << code;
  return missing;
}

ConstructorDeclPtr MakeCtor(std::string name, std::string base_type,
                            std::string result_type, CalcExprPtr body) {
  return std::make_shared<ConstructorDecl>(
      std::move(name), FormalRelation{"Rel", std::move(base_type)},
      std::vector<FormalRelation>{}, std::vector<FormalScalar>{},
      std::move(result_type), std::move(body));
}

class TypecheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .DefineRelationType(
                        "edgerel", Schema({{"src", ValueType::kInt},
                                           {"dst", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .DefineRelationType(
                        "pathrel", Schema({{"src", ValueType::kInt},
                                           {"dst", ValueType::kInt},
                                           {"len", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .DefineRelationType(
                        "itemrel", Schema({{"name", ValueType::kString},
                                           {"qty", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE(catalog_.CreateRelation("E", "edgerel").ok());
    ASSERT_TRUE(catalog_.CreateRelation("Item", "itemrel").ok());
  }

  Catalog catalog_;
};

// --- Inference through recursion ---------------------------------------

TEST_F(TypecheckTest, BoundedPathClosureInfersDeclaredSchema) {
  // The arithmetic len column forces inference *through* the recursion: the
  // recursive f.len contribution is only known once the base branch has
  // seeded it.
  auto body = Union(
      {MakeBranch({FieldRef("r", "src"), FieldRef("r", "dst"), Int(1)},
                  {Each("r", Rel("Rel"))}, True()),
       MakeBranch({FieldRef("f", "src"), FieldRef("b", "dst"),
                   Add(FieldRef("f", "len"), Int(1))},
                  {Each("f", Constructed(Rel("Rel"), "paths")),
                   Each("b", Rel("Rel"))},
                  And({Eq(FieldRef("f", "dst"), FieldRef("b", "src")),
                       Lt(FieldRef("f", "len"), Int(9))}))});
  ASSERT_TRUE(
      catalog_.DefineConstructor(MakeCtor("paths", "edgerel", "pathrel", body))
          .ok());

  TypeInference inference = InferCatalogTypes(catalog_);
  EXPECT_TRUE(inference.diagnostics.empty()) << Codes(inference.diagnostics)[0];
  ASSERT_EQ(inference.constructors.count("paths"), 1u);
  EXPECT_EQ(inference.constructors["paths"].ToString(),
            "RECORD src: INTEGER; dst: INTEGER; len: INTEGER END");
}

TEST_F(TypecheckTest, MutualRecursionInfersBothMembers) {
  // even/odd-style mutual recursion: each member's cells depend on the
  // other's, so the group fixpoint must iterate the SCC to completion.
  auto even_body = Union(
      {IdentityBranch("r", Rel("Rel"), True()),
       MakeBranch({FieldRef("a", "src"), FieldRef("o", "dst")},
                  {Each("a", Rel("Rel")),
                   Each("o", Constructed(Rel("Rel"), "odd"))},
                  Eq(FieldRef("a", "dst"), FieldRef("o", "src")))});
  auto odd_body = Union(
      {MakeBranch({FieldRef("a", "src"), FieldRef("e", "dst")},
                  {Each("a", Rel("Rel")),
                   Each("e", Constructed(Rel("Rel"), "even"))},
                  Eq(FieldRef("a", "dst"), FieldRef("e", "src")))});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("even", "edgerel", "edgerel", even_body),
      MakeCtor("odd", "edgerel", "edgerel", odd_body)};

  EXPECT_TRUE(TypecheckConstructorGroup(group, catalog_).empty());
}

// --- E130: conflicts and declared mismatches ---------------------------

TEST_F(TypecheckTest, DeclaredMismatchIsE130) {
  // An INTEGER flows into the declared STRING attribute `name`.
  auto body = Union({MakeBranch({FieldRef("r", "qty"), FieldRef("r", "qty")},
                                {Each("r", Rel("Rel"))}, True())});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("mislabeled", "itemrel", "itemrel", body)};

  std::vector<Diagnostic> diags = TypecheckConstructorGroup(group, catalog_);
  ASSERT_TRUE(HasCode(diags, kDiagTypeConflict)) << diags.size();
  const Diagnostic& d = FindCode(diags, kDiagTypeConflict);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("declared STRING"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("'r.qty'"), std::string::npos) << d.message;
}

TEST_F(TypecheckTest, CrossBranchConflictIsE130WithBothOrigins) {
  // Branch one sends a STRING into position 1, branch two an INTEGER; the
  // conflict message must name both contributions.
  auto body = Union(
      {MakeBranch({FieldRef("r", "name"), FieldRef("r", "name")},
                  {Each("r", Rel("Rel"))}, True()),
       MakeBranch({FieldRef("r", "name"), FieldRef("r", "qty")},
                  {Each("r", Rel("Rel"))}, True())});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("mixed", "itemrel", "itemrel", body)};

  std::vector<Diagnostic> diags = TypecheckConstructorGroup(group, catalog_);
  ASSERT_TRUE(HasCode(diags, kDiagTypeConflict));
  const Diagnostic& d = FindCode(diags, kDiagTypeConflict);
  EXPECT_NE(d.message.find("conflicts with"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("'r.name'"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("'r.qty'"), std::string::npos) << d.message;
}

// --- E131 / W240: predicate and term walks -----------------------------

TEST_F(TypecheckTest, ArithmeticOverStringsIsE131) {
  auto body = Union(
      {MakeBranch({FieldRef("r", "name"),
                   Add(FieldRef("r", "name"), Int(1))},
                  {Each("r", Rel("Rel"))}, True())});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("sums", "itemrel", "itemrel", body)};

  std::vector<Diagnostic> diags = TypecheckConstructorGroup(group, catalog_);
  ASSERT_TRUE(HasCode(diags, kDiagIllTypedOperation));
  EXPECT_EQ(FindCode(diags, kDiagIllTypedOperation).severity,
            Severity::kError);
}

TEST_F(TypecheckTest, DisjointEqualityIsW240AndStaticallyFalse) {
  auto body = Union({IdentityBranch(
      "r", Rel("Rel"), Eq(FieldRef("r", "name"), FieldRef("r", "qty")))});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("never", "itemrel", "itemrel", body)};

  std::vector<Diagnostic> diags = TypecheckConstructorGroup(group, catalog_);
  ASSERT_TRUE(HasCode(diags, kDiagDisjointComparison));
  const Diagnostic& d = FindCode(diags, kDiagDisjointComparison);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.message.find("statically always FALSE"), std::string::npos)
      << d.message;
}

TEST_F(TypecheckTest, OrderedComparisonAcrossTypesIsE131) {
  auto body = Union({IdentityBranch(
      "r", Rel("Rel"), Lt(FieldRef("r", "name"), FieldRef("r", "qty")))});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("ordered", "itemrel", "itemrel", body)};

  EXPECT_TRUE(HasCode(TypecheckConstructorGroup(group, catalog_),
                      kDiagIllTypedOperation));
}

TEST_F(TypecheckTest, QuantifierBodyIsChecked) {
  // The disjoint comparison hides inside a SOME body; the walk must bind
  // the quantified variable's row to see it.
  auto body = Union({IdentityBranch(
      "r", Rel("Rel"),
      Some("s", Rel("Item"), Eq(FieldRef("s", "name"), FieldRef("r", "qty"))))});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("quant", "itemrel", "itemrel", body)};

  EXPECT_TRUE(HasCode(TypecheckConstructorGroup(group, catalog_),
                      kDiagDisjointComparison));
}

// --- W241: unconstrained attributes ------------------------------------

TEST_F(TypecheckTest, UnconstrainedAttributesAreW241) {
  // No base case: the recursion never seeds the cells, so every attribute
  // stays unknown.
  auto body = Union({IdentityBranch(
      "p", Constructed(Rel("Rel"), "loop"), True())});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("loop", "edgerel", "edgerel", body)};

  std::vector<Diagnostic> diags = TypecheckConstructorGroup(group, catalog_);
  std::vector<std::string> codes = Codes(diags);
  EXPECT_EQ(std::count(codes.begin(), codes.end(),
                       std::string(kDiagUnconstrainedAttribute)),
            2);
}

// --- A closure over two columns of a wider base -------------------------

TEST_F(TypecheckTest, NonBinaryClosureShapeIsAccepted) {
  // The transitive-closure shape over a ternary base (the base branch
  // projects two of three columns) is a legal, well-typed program: the
  // capture rule does not apply to it, so the generic engine evaluates it
  // (tests/integration/typed_semantics_test.cc) and inference finds
  // nothing to report.
  ASSERT_TRUE(catalog_
                  .DefineRelationType(
                      "widerel", Schema({{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"c", ValueType::kInt}}))
                  .ok());
  auto body = Union(
      {MakeBranch({FieldRef("r", "a"), FieldRef("r", "b")},
                  {Each("r", Rel("Rel"))}, True()),
       MakeBranch({FieldRef("f", "a"), FieldRef("t", "dst")},
                  {Each("f", Rel("Rel")),
                   Each("t", Constructed(Rel("Rel"), "tc3"))},
                  Eq(FieldRef("f", "b"), FieldRef("t", "src")))});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("tc3", "widerel", "edgerel", body)};

  std::vector<Diagnostic> diags = TypecheckConstructorGroup(group, catalog_);
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.severity, Severity::kError) << d.ToString();
  }
}

// --- Queries and selectors ---------------------------------------------

TEST_F(TypecheckTest, UnionNameDisagreementIsW242) {
  ASSERT_TRUE(catalog_
                  .DefineRelationType(
                      "pairrel", Schema({{"head", ValueType::kInt},
                                         {"tail", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(catalog_.CreateRelation("P", "pairrel").ok());
  auto expr = Union({IdentityBranch("e", Rel("E"), True()),
                     IdentityBranch("p", Rel("P"), True())});

  std::vector<Diagnostic> diags = TypecheckQueryExpr(*expr, catalog_);
  ASSERT_TRUE(HasCode(diags, kDiagUnionNameMismatch));
  EXPECT_NE(FindCode(diags, kDiagUnionNameMismatch)
                .message.find("positional name"),
            std::string::npos);
}

TEST_F(TypecheckTest, CrossBranchQueryConflictIsE130) {
  auto expr = Union(
      {MakeBranch({FieldRef("r", "qty")}, {Each("r", Rel("Item"))}, True()),
       MakeBranch({FieldRef("r", "name")}, {Each("r", Rel("Item"))}, True())});

  EXPECT_TRUE(HasCode(TypecheckQueryExpr(*expr, catalog_), kDiagTypeConflict));
}

TEST_F(TypecheckTest, PlaceholderTypesFlowIntoQueryChecks) {
  auto expr = Union({IdentityBranch(
      "r", Rel("Item"), Eq(FieldRef("r", "qty"), Param("needle")))});

  EXPECT_TRUE(TypecheckQueryExpr(*expr, catalog_,
                                 {{"needle", ValueType::kInt}})
                  .empty());
  EXPECT_TRUE(HasCode(TypecheckQueryExpr(*expr, catalog_,
                                         {{"needle", ValueType::kString}}),
                      kDiagDisjointComparison));
}

TEST_F(TypecheckTest, SelectorBodyIsChecked) {
  auto decl = SelectorDecl(
      "bogus", FormalRelation{"Rel", "itemrel"}, {}, "r",
      Eq(FieldRef("r", "name"), Int(7)));

  EXPECT_TRUE(HasCode(TypecheckSelector(decl, catalog_),
                      kDiagDisjointComparison));
}

TEST_F(TypecheckTest, SelectorParameterSubstitutionChecksArgumentTypes) {
  // A STRING literal flows into the selector's INTEGER formal.
  auto sel = std::make_shared<SelectorDecl>(
      "by_qty", FormalRelation{"Rel", "itemrel"},
      std::vector<FormalScalar>{{"Q", ValueType::kInt}}, "r",
      Eq(FieldRef("r", "qty"), Param("Q")));
  ASSERT_TRUE(catalog_.DefineSelector(sel).ok());

  auto body = Union({IdentityBranch(
      "r", Selected(Rel("Rel"), "by_qty", {Str("three")}), True())});
  std::vector<ConstructorDeclPtr> group = {
      MakeCtor("picky", "itemrel", "itemrel", body)};

  std::vector<Diagnostic> diags = TypecheckConstructorGroup(group, catalog_);
  ASSERT_TRUE(HasCode(diags, kDiagTypeConflict));
  EXPECT_NE(FindCode(diags, kDiagTypeConflict).message.find("selector"),
            std::string::npos);
}

}  // namespace
}  // namespace datacon
