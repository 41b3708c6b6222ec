#include "core/subst.h"

#include <gtest/gtest.h>

#include "ast/builder.h"
#include "ast/printer.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

TEST(Subst, ScalarParamBecomesLiteral) {
  Substitution subst;
  subst.scalars["Obj"] = Str("table");
  TermPtr t = SubstituteTerm(Param("Obj"), subst);
  EXPECT_EQ(ToString(*t), "\"table\"");
}

TEST(Subst, UnmappedParamSurvives) {
  Substitution subst;
  TermPtr original = Param("p");
  EXPECT_EQ(SubstituteTerm(original, subst), original);
}

TEST(Subst, ArithRecurses) {
  Substitution subst;
  subst.scalars["n"] = Int(5);
  TermPtr t = SubstituteTerm(Add(Param("n"), Int(1)), subst);
  EXPECT_EQ(ToString(*t), "(5 + 1)");
}

TEST(Subst, RangeBaseReplacedAndSpliced) {
  // Rel {ahead} with Rel -> Infront [sel] gives Infront [sel] {ahead}.
  Substitution subst;
  subst.relations["Rel"] = Selected(Rel("Infront"), "sel");
  RangePtr r = SubstituteRange(Constructed(Rel("Rel"), "ahead"), subst);
  EXPECT_EQ(ToString(*r), "Infront [sel] {ahead}");
}

TEST(Subst, RangeArgsSubstituted) {
  // Rel {ahead(OT)} with Rel -> Infront, OT -> Ontop.
  Substitution subst;
  subst.relations["Rel"] = Rel("Infront");
  subst.relations["OT"] = Rel("Ontop");
  RangePtr r = SubstituteRange(
      Constructed(Rel("Rel"), "ahead", {Rel("OT")}), subst);
  EXPECT_EQ(ToString(*r), "Infront {ahead(Ontop)}");
}

TEST(Subst, SelectorArgsSubstituted) {
  Substitution subst;
  subst.scalars["Obj"] = Str("x");
  RangePtr r = SubstituteRange(
      Selected(Rel("Infront"), "hidden_by", {Param("Obj")}), subst);
  EXPECT_EQ(ToString(*r), "Infront [hidden_by(\"x\")]");
}

TEST(Subst, PredAllShapes) {
  Substitution subst;
  subst.relations["Rel"] = Rel("Infront");
  subst.scalars["p"] = Int(7);
  PredPtr pred = And({
      Eq(FieldRef("r", "a"), Param("p")),
      Not(Some("x", Rel("Rel"), True())),
      Or({In({Param("p")}, Rel("Rel")), All("y", Rel("Rel"), False())}),
  });
  PredPtr out = SubstitutePred(pred, subst);
  EXPECT_EQ(ToString(*out),
            "r.a = 7 AND NOT (SOME x IN Infront (TRUE)) AND (<7> IN Infront "
            "OR ALL y IN Infront (FALSE))");
}

TEST(Subst, BranchSubstitution) {
  Substitution subst;
  subst.relations["Rel"] = Rel("Infront");
  BranchPtr b = MakeBranch(
      {FieldRef("f", "front"), FieldRef("b", "tail")},
      {Each("f", Rel("Rel")), Each("b", Constructed(Rel("Rel"), "ahead"))},
      Eq(FieldRef("f", "back"), FieldRef("b", "head")));
  BranchPtr out = SubstituteBranch(b, subst);
  EXPECT_EQ(ToString(*out),
            "<f.front, b.tail> OF EACH f IN Infront, EACH b IN Infront "
            "{ahead}: f.back = b.head");
}

TEST(Subst, ExprSubstitutesEveryBranch) {
  Substitution subst;
  subst.relations["Rel"] = Rel("X");
  CalcExprPtr e = Union({IdentityBranch("a", Rel("Rel"), True()),
                         IdentityBranch("b", Rel("Rel"), True())});
  CalcExprPtr out = SubstituteExpr(e, subst);
  for (const BranchPtr& branch : out->branches()) {
    EXPECT_EQ(branch->bindings()[0].range->relation(), "X");
  }
}

TEST(FieldSubst, ReplacesMatchingFieldRefs) {
  Substitution subst;
  subst.fields[{"r", "head"}] = FieldRef("f", "front");
  subst.fields[{"r", "tail"}] = FieldRef("b", "back");
  PredPtr pred = And({Eq(FieldRef("r", "head"), Str("x")),
                      Ne(FieldRef("r", "tail"), FieldRef("other", "head"))});
  PredPtr out = SubstitutePred(pred, subst);
  EXPECT_EQ(ToString(*out), "f.front = \"x\" AND b.back # other.head");
}

TEST(FieldSubst, TermReplacement) {
  Substitution subst;
  subst.fields[{"r", "n"}] = Int(3);
  TermPtr out = SubstituteTerm(Add(FieldRef("r", "n"), Int(1)), subst);
  EXPECT_EQ(ToString(*out), "(3 + 1)");
}

TEST(FieldSubst, LeavesQuantifierStructureIntact) {
  Substitution subst;
  subst.fields[{"r", "x"}] = FieldRef("q", "y");
  PredPtr pred = Some("s", Rel("R"),
                      Eq(FieldRef("r", "x"), FieldRef("s", "v")));
  PredPtr out = SubstitutePred(pred, subst);
  EXPECT_EQ(ToString(*out), "SOME s IN R (q.y = s.v)");
}

TEST(FieldSubst, ReachesSelectorArgumentsOfEveryRange) {
  // A constraint residue replaces the delta variable `d` by parameters,
  // correlated selector arguments included.
  Substitution subst;
  subst.fields[{"d", "a"}] = Param("delta_a");
  BranchPtr b = MakeBranch(
      {FieldRef("r", "a")},
      {Each("r", Constructed(Selected(Rel("R"), "near", {FieldRef("d", "a")}),
                             "tc",
                             {Selected(Rel("S"), "near",
                                       {Add(FieldRef("d", "a"), Int(1))})}))},
      And({Some("q", Selected(Rel("R"), "near", {FieldRef("d", "a")}),
                Eq(FieldRef("q", "b"), FieldRef("r", "b"))),
           In({FieldRef("r", "a")},
              Selected(Rel("T"), "near", {FieldRef("d", "a")}))}));
  BranchPtr out = SubstituteBranch(b, subst);
  EXPECT_EQ(ToString(*out),
            "<r.a> OF EACH r IN R [near(delta_a)] {tc(S [near((delta_a + "
            "1))])}: SOME q IN R [near(delta_a)] (q.b = r.b) AND <r.a> IN T "
            "[near(delta_a)]");
}

TEST(VarSubst, RenamesEverywhere) {
  BranchPtr b = MakeBranch(
      {FieldRef("f", "src"), FieldRef("b", "dst")},
      {Each("f", Rel("E")), Each("b", Selected(Rel("E"), "s",
                                               {FieldRef("f", "src")}))},
      Some("q", Rel("E"), Eq(FieldRef("q", "src"), FieldRef("f", "dst"))));
  Substitution subst;
  subst.vars = {{"f", "F1"}, {"q", "Q1"}};
  BranchPtr out = SubstituteBranch(b, subst);
  EXPECT_EQ(ToString(*out),
            "<F1.src, b.dst> OF EACH F1 IN E, EACH b IN E [s(F1.src)]: "
            "SOME Q1 IN E (Q1.src = F1.dst)");
}

TEST(VarSubst, RenamesBindersAndReferencesTogether) {
  // A membership test and a quantifier nested in NOT: the binder and every
  // reference below it move together; unmapped variables stay put.
  BranchPtr b = MakeBranch(
      {FieldRef("x", "a")}, {Each("x", Rel("E"))},
      Not(All("y", Selected(Rel("E"), "s", {FieldRef("x", "b")}),
              In({FieldRef("y", "a"), FieldRef("z", "a")}, Rel("F")))));
  Substitution subst;
  subst.vars = {{"x", "X"}, {"y", "Y"}};
  EXPECT_EQ(ToString(*SubstituteBranch(b, subst)),
            "<X.a> OF EACH X IN E: NOT (ALL Y IN E [s(X.b)] (<Y.a, z.a> IN "
            "F))");
}

TEST(VarSubst, FieldReplacementWinsOverRename) {
  Substitution subst;
  subst.fields[{"r", "a"}] = Int(1);
  subst.vars = {{"r", "R"}};
  PredPtr out = SubstitutePred(
      Eq(FieldRef("r", "a"), FieldRef("r", "b")), subst);
  EXPECT_EQ(ToString(*out), "1 = R.b");
}

TEST(Subst, LocationsSurvive) {
  const SourceLoc quant_loc{3, 7};
  const SourceLoc branch_loc{2, 1};
  const SourceLoc binding_loc{2, 5};
  PredPtr quant = std::make_shared<QuantPred>(
      Quantifier::kSome, "q", Rel("Rel"),
      Eq(FieldRef("q", "a"), Param("p")), quant_loc);
  BranchPtr b = std::make_shared<Branch>(
      std::vector<Binding>{Binding{"r", Rel("Rel"), binding_loc}},
      And({Eq(FieldRef("r", "a"), Param("p")), quant}),
      std::vector<TermPtr>{FieldRef("r", "a")}, branch_loc);
  Substitution subst;
  subst.relations["Rel"] = Rel("E");
  subst.scalars["p"] = Int(1);
  subst.vars = {{"q", "Q"}};
  BranchPtr out = SubstituteBranch(b, subst);
  ASSERT_NE(out, b);
  EXPECT_EQ(out->loc(), branch_loc);
  EXPECT_EQ(out->bindings()[0].loc, binding_loc);
  const auto& conj = static_cast<const AndPred&>(*out->pred());
  ASSERT_EQ(conj.operands()[1]->kind(), Pred::Kind::kQuant);
  EXPECT_EQ(static_cast<const QuantPred&>(*conj.operands()[1]).loc(),
            quant_loc);
}

TEST(Subst, UntouchedSubtreesComeBackPointerEqual) {
  PredPtr untouched = Some("q", Selected(Rel("E"), "s", {Int(1)}),
                           Eq(FieldRef("q", "a"), FieldRef("r", "b")));
  TermPtr target = FieldRef("r", "a");
  RangePtr range = Constructed(Rel("E"), "tc", {Rel("F")});
  BranchPtr b = MakeBranch({target}, {Each("r", range)},
                           And({untouched, Eq(FieldRef("r", "a"),
                                              Param("p"))}));
  Substitution subst;
  subst.scalars["p"] = Int(1);
  subst.relations["Other"] = Rel("X");
  subst.fields[{"w", "a"}] = Int(2);
  subst.vars = {{"w", "W"}};
  BranchPtr out = SubstituteBranch(b, subst);
  ASSERT_NE(out, b);
  EXPECT_EQ(out->bindings()[0].range, range);
  EXPECT_EQ((*out->targets())[0], target);
  EXPECT_EQ(static_cast<const AndPred&>(*out->pred()).operands()[0],
            untouched);

  // Nothing applies anywhere: the whole expression is shared.
  subst.scalars.clear();
  CalcExprPtr e = Union({b});
  EXPECT_EQ(SubstituteExpr(e, subst), e);
}

}  // namespace
}  // namespace datacon
