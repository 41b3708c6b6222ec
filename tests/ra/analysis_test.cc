#include "ra/analysis.h"

#include <gtest/gtest.h>

#include <set>

#include "ast/builder.h"
#include "ast/printer.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

TEST(FreeVars, Terms) {
  std::set<std::string> vars;
  CollectFreeVars(*Add(FieldRef("a", "x"), FieldRef("b", "y")), &vars);
  EXPECT_EQ(vars, (std::set<std::string>{"a", "b"}));
  vars.clear();
  CollectFreeVars(*Int(1), &vars);
  EXPECT_TRUE(vars.empty());
  CollectFreeVars(*Param("p"), &vars);
  EXPECT_TRUE(vars.empty());
}

TEST(FreeVars, Compare) {
  EXPECT_EQ(FreeVars(*Eq(FieldRef("f", "back"), FieldRef("b", "head"))),
            (std::set<std::string>{"f", "b"}));
}

TEST(FreeVars, Connectives) {
  PredPtr p = And({Eq(FieldRef("a", "x"), Int(1)),
                   Or({Not(Eq(FieldRef("b", "y"), Int(2))),
                       Eq(FieldRef("c", "z"), Int(3))})});
  EXPECT_EQ(FreeVars(*p), (std::set<std::string>{"a", "b", "c"}));
}

TEST(FreeVars, QuantifierBindsItsVariable) {
  PredPtr p = Some("n", Rel("Numbers"),
                   Eq(FieldRef("n", "v"), FieldRef("outer", "x")));
  EXPECT_EQ(FreeVars(*p), (std::set<std::string>{"outer"}));
}

TEST(FreeVars, QuantifierRangeArgumentsCount) {
  // Selector arguments inside a quantifier's range reference outer vars.
  PredPtr p = Some("n", Selected(Rel("R"), "sel", {FieldRef("o", "k")}), True());
  EXPECT_EQ(FreeVars(*p), (std::set<std::string>{"o"}));
}

TEST(FreeVars, Membership) {
  PredPtr p = In({FieldRef("r", "a"), FieldRef("s", "b")}, Rel("R"));
  EXPECT_EQ(FreeVars(*p), (std::set<std::string>{"r", "s"}));
}

TEST(FreeVars, NestedShadowing) {
  // Inner quantifier reuses an outer quantifier's variable name in its own
  // body; both are bound.
  PredPtr p =
      Some("n", Rel("A"), Some("m", Rel("B"),
                               Eq(FieldRef("n", "x"), FieldRef("m", "y"))));
  EXPECT_TRUE(FreeVars(*p).empty());
}

TEST(FreeVars, RangesAreDeepThroughConstructorArguments) {
  std::set<std::string> out;
  CollectFreeVars(*Constructed(Selected(Rel("R"), "near", {FieldRef("a", "x")}),
                               "c", {Selected(Rel("S"), "near",
                                              {FieldRef("b", "y")})}),
                  &out);
  EXPECT_EQ(out, (std::set<std::string>{"a", "b"}));
}

TEST(ParamRefs, QuantifierVariableDoesNotHideAParameter) {
  // Parameters and tuple variables live in different namespaces.
  std::set<std::string> out;
  CollectParamRefs(*Some("k", Selected(Rel("R"), "s", {Param("p")}),
                         Eq(FieldRef("k", "a"), Param("k"))),
                   &out);
  EXPECT_EQ(out, (std::set<std::string>{"k", "p"}));
}

TEST(ParamRefs, BranchCoversRangesPredicateAndTargets) {
  std::set<std::string> out;
  CollectParamRefs(
      *MakeBranch({Add(FieldRef("r", "a"), Param("t"))},
                  {Each("r", Constructed(Rel("R"), "c", {Selected(
                                             Rel("S"), "s", {Param("b")})}))},
                  In({Param("m")}, Selected(Rel("T"), "s", {Param("i")}))),
      &out);
  EXPECT_EQ(out, (std::set<std::string>{"b", "i", "m", "t"}));
}

TEST(FlattenConjuncts, SingleNonAnd) {
  std::vector<PredPtr> cs = FlattenConjuncts(Eq(Int(1), Int(1)));
  ASSERT_EQ(cs.size(), 1u);
}

TEST(FlattenConjuncts, TrueVanishes) {
  EXPECT_TRUE(FlattenConjuncts(True()).empty());
  EXPECT_TRUE(FlattenConjuncts(And({True(), True()})).empty());
}

TEST(FlattenConjuncts, NestedAndsFlatten) {
  PredPtr p = And({Eq(Int(1), Int(1)),
                   And({Eq(Int(2), Int(2)), Eq(Int(3), Int(3))}), True()});
  EXPECT_EQ(FlattenConjuncts(p).size(), 3u);
}

TEST(FlattenConjuncts, OrStaysWhole) {
  PredPtr p = And({Or({Eq(Int(1), Int(1)), Eq(Int(2), Int(2))}),
                   Eq(Int(3), Int(3))});
  std::vector<PredPtr> cs = FlattenConjuncts(p);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0]->kind(), Pred::Kind::kOr);
}

TEST(ConjunctsToPred, RoundTrip) {
  EXPECT_EQ(ToString(*ConjunctsToPred({})), "TRUE");
  PredPtr single = Eq(Int(1), Int(2));
  EXPECT_EQ(ConjunctsToPred({single}), single);
  PredPtr rebuilt = ConjunctsToPred({Eq(Int(1), Int(1)), Eq(Int(2), Int(2))});
  EXPECT_EQ(rebuilt->kind(), Pred::Kind::kAnd);
  EXPECT_EQ(FlattenConjuncts(rebuilt).size(), 2u);
}

TEST(FlattenConjuncts, ThreeLevelNestingPreservesOrder) {
  PredPtr p =
      And({And({Eq(FieldRef("a", "x"), Int(1)),
                And({Eq(FieldRef("b", "x"), Int(2)), True()})}),
           Eq(FieldRef("c", "x"), Int(3))});
  std::vector<PredPtr> cs = FlattenConjuncts(p);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(FreeVars(*cs[0]), (std::set<std::string>{"a"}));
  EXPECT_EQ(FreeVars(*cs[1]), (std::set<std::string>{"b"}));
  EXPECT_EQ(FreeVars(*cs[2]), (std::set<std::string>{"c"}));
}

TEST(FlattenConjuncts, RoundTripPrintsIdentically) {
  PredPtr p = And({Eq(FieldRef("r", "a"), Int(1)),
                   And({Lt(FieldRef("r", "b"), Int(9)),
                        Ne(FieldRef("r", "a"), FieldRef("r", "b"))})});
  PredPtr rebuilt = ConjunctsToPred(FlattenConjuncts(p));
  // Flattening canonicalises the nesting but keeps the conjunct order, so
  // the printed form of the flat AND lists the same conjuncts in order.
  EXPECT_EQ(ToString(*rebuilt),
            ToString(*And({Eq(FieldRef("r", "a"), Int(1)),
                           Lt(FieldRef("r", "b"), Int(9)),
                           Ne(FieldRef("r", "a"), FieldRef("r", "b"))})));
}

TEST(FreeVars, ShadowReleasedOutsideQuantifier) {
  // `n` is bound inside the quantifier body but free in the other conjunct.
  PredPtr p = And({Some("n", Rel("A"), Eq(FieldRef("n", "x"), Int(1))),
                   Eq(FieldRef("n", "y"), Int(2))});
  EXPECT_EQ(FreeVars(*p), (std::set<std::string>{"n"}));
}

TEST(FreeVars, MembershipRangeArgumentsCount) {
  // Constructor scalar arguments inside a membership range reference outer
  // tuple variables.
  PredPtr p = In({FieldRef("r", "a")},
                 Constructed(Rel("R"), "c", {}, {FieldRef("o", "k")}));
  EXPECT_EQ(FreeVars(*p), (std::set<std::string>{"r", "o"}));
}

}  // namespace
}  // namespace datacon
