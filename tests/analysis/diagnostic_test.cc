#include "analysis/diagnostic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "common/status.h"
#include "lang/parser.h"

namespace datacon {
namespace {

TEST(Diagnostic, SeverityDerivedFromCode) {
  Diagnostic e = MakeDiagnostic(kDiagUnknownName, "boom");
  EXPECT_EQ(e.severity, Severity::kError);
  Diagnostic w = MakeDiagnostic(kDiagUnusedBinding, "meh");
  EXPECT_EQ(w.severity, Severity::kWarning);
}

TEST(Diagnostic, ToStringIncludesSpanWhenValid) {
  Diagnostic d = MakeDiagnostic(kDiagUnsafeVariable, "variable 'x' unbound",
                                SourceLoc{4, 7});
  EXPECT_EQ(d.ToString(), "4:7: error E110: variable 'x' unbound");
  Diagnostic no_span = MakeDiagnostic(kDiagUnusedParameter, "p unused");
  EXPECT_EQ(no_span.ToString(), "warning W202: p unused");
}

TEST(Diagnostic, ToJsonEscapesAndOrdersKeys) {
  Diagnostic d = MakeDiagnostic(kDiagTypeError, "bad \"name\"\n",
                                SourceLoc{2, 3});
  EXPECT_EQ(d.ToJson(),
            "{\"code\":\"E102\",\"severity\":\"error\",\"line\":2,"
            "\"column\":3,\"message\":\"bad \\\"name\\\"\\n\"}");
}

TEST(Diagnostic, CodeTableIsCompleteAndOrdered) {
  std::vector<std::string_view> codes = AllDiagnosticCodes();
  ASSERT_GE(codes.size(), 8u);
  EXPECT_EQ(codes.front(), kDiagParseError);
  for (std::string_view code : codes) {
    EXPECT_FALSE(DiagnosticCodeMeaning(code).empty()) << code;
  }
  // Errors precede warnings, numerically within each block.
  for (size_t i = 1; i < codes.size(); ++i) {
    EXPECT_LT(std::string(codes[i - 1]), std::string(codes[i]));
  }
  EXPECT_TRUE(DiagnosticCodeMeaning("E999").empty());
}

TEST(Diagnostic, EveryRegisteredConstantIsEnumerated) {
  // `datacon-lint --codes` prints exactly AllDiagnosticCodes(); a constant
  // missing here would silently vanish from the listing. Every kDiag*
  // constant declared in diagnostic.h must appear, with a meaning — the
  // W22x adornment family and the E12x/W23x constraint family included.
  const std::string_view all_constants[] = {
      kDiagParseError,       kDiagUnknownName,
      kDiagTypeError,        kDiagNonStratifiable,
      kDiagRedefinition,     kDiagUnsafeVariable,
      kDiagUnsafeConstraint, kDiagConstraintUnknownRelation,
      kDiagTypeConflict,     kDiagIllTypedOperation,
      kDiagUnusedBinding,    kDiagUnusedParameter,
      kDiagShadowedName,     kDiagCrossProduct,
      kDiagAlwaysFalseBranch, kDiagConstantConjunct,
      kDiagDuplicateBranch,  kDiagNonDifferentiable,
      kDiagNonLinearRecursion, kDiagStratifiedNegation,
      kDiagAdornmentNonLinear, kDiagAdornmentFreeJoin,
      kDiagAdornmentNegation, kDiagConstraintTrivial,
      kDiagConstraintRefuted, kDiagConstraintUnreachable,
      kDiagDisjointComparison, kDiagUnconstrainedAttribute,
      kDiagUnionNameMismatch,
  };
  std::vector<std::string_view> codes = AllDiagnosticCodes();
  EXPECT_EQ(codes.size(), std::size(all_constants));
  for (std::string_view constant : all_constants) {
    EXPECT_NE(std::find(codes.begin(), codes.end(), constant), codes.end())
        << constant;
    EXPECT_FALSE(DiagnosticCodeMeaning(constant).empty()) << constant;
  }
}

TEST(Diagnostic, FromStatusMapsCodes) {
  EXPECT_EQ(DiagnosticFromStatus(Status::NotFound("x")).code, kDiagUnknownName);
  EXPECT_EQ(DiagnosticFromStatus(Status::AlreadyExists("x")).code,
            kDiagRedefinition);
  EXPECT_EQ(DiagnosticFromStatus(Status::PositivityViolation("x")).code,
            kDiagNonStratifiable);
  EXPECT_EQ(DiagnosticFromStatus(Status::TypeError("x")).code, kDiagTypeError);
  EXPECT_EQ(DiagnosticFromStatus(Status::ParseError("x")).code,
            kDiagParseError);
}

TEST(Diagnostic, FromParseFailureRecoversSpan) {
  Result<Script> script = ParseScript("TYPE t = RELATION OF RECORD a: "
                                      "INTEGER END;\nQUERY ;\n");
  ASSERT_FALSE(script.ok());
  Diagnostic d = DiagnosticFromStatus(script.status());
  EXPECT_EQ(d.code, kDiagParseError);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.loc.line, 2);
  EXPECT_GT(d.loc.column, 0);
}

TEST(LintReport, CountsAndRender) {
  LintReport report;
  report.Append(MakeDiagnostic(kDiagUnusedBinding, "b", SourceLoc{5, 1}));
  report.Append(MakeDiagnostic(kDiagUnknownName, "a", SourceLoc{2, 3}));
  report.Append(MakeDiagnostic(kDiagCrossProduct, "c"));
  EXPECT_EQ(report.error_count(), 1u);
  EXPECT_EQ(report.warning_count(), 2u);
  EXPECT_TRUE(report.HasErrors());

  report.SortBySpan();
  EXPECT_EQ(report.diagnostics[0].code, kDiagUnknownName);
  EXPECT_EQ(report.diagnostics[1].code, kDiagUnusedBinding);
  // Unknown spans sort last.
  EXPECT_EQ(report.diagnostics[2].code, kDiagCrossProduct);

  std::string text = report.ToText();
  EXPECT_NE(text.find("2:3: error E101: a"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 2 warning(s)"), std::string::npos);

  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":2"), std::string::npos);
}

TEST(LintReport, SpanOrderingIsStableOnSharedLine) {
  // Diagnostics landing on the same source position must keep their
  // pipeline emission order (SortBySpan is a stable sort): pass order is
  // meaningful when several analyses flag one spot.
  LintReport report;
  report.Append(MakeDiagnostic(kDiagUnusedBinding, "first", SourceLoc{3, 5}));
  report.Append(MakeDiagnostic(kDiagUnusedBinding, "second", SourceLoc{3, 5}));
  report.Append(MakeDiagnostic(kDiagUnusedBinding, "third", SourceLoc{3, 5}));
  // Same line, differing column: column wins over emission order.
  report.Append(MakeDiagnostic(kDiagUnusedBinding, "early", SourceLoc{3, 1}));

  report.SortBySpan();
  ASSERT_EQ(report.diagnostics.size(), 4u);
  EXPECT_EQ(report.diagnostics[0].message, "early");
  EXPECT_EQ(report.diagnostics[1].message, "first");
  EXPECT_EQ(report.diagnostics[2].message, "second");
  EXPECT_EQ(report.diagnostics[3].message, "third");

  // Sorting again must not reshuffle the shared-position block.
  report.SortBySpan();
  EXPECT_EQ(report.diagnostics[1].message, "first");
  EXPECT_EQ(report.diagnostics[2].message, "second");
  EXPECT_EQ(report.diagnostics[3].message, "third");
}

TEST(LintReport, SharedLineOrdersByCodeBeforeEmission) {
  // On identical spans the code is the final sort key — an error code
  // numerically below a warning code precedes it regardless of when the
  // passes emitted them.
  LintReport report;
  report.Append(MakeDiagnostic(kDiagUnusedBinding, "warn", SourceLoc{7, 2}));
  report.Append(MakeDiagnostic(kDiagUnknownName, "err", SourceLoc{7, 2}));
  report.SortBySpan();
  EXPECT_EQ(report.diagnostics[0].code, kDiagUnknownName);
  EXPECT_EQ(report.diagnostics[1].code, kDiagUnusedBinding);
}

TEST(LintReport, EmptyReportRendersEmpty) {
  LintReport report;
  EXPECT_TRUE(report.empty());
  EXPECT_FALSE(report.HasErrors());
  EXPECT_EQ(report.ToText(), "");
  EXPECT_EQ(report.ToJson(), "{\"diagnostics\":[],\"errors\":0,\"warnings\":0}");
}

}  // namespace
}  // namespace datacon
