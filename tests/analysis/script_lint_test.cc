#include "analysis/script_lint.h"

#include <gtest/gtest.h>

#include <string>

#include "lang/parser.h"

namespace datacon {
namespace {

LintReport LintSource(const std::string& source) {
  Result<Script> script = ParseScript(source);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  if (!script.ok()) return {};
  return LintScript(script.value());
}

testing::AssertionResult HasDiag(const LintReport& report,
                                 std::string_view code, int line, int column) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code && d.loc.line == line && d.loc.column == column) {
      return testing::AssertionSuccess();
    }
  }
  return testing::AssertionFailure()
         << "no " << code << " at " << line << ":" << column << " in:\n"
         << report.ToText();
}

size_t CountDiag(const LintReport& report, std::string_view code) {
  size_t n = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) ++n;
  }
  return n;
}

constexpr char kPrelude[] =
    "TYPE t = RELATION OF RECORD a, b: INTEGER END;\n"  // line 1
    "VAR E: t;\n";                                      // line 2

TEST(LintScript, AdjacentConstructorsFormOneGroup) {
  // Mutually recursive constructors defined back to back resolve each
  // other's names, exactly as the interpreter's definition grouping does.
  LintReport report = LintSource(
      std::string(kPrelude) +
      "CONSTRUCTOR up FOR Rel: t (): t;\n"
      "BEGIN EACH r IN Rel: TRUE,\n"
      "      <f.a, b.b> OF EACH f IN Rel,\n"
      "      EACH b IN Rel {down}: f.b = b.a\n"
      "END up;\n"
      "CONSTRUCTOR down FOR Rel: t (): t;\n"
      "BEGIN EACH r IN Rel: TRUE,\n"
      "      <f.a, b.b> OF EACH f IN Rel,\n"
      "      EACH b IN Rel {up}: f.b = b.a\n"
      "END down;\n");
  EXPECT_TRUE(report.empty()) << report.ToText();
}

TEST(LintScript, InterveningStatementSplitsTheGroup) {
  // A non-constructor statement between the two definitions ends the
  // group, so the forward reference is an unknown name.
  LintReport report = LintSource(
      std::string(kPrelude) +
      "CONSTRUCTOR up FOR Rel: t (): t;\n"  // line 3
      "BEGIN EACH r IN Rel: TRUE,\n"        // line 4
      "      <f.a, b.b> OF EACH f IN Rel,\n"
      "      EACH b IN Rel {down}: f.b = b.a\n"  // line 6
      "END up;\n"
      "INSERT INTO E <1, 2>;\n"
      "CONSTRUCTOR down FOR Rel: t (): t;\n"
      "BEGIN EACH r IN Rel: TRUE,\n"
      "      <f.a, b.b> OF EACH f IN Rel,\n"
      "      EACH b IN Rel {up}: f.b = b.a\n"
      "END down;\n");
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 6, 7));
  EXPECT_EQ(CountDiag(report, kDiagUnknownName), 1u);
}

TEST(LintScript, InsertIntoUnknownRelation) {
  LintReport report =
      LintSource(std::string(kPrelude) + "INSERT INTO Nope <1, 2>;\n");
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 3, 1));
}

TEST(LintScript, AssignThroughUnknownSelector) {
  LintReport report =
      LintSource(std::string(kPrelude) + "E [nosel] := E;\n");
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 3, 1));
}

TEST(LintScript, AssignToUnknownRelation) {
  LintReport report = LintSource(std::string(kPrelude) + "Nope := E;\n");
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 3, 1));
}

TEST(LintScript, DuplicateVarIsRedefinition) {
  LintReport report = LintSource(std::string(kPrelude) + "VAR E: t;\n");
  EXPECT_EQ(CountDiag(report, kDiagRedefinition), 1u);
}

TEST(LintScript, ExplainRangeIsLinted) {
  LintReport report =
      LintSource(std::string(kPrelude) + "EXPLAIN E {tc};\n");
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 3, 1));
}

TEST(LintScript, SpanlessRangeDiagnosticsInheritStatementLoc) {
  // Ranges carry no source positions of their own; the enclosing QUERY's
  // location is stamped onto their findings.
  LintReport report =
      LintSource(std::string(kPrelude) + "\n\nQUERY E {tc};\n");
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 5, 1));
}

TEST(LintScript, CheckAndPragmaStatementsAreIgnored) {
  LintReport report = LintSource(std::string(kPrelude) +
                                 "PRAGMA LINT = ON;\n"
                                 "CHECK SCRIPT;\n");
  EXPECT_TRUE(report.empty()) << report.ToText();
}

TEST(LintScript, TypesReportEachDefectOnce) {
  // With type inference on, the type checker's range-name and
  // unbound-variable findings are the ones lint's own passes already make.
  Result<Script> script = ParseScript(std::string(kPrelude) +
                                      "QUERY {EACH r IN Nope: TRUE};\n"
                                      "QUERY {<r.a> OF EACH r IN E: z.a = 1};\n"
                                      "QUERY {EACH r IN E [nosel]: TRUE};\n"
                                      "QUERY {EACH r IN E {noctor}: TRUE};\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  LintOptions options;
  options.types = true;
  LintReport report = LintScript(script.value(), options);
  for (int line = 3; line <= 6; ++line) {
    size_t at_line = 0;
    for (const Diagnostic& d : report.diagnostics) {
      if (d.loc.line == line) ++at_line;
    }
    EXPECT_EQ(at_line, 1u) << "line " << line << ":\n" << report.ToText();
  }
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 3, 8));
  EXPECT_TRUE(HasDiag(report, kDiagUnsafeVariable, 4, 8));
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 5, 8));
  EXPECT_TRUE(HasDiag(report, kDiagUnknownName, 6, 8));
  EXPECT_EQ(report.diagnostics.size(), 4u) << report.ToText();
}

TEST(LintScript, ReportIsSortedBySpan) {
  LintReport report = LintSource(std::string(kPrelude) +
                                 "QUERY E {tc};\n"
                                 "QUERY Nope;\n");
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].loc.line, 3);
  EXPECT_EQ(report.diagnostics[1].loc.line, 4);
}

}  // namespace
}  // namespace datacon
