#include "analysis/diagnostic.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <utility>

#include "common/string_util.h"

namespace datacon {

namespace {

struct CodeEntry {
  std::string_view code;
  std::string_view meaning;
};

/// The registry behind DiagnosticCodeMeaning/AllDiagnosticCodes. Order is
/// errors first, numerically — the order DESIGN.md documents them in.
constexpr std::array<CodeEntry, 29> kCodeTable = {{
    {kDiagParseError, "the source fragment failed to parse"},
    {kDiagUnknownName,
     "a relation, selector, constructor, parameter, tuple variable, or field "
     "name is not declared"},
    {kDiagTypeError,
     "a level-1 structural defect: an argument count or base schema, a "
     "target-list arity, a non-union-compatible identity branch, a "
     "duplicate or shadowing variable, duplicate formals, an empty body, or "
     "a membership-tuple arity"},
    {kDiagNonStratifiable,
     "a constructed range occurs under an odd number of NOTs/ALLs inside its "
     "own recursive component (no stratification can evaluate it)"},
    {kDiagRedefinition, "the name is already defined"},
    {kDiagUnsafeVariable,
     "a target or predicate variable is not bound by any range"},
    {kDiagUnsafeConstraint,
     "the constraint body is unsafe: a variable is unbound, a parameter "
     "placeholder occurs (constraints take no parameters), or the denial "
     "fails the type checker"},
    {kDiagConstraintUnknownRelation,
     "the constraint references a relation, selector, or constructor that "
     "is not declared"},
    {kDiagTypeConflict,
     "whole-program type inference found two contributions that assign "
     "incompatible types to the same attribute, parameter, or term (both "
     "contributing spans are named in the message)"},
    {kDiagIllTypedOperation,
     "an arithmetic operator is applied to a non-integer operand, or an "
     "ordered comparison (<, <=, >, >=) mixes operands of different types"},
    {kDiagUnusedBinding,
     "a tuple variable is bound by EACH but used neither in the predicate "
     "nor in the target list"},
    {kDiagUnusedParameter,
     "a declared scalar or relation parameter is never referenced"},
    {kDiagShadowedName,
     "a tuple or quantifier variable shadows a scalar parameter or an "
     "enclosing variable"},
    {kDiagCrossProduct,
     "a branch's bindings are not connected by any shared conjunct; the "
     "branch enumerates a cross product"},
    {kDiagAlwaysFalseBranch,
     "the branch predicate folds to FALSE; the branch never produces tuples"},
    {kDiagConstantConjunct,
     "a conjunct folds to TRUE and never restricts the branch"},
    {kDiagDuplicateBranch, "the branch repeats an earlier branch verbatim"},
    {kDiagNonDifferentiable,
     "a recursive reference occurs inside the branch predicate; semi-naive "
     "evaluation falls back to full re-evaluation for this branch"},
    {kDiagNonLinearRecursion,
     "the branch binds two or more recursive ranges (non-linear recursion); "
     "each fixpoint round is quadratic in the new tuples"},
    {kDiagStratifiedNegation,
     "a constructed range of a lower stratum occurs under an odd number of "
     "NOTs/ALLs; accepted only with allow_stratified_negation"},
    {kDiagAdornmentNonLinear,
     "a bound attribute cannot be specialized: the adornment is lost across "
     "a non-linear branch (two or more recursive bindings)"},
    {kDiagAdornmentFreeJoin,
     "a bound attribute cannot be specialized: the binding is dropped by a "
     "free-variable join (no equality conjunct carries the bound value into "
     "the recursive binding)"},
    {kDiagAdornmentNegation,
     "a bound attribute cannot be specialized: relevance propagation is "
     "blocked by a recursive reference under negation or inside a branch "
     "predicate"},
    {kDiagConstraintTrivial,
     "the constraint's denial folds to FALSE; no database state can ever "
     "violate it"},
    {kDiagConstraintRefuted,
     "the constraint is refuted by existing facts: the denial already has a "
     "witness in the current database state"},
    {kDiagConstraintUnreachable,
     "no INSERT or assignment in the script touches any input relation of "
     "the constraint; its support can never change"},
    {kDiagDisjointComparison,
     "an equality or inequality compares operands of statically disjoint "
     "types; the comparison has a constant truth value"},
    {kDiagUnconstrainedAttribute,
     "no branch constrains the type of this derived-relation attribute; "
     "inference leaves it unknown"},
    {kDiagUnionNameMismatch,
     "the union's branches disagree on a result field name; a positional "
     "name is used instead of the first branch's"},
}};

}  // namespace

std::string_view SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::string_view DiagnosticCodeMeaning(std::string_view code) {
  for (const CodeEntry& entry : kCodeTable) {
    if (entry.code == code) return entry.meaning;
  }
  return {};
}

std::vector<std::string_view> AllDiagnosticCodes() {
  std::vector<std::string_view> out;
  out.reserve(kCodeTable.size());
  for (const CodeEntry& entry : kCodeTable) out.push_back(entry.code);
  return out;
}

std::string Diagnostic::ToString() const {
  std::string out;
  if (loc.valid()) out += loc.ToString() + ": ";
  out += SeverityName(severity);
  out += " ";
  out += code;
  out += ": ";
  out += message;
  return out;
}

std::string Diagnostic::ToJson() const {
  std::string out = "{\"code\":";
  AppendJsonEscaped(&out, code);
  out += ",\"severity\":";
  AppendJsonEscaped(&out, SeverityName(severity));
  out += ",\"line\":" + std::to_string(loc.line);
  out += ",\"column\":" + std::to_string(loc.column);
  out += ",\"message\":";
  AppendJsonEscaped(&out, message);
  out += "}";
  return out;
}

Diagnostic MakeDiagnostic(std::string_view code, std::string message,
                          SourceLoc loc) {
  Diagnostic d;
  d.code = std::string(code);
  d.severity = !code.empty() && code[0] == 'E' ? Severity::kError
                                               : Severity::kWarning;
  d.message = std::move(message);
  d.loc = loc;
  return d;
}

Diagnostic DiagnosticFromStatus(const Status& status) {
  std::string_view code;
  switch (status.code()) {
    case StatusCode::kParseError:
      code = kDiagParseError;
      break;
    case StatusCode::kNotFound:
      code = kDiagUnknownName;
      break;
    case StatusCode::kAlreadyExists:
      code = kDiagRedefinition;
      break;
    case StatusCode::kPositivityViolation:
      code = kDiagNonStratifiable;
      break;
    default:
      code = kDiagTypeError;
      break;
  }
  // Parser and lexer errors embed "at line L, column C"; recover the span so
  // E100 points at the offending token.
  SourceLoc loc;
  const std::string& msg = status.message();
  size_t at = msg.rfind("at line ");
  if (at != std::string::npos) {
    int line = 0, column = 0;
    size_t p = at + 8;
    while (p < msg.size() && std::isdigit(static_cast<unsigned char>(msg[p]))) {
      line = line * 10 + (msg[p++] - '0');
    }
    size_t col = msg.find("column ", p);
    if (col != std::string::npos) {
      p = col + 7;
      while (p < msg.size() &&
             std::isdigit(static_cast<unsigned char>(msg[p]))) {
        column = column * 10 + (msg[p++] - '0');
      }
    }
    loc = SourceLoc{line, column};
  }
  return MakeDiagnostic(code, status.message(), loc);
}

bool LintReport::HasErrors() const { return error_count() > 0; }

size_t LintReport::error_count() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

size_t LintReport::warning_count() const {
  return diagnostics.size() - error_count();
}

void LintReport::Append(std::vector<Diagnostic> ds) {
  for (Diagnostic& d : ds) diagnostics.push_back(std::move(d));
}

void LintReport::SortBySpan() {
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.valid() != b.loc.valid()) return a.loc.valid();
                     if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
                     if (a.loc.column != b.loc.column) {
                       return a.loc.column < b.loc.column;
                     }
                     return a.code < b.code;
                   });
}

std::string LintReport::ToText() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.ToString();
    out += "\n";
  }
  if (!diagnostics.empty()) {
    out += std::to_string(error_count()) + " error(s), " +
           std::to_string(warning_count()) + " warning(s)\n";
  }
  return out;
}

std::string LintReport::ToJson() const {
  std::string out = "{\"diagnostics\":[";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    if (i > 0) out += ",";
    out += diagnostics[i].ToJson();
  }
  out += "],\"errors\":" + std::to_string(error_count());
  out += ",\"warnings\":" + std::to_string(warning_count());
  out += "}";
  return out;
}

}  // namespace datacon
