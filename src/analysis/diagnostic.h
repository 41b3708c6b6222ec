#ifndef DATACON_ANALYSIS_DIAGNOSTIC_H_
#define DATACON_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <string_view>
#include <vector>

#include "ast/source_loc.h"
#include "common/status.h"

namespace datacon {

/// Severity of a lint finding. Errors make a program invalid (they mirror
/// what the level-1 compiler rejects); warnings flag code that is legal but
/// suspicious, dead, or needlessly expensive.
enum class Severity {
  kWarning,
  kError,
};

/// "warning" or "error".
std::string_view SeverityName(Severity severity);

/// Stable diagnostic codes. Errors are E1xx, warnings W2xx; the numeric
/// values never change once released, so scripts and CI gates can match on
/// them. The full code -> meaning table lives in DESIGN.md §"Static
/// analysis & diagnostics" and is queryable via DiagnosticCodeMeaning.
inline constexpr std::string_view kDiagParseError = "E100";
inline constexpr std::string_view kDiagUnknownName = "E101";
inline constexpr std::string_view kDiagTypeError = "E102";
inline constexpr std::string_view kDiagNonStratifiable = "E103";
inline constexpr std::string_view kDiagRedefinition = "E104";
inline constexpr std::string_view kDiagUnsafeVariable = "E110";
inline constexpr std::string_view kDiagUnsafeConstraint = "E120";
inline constexpr std::string_view kDiagConstraintUnknownRelation = "E121";
inline constexpr std::string_view kDiagTypeConflict = "E130";
inline constexpr std::string_view kDiagIllTypedOperation = "E131";
inline constexpr std::string_view kDiagUnusedBinding = "W201";
inline constexpr std::string_view kDiagUnusedParameter = "W202";
inline constexpr std::string_view kDiagShadowedName = "W203";
inline constexpr std::string_view kDiagCrossProduct = "W204";
inline constexpr std::string_view kDiagAlwaysFalseBranch = "W205";
inline constexpr std::string_view kDiagConstantConjunct = "W206";
inline constexpr std::string_view kDiagDuplicateBranch = "W207";
inline constexpr std::string_view kDiagNonDifferentiable = "W210";
inline constexpr std::string_view kDiagNonLinearRecursion = "W211";
inline constexpr std::string_view kDiagStratifiedNegation = "W212";
inline constexpr std::string_view kDiagAdornmentNonLinear = "W220";
inline constexpr std::string_view kDiagAdornmentFreeJoin = "W221";
inline constexpr std::string_view kDiagAdornmentNegation = "W222";
inline constexpr std::string_view kDiagConstraintTrivial = "W230";
inline constexpr std::string_view kDiagConstraintRefuted = "W231";
inline constexpr std::string_view kDiagConstraintUnreachable = "W232";
inline constexpr std::string_view kDiagDisjointComparison = "W240";
inline constexpr std::string_view kDiagUnconstrainedAttribute = "W241";
inline constexpr std::string_view kDiagUnionNameMismatch = "W242";

/// One-line meaning of a diagnostic code, or empty for an unknown code.
std::string_view DiagnosticCodeMeaning(std::string_view code);

/// Every registered code, errors first, in numeric order.
std::vector<std::string_view> AllDiagnosticCodes();

/// One structured lint finding: a stable code, its severity, a
/// human-readable message, and the source span it points at (invalid when
/// the construct was built programmatically, without source).
struct Diagnostic {
  std::string code;
  Severity severity = Severity::kWarning;
  std::string message;
  SourceLoc loc;

  /// "<line>:<col>: <severity> <code>: <message>" (span omitted when
  /// unknown).
  std::string ToString() const;

  /// {"code":..,"severity":..,"line":..,"column":..,"message":..} — the
  /// metrics JSON conventions: no whitespace, stable key order.
  std::string ToJson() const;
};

/// Constructs a diagnostic, deriving the severity from the code's leading
/// letter ('E' -> error, anything else -> warning).
Diagnostic MakeDiagnostic(std::string_view code, std::string message,
                          SourceLoc loc = {});

/// Maps a failed Status from the level-1 checks onto a diagnostic: parse
/// errors (with their "line L, column C" span recovered from the message)
/// to E100, name lookups to E101, positivity violations to E103,
/// redefinitions to E104, everything else to E102.
Diagnostic DiagnosticFromStatus(const Status& status);

/// The outcome of a lint run: every finding, in source order per pass.
struct LintReport {
  std::vector<Diagnostic> diagnostics;

  bool empty() const { return diagnostics.empty(); }
  bool HasErrors() const;
  size_t error_count() const;
  size_t warning_count() const;

  void Append(Diagnostic d) { diagnostics.push_back(std::move(d)); }
  void Append(std::vector<Diagnostic> ds);

  /// Orders findings by source span (unknown spans last), then by code —
  /// the presentation order of every renderer.
  void SortBySpan();

  /// One finding per line (Diagnostic::ToString), plus a trailing summary
  /// line "N error(s), M warning(s)" when any finding exists.
  std::string ToText() const;

  /// {"diagnostics":[..],"errors":N,"warnings":M}.
  std::string ToJson() const;
};

}  // namespace datacon

#endif  // DATACON_ANALYSIS_DIAGNOSTIC_H_
