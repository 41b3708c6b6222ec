#ifndef DATACON_CORE_POSITIVITY_H_
#define DATACON_CORE_POSITIVITY_H_

#include "ast/branch.h"
#include "ast/decl.h"
#include "ast/pred.h"
#include "ast/range.h"
#include "common/status.h"

namespace datacon {

// ForEachRangeWithParity (ast/branch.h) is the traversal the positivity
// test counts NOTs and ALLs with.

/// The positivity constraint of section 3.3: every range containing a
/// constructor application must occur under an even number of NOTs and
/// ALLs. Violations yield kPositivityViolation with a message naming the
/// offending occurrence — this is the test the DBPL compiler applies to
/// reject `nonsense` (and, deliberately, the converging-but-non-monotonic
/// `strange`).
Status CheckPositivity(const ConstructorDecl& decl);

/// Positivity of a single expression body (used for queries pushed into
/// constructor bodies, section 4, case 3).
Status CheckPositivity(const CalcExpr& expr);

}  // namespace datacon

#endif  // DATACON_CORE_POSITIVITY_H_
