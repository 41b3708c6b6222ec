#ifndef DATACON_RA_EVAL_H_
#define DATACON_RA_EVAL_H_

#include <optional>
#include <vector>

#include "ast/pred.h"
#include "ast/term.h"
#include "common/result.h"
#include "ra/env.h"
#include "ra/resolver.h"
#include "storage/index.h"

namespace datacon {

/// The index access of one `SOME v IN R: body` quantifier (DESIGN §4.7):
/// `R` is a catalog relation variable and `body` has top-level conjuncts
/// `v.f = t` with `t` free of `v`. The evaluator probes `index` (R's own,
/// on those fields) with the values of `keys` and evaluates the body on the
/// matching tuples only. The branch executor compiles the shape once
/// (ra/branch_exec.h CompiledBranch) and requests `index` per execution.
struct QuantProbe {
  const QuantPred* quant;
  const Relation* relation;
  const HashIndex* index;
  /// Aligned with index->columns(); owned by the compiled branch.
  const std::vector<TermPtr>* keys;
};

/// The probes of a predicate's quantifiers (a handful at most, so a flat
/// list searched by AST node).
using QuantProbes = std::vector<QuantProbe>;

/// Tree-walking evaluator for terms and predicates over an Environment.
///
/// Quantifiers (`SOME`/`ALL`) iterate the relation their range resolves to
/// — or, for a SOME with a compiled QuantProbe, only the tuples its index
/// returns; membership tests build the probe tuple and use the relation's
/// hash set.
/// All failures (unbound names, type mismatches, division by zero) are
/// reported as Status — for programs that passed semantic analysis the only
/// reachable runtime failure is integer division by zero.
///
/// Two walk variants share this interface (DESIGN §4.16). The *checked*
/// interpreter (default) tests Value::type() before every arithmetic and
/// comparison and constructs a kTypeError on mismatch — the fallback for
/// unproven programs and `PRAGMA TYPECHECK = OFF`. The *typed-proven*
/// variant replaces those per-tuple tests with debug-only assertions; it is
/// only sound when the whole-program type checker (analysis/typecheck.h)
/// proved every definition the program can reach, which Database certifies
/// via EvalOptions::typed_proven.
class Evaluator {
 public:
  /// `resolver` must outlive the evaluator; it may be null for predicates
  /// that contain no quantifier or membership ranges. `typed_proven`
  /// selects the fast walk — pass true only under a type-checker proof.
  /// `probes` (may be null; must outlive the evaluator) are the quantifier
  /// probes the branch executor compiled; a quantifier without one scans.
  explicit Evaluator(const RelationResolver* resolver,
                     bool typed_proven = false,
                     const QuantProbes* probes = nullptr)
      : resolver_(resolver), typed_proven_(typed_proven), probes_(probes) {}

  /// The scalar value of `term` under `env`.
  Result<Value> EvalTerm(const Term& term, const Environment& env) const;

  /// The truth value of `pred` under `env`.
  Result<bool> EvalPred(const Pred& pred, const Environment& env) const;

  /// The resolver quantifier/membership ranges resolve through (may be
  /// null). The branch executor snapshots it before a parallel fan-out.
  const RelationResolver* resolver() const { return resolver_; }

  /// True when this evaluator runs the typed-proven walk. Worker
  /// evaluators built over snapshots must inherit it.
  bool typed_proven() const { return typed_proven_; }

 private:
  template <bool Proven>
  Result<Value> EvalTermImpl(const Term& term, const Environment& env) const;
  template <bool Proven>
  Result<bool> EvalPredImpl(const Pred& pred, const Environment& env) const;
  /// The compiled probe of `quant`, or null when it scans.
  const QuantProbe* FindProbe(const QuantPred& quant) const {
    if (probes_ == nullptr) return nullptr;
    for (const QuantProbe& probe : *probes_) {
      if (probe.quant == &quant) return &probe;
    }
    return nullptr;
  }
  /// The probe key of `probe` under `env`, or nullopt when the quantifier
  /// must scan instead: a key fails to evaluate, or (checked walk) a key
  /// value's type differs from its column's — the scan then reports or
  /// rejects exactly what the probe-free evaluation would.
  template <bool Proven>
  std::optional<Tuple> ProbeKey(const QuantProbe& probe,
                                const Environment& env) const;

  const RelationResolver* resolver_;
  bool typed_proven_;
  const QuantProbes* probes_;
};

}  // namespace datacon

#endif  // DATACON_RA_EVAL_H_
