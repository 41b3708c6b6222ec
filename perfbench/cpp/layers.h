#ifndef PERFBENCH_CPP_LAYERS_H_
#define PERFBENCH_CPP_LAYERS_H_

// The traced run's per-layer measurements. Every number is a public call of
// one module (lang, analysis, core, ra, storage, prolog) timed from outside
// the engine, or a count read from a public accessor.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "harness.h"
#include "oracle.h"
#include "workload.h"

namespace perfbench {

/// Sums over the replayed queries of a traced run.
struct ReplayTotals {
  int64_t queries = 0;
  int64_t parse_ns = 0;
  int64_t schema_ns = 0;
  int64_t inline_ns = 0;
  int64_t detect_seeded_ns = 0;
  int64_t instantiate_ns = 0;
  int64_t adorn_ns = 0;
  int64_t plan_ns = 0;
  int64_t capture_ns = 0;
  int64_t materialize_ns = 0;
  int64_t evaluate_expr_ns = 0;
  int64_t branch_ns = 0;
  int64_t eval_query_ns = 0;  // Database::EvalQuery on the same expression
  size_t rounds = 0;
  size_t considered = 0;
  size_t inserted = 0;
};

/// Replays `Database::Evaluate` for one DBPL query, phase by phase, with one
/// span per public call (parse, schema, inline, seeded-TC detect,
/// instantiate, adorn, plan, capture closure, materialize, evaluate), and
/// also times `Database::EvalQuery` on the same expression. Both run with
/// the materialization cache off so they do the same work. Returns false
/// (with `why`) when the replayed answer differs from EvalQuery's.
bool ReplayQuery(datacon::Database* db, const std::string& text,
                 Tracer* tracer, int64_t query_id, ReplayTotals* totals,
                 datacon::Relation* answer, std::string* why);

/// Per-layer metrics of the traced run, by name.
using Metrics = std::map<std::string, double>;

/// storage.*: Relation::Insert of new and duplicate tuples, HashIndex build
/// and probe, and the distinct-hash ratio, over the tuples of `largest`.
void ProbeStorage(const datacon::Relation& largest, Tracer* tracer,
                  Metrics* out);

/// ra.*: ExecuteBranch over each recorded differential-round input.
bool ProbeBranches(const std::vector<BranchInput>& inputs, Tracer* tracer,
                   Metrics* out, std::string* why);

/// prolog.*: tabled SLD (EvaluateRangeTopDown) against the set-oriented
/// engine on a reduced closure instance; false when the answers differ.
bool ProbeProlog(const Edges& edges, Tracer* tracer, Metrics* out,
                 std::string* why);

/// analysis.typecheck_ms: InferCatalogTypes over the workload's catalog.
void ProbeTypecheck(const datacon::Database& db, Tracer* tracer, Metrics* out);

/// core.constraint_overhead_us: Database::Insert minus Relation::Insert into
/// an identically shaped relation without constraints, per fact. Runs on a
/// freshly set-up database.
bool ProbeInsertOverhead(Workload* workload, Tracer* tracer, Metrics* out,
                         std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_LAYERS_H_
