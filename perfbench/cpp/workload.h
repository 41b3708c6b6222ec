#ifndef PERFBENCH_CPP_WORKLOAD_H_
#define PERFBENCH_CPP_WORKLOAD_H_

// The workload interface: a seeded, fixed sequence of operations run in a
// closed loop by one client against one Database in this process.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ast/branch.h"
#include "ra/branch_exec.h"
#include "core/database.h"
#include "harness.h"
#include "lang/interpreter.h"
#include "oracle.h"
#include "storage/relation.h"

namespace perfbench {

enum class OpKind { kQuery, kInsert, kErase };

/// What one operation did, as seen by the client.
struct OpOutcome {
  OpKind kind = OpKind::kQuery;
  /// The operation's class within the workload (query shape or form,
  /// insert, erase), for the per-class latency summary.
  std::string label;
  /// Latency of the engine call, in nanoseconds.
  int64_t ns = 0;
  /// An error status, or an answer or accept/reject decision that differs
  /// from the oracle.
  bool failed = false;
  std::string why;
  /// An insert the oracle predicted to violate a constraint, rejected.
  bool expected_reject = false;
  /// Result tuples of a query.
  size_t result_tuples = 0;
  /// The DBPL text of a query, so the traced run can replay it.
  std::string query_text;
  /// The answer of a query (kept only when `keep_answer` was requested).
  datacon::Relation answer;
};

/// One branch execution input: a recursive branch of a shape, its bindings
/// resolved to the base relation and a recorded differential-round delta.
struct BranchInput {
  std::string label;
  datacon::BranchPtr branch;
  std::vector<datacon::ResolvedBinding> bindings;
  /// Schema of the branch's output (the constructor's result type).
  datacon::Schema output;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh database from the generated inputs: types,
  /// constructors, selectors and constraints, then the base facts. When
  /// `insert_us` is non-null the latency of each base-fact
  /// Database::Insert is appended to it.
  virtual datacon::Status Setup(std::vector<double>* insert_us) = 0;

  /// Runs operation `index` of the current epoch. `tracer` (may be null)
  /// receives one "op.*" span per operation, tagged `query_id`.
  virtual OpOutcome Run(int64_t index, Tracer* tracer, int64_t query_id,
                        bool keep_answer) = 0;

  /// Operations per epoch; the stream then restarts on a fresh Setup so
  /// every epoch replays the same states. 0: the stream never restarts.
  virtual int64_t epoch_ops() const { return 0; }

  /// Whether base-fact inserts of Setup feed the insert latency metrics
  /// (workloads without an insert stream report their load inserts).
  virtual bool setup_inserts_count() const { return true; }

  /// Operations between two timed set-ups of a spare instance, so set-up
  /// time is sampled throughout the run at points fixed by the operation
  /// stream.
  virtual int64_t ops_per_setup_sample() const = 0;

  /// Operations per measurement window. Every window runs the same
  /// operations in the same order (a whole epoch or a whole number of query
  /// rotations), so the samples at one place in the window time the same
  /// operation.
  virtual int64_t window_ops() const = 0;

  /// The share of each operation's samples, fastest first, that the
  /// end-to-end metrics are computed over. It is chosen so that a run still
  /// keeps at least ten query samples beyond p95.
  virtual double measured_share() const = 0;

  virtual datacon::Database* db() = 0;

  /// One recorded differential-round input per recursive shape, over the
  /// current database's base relations.
  virtual std::vector<BranchInput> BranchInputs() = 0;

  /// A reduced closure-shaped instance for the proof-vs-set reference.
  virtual std::vector<std::pair<int, int>> ReducedClosure() = 0;

  /// `count` fresh facts that a freshly set-up database accepts, and the
  /// relation they go to (the insert-overhead probe).
  virtual std::pair<std::string, std::vector<datacon::Tuple>> FreshFacts(
      int count) = 0;
};

std::unique_ptr<Workload> MakeAnalyticCold(uint64_t seed, bool tiny);
std::unique_ptr<Workload> MakePointLookup(uint64_t seed, bool tiny);
std::unique_ptr<Workload> MakeUpdateMix(uint64_t seed, bool tiny);

/// Runs one DBPL QUERY statement through the interpreter and times it.
/// The answer is moved out of the interpreter's result list.
struct QueryRun {
  datacon::Status status;
  datacon::Relation answer;
  int64_t ns = 0;
};
QueryRun RunQuery(datacon::Interpreter* interp, const std::string& text,
                  Tracer* tracer, int64_t query_id);

/// Times one Database::Insert.
int64_t TimedInsert(datacon::Database* db, const std::string& relation,
                    datacon::Tuple tuple, datacon::Status* status);

/// Fills an outcome from a query run checked against `oracle`.
OpOutcome CheckedQuery(QueryRun run, std::string label,
                       const std::string& text, const PairOracle& oracle,
                       bool keep_answer);

/// A binary integer relation holding `pairs` (for recorded deltas).
datacon::Relation PairRelation(
    const datacon::Schema& schema, const Edges& pairs,
    const std::function<datacon::Value(int)>& encode);

datacon::Value IntValue(int id);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_WORKLOAD_H_
