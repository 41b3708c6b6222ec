#ifndef DATACON_CORE_DATABASE_H_
#define DATACON_CORE_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/adorn.h"
#include "analysis/constraint.h"
#include "analysis/lint.h"
#include "ast/branch.h"
#include "ast/decl.h"
#include "ast/range.h"
#include "common/eventlog.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/catalog.h"
#include "core/fixpoint.h"
#include "core/instantiate.h"
#include "core/matcache.h"
#include "core/rewrite.h"
#include "core/specialize.h"
#include "storage/relation.h"
#include "types/value.h"

namespace datacon {

/// Knobs of the three-level compilation/optimization framework (section 4).
/// Benchmarks flip these to isolate the effect of each technique.
struct DatabaseOptions {
  EvalOptions eval;
  /// Apply capture rules: transitive-closure-shaped constructors are
  /// materialized by a specialized frontier algorithm, and queries binding
  /// the closure's source attribute run a seeded (magic) closure.
  bool use_capture_rules = true;
  /// Inline non-recursive constructor applications into queries (the
  /// section 4 propagation cases 1-3 over range-nested expressions).
  bool inline_nonrecursive = true;
  /// Magic-seed specialization: run the compile-time adornment/relevance
  /// analysis (analysis/adorn.h) per query and restrict eligible fixpoints
  /// to tuples relevant for the bound attributes (`PRAGMA SPECIALIZE`).
  bool specialize = true;
  /// Extension beyond the paper: accept constructors violating the strict
  /// positivity test as long as every negative dependency crosses strata
  /// (checked at query compilation). The paper's DBPL rejects these at
  /// definition time.
  bool allow_stratified_negation = false;
  /// Capacity of the slow-query log (N slowest statements retained);
  /// 0 disables it. The admission threshold is runtime-settable
  /// (slow_query_log().set_threshold_ns, `PRAGMA SLOW_QUERY_MS`).
  size_t slow_query_log_capacity = 16;
  /// Incremental constructor-application cache (`PRAGMA CACHE`): reuse
  /// materialized applications across queries keyed on the generations of
  /// their input relations; insert-only churn is delta-maintained, any
  /// erase/clear invalidates. Parameterized (prepared) executions bypass
  /// the cache regardless.
  bool cache = true;
  /// Entry capacity of that cache, LRU-evicted (`PRAGMA CACHE_CAPACITY`);
  /// 0 stops new entries from being stored.
  size_t cache_capacity = 64;
  /// Enforce declared integrity constraints on INSERT and assignment
  /// (`PRAGMA CONSTRAINTS`). Definitions are still audited and compiled
  /// while off; violations admitted while off surface on the next checked
  /// statement (its full recheck).
  bool constraints = true;
  /// Run the compile-time simplified (delta-driven) checks where the
  /// analysis proved them complete; false forces full re-evaluation on
  /// every check — the A/B lever of bench_constraints.
  bool constraints_simplify = true;
  /// Run the level-1 type checks and the whole-program type inference at
  /// definition time (`PRAGMA TYPECHECK`). While every definition in the
  /// catalog was admitted with this on, evaluation is *typed-proven*: the
  /// inner loop skips per-tuple Value::type() dispatch (ra/eval.h). Turning
  /// it off admits ill-typed definitions, permanently demoting the catalog
  /// to the checked interpreter (eval-time kTypeError becomes reachable).
  bool typecheck = true;
  /// Record structured events (`PRAGMA EVENTS`, `SHOW EVENTS;`): query
  /// start/finish, cache outcomes, constraint violations, specialization
  /// fallbacks, slow-query admissions. Off by default; while off, each
  /// emission site costs one relaxed atomic load.
  bool events = false;
};

class Database;

/// The record of one observed evaluation as the database keeps it: the
/// evaluator's QueryRecord — copied out on failure too, so a failing query
/// reports the work it did — plus what only the database knows.
struct EvaluationRecord : QueryRecord {
  /// 1-based sequence number (see Database::last_eval_index).
  int64_t eval_index = 0;
  int64_t elapsed_ns = 0;
  bool ok = false;
  /// Ran on the typed-proven fast path: typecheck on, every definition
  /// admitted under it, and the checked (non-unchecked) evaluation mode.
  bool typed_proven = false;
  /// The prepared plan's description; empty for an ad-hoc query.
  std::string plan;
};

/// A query's level-2 plan: the expression after inlining, the seeded-closure
/// plan when one applies, and the one-line description naming the choice.
struct QueryPlan {
  CalcExprPtr expr;
  std::optional<SeededTcPlan> seeded;
  std::string description;
};

/// A query form's compiled program (DESIGN §4.8): the level-2 plan and,
/// once compiled, the level-3 program — the application graph, the
/// adornment analysis and specialization plan, the seeded closure's node,
/// and the SystemProgram every evaluation of the form runs. Parameter
/// seeds, magic sets, indexes and cache entries stay per execution.
struct QueryProgram {
  /// What a program depends on besides its expression: the catalog's
  /// definitions and the options that shape a plan. THREADS, PROFILE and
  /// the data never do.
  struct Key {
    uint64_t definitions = 0;
    bool specialize = false;
    bool capture_rules = false;
    bool inline_nonrecursive = false;
    bool hash_joins = false;
    bool typed_proven = false;
    bool unchecked = false;
    FixpointStrategy strategy = FixpointStrategy::kSemiNaive;
    bool operator==(const Key&) const = default;
  };

  Key key;
  QueryPlan plan;
  /// Set once the level-3 parts below are built.
  bool compiled = false;
  std::optional<ApplicationGraph> graph;
  std::optional<AdornmentAnalysis> adornment;
  std::optional<SpecializationPlan> specialization;
  /// The seeded plan's closure node (the CaptureSeed's node); -1 for a
  /// general plan.
  int seeded_node = -1;
  SystemProgram system;
};

/// A compiled parameterized query form. Owns its program, built once and
/// reused by every Execute until a definition or a plan-shaping option
/// changes; Execute supplies the constants and runs level 3 only.
class PreparedQuery {
 public:
  /// Runs the compiled form with the given parameter values.
  Result<Relation> Execute(const std::map<std::string, Value>& params);

  /// One line describing the chosen plan ("seeded transitive closure on
  /// parameter 'p'" / "general evaluation").
  const std::string& plan_description() const {
    return program_->plan.description;
  }

  const Schema& result_schema() const { return schema_; }

 private:
  friend class Database;
  PreparedQuery() = default;

  /// Runs the compiled form under `params`, which must bind exactly the
  /// placeholders at their declared types (not re-checked): Execute after
  /// validating its map, and the constraint checks with a reused
  /// environment bound by position.
  Result<Relation> ExecuteBound(const Environment& params);

  Database* db_ = nullptr;
  /// The form as prepared; a rebuild plans it afresh.
  CalcExprPtr expr_;
  std::unique_ptr<QueryProgram> program_;
  Schema schema_;
  std::map<std::string, ValueType> placeholders_;
  // Constraint checks set this: checking must be invisible, so even a
  // parameterless denial may neither read nor warm the materialization
  // cache (a warmed entry would change later queries' replayed stats).
  bool cache_bypass_ = false;
};

/// The DBPL database program facade: definitions run level-1 analysis
/// (type check, positivity, definition partitioning), queries run level-2
/// compilation (instantiation, rewrites, capture rules) and level-3
/// evaluation (set-oriented fixpoint).
class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  /// Retires this database's metrics into ProcessMetrics(), so process-wide
  /// artifacts (benchmark JSON, end-of-process dumps) see the union of all
  /// databases' work.
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Definitions (level 1) ---

  /// `TYPE name = RELATION <key> OF RECORD ... END`.
  Status DefineRelationType(const std::string& name, Schema schema);

  /// `VAR name: type_name`.
  Status CreateRelation(const std::string& name, const std::string& type_name);

  /// Inserts one tuple into a base relation (key constraint enforced).
  /// With constraints on, every compiled integrity constraint whose inputs
  /// moved is re-checked; a violation erases the tuple again and returns
  /// kConstraintViolation.
  Status Insert(const std::string& relation, Tuple tuple);

  /// Inserts a batch of tuples atomically: on a key or constraint
  /// violation every tuple that grew the relation is erased again and the
  /// relation's tuple set is exactly what it was (the backend of a
  /// multi-tuple `INSERT INTO ...;` statement).
  Status InsertAll(const std::string& relation,
                   const std::vector<Tuple>& tuples);

  Result<const Relation*> GetRelation(const std::string& name) const;
  Result<Relation*> GetMutableRelation(const std::string& name);

  /// Checked assignment `relation := value` (section 2.2: the type checker
  /// re-validates the key constraint; on violation nothing changes).
  Status Assign(const std::string& relation, const Relation& value);

  /// Assignment through a selector, `relation[sel(args)] := value`
  /// (section 2.3): every tuple of `value` must satisfy the selector's
  /// predicate, otherwise kInvalidArgument and nothing changes.
  Status AssignThroughSelector(const std::string& relation,
                               const std::string& selector,
                               const std::vector<Value>& args,
                               const Relation& value);

  /// Defines a selector after type-checking it.
  Status DefineSelector(SelectorDeclPtr decl);

  /// Defines a constructor after type-checking and (unless
  /// allow_stratified_negation) the strict positivity test of section 3.3.
  /// The constructor may reference itself; references to other constructors
  /// must already be defined — use DefineConstructorGroup for mutual
  /// recursion.
  Status DefineConstructor(ConstructorDeclPtr decl);

  /// Defines a set of (possibly mutually recursive) constructors: all are
  /// registered, then all are checked; on any failure the whole group is
  /// rolled back.
  Status DefineConstructorGroup(const std::vector<ConstructorDeclPtr>& decls);

  /// Defines a constructor with the positivity test skipped. Exists to
  /// reproduce the section 3.3 examples (`nonsense`, `strange`) in
  /// unchecked evaluation mode; not part of the paper's DBPL surface.
  Status DefineConstructorUnchecked(ConstructorDeclPtr decl);

  /// Defines an integrity constraint: runs the define-time audit
  /// (analysis/constraint.h; error diagnostics reject), compiles the full
  /// denial check plus the per-event simplified residues, and — with
  /// constraints on — verifies the constraint against the existing facts
  /// (refuted constraints are rejected with kConstraintViolation and the
  /// catalog is left untouched).
  Status DefineConstraint(ConstraintDeclPtr decl);

  /// The `SHOW CONSTRAINTS;` table: every constraint with the physical
  /// plan of its full check and its per-input-relation event modes and
  /// residue plans.
  std::string DescribeConstraints() const;

  // --- Static analysis ---

  /// Runs the lint pipeline (analysis/lint.h) over every selector and
  /// constructor defined so far; allow_stratified_negation follows
  /// options(). The backend of `CHECK SCRIPT;` and the datacon-lint CLI.
  /// Defined in the datacon_analysis library — callers must link it.
  LintReport Lint() const;

  /// Lints one defined selector or constructor by name (`CHECK name;`).
  /// kNotFound when the catalog knows no such declaration.
  Result<LintReport> Lint(const std::string& name) const;

  // --- Queries (levels 2 + 3) ---

  /// The value of a (selected/constructed) relation expression —
  /// `Infront {ahead}`, `Infront [hidden_by("table")] {ahead}`, ...
  Result<Relation> EvalRange(const RangePtr& range);

  /// Evaluates a relational calculus expression; the result schema is
  /// inferred from the first branch.
  Result<Relation> EvalQuery(const CalcExprPtr& expr);

  /// Evaluates with an explicit result schema.
  Result<Relation> EvalQueryAs(const CalcExprPtr& expr, const Schema& schema);

  /// Compiles a parameterized query form once (the paper's *logical access
  /// path*: a compiled procedure with dummy constants); Execute binds the
  /// constants.
  Result<PreparedQuery> Prepare(CalcExprPtr expr,
                                std::map<std::string, ValueType> placeholders);

  /// Human-readable description of how `range` would be evaluated:
  /// instantiated applications, recursive components, chosen strategy,
  /// capture-rule hits, and the level-1 definition partitions.
  Result<std::string> Explain(const RangePtr& range) const;

  const Catalog& catalog() const { return catalog_; }
  DatabaseOptions& options() { return options_; }
  const DatabaseOptions& options() const { return options_; }

  /// The record of the most recent evaluation (EvalRange, EvalQuery or
  /// PreparedQuery::Execute) — what EXPLAIN ANALYZE, the slow-query log,
  /// query.finish events, the `evaluate` span and the query.* histograms
  /// render.
  const EvaluationRecord& last_record() const { return last_record_; }

  /// Statistics of the most recent evaluation.
  const EvalStats& last_stats() const { return last_record_.stats; }

  /// Profile tree of the most recent evaluation, or null when profiling was
  /// off (options().eval.profile) — consumed by EXPLAIN ANALYZE. Equivalent
  /// to profile_at(last_eval_index()).
  const ProfileNode* last_profile() const {
    return profile_at(last_eval_index());
  }

  /// The 1-based sequence number of the most recent evaluation (0 before
  /// the first). Each EvalRange/EvalQuery/PreparedQuery::Execute call gets
  /// the next index.
  int64_t last_eval_index() const { return last_record_.eval_index; }

  /// True while every definition in the catalog was admitted with
  /// typecheck on (the proof obligation of the typed fast path).
  bool catalog_typed_clean() const { return catalog_typed_clean_; }

  /// Profile tree of evaluation `index`, or null when profiling was off for
  /// that evaluation or the profile has been evicted. The most recent
  /// kRetainedProfiles profiled evaluations are retained, so a pointer
  /// taken for statement i stays valid while later statements run — the
  /// fix for last_profile() being clobbered by the next statement.
  const ProfileNode* profile_at(int64_t index) const;

  /// The kRetainedProfiles bound (exposed for the eviction regression
  /// test).
  static constexpr size_t kRetainedProfiles = 32;

  /// This database's metrics registry: the query histograms plus the
  /// cache.*/constraints.* counters. `SHOW METRICS;` and the Prometheus
  /// exposition read it; no other database ever writes it.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// This database's structured event log (`PRAGMA EVENTS`,
  /// `SHOW EVENTS;`, REPL --events-out).
  EventLog& events() { return event_log_; }
  const EventLog& events() const { return event_log_; }

  /// The database's slow-query log (see DatabaseOptions
  /// slow_query_log_capacity). Every evaluation at or above the threshold
  /// is offered to it with the printed query text and a stats digest.
  SlowQueryLog& slow_query_log() { return slow_query_log_; }
  const SlowQueryLog& slow_query_log() const { return slow_query_log_; }

  /// The materialization cache (PRAGMA CACHE / CACHE_CAPACITY). Lifetime
  /// counters live in mat_cache().stats(); per-query outcomes in
  /// last_record().
  MatCache& mat_cache() { return mat_cache_; }
  const MatCache& mat_cache() const { return mat_cache_; }

 private:
  friend class PreparedQuery;

  /// One compiled residue: the parameterized denial remainder plus the
  /// parameter name carrying each delta attribute, and the environment its
  /// executions reuse — `slots[i]` is the value of param_fields[i] in it,
  /// so a delta tuple binds by position.
  struct CompiledResidue {
    PreparedQuery query;
    std::vector<std::string> param_fields;
    Environment params;
    std::vector<Value*> slots;
  };
  /// The compiled plan for INSERTs into one input relation. A residue that
  /// failed to compile degrades the event to kFull at define time.
  struct CompiledEvent {
    ConstraintCheckMode insert_mode = ConstraintCheckMode::kFull;
    std::vector<CompiledResidue> residues;
  };
  /// One input of a constraint: its catalog relation (never dropped), its
  /// compiled INSERT event (null when it has none), and its generation as
  /// of the last successful check (the delta baseline).
  struct SnapshotEntry {
    std::string relation;
    const Relation* rel = nullptr;
    CompiledEvent* event = nullptr;
    uint64_t generation = 0;
  };
  /// A defined constraint with its compiled checks and its inputs, in name
  /// order.
  struct CompiledConstraint {
    ConstraintDeclPtr decl;
    ConstraintBody body;
    std::optional<PreparedQuery> full;
    std::map<std::string, CompiledEvent> events;
    std::vector<SnapshotEntry> snapshot;
  };

  /// Re-checks every constraint whose input generations moved since its
  /// snapshot; kConstraintViolation on the first witness found. No-op with
  /// constraints off or none defined. Callers roll the mutation back on
  /// failure.
  Status CheckConstraintsAfterUpdate();
  Status CheckOneConstraint(CompiledConstraint* constraint);

  /// The physical plan of one branch (ExplainBranchPlan) as the executor
  /// runs it under options(): EXPLAIN's level 3 and SHOW CONSTRAINTS.
  Result<std::string> ExplainBranch(const Branch& branch) const;

  /// The constraints whose snapshots equal the current generations of all
  /// their inputs: they verified the current state. Taken before a
  /// statement mutates anything.
  std::vector<CompiledConstraint*> VerifiedConstraints();

  /// After a failed statement's rollback restored the pre-statement tuple
  /// sets: moves the snapshots of `verified` (VerifiedConstraints before
  /// the statement) to the post-rollback generations. The rollback's
  /// erase or assignment discarded the insert log, but these constraints
  /// already verified exactly this state, so the next statement replays
  /// only its own inserts instead of re-checking in full. Every other
  /// snapshot stays as stale as it was.
  void RestoreBaselines(const std::vector<CompiledConstraint*>& verified);

  /// The ad-hoc evaluation pipeline: compiles a program for `expr` and
  /// runs it once, through the code every prepared execution runs, wrapped
  /// in the per-query observability (trace span, latency/rounds/tuples
  /// histograms, slow-query log).
  Result<Relation> Evaluate(const CalcExprPtr& expr, const Schema& schema,
                            const Environment& params);

  /// Runs `run` (returning Result<Relation>) as one observed evaluation of
  /// `expr`: span, query.start event, timer, and FinishEvaluation. `plan`
  /// names a prepared plan; null for an ad-hoc query (query.start carries
  /// its text instead).
  template <typename Run>
  Result<Relation> ObservedEvaluation(const CalcExpr& expr,
                                      const std::string* plan, Run run);

  /// Starts a new evaluation sequence number and resets last_record_.
  void BeginEvaluation(const std::string* plan);

  /// Renders last_record_ into this database's metrics histograms, the
  /// slow-query log, and the event log; called on every evaluation exit
  /// (also failed ones — a slow failing query is still a slow query).
  void FinishEvaluation(const CalcExpr& expr);

  /// Copies `ev`'s record into last_record_ and retains its profile — on
  /// success and failure alike.
  void KeepRecord(SystemEvaluator* ev);

  /// Retains `profile` (may be null) for the current evaluation index,
  /// evicting beyond kRetainedProfiles.
  void StoreProfile(std::unique_ptr<ProfileNode> profile);

  /// The one plan choice of Evaluate and Prepare (level 2): inlines
  /// non-recursive applications (when enabled), detects a seeded-closure
  /// plan (with capture rules on), and names the result.
  Result<QueryPlan> PlanQuery(const CalcExprPtr& expr) const;

  /// The key a program compiled now would carry.
  QueryProgram::Key ProgramKeyNow() const;

  /// A fresh program for `expr`: its level-2 plan (PlanQuery) under the
  /// current key, level 3 not yet compiled.
  Result<std::unique_ptr<QueryProgram>> PlanProgram(
      const CalcExprPtr& expr) const;

  /// Compiles `program`'s level 3: instantiates the application graph of
  /// its plan and, for a general plan, runs the adornment analysis and
  /// builds the specialization plan (when options().specialize, or always
  /// with `for_explain`); for a seeded plan, finds the closure's node (and
  /// fails when it cannot).
  Status CompileProgram(QueryProgram* program, bool for_explain = false) const;

  /// Level-3 execution of a program (compiled first if it is not yet): one
  /// evaluator materializes its application graph and evaluates its
  /// expression. A seeded plan's seed (its literal, or its parameter bound
  /// in `params`) becomes the capture rule's CaptureSeed. `allow_cache =
  /// false` forces the run past the materialization cache (constraint
  /// checks).
  Result<Relation> RunProgram(QueryProgram* program, const Schema& schema,
                              const Environment& params,
                              bool allow_cache = true);

  /// The evaluator options of the next evaluation: options().eval with the
  /// typed-proven verdict and, when THREADS resolves above 1 and no pool
  /// was supplied, this database's worker pool — created on first use and
  /// replaced when the resolved thread count changes.
  EvalOptions EvalOptionsNow();

  Status DefineConstructorGroup(const std::vector<ConstructorDeclPtr>& decls,
                                bool check_positivity);

  /// The typed-proven verdict for the next evaluation; see
  /// EvaluationRecord::typed_proven.
  bool TypedProven() const {
    return options_.typecheck && catalog_typed_clean_ &&
           !options_.eval.unchecked;
  }

  DatabaseOptions options_;
  Catalog catalog_;
  EvaluationRecord last_record_;
  bool catalog_typed_clean_ = true;
  /// (evaluation index, profile) pairs, oldest first, at most
  /// kRetainedProfiles entries.
  std::vector<std::pair<int64_t, std::unique_ptr<ProfileNode>>> profiles_;
  /// Declared before slow_query_log_/mat_cache_: MatCache registers its
  /// counter mirrors against metrics_ in its constructor.
  MetricsRegistry metrics_;
  EventLog event_log_;
  /// Registry-owned instruments this database feeds on every evaluation /
  /// constraint check (stable pointers, registered in the constructor).
  Histogram* query_latency_ns_;
  Histogram* query_fixpoint_rounds_;
  Histogram* query_tuples_inserted_;
  Histogram* query_seed_tuples_pruned_;
  Counter* constraints_checks_;
  Counter* constraints_simplified_;
  Counter* constraints_full_rechecks_;
  Counter* constraints_violations_;
  Counter* prepared_compilations_;
  SlowQueryLog slow_query_log_;
  MatCache mat_cache_;
  std::map<std::string, CompiledConstraint> constraints_;
  /// The worker pool every evaluation of this database shares (see
  /// EvalOptionsNow); null while THREADS resolves to 1.
  std::unique_ptr<ThreadPool> pool_;
  size_t pool_threads_ = 0;
};

}  // namespace datacon

#endif  // DATACON_CORE_DATABASE_H_
