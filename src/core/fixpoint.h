#ifndef DATACON_CORE_FIXPOINT_H_
#define DATACON_CORE_FIXPOINT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/branch.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/catalog.h"
#include "core/instantiate.h"
#include "core/specialize.h"
#include "ra/branch_exec.h"
#include "ra/branch_plan.h"
#include "ra/env.h"
#include "ra/resolver.h"
#include "storage/relation.h"
#include "types/value.h"

namespace datacon {

class EventLog;
class MatCache;
class TraceSpan;
struct CacheLookup;
struct CachedRelation;
struct CacheInput;

/// Evaluation strategy for recursive components (section 3.2 / section 4).
enum class FixpointStrategy {
  /// The paper's REPEAT loop verbatim: every round recomputes every g_j
  /// from the full previous approximations (Jacobi iteration).
  kNaive,
  /// Differential evaluation: each round joins only against the tuples new
  /// in the previous round. Requires monotonicity (positivity).
  kSemiNaive,
};

/// How MaterializeAll evaluates one component of the application graph:
/// one pass (acyclic), a naive or semi-naive fixpoint (cyclic), or the
/// capture rule of section 4 (a transitive closure, by FullClosure, or by
/// SeededClosure for the node a CaptureSeed names).
enum class ComponentStrategy { kSinglePass, kNaive, kSemiNaive, kCapture };

/// The seeded form of the capture rule: application node `node` holds only
/// the closure tuples whose source is `value` — the query's constant
/// propagated into the closure (section 4), never the full closure.
struct CaptureSeed {
  int node = -1;
  Value value;
};

/// Options controlling system evaluation.
struct EvalOptions {
  FixpointStrategy strategy = FixpointStrategy::kSemiNaive;
  /// Physical execution knobs (hash-join ablation etc.).
  BranchExecOptions exec;
  /// Evaluate even non-positive systems by plain iteration, bounded by
  /// `max_iterations`. Exists to demonstrate the section 3.3 examples
  /// (`strange` converges, `nonsense` oscillates forever); forces kNaive.
  bool unchecked = false;
  /// Iteration bound per recursive component; 0 means unbounded. Exceeding
  /// it yields kDivergence.
  size_t max_iterations = 0;
  /// Collect a per-component, per-round ProfileNode tree (wall times, delta
  /// sizes, branch-level counters) alongside the flat EvalStats. Off by
  /// default; EXPLAIN ANALYZE and `PRAGMA PROFILE = ON` turn it on.
  bool profile = false;
  /// The whole-program type checker proved every definition well-typed:
  /// run the typed-proven Evaluator variant, which replaces per-tuple
  /// Value::type() dispatch and error construction with debug-only
  /// assertions (ra/eval.h). Set by Database per evaluation; never set it
  /// for a catalog holding definitions admitted with typecheck off.
  bool typed_proven = false;
};

/// Counters reported by evaluation, consumed by EXPLAIN ANALYZE and the
/// benchmarks. All fields except the two marked "execution detail" are
/// deterministic: bit-identical at every thread-count setting.
struct EvalStats {
  /// Fixpoint rounds summed over all recursive components.
  size_t iterations = 0;
  /// Environments reaching branch output (tuples considered before dedup).
  size_t tuples_considered = 0;
  /// Tuples actually added across all application relations.
  size_t tuples_inserted = 0;
  /// Tuples tried at the outermost level of every branch execution (all
  /// of a scan, the hits of a level-0 probe).
  size_t outer_tuples = 0;
  /// Indexed branch levels (inner join levels and probing level 0s),
  /// counted per branch execution whether the index was built or reused.
  size_t index_builds = 0;
  /// Probe calls against those indexes.
  size_t index_probes = 0;
  /// Execution detail: snapshot materializations before parallel fan-outs.
  size_t snapshot_materializations = 0;
  /// Execution detail: chunks dispatched to the worker pool.
  size_t chunks_dispatched = 0;
  /// Body branches restricted by the magic-seed specialization.
  size_t specialized_branches = 0;
  /// Tuples dropped from binding ranges by magic-set filters before the
  /// branch executor ever saw them (summed over all rounds).
  size_t seed_tuples_pruned = 0;

  EvalStats& operator+=(const EvalStats& other);
};

/// Field-wise sum and difference (over kQueryFields). The materialization
/// cache records a component's contribution as (stats after − stats
/// before) and replays it on a hit, so repeat queries report the same
/// logical counters as the cold run that filled the entry. Subtraction
/// assumes `b` is an earlier snapshot of `a` (counters only grow).
EvalStats operator+(EvalStats a, const EvalStats& b);
EvalStats operator-(const EvalStats& a, const EvalStats& b);

/// The one per-query record, filled by the evaluator as it works and
/// rendered by every observability surface (EXPLAIN ANALYZE, the slow-query
/// log, query.finish, the `evaluate` span, the query.* histograms): the
/// logical EvalStats plus the evaluation's physical attribution and cache
/// outcomes. All but the two EvalStats execution-detail counters are
/// deterministic at any thread count; collecting it never feeds back.
struct QueryRecord {
  EvalStats stats;
  /// Largest single-node delta (semi-naive) or fresh-set (naive)
  /// cardinality seen in any fixpoint round — the working-set peak.
  size_t peak_delta_tuples = 0;
  /// Tuples held across all materialized application relations when
  /// MaterializeAll finished (cache-installed members included).
  size_t tuples_materialized = 0;
  /// Deterministic size estimate of those materializations (see
  /// ApproxRelationBytes) — an attribution unit, not a malloc audit.
  size_t approx_bytes = 0;
  /// Hash indexes this evaluation actually built or rebuilt (relations
  /// keep their indexes, Relation::IndexOn). Unlike stats.index_builds,
  /// which counts indexed levels whether their index was built or reused,
  /// this depends on what earlier statements left behind, and a cache hit
  /// replays nothing here.
  size_t physical_index_builds = 0;
  /// Materialization-cache outcomes, counted where a lookup is consumed:
  /// once per consulted component key and capture-closure key. A delta hit
  /// whose maintenance degraded to a recompute counts as a miss.
  size_t cache_hits = 0;
  size_t cache_delta_hits = 0;
  size_t cache_misses = 0;

  /// Folds one branch execution's counters into `stats` and
  /// physical_index_builds and, when `node` is non-null, into its profile
  /// counters. `tuples_inserted` is counted only with `count_inserted`.
  void AddBranchExec(const BranchExecStats& exec, bool count_inserted,
                     ProfileNode* node);
};

/// One counter of a QueryRecord: its EvalStats member (`stat`) or, for the
/// physical attribution the `resources:` line shows, its record member
/// (`own`), and its names on every surface.
struct QueryField {
  /// Machine key: query.finish field, `evaluate` span argument.
  const char* key;
  /// Text label: slow-log digest, EXPLAIN ANALYZE `resources:` line.
  const char* label;
  size_t EvalStats::*stat = nullptr;
  size_t QueryRecord::*own = nullptr;

  size_t Of(const QueryRecord& r) const {
    return stat != nullptr ? r.stats.*stat : r.*own;
  }
};

/// The field table: the single list of QueryRecord counters, in rendering
/// order. EvalStats arithmetic and every surface iterate it.
inline constexpr QueryField kQueryFields[] = {
    {"rounds", "rounds", &EvalStats::iterations},
    {"tuples_considered", "considered", &EvalStats::tuples_considered},
    {"tuples_inserted", "inserted", &EvalStats::tuples_inserted},
    {"outer_tuples", "outer", &EvalStats::outer_tuples},
    {"index_builds", "index_builds", &EvalStats::index_builds},
    {"index_probes", "index_probes", &EvalStats::index_probes},
    {"snapshots", "snapshots", &EvalStats::snapshot_materializations},
    {"chunks", "chunks", &EvalStats::chunks_dispatched},
    {"specialized_branches", "specialized", &EvalStats::specialized_branches},
    {"seed_tuples_pruned", "pruned", &EvalStats::seed_tuples_pruned},
    {"peak_delta", "peak_delta", nullptr, &QueryRecord::peak_delta_tuples},
    {"materialized", "materialized", nullptr,
     &QueryRecord::tuples_materialized},
    {"approx_bytes", "approx_bytes", nullptr, &QueryRecord::approx_bytes},
    {"physical_index_builds", "physical_index_builds", nullptr,
     &QueryRecord::physical_index_builds},
    {"cache_hits", "cache_hits", nullptr, &QueryRecord::cache_hits},
    {"cache_delta", "cache_delta", nullptr, &QueryRecord::cache_delta_hits},
    {"cache_misses", "cache_misses", nullptr, &QueryRecord::cache_misses},
};

/// "label=N label=N ..." over the EvalStats fields (`resources` false) or
/// the physical attribution (true): the two counter lines of the slow-log
/// digest, the second also EXPLAIN ANALYZE's `resources:` line.
std::string FieldsText(const QueryRecord& record, bool resources);

/// The deterministic per-relation size estimate behind
/// QueryRecord::approx_bytes: a fixed per-tuple overhead plus a per-field
/// cost. Pure arithmetic over size and arity — O(1), identical at every
/// thread count, and independent of allocator behaviour.
size_t ApproxRelationBytes(const Relation& rel);

/// The one strategy choice for a component of `graph`, read by
/// MaterializeAll and EXPLAIN. A cyclic component is captured when
/// `capture_rules` is on, it has one member whose base range is
/// constructor-free and which `plan` (may be null) does not restrict, and
/// its constructor passes DetectCapturedClosure against `catalog`.
ComponentStrategy ChooseComponentStrategy(const ApplicationGraph& graph,
                                          const Catalog& catalog,
                                          const std::vector<int>& members,
                                          bool cyclic,
                                          const EvalOptions& options,
                                          bool capture_rules,
                                          const SpecializationPlan* plan);

/// Per-branch differential analysis of one component: which bindings are
/// recursive (range over an in-component application) and whether the
/// predicate references the component, shared by the semi-naive rounds and
/// cache maintenance.
struct ComponentBranch {
  const Branch* branch;
  int owner;
  size_t branch_index = 0;  // position within the owner's body
  std::vector<int> binding_nodes;  // in-component node id per binding, or -1
  bool differentiable = true;
  bool recursive = false;
};

/// Where one binding of a compiled branch reads from: the range split
/// around its last constructor application, resolved once against the
/// application graph and the catalog.
struct BindingSource {
  RangeSplit split;
  /// The application node of split.ctor_head, or -1 when the range is
  /// constructor-free.
  int node = -1;
  /// The catalog relation a constructor-free range names (catalog
  /// relations are never dropped), or null when the name is unknown — the
  /// run then resolves by name and reports the error.
  const Relation* base = nullptr;
  /// ToString(range), the selector-chain cache key; only set when the
  /// range has trailing selectors.
  std::string cache_key;
};

/// One branch of a compiled program: its binding sources and its compiled
/// plan (ra/branch_exec.h CompiledBranch), by whether level 0 reads a
/// catalog relation variable — the one runtime fact a level plan depends
/// on (a delta, a magic-set filter or trailing selectors bind level 0 to a
/// relation built for one execution instead).
struct BranchProgram {
  bool sources_ready = false;
  std::vector<BindingSource> sources;
  std::optional<CompiledBranch> compiled[2];
};

/// The level-3 half of a compiled query program (DESIGN §4.8): what
/// SystemEvaluator derives from its application graph, its specialization
/// plan and its options before any tuple moves — the stratification, each
/// component's strategy and differential analysis, and every branch's
/// binding sources and compiled plan, held by position. The evaluators
/// running the program fill it on first use, so each part costs at most
/// what one evaluation paid before, and every later run reuses it. It
/// holds no index, no magic set, no cache entry and no pointer to a
/// relation built for one execution. Valid while the graph, the catalog's
/// definitions and the plan-shaping options are those it was filled under
/// — the owner's concern (Database keys it; an evaluator that owns its
/// program uses it for one evaluation).
struct SystemProgram {
  std::optional<SccDecomposition> scc;
  /// Per component: ChooseComponentStrategy without a specialization plan
  /// [0] and with the evaluator's plan [1]; -1 until chosen.
  std::vector<std::array<int8_t, 2>> strategies;
  /// Per component: its ComponentBranch list, once analyzed.
  std::vector<std::optional<std::vector<ComponentBranch>>> component_branches;
  /// [node][branch] over the application graph's bodies.
  std::vector<std::vector<BranchProgram>> node_branches;
  /// The branches of the query expression last evaluated (EvaluateExpr)
  /// and, once examined, the node whose relation it hands off (-1: none)
  /// and whether that takes the node to be seeded (the predicate is the
  /// seed equality rather than TRUE).
  const CalcExpr* query = nullptr;
  std::vector<BranchProgram> query_branches;
  std::optional<int> handoff_node;
  bool handoff_seeded = false;
};

/// Evaluates an instantiated application system (level 3 of the paper's
/// framework): components of the application graph are materialized in
/// dependency order — acyclic components in a single pass, cyclic ones by
/// naive or semi-naive least-fixpoint iteration.
///
/// The evaluator doubles as the RelationResolver for predicate-level range
/// references (quantifiers, membership): during iteration, in-component
/// references resolve to the current approximation.
class SystemEvaluator : public RelationResolver {
 public:
  /// `catalog` and `graph` must outlive the evaluator. `params` carries the
  /// scalar placeholder bindings of a prepared query form (empty for plain
  /// evaluation); it may extend an environment that outlives the evaluator
  /// (Environment(const Environment*)), so nothing is copied.
  SystemEvaluator(const Catalog* catalog, const ApplicationGraph* graph,
                  EvalOptions options, Environment params = {});

  /// Pre-installs an externally computed relation for `node` (perfbench's
  /// replay of the capture rule): MaterializeAll skips every component
  /// installed relations cover. Must be called before MaterializeAll. The
  /// relation is shared without copying (a std::unique_ptr converts) and
  /// treated as immutable — the evaluator reads it but never mutates it
  /// (the cache may hand the same object to later evaluations). Once the
  /// evaluator holds the only reference, the relation is its own, and
  /// EvaluateExpr may hand it off by move.
  Status InstallNodeRelation(int node, std::shared_ptr<const Relation> rel);

  /// Enables the materialization cache: MaterializeAll consults `cache`
  /// per component (full reuse on unchanged input generations, semi-naive
  /// delta maintenance on insert-only churn) and fills it after cold
  /// evaluations. Must be called before MaterializeAll; the caller
  /// guarantees the evaluation is unparameterized (prepared-query
  /// parameters change results without appearing in the cache key).
  void InstallMatCache(MatCache* cache) { cache_ = cache; }

  /// Installs a magic-seed specialization plan (core/specialize.h): active
  /// nodes evaluate a restricted fixpoint whose binding ranges are filtered
  /// to relevant tuples. `plan` must outlive the evaluator; must be called
  /// before MaterializeAll (which computes the relevant-value closure).
  void InstallSpecialization(const SpecializationPlan* plan) { plan_ = plan; }

  /// Turns the capture rule on: MaterializeAll evaluates every component
  /// ChooseComponentStrategy captures by FullClosure — or, for the node
  /// `seed` names, by SeededClosure from its value — through the same
  /// profile and span path as any other component. A seeded closure is
  /// partial, so it is never cached. Must be called before MaterializeAll.
  void InstallCaptureRules(std::optional<CaptureSeed> seed = std::nullopt) {
    capture_rules_ = true;
    seed_ = std::move(seed);
  }

  /// Runs `program` (not owned; must outlive the evaluator) instead of a
  /// program of the evaluator's own: compiled parts it already holds are
  /// reused, missing ones are compiled into it. The caller guarantees it was
  /// filled for this evaluator's graph, catalog definitions, plan-shaping
  /// options, specialization plan and capture-rule setting. Must be called
  /// before MaterializeAll.
  void InstallProgram(SystemProgram* program);

  /// Installs a structured-event sink (not owned; may be null): the
  /// evaluator emits specialize.fallback when a planned specialization
  /// degrades to unspecialized evaluation. Must be called before
  /// MaterializeAll.
  void InstallEventLog(EventLog* events) { events_ = events; }

  /// Materializes every application node not already installed. Must be
  /// called exactly once, before NodeRelation/EvaluateExpr.
  Status MaterializeAll();

  /// The materialized relation of application node `node`.
  Result<const Relation*> NodeRelation(int node) const;

  /// Evaluates a query expression against the materialized system into a
  /// fresh relation over `result_schema`.
  ///
  /// A query that is a single identity branch over one materialized
  /// application (`EACH q IN R {c}: TRUE`, no targets, no trailing
  /// selectors, no active specialization plan, `result_schema` equal to the
  /// node's) hands the node's relation over instead of re-inserting every
  /// tuple: by move when the evaluator is its only owner (the node is then
  /// no longer materialized), by a whole-set copy when the cache shares it.
  /// The branch's counters are recorded as its execution would have
  /// reported them, so EvalStats and the profile are unchanged; only the
  /// execution-detail fan-out counters stay 0.
  Result<Relation> EvaluateExpr(const CalcExpr& expr,
                                const Schema& result_schema);

  /// RelationResolver: resolves a fully-substituted range. Constructor
  /// heads resolve to (current approximations of) application relations;
  /// plain bases to catalog relations; trailing selector applications are
  /// applied on top.
  Result<const Relation*> Resolve(const Range& range) const override;

  const EvalStats& stats() const { return record_.stats; }

  /// The record so far (complete after MaterializeAll + EvaluateExpr).
  const QueryRecord& record() const { return record_; }

  /// The profile tree collected so far (null unless options.profile).
  const ProfileNode* profile() const { return profile_.get(); }

  /// Transfers ownership of the profile tree (null unless options.profile);
  /// stamps the root with the evaluator's total lifetime.
  std::unique_ptr<ProfileNode> TakeProfile();

 private:
  /// The bookkeeping of one fixpoint round (defined in fixpoint.cc).
  class RoundScope;

  /// The component-key/inputs/maintainability triple of a cacheable
  /// component; nullopt when the component must not be cached (unchecked
  /// mode, unknown input names, a specialization restricted by parameter
  /// seeds or by values flowing in from outside the component).
  struct ComponentCacheKey {
    std::string key;
    std::set<std::string> inputs;
    bool maintainable = false;
  };

  /// Insert into an engine-owned scratch/delta relation: when the catalog
  /// is typed-proven the per-tuple schema validation is statically
  /// discharged (storage/relation.h InsertProven), otherwise the checked
  /// insert runs.
  Result<bool> InsertDerived(Relation* rel, const Tuple& t) const {
    return options_.typed_proven ? rel->InsertProven(t) : rel->Insert(t);
  }

  /// Single-pass evaluation of a non-recursive node.
  Status EvaluateAcyclicNode(int node);

  /// Naive (Jacobi) fixpoint over one cyclic component.
  Status NaiveFixpoint(const std::vector<int>& component);

  /// Semi-naive fixpoint over cyclic component `comp`.
  Status SemiNaiveFixpoint(size_t comp);

  /// The capture rule over one captured node: the FullClosure of its base
  /// range, or its SeededClosure when it is the seeded node, with its
  /// `capture` or `seeded closure` span and profile counters.
  Status CaptureClosure(int node);

  /// Whether `node` is the seeded capture's node.
  bool IsSeeded(int node) const {
    return seed_.has_value() && seed_->node == node;
  }

  /// The ComponentBranch list of the bodies of component `comp` (which
  /// must be the component being iterated, iterating_nodes_), analyzed on
  /// first use and kept in the program.
  Result<const std::vector<ComponentBranch>*> ComponentBranches(size_t comp);

  /// The strategy of component `comp` under the current plan, chosen on
  /// first use and kept in the program.
  ComponentStrategy StrategyOf(size_t comp);

  /// The program slot of branch `branch_index` of `node`'s body, or of the
  /// current query expression when `node` is -1.
  BranchProgram& BranchSlot(int node, size_t branch_index);

  /// Resolves `source` (binding `range` of a compiled branch) like Resolve,
  /// without re-splitting the range or looking the base up by name.
  Result<const Relation*> ResolveSource(const BindingSource& source,
                                        const Range& range) const;

  /// One relation per component member, keyed by node id: a semi-naive
  /// round's raw outputs, which FoldDeltas turns into the round's deltas.
  using NodeRelations = std::map<int, std::unique_ptr<Relation>>;

  /// A fresh empty relation (of the node's result schema) per member.
  NodeRelations EmptyRelations(const std::vector<int>& component) const;

  /// The differential loop shared by SemiNaiveFixpoint (after its f(∅)
  /// seed round) and MaintainComponent (after its base-delta seed round):
  /// runs DifferentialBranch over the recursive bindings until no delta
  /// grows. `round` counts this component's rounds (already includes the
  /// seed).
  Status DifferentialRounds(const std::vector<int>& component,
                            const std::vector<ComponentBranch>& infos,
                            NodeRelations* deltas, ProfileNode* comp_node,
                            size_t* round);

  /// Ends every semi-naive round (seed, maintenance or differential):
  /// turns each member's raw output in `raws` into its new delta (raw minus
  /// the total), folds it into the total, counts the insertions, and closes
  /// `scope` with the delta sizes.
  Status FoldDeltas(const std::vector<int>& component, NodeRelations* raws,
                    RoundScope* scope);

  /// A binding occurrence the differential rewrite treats as changed: the
  /// whole relation it ranges over (before trailing selectors) and the
  /// tuples new in it.
  struct ChangedSource {
    const Relation* all = nullptr;
    const Relation* delta = nullptr;
  };

  /// The "old" relations (all \ delta) built so far in one round, by delta.
  using OldRelations = std::map<const Relation*, std::unique_ptr<Relation>>;

  /// The one differential rewrite, shared by the differential rounds
  /// (changed = recursive bindings, delta = last round's delta) and the
  /// maintenance seed (changed = bindings over inserted-into bases): one
  /// evaluation of `info`'s branch into `out` per changed occurrence i
  /// (`changed[i].delta` non-null), where occurrence i reads its delta,
  /// changed occurrences before i read OldOf, and every other occurrence
  /// reads through Resolve. Insertions are counted from the folded deltas.
  Status DifferentialBranch(const ComponentBranch& info,
                            const std::vector<ChangedSource>& changed,
                            OldRelations* olds, Relation* out);

  /// The pre-change relation `all \ delta` of a changed occurrence, copied
  /// once per round into `olds`.
  Result<const Relation*> OldOf(const ChangedSource& source,
                                OldRelations* olds) const;

  /// The application node whose relation `expr` returns unchanged (see
  /// EvaluateExpr), or nullopt: `expr` is one target-free branch over one
  /// application whose predicate is TRUE, or the equality of the first
  /// field with the seed of a seeded closure (every tuple of which starts
  /// with the seed).
  std::optional<int> HandOffNode(const CalcExpr& expr,
                                 const Schema& result_schema) const;

  /// Applies `split`'s trailing selector applications (if any) on top of
  /// `base`, materializing each result into scratch_ (the last one at
  /// scratch_.back()); returns `base` itself when there are none.
  Result<const Relation*> ApplyTrailing(const Relation* base,
                                        const RangeSplit& split) const;

  /// Computes the cache key of `component` evaluated by `strategy`, or
  /// nullopt when uncacheable.
  std::optional<ComponentCacheKey> CacheKeyFor(
      const std::vector<int>& component, ComponentStrategy strategy) const;

  /// Installs the cached member relations of a cache entry, shared (a full
  /// hit reads them as they are; MaintainComponent copies before writing).
  Status InstallCachedMembers(const std::vector<int>& component,
                              const std::vector<CachedRelation>& members);

  /// Incrementally maintains a cached component against the insert deltas
  /// of `found`: installs mutable copies of the cached members, seeds
  /// semi-naive with the differential rewrite over the changed bases, then
  /// runs the differential loop. On error the caller degrades to a full
  /// recompute.
  Status MaintainComponent(size_t comp, const CacheLookup& found);

  /// The current member relations of `component` as shareable cache
  /// members.
  std::vector<CachedRelation> SnapshotMembers(
      const std::vector<int>& component) const;

  /// Evaluates every branch of `node`'s body into `out`, resolving ranges
  /// through Resolve (see EvaluateBranch for `count_inserted`).
  Status EvaluateNodeBody(int node, Relation* out, bool count_inserted = true);

  /// The one branch runner — every branch execution goes through it.
  /// Resolves binding j from `supplied[j]` when that is non-null (the
  /// relation the binding ranges over, before its trailing selectors),
  /// otherwise through Resolve; applies the trailing selectors and the
  /// specialization filter; executes the branch into `out` and records its
  /// counters. `count_inserted` is false inside semi-naive rounds, where
  /// insertions are counted from the deduplicated deltas instead of the raw
  /// per-branch output. `node` and `branch_index` locate the branch in the
  /// specialization plan (node -1: a query branch, never filtered).
  Status EvaluateBranch(const Branch& branch, Relation* out,
                        bool count_inserted = true, int node = -1,
                        size_t branch_index = 0,
                        const std::vector<const Relation*>& supplied = {});

  /// Applies the specialization plan's filter for (node, branch, binding)
  /// to `rel`, materializing the restricted copy into scratch_ and counting
  /// the dropped tuples. Returns `rel` unchanged when no filter applies.
  /// The filter runs before the branch executor's parallel fan-out, so the
  /// pruning counters stay deterministic at any thread count.
  Result<const Relation*> FilteredBinding(int node, size_t branch_index,
                                          size_t binding_index,
                                          const Relation* rel);

  /// How a consulted component cache key was settled.
  enum class CacheUse { kHit, kDeltaMaintained, kMiss, kDegraded };

  /// Counts `use` in the record and reports it on the `cache` span and, for
  /// hits, the component's profile node.
  void NoteCacheUse(CacheUse use, TraceSpan* span, ProfileNode* comp_node);

  /// The display key of a component: "[k1, k2]" over the member node keys.
  std::string ComponentLabel(const std::vector<int>& component) const;

  /// Applies one selector application to `input`.
  Result<std::unique_ptr<Relation>> ApplySelector(const Relation& input,
                                                  const RangeApp& app) const;

  const Catalog* catalog_;
  const ApplicationGraph* graph_;
  EvalOptions options_;
  Environment params_;

  /// The program this evaluator runs: own_program_ unless one was
  /// installed (InstallProgram).
  SystemProgram own_program_;
  SystemProgram* program_ = &own_program_;

  /// Magic-seed specialization (not owned; null when disabled) and the
  /// relevant-value closure computed at the start of MaterializeAll.
  const SpecializationPlan* plan_ = nullptr;
  MagicSets magic_;

  /// Materialization cache (not owned; null when disabled).
  MatCache* cache_ = nullptr;

  /// Whether ChooseComponentStrategy may pick the capture rule, and the
  /// seeded capture's node and value, if any.
  bool capture_rules_ = false;
  std::optional<CaptureSeed> seed_;

  /// Structured-event sink (not owned; null when disabled).
  EventLog* events_ = nullptr;

  /// Materialized application relations. Shared so cache hits install
  /// without copying; relations obtained from the cache are immutable by
  /// discipline (fixpoints always build fresh relations, maintenance
  /// copies before mutating).
  std::vector<std::shared_ptr<Relation>> totals_;
  bool materialized_ = false;

  /// Nodes of the component currently being iterated; ranges over these are
  /// never cached.
  std::set<int> iterating_nodes_;

  /// Cache for materialized selector chains over stable sources.
  mutable std::map<std::string, std::unique_ptr<Relation>> source_cache_;
  /// Keeps ephemeral (uncacheable) materializations alive for the duration
  /// of the evaluation step that requested them.
  mutable std::vector<std::unique_ptr<Relation>> scratch_;

  /// Worker pool shared by every branch execution of this evaluator, so
  /// per-round fan-outs do not respawn threads. Created in the constructor
  /// only when the options ask for more than one thread and no external
  /// pool was supplied (Database supplies its own).
  std::unique_ptr<ThreadPool> pool_;

  QueryRecord record_;

  /// Profile tree (only when options.profile) and the node branch-level
  /// counters currently flow into (a component, round, or query node).
  std::unique_ptr<ProfileNode> profile_;
  ProfileNode* cur_ = nullptr;
  /// Started with the profile: the root's wall time.
  std::optional<Timer> lifetime_;
};

}  // namespace datacon

#endif  // DATACON_CORE_FIXPOINT_H_
