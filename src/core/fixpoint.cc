#include "core/fixpoint.h"

#include <algorithm>
#include <utility>

#include "ast/printer.h"
#include "common/check.h"
#include "common/eventlog.h"
#include "common/trace.h"
#include "core/capture.h"
#include "core/matcache.h"
#include "core/positivity.h"
#include "ra/branch_exec.h"
#include "ra/eval.h"

namespace datacon {

EvalStats& EvalStats::operator+=(const EvalStats& other) {
  for (const QueryField& f : kQueryFields) {
    if (f.stat != nullptr) this->*f.stat += other.*f.stat;
  }
  return *this;
}

EvalStats operator+(EvalStats a, const EvalStats& b) {
  a += b;
  return a;
}

EvalStats operator-(const EvalStats& a, const EvalStats& b) {
  EvalStats out;
  for (const QueryField& f : kQueryFields) {
    if (f.stat != nullptr) out.*f.stat = a.*f.stat - b.*f.stat;
  }
  return out;
}

void QueryRecord::AddBranchExec(const BranchExecStats& exec,
                                bool count_inserted, ProfileNode* node) {
  stats.tuples_considered += exec.env_count;
  if (count_inserted) stats.tuples_inserted += exec.inserted;
  stats.outer_tuples += exec.outer_tuples;
  stats.index_builds += exec.index_builds;
  physical_index_builds += exec.physical_index_builds;
  stats.index_probes += exec.index_probes;
  stats.snapshot_materializations += exec.snapshots;
  stats.chunks_dispatched += exec.chunks;
  if (node == nullptr) return;
  CounterSet& c = node->counters();
  c.Add("tuples_considered", static_cast<int64_t>(exec.env_count));
  if (count_inserted) {
    c.Add("tuples_inserted", static_cast<int64_t>(exec.inserted));
  }
  c.Add("outer_scans", static_cast<int64_t>(exec.outer_tuples));
  c.Add("index_builds", static_cast<int64_t>(exec.index_builds));
  c.Add("index_probes", static_cast<int64_t>(exec.index_probes));
  if (exec.snapshots > 0) {
    node->exec().Add("snapshots", static_cast<int64_t>(exec.snapshots));
  }
  if (exec.chunks > 0) {
    node->exec().Add("chunks", static_cast<int64_t>(exec.chunks));
  }
}

std::string FieldsText(const QueryRecord& record, bool resources) {
  std::string out;
  for (const QueryField& f : kQueryFields) {
    if ((f.stat == nullptr) != resources) continue;
    if (!out.empty()) out += ' ';
    out += f.label;
    out += '=';
    out += std::to_string(f.Of(record));
  }
  return out;
}

size_t ApproxRelationBytes(const Relation& rel) {
  constexpr size_t kTupleOverhead = 24;
  constexpr size_t kFieldBytes = 24;
  return rel.size() *
         (kTupleOverhead +
          kFieldBytes * static_cast<size_t>(rel.schema().arity()));
}

ComponentStrategy ChooseComponentStrategy(const ApplicationGraph& graph,
                                          const Catalog& catalog,
                                          const std::vector<int>& members,
                                          bool cyclic,
                                          const EvalOptions& options,
                                          bool capture_rules,
                                          const SpecializationPlan* plan) {
  if (!cyclic) return ComponentStrategy::kSinglePass;
  const size_t first = static_cast<size_t>(members[0]);
  if (capture_rules && members.size() == 1 &&
      (plan == nullptr || !plan->nodes[first].active) &&
      !graph.nodes()[first].base->ContainsConstructor() &&
      DetectCapturedClosure(*graph.nodes()[first].ctor, catalog).has_value()) {
    return ComponentStrategy::kCapture;
  }
  return options.unchecked || options.strategy == FixpointStrategy::kNaive
             ? ComponentStrategy::kNaive
             : ComponentStrategy::kSemiNaive;
}

/// One fixpoint round's bookkeeping, shared by every round loop: counts the
/// round, drops the previous round's scratch relations, opens its `round`
/// span (tagged `tag`=1 for seed and maintenance rounds) and, when
/// profiling, the profile child that branch counters flow into until the
/// scope ends.
class SystemEvaluator::RoundScope {
 public:
  RoundScope(SystemEvaluator* ev, ProfileNode* comp_node, size_t round,
             const char* tag = nullptr)
      : ev_(ev), comp_node_(comp_node), span_("round") {
    ++ev_->record_.stats.iterations;
    ev_->scratch_.clear();
    if (span_.active()) {
      span_.AddArg("round", static_cast<int64_t>(round));
      if (tag != nullptr) span_.AddArg(tag, int64_t{1});
    }
    if (comp_node_ != nullptr) {
      std::string name = "round " + std::to_string(round);
      if (tag != nullptr) name += std::string(" (") + tag + ")";
      ev_->cur_ = comp_node_->AddChild(std::move(name));
    }
  }
  ~RoundScope() {
    if (comp_node_ != nullptr) ev_->cur_ = comp_node_;
  }
  RoundScope(const RoundScope&) = delete;
  RoundScope& operator=(const RoundScope&) = delete;

  TraceSpan& span() { return span_; }

  /// Reports the round's output: `size_of(i)` is member i's new delta (or
  /// naive fresh set). Raises the working-set peak, adds a `kind[key]`
  /// profile counter per member and their sum as span argument `sum_arg`,
  /// and stamps the round's wall time.
  template <typename SizeOf>
  void Close(const std::vector<int>& component, const char* kind,
             const char* sum_arg, SizeOf size_of) {
    QueryRecord& record = ev_->record_;
    int64_t sum = 0;
    for (size_t i = 0; i < component.size(); ++i) {
      const size_t size = size_of(i);
      record.peak_delta_tuples = std::max(record.peak_delta_tuples, size);
      sum += static_cast<int64_t>(size);
      if (comp_node_ != nullptr) {
        const std::string& key =
            ev_->graph_->nodes()[static_cast<size_t>(component[i])].key;
        ev_->cur_->counters().Add(std::string(kind) + "[" + key + "]",
                                  static_cast<int64_t>(size));
      }
    }
    if (comp_node_ != nullptr) ev_->cur_->set_elapsed_ns(timer_.ElapsedNs());
    if (span_.active()) span_.AddArg(sum_arg, sum);
  }

 private:
  SystemEvaluator* ev_;
  ProfileNode* comp_node_;
  TraceSpan span_;
  Timer timer_;
};

void SystemEvaluator::NoteCacheUse(CacheUse use, TraceSpan* span,
                                   ProfileNode* comp_node) {
  struct Row {
    const char* outcome;          // `cache` span argument
    const char* profile_counter;  // component profile counter, or null
    size_t QueryRecord::*count;
  };
  static constexpr Row kRows[] = {
      {"hit", "cache_hit", &QueryRecord::cache_hits},
      {"delta_maintained", "cache_delta_maintained",
       &QueryRecord::cache_delta_hits},
      {"miss", nullptr, &QueryRecord::cache_misses},
      {"degraded", nullptr, &QueryRecord::cache_misses},
  };
  const Row& row = kRows[static_cast<size_t>(use)];
  ++(record_.*row.count);
  if (span->active()) span->AddArg("outcome", std::string(row.outcome));
  if (comp_node != nullptr && row.profile_counter != nullptr) {
    comp_node->counters().Add(row.profile_counter, int64_t{1});
  }
}

SystemEvaluator::SystemEvaluator(const Catalog* catalog,
                                 const ApplicationGraph* graph,
                                 EvalOptions options, Environment params)
    : catalog_(catalog),
      graph_(graph),
      options_(options),
      params_(std::move(params)) {
  if (options_.profile) lifetime_.emplace();
  totals_.resize(graph_->nodes().size());
  if (options_.exec.pool == nullptr &&
      ThreadPool::ResolveThreadCount(options_.exec.num_threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.exec.num_threads);
    options_.exec.pool = pool_.get();
  }
  if (options_.profile) {
    profile_ = std::make_unique<ProfileNode>("evaluation");
  }
}

std::unique_ptr<ProfileNode> SystemEvaluator::TakeProfile() {
  if (profile_ != nullptr) profile_->set_elapsed_ns(lifetime_->ElapsedNs());
  cur_ = nullptr;
  return std::move(profile_);
}

std::string SystemEvaluator::ComponentLabel(
    const std::vector<int>& component) const {
  std::string label = "[";
  for (size_t i = 0; i < component.size(); ++i) {
    if (i > 0) label += ", ";
    label += graph_->nodes()[static_cast<size_t>(component[i])].key;
  }
  return label + "]";
}

void SystemEvaluator::InstallProgram(SystemProgram* program) {
  DATACON_CHECK(!materialized_, "InstallProgram after MaterializeAll");
  program_ = program;
}

Status SystemEvaluator::InstallNodeRelation(
    int node, std::shared_ptr<const Relation> rel) {
  if (materialized_) {
    return Status::Internal("InstallNodeRelation after MaterializeAll");
  }
  if (node < 0 || static_cast<size_t>(node) >= totals_.size()) {
    return Status::InvalidArgument("no application node " +
                                   std::to_string(node));
  }
  // The const_cast is confined to storage: every mutation path either
  // replaces the slot with a fresh relation (fixpoints, acyclic pass) or
  // copies before writing (cache maintenance), so shared cached relations
  // are never written through this pointer.
  totals_[static_cast<size_t>(node)] =
      std::const_pointer_cast<Relation>(std::move(rel));
  return Status::OK();
}

Status SystemEvaluator::MaterializeAll() {
  DATACON_CHECK(!materialized_, "MaterializeAll called twice");

  if (plan_ != nullptr) {
    // Close the plan's seeds into per-node relevant-value sets before any
    // component evaluates. A closure failure (e.g. an unbound seed
    // parameter) degrades to unspecialized evaluation — specialization is
    // an optimization and must never change observable behaviour.
    Result<MagicSets> magic = ComputeMagicSets(*plan_, *this, params_);
    if (magic.ok()) {
      magic_ = std::move(magic).value();
      record_.stats.specialized_branches = plan_->specialized_branches();
      if (profile_ != nullptr) {
        ProfileNode* spec = profile_->AddChild("specialization");
        spec->counters().Add(
            "specialized_branches",
            static_cast<int64_t>(record_.stats.specialized_branches));
        spec->counters().Add("magic_values",
                             static_cast<int64_t>(magic_.TotalValues()));
      }
    } else {
      if (events_ != nullptr && events_->enabled()) {
        events_->Emit("specialize.fallback",
                      {EventField::Str("reason", magic.status().message())});
      }
      plan_ = nullptr;
    }
  }

  if (!program_->scc.has_value()) {
    SccDecomposition scc;
    if (options_.unchecked) {
      // Unchecked mode: no stratification guarantees; plain iteration only.
      scc = ComputeScc(graph_->BuildDigraph());
    } else {
      DATACON_ASSIGN_OR_RETURN(scc, graph_->Stratify());
    }
    program_->strategies.assign(scc.components.size(), {-1, -1});
    program_->component_branches.clear();
    program_->component_branches.resize(scc.components.size());
    program_->scc = std::move(scc);
  }
  const SccDecomposition& scc = *program_->scc;

  for (int comp_id : scc.topological_order) {
    const size_t comp = static_cast<size_t>(comp_id);
    const std::vector<int>& members = scc.components[comp];
    // Components fully covered by installed relations (InstallNodeRelation)
    // are already materialized.
    bool installed = true;
    for (int n : members) {
      if (totals_[static_cast<size_t>(n)] == nullptr) {
        installed = false;
        break;
      }
    }
    if (installed) continue;
    const ComponentStrategy strategy = StrategyOf(comp);
    // Indexed by ComponentStrategy.
    static constexpr const char* kStrategyNames[] = {
        "single pass", "naive", "semi-naive", "capture"};
    const char* strategy_name = kStrategyNames[static_cast<size_t>(strategy)];
    TraceSpan comp_span("component");
    if (comp_span.active()) {
      comp_span.AddArg("members", ComponentLabel(members));
      comp_span.AddArg("strategy", std::string(strategy_name));
    }
    ProfileNode* comp_node = nullptr;
    std::optional<Timer> comp_timer;
    if (profile_ != nullptr) {
      comp_timer.emplace();
      const std::string& key =
          graph_->nodes()[static_cast<size_t>(members[0])].key;
      comp_node = profile_->AddChild(
          strategy == ComponentStrategy::kSinglePass ? "node [" + key + "]"
          : strategy == ComponentStrategy::kCapture
              ? "capture [" + key + "] (" +
                    (IsSeeded(members[0]) ? "seeded " : "") +
                    "transitive closure)"
              : "component " + ComponentLabel(members) + " (" +
                    strategy_name + ")");
      cur_ = comp_node;
    }
    Status status;
    bool satisfied = false;
    std::optional<ComponentCacheKey> ck;
    if (cache_ != nullptr) ck = CacheKeyFor(members, strategy);
    if (ck.has_value()) {
      TraceSpan cache_span("cache");
      if (cache_span.active()) cache_span.AddArg("key", ck->key);
      CacheLookup found = cache_->Lookup(ck->key, *catalog_);
      CacheUse use = CacheUse::kMiss;
      if (found.outcome == CacheOutcome::kHit) {
        status = InstallCachedMembers(members, found.members);
        if (status.ok()) {
          // Replay the entry's recorded contribution so repeat queries
          // report the same logical counters as the run that filled it.
          record_.stats += found.stats;
          use = CacheUse::kHit;
        }
      } else if (found.outcome == CacheOutcome::kDeltaHit) {
        EvalStats before = record_.stats;
        Status maintain = MaintainComponent(comp, found);
        Result<std::vector<CacheInput>> inputs =
            maintain.ok() ? SnapshotCacheInputs(ck->inputs, *catalog_)
                          : Result<std::vector<CacheInput>>(maintain);
        if (inputs.ok()) {
          cache_->NoteMaintained(ck->key, SnapshotMembers(members),
                                 std::move(inputs).value(),
                                 found.stats + (record_.stats - before));
          use = CacheUse::kDeltaMaintained;
        } else {
          // Degrade to a full recompute, never an error: undo the partial
          // maintenance (the stats snapshot keeps counters bit-identical
          // with CACHE OFF) and drop the entry.
          record_.stats = before;
          for (int n : members) totals_[static_cast<size_t>(n)] = nullptr;
          iterating_nodes_.clear();
          scratch_.clear();
          cache_->InvalidateAfterFailure(ck->key);
          use = CacheUse::kDegraded;
        }
      }
      NoteCacheUse(use, &cache_span, comp_node);
      if (use == CacheUse::kHit && comp_node != nullptr) {
        int64_t cached = 0;
        for (int n : members) {
          cached +=
              static_cast<int64_t>(totals_[static_cast<size_t>(n)]->size());
        }
        comp_node->counters().Add("cached_tuples", cached);
      }
      satisfied = use == CacheUse::kHit || use == CacheUse::kDeltaMaintained;
    }
    if (!satisfied) {
      EvalStats before = record_.stats;
      if (strategy == ComponentStrategy::kSinglePass) {
        status = EvaluateAcyclicNode(members[0]);
      } else if (strategy == ComponentStrategy::kCapture) {
        status = CaptureClosure(members[0]);
      } else if (strategy == ComponentStrategy::kNaive) {
        status = NaiveFixpoint(members);
      } else {
        status = SemiNaiveFixpoint(comp);
      }
      if (status.ok() && ck.has_value()) {
        Result<std::vector<CacheInput>> inputs =
            SnapshotCacheInputs(ck->inputs, *catalog_);
        if (inputs.ok()) {
          cache_->Insert(ck->key, SnapshotMembers(members),
                         std::move(inputs).value(), record_.stats - before,
                         ck->maintainable);
        }
      }
    }
    if (comp_node != nullptr) {
      comp_node->set_elapsed_ns(comp_timer->ElapsedNs());
      cur_ = nullptr;
    }
    DATACON_RETURN_IF_ERROR(status);
  }
  // Attribute the materialized footprint: every application relation held
  // at the end (freshly evaluated or cache-installed alike).
  for (const std::shared_ptr<Relation>& rel : totals_) {
    if (rel == nullptr) continue;
    record_.tuples_materialized += rel->size();
    record_.approx_bytes += ApproxRelationBytes(*rel);
  }
  materialized_ = true;
  return Status::OK();
}

Result<const Relation*> SystemEvaluator::NodeRelation(int node) const {
  if (node < 0 || static_cast<size_t>(node) >= totals_.size() ||
      totals_[static_cast<size_t>(node)] == nullptr) {
    return Status::Internal("application node " + std::to_string(node) +
                            " is not materialized");
  }
  return totals_[static_cast<size_t>(node)].get();
}

std::optional<int> SystemEvaluator::HandOffNode(
    const CalcExpr& expr, const Schema& result_schema) const {
  if (plan_ != nullptr) return std::nullopt;
  if (!program_->handoff_node.has_value()) {
    // The expression's shape decides once whether it names one node.
    program_->handoff_node = [&]() -> int {
      if (expr.branches().size() != 1) return -1;
      const Branch& branch = *expr.branches()[0];
      if (branch.targets().has_value() || branch.bindings().size() != 1) {
        return -1;
      }
      RangeSplit split = SplitAtLastConstructor(*branch.bindings()[0].range);
      if (!split.ctor_head.has_value() || !split.trailing_selectors.empty()) {
        return -1;
      }
      Result<int> node = graph_->FindNode(**split.ctor_head);
      if (!node.ok()) return -1;
      const Pred& pred = *branch.pred();
      program_->handoff_seeded =
          pred.kind() != Pred::Kind::kBool ||
          !static_cast<const BoolPred&>(pred).value();
      // Besides TRUE, a lone comparison can only be handed off when the
      // node turns out seeded: DetectSeededTc then found the seed equality
      // `v.<first field> = seed` among the predicate's conjuncts, so the
      // comparison is that equality and every closure tuple passes it.
      if (program_->handoff_seeded && pred.kind() != Pred::Kind::kCompare) {
        return -1;
      }
      return node.value();
    }();
  }
  const int node = *program_->handoff_node;
  if (node < 0 || (program_->handoff_seeded && !IsSeeded(node))) {
    return std::nullopt;
  }
  const std::shared_ptr<Relation>& total = totals_[static_cast<size_t>(node)];
  if (total == nullptr || !(total->schema() == result_schema)) {
    return std::nullopt;
  }
  return node;
}

Result<Relation> SystemEvaluator::EvaluateExpr(const CalcExpr& expr,
                                               const Schema& result_schema) {
  Relation out(result_schema);
  ProfileNode* query_node = nullptr;
  std::optional<Timer> timer;
  if (profile_ != nullptr) {
    timer.emplace();
    query_node = profile_->AddChild("query");
    cur_ = query_node;
  }
  TraceSpan span("query branches");
  if (program_->query != &expr) {
    program_->query = &expr;
    program_->query_branches.clear();
    program_->query_branches.resize(expr.branches().size());
    program_->handoff_node.reset();
  }
  Status status = Status::OK();
  if (std::optional<int> node = HandOffNode(expr, result_schema)) {
    // The identity branch (or the seed equality over a seeded closure,
    // which every tuple passes) would re-insert every tuple of the node
    // into an equal schema — it can neither fail nor change the set. Hand
    // the set over and record the counters that execution would have
    // produced.
    std::shared_ptr<Relation>& total = totals_[static_cast<size_t>(*node)];
    if (total.use_count() == 1) {
      out = std::move(*total);
      total = nullptr;
    } else {
      out = *total;
    }
    BranchExecStats exec;
    exec.env_count = exec.outer_tuples = exec.inserted = out.size();
    record_.AddBranchExec(exec, /*count_inserted=*/true, cur_);
  } else {
    for (size_t bi = 0; bi < expr.branches().size(); ++bi) {
      status = EvaluateBranch(*expr.branches()[bi], &out,
                              /*count_inserted=*/true, /*node=*/-1, bi);
      if (!status.ok()) break;
    }
  }
  if (span.active()) {
    span.AddArg("result_tuples", static_cast<int64_t>(out.size()));
  }
  if (query_node != nullptr) {
    if (status.ok()) {
      query_node->counters().Add("result_tuples",
                                 static_cast<int64_t>(out.size()));
    }
    query_node->set_elapsed_ns(timer->ElapsedNs());
    cur_ = nullptr;
  }
  DATACON_RETURN_IF_ERROR(status);
  return out;
}

Status SystemEvaluator::CaptureClosure(int node) {
  const ApplicationGraph::Node& n = graph_->nodes()[static_cast<size_t>(node)];
  const bool seeded = IsSeeded(node);
  TraceSpan span(seeded ? "seeded closure" : "capture");
  DATACON_ASSIGN_OR_RETURN(const Relation* edges, Resolve(*n.base));
  const size_t edge_indexes = edges->index_count();
  DATACON_ASSIGN_OR_RETURN(
      Relation closure,
      seeded ? SeededClosure(*edges, {seed_->value}, n.result_schema)
             : FullClosure(*edges, n.result_schema));
  // The first seeded lookup over these edges builds their source index.
  record_.physical_index_builds += edges->index_count() - edge_indexes;
  // A seeded closure is its plan's working set.
  if (seeded) {
    record_.peak_delta_tuples =
        std::max(record_.peak_delta_tuples, closure.size());
  }
  const auto edge_n = static_cast<int64_t>(edges->size());
  const auto closure_n = static_cast<int64_t>(closure.size());
  if (span.active()) {
    span.AddArg("edge_tuples", edge_n);
    span.AddArg("closure_tuples", closure_n);
  }
  if (cur_ != nullptr) {
    cur_->counters().Add("edge_tuples", edge_n);
    cur_->counters().Add("closure_tuples", closure_n);
  }
  totals_[static_cast<size_t>(node)] =
      std::make_shared<Relation>(std::move(closure));
  return Status::OK();
}

Status SystemEvaluator::EvaluateAcyclicNode(int node) {
  scratch_.clear();
  const ApplicationGraph::Node& n = graph_->nodes()[static_cast<size_t>(node)];
  totals_[static_cast<size_t>(node)] =
      std::make_unique<Relation>(n.result_schema);
  Relation* out = totals_[static_cast<size_t>(node)].get();
  DATACON_RETURN_IF_ERROR(EvaluateNodeBody(node, out));
  if (cur_ != nullptr) {
    cur_->counters().Add("total_tuples", static_cast<int64_t>(out->size()));
  }
  return Status::OK();
}

Status SystemEvaluator::NaiveFixpoint(const std::vector<int>& component) {
  iterating_nodes_.clear();
  iterating_nodes_.insert(component.begin(), component.end());
  ProfileNode* comp_node = cur_;

  // Section 3.1: Ahead := {}; Above := {}.
  for (auto& [n, empty] : EmptyRelations(component)) {
    totals_[static_cast<size_t>(n)] = std::move(empty);
  }

  // REPEAT  Oldahead := Ahead; ...; Ahead := ahead_fct(Oldahead, Oldabove);
  // UNTIL Ahead = Oldahead AND Above = Oldabove.
  // `totals_` plays the role of the Old* variables during a round; the
  // fresh relations are swapped in at the end of the round.
  size_t round = 0;
  while (true) {
    RoundScope scope(this, comp_node, ++round);
    if (options_.max_iterations != 0 && round > options_.max_iterations) {
      return Status::Divergence(
          "naive fixpoint did not converge within " +
          std::to_string(options_.max_iterations) +
          " iterations (a non-monotonic system such as section 3.3's "
          "'nonsense' has no limit)");
    }
    NodeRelations fresh = EmptyRelations(component);
    for (int n : component) {
      DATACON_RETURN_IF_ERROR(EvaluateNodeBody(n, fresh[n].get()));
    }

    bool changed = false;
    for (int n : component) {
      if (!fresh[n]->SameTuples(*totals_[static_cast<size_t>(n)])) {
        changed = true;
        break;
      }
    }
    scope.Close(component, "total", "total_tuples",
                [&](size_t i) { return fresh[component[i]]->size(); });
    if (scope.span().active()) {
      scope.span().AddArg("changed", changed ? int64_t{1} : int64_t{0});
    }
    for (auto& [n, rel] : fresh) {
      totals_[static_cast<size_t>(n)] = std::move(rel);
    }
    if (!changed) break;
  }
  if (comp_node != nullptr) {
    comp_node->counters().Add("rounds", static_cast<int64_t>(round));
  }
  iterating_nodes_.clear();
  return Status::OK();
}

Result<const std::vector<ComponentBranch>*> SystemEvaluator::ComponentBranches(
    size_t comp) {
  std::optional<std::vector<ComponentBranch>>& cached =
      program_->component_branches[comp];
  if (cached.has_value()) return &*cached;
  const std::vector<int>& component = program_->scc->components[comp];
  // Pre-analyze each branch: which bindings are recursive (range over an
  // in-component application) and whether the predicate itself references
  // the component (through a quantifier or membership range), which makes
  // the branch non-differentiable — it is then fully re-evaluated each
  // round, which is sound (monotonicity) if slower.
  std::vector<ComponentBranch> infos;
  for (int n : component) {
    const ApplicationGraph::Node& node =
        graph_->nodes()[static_cast<size_t>(n)];
    for (size_t bi = 0; bi < node.body->branches().size(); ++bi) {
      const BranchPtr& branch = node.body->branches()[bi];
      ComponentBranch info;
      info.branch = branch.get();
      info.owner = n;
      info.branch_index = bi;
      for (const Binding& b : branch->bindings()) {
        int id = -1;
        RangeSplit split = SplitAtLastConstructor(*b.range);
        if (split.ctor_head.has_value()) {
          DATACON_ASSIGN_OR_RETURN(int found,
                                   graph_->FindNode(**split.ctor_head));
          if (iterating_nodes_.count(found) > 0) {
            id = found;
            info.recursive = true;
          }
        }
        info.binding_nodes.push_back(id);
      }
      Status scan_status = Status::OK();
      ForEachRangeWithParity(
          *branch->pred(), 0, [&](const Range& range, int /*parity*/) {
            if (!scan_status.ok() || !range.ContainsConstructor()) return;
            RangeSplit split = SplitAtLastConstructor(range);
            Result<int> found = graph_->FindNode(**split.ctor_head);
            if (!found.ok()) {
              scan_status = found.status();
              return;
            }
            if (iterating_nodes_.count(found.value()) > 0) {
              info.differentiable = false;
              info.recursive = true;
            }
          });
      DATACON_RETURN_IF_ERROR(scan_status);
      infos.push_back(std::move(info));
    }
  }
  cached = std::move(infos);
  return &*cached;
}

ComponentStrategy SystemEvaluator::StrategyOf(size_t comp) {
  int8_t& chosen = program_->strategies[comp][plan_ != nullptr ? 1 : 0];
  if (chosen < 0) {
    chosen = static_cast<int8_t>(ChooseComponentStrategy(
        *graph_, *catalog_, program_->scc->components[comp],
        program_->scc->cyclic[comp], options_, capture_rules_, plan_));
  }
  return static_cast<ComponentStrategy>(chosen);
}

SystemEvaluator::NodeRelations SystemEvaluator::EmptyRelations(
    const std::vector<int>& component) const {
  NodeRelations out;
  for (int n : component) {
    out[n] = std::make_unique<Relation>(
        graph_->nodes()[static_cast<size_t>(n)].result_schema);
  }
  return out;
}

Status SystemEvaluator::SemiNaiveFixpoint(size_t comp) {
  const std::vector<int>& component = program_->scc->components[comp];
  iterating_nodes_.clear();
  iterating_nodes_.insert(component.begin(), component.end());
  ProfileNode* comp_node = cur_;

  DATACON_ASSIGN_OR_RETURN(const std::vector<ComponentBranch>* branches,
                           ComponentBranches(comp));
  const std::vector<ComponentBranch>& infos = *branches;

  // Round 1 evaluates every body over the still-empty totals — f(∅), the
  // seed of the Tarski iteration — and folds like every later round.
  for (auto& [n, empty] : EmptyRelations(component)) {
    totals_[static_cast<size_t>(n)] = std::move(empty);
  }
  NodeRelations deltas = EmptyRelations(component);
  {
    RoundScope scope(this, comp_node, 1, "seed");
    for (int n : component) {
      DATACON_RETURN_IF_ERROR(
          EvaluateNodeBody(n, deltas[n].get(), /*count_inserted=*/false));
    }
    DATACON_RETURN_IF_ERROR(FoldDeltas(component, &deltas, &scope));
  }

  size_t round = 1;
  DATACON_RETURN_IF_ERROR(
      DifferentialRounds(component, infos, &deltas, comp_node, &round));
  iterating_nodes_.clear();
  return Status::OK();
}

Status SystemEvaluator::DifferentialRounds(
    const std::vector<int>& component,
    const std::vector<ComponentBranch>& infos, NodeRelations* deltas_io,
    ProfileNode* comp_node, size_t* round_io) {
  NodeRelations& deltas = *deltas_io;
  // Differential rounds. The per-component round budget mirrors
  // NaiveFixpoint: `round` is local to this component (stats.iterations
  // accumulates across ALL components and must not feed the bound); the
  // caller's seed round — f(∅) for a cold fixpoint, the base-delta
  // derivations for cache maintenance — already counts as round 1.
  size_t round = *round_io;
  while (true) {
    bool any_delta = false;
    for (int n : component) {
      if (!deltas[n]->empty()) {
        any_delta = true;
        break;
      }
    }
    if (!any_delta) break;

    RoundScope scope(this, comp_node, ++round);
    if (options_.max_iterations != 0 && round > options_.max_iterations) {
      return Status::Divergence(
          "semi-naive fixpoint did not converge within " +
          std::to_string(options_.max_iterations) +
          " iterations for one recursive component");
    }
    if (scope.span().active()) {
      int64_t prev_delta = 0;
      for (int n : component) {
        prev_delta += static_cast<int64_t>(deltas[n]->size());
      }
      scope.span().AddArg("delta", prev_delta);
    }

    OldRelations olds;
    NodeRelations raws = EmptyRelations(component);
    for (const ComponentBranch& info : infos) {
      if (!info.recursive) continue;  // contributes in round 1 only
      Relation* out = raws[info.owner].get();
      if (!info.differentiable) {
        DATACON_RETURN_IF_ERROR(EvaluateBranch(*info.branch, out,
                                               /*count_inserted=*/false,
                                               info.owner, info.branch_index));
        continue;
      }
      std::vector<ChangedSource> changed(info.binding_nodes.size());
      for (size_t j = 0; j < changed.size(); ++j) {
        const int node = info.binding_nodes[j];
        if (node < 0) continue;
        changed[j] = {totals_[static_cast<size_t>(node)].get(),
                      deltas[node].get()};
      }
      DATACON_RETURN_IF_ERROR(DifferentialBranch(info, changed, &olds, out));
    }
    DATACON_RETURN_IF_ERROR(FoldDeltas(component, &raws, &scope));
    deltas = std::move(raws);
  }

  *round_io = round;
  if (comp_node != nullptr) {
    comp_node->counters().Add("rounds", static_cast<int64_t>(round));
  }
  return Status::OK();
}

Status SystemEvaluator::DifferentialBranch(
    const ComponentBranch& info, const std::vector<ChangedSource>& changed,
    OldRelations* olds, Relation* out) {
  // The standard non-linear differential rewrite: one evaluation per
  // changed occurrence i, where occurrence i ranges over its delta, changed
  // occurrences before it over the pre-change relation old = all \ delta,
  // and changed occurrences after it (plus all unchanged bindings) over the
  // current relation. The union over i covers every combination with at
  // least one new tuple exactly once — using the current relation on *both*
  // sides would re-derive all-new-tuple combinations once per occurrence,
  // inflating tuples_considered (the results were still correct, since the
  // output is a set).
  size_t last = 0;
  for (size_t i = 0; i < changed.size(); ++i) {
    if (changed[i].delta != nullptr) last = i;
  }
  std::vector<const Relation*> supplied(changed.size(), nullptr);
  for (size_t i = 0; i < changed.size(); ++i) {
    if (changed[i].delta == nullptr) continue;
    supplied[i] = changed[i].delta;
    DATACON_RETURN_IF_ERROR(EvaluateBranch(*info.branch, out,
                                           /*count_inserted=*/false,
                                           info.owner, info.branch_index,
                                           supplied));
    if (i < last) {
      // Every later changed occurrence reads this one as old.
      DATACON_ASSIGN_OR_RETURN(supplied[i], OldOf(changed[i], olds));
    }
  }
  return Status::OK();
}

Result<const Relation*> SystemEvaluator::OldOf(const ChangedSource& source,
                                               OldRelations* olds) const {
  std::unique_ptr<Relation>& old = (*olds)[source.delta];
  if (old != nullptr) return old.get();
  old = std::make_unique<Relation>(source.all->schema());
  for (const Tuple& t : source.all->tuples()) {
    if (source.delta->Contains(t)) continue;
    DATACON_ASSIGN_OR_RETURN(bool inserted, InsertDerived(old.get(), t));
    (void)inserted;
  }
  return old.get();
}

Status SystemEvaluator::FoldDeltas(const std::vector<int>& component,
                                   NodeRelations* raws, RoundScope* scope) {
  for (int n : component) {
    // Raw minus the current total is the member's new delta — computed in
    // place, so no tuple is copied — and is folded into the total.
    Relation& delta = *(*raws)[n];
    Relation* total = totals_[static_cast<size_t>(n)].get();
    delta.Subtract(*total);
    if (delta.empty()) continue;
    DATACON_RETURN_IF_ERROR(total->InsertAll(delta));
    record_.stats.tuples_inserted += delta.size();
    if (cur_ != nullptr) {
      cur_->counters().Add("tuples_inserted",
                           static_cast<int64_t>(delta.size()));
    }
  }
  scope->Close(component, "delta", "inserts",
               [&](size_t i) { return (*raws)[component[i]]->size(); });
  return Status::OK();
}

std::optional<SystemEvaluator::ComponentCacheKey> SystemEvaluator::CacheKeyFor(
    const std::vector<int>& component, ComponentStrategy strategy) const {
  // Unchecked systems are non-monotonic by construction (section 3.3's
  // `strange`/`nonsense`); nothing about them is cached. A seeded closure
  // is partial: under the full closure's key it would answer full queries.
  if (options_.unchecked ||
      std::any_of(component.begin(), component.end(),
                  [this](int n) { return IsSeeded(n); })) {
    return std::nullopt;
  }

  std::set<int> members(component.begin(), component.end());
  // The cached result depends on every application the component reads,
  // transitively — those materializations are functions of the same base
  // relations, so pinning the closure's base inputs pins the result.
  std::set<int> reachable = members;
  std::vector<int> work(component.begin(), component.end());
  while (!work.empty()) {
    int n = work.back();
    work.pop_back();
    for (const AppEdge& e : graph_->edges()) {
      if (e.from == n && reachable.insert(e.to).second) work.push_back(e.to);
    }
  }
  const bool external = reachable.size() > members.size();

  std::string suffix;
  bool member_active = false;
  if (plan_ != nullptr) {
    for (int n : reachable) {
      if (members.count(n) > 0) continue;
      // A magically restricted upstream materialization is shaped by
      // relevant-value sets the key does not capture.
      if (plan_->nodes[static_cast<size_t>(n)].active) return std::nullopt;
    }
    for (int n : component) {
      if (plan_->nodes[static_cast<size_t>(n)].active) member_active = true;
    }
    if (member_active) {
      // A restricted member is reproducible from the key only when every
      // relevant value originates inside the component from literal seeds;
      // parameter seeds and inbound transfer edges depend on state the key
      // cannot name.
      for (const SpecializationPlan::Edge& e : plan_->edges) {
        if (members.count(e.to_node) > 0 && members.count(e.from_node) == 0) {
          return std::nullopt;
        }
      }
      for (const SpecializationPlan::Seed& s : plan_->seeds) {
        if (members.count(s.node) > 0 && !s.literal.has_value()) {
          return std::nullopt;
        }
      }
      std::vector<std::string> marks;
      for (int n : component) {
        const SpecializationPlan::NodePlan& np =
            plan_->nodes[static_cast<size_t>(n)];
        if (!np.active) continue;
        marks.push_back("a:" + graph_->nodes()[static_cast<size_t>(n)].key +
                        "#" + std::to_string(np.bound_attr));
      }
      for (const SpecializationPlan::Seed& s : plan_->seeds) {
        if (members.count(s.node) == 0) continue;
        marks.push_back("s:" +
                        graph_->nodes()[static_cast<size_t>(s.node)].key + "=" +
                        s.literal->ToString());
      }
      std::sort(marks.begin(), marks.end());
      for (const std::string& m : marks) {
        suffix += '|';
        suffix += m;
      }
    }
  }

  InputScan scan;
  for (int n : reachable) {
    const ApplicationGraph::Node& node =
        graph_->nodes()[static_cast<size_t>(n)];
    ScanRangeInputs(*node.base, *catalog_, 0, &scan);
    for (const BranchPtr& branch : node.body->branches()) {
      ForEachRangeWithParity(*branch, [&](const Range& r, int parity) {
        ScanRangeInputs(r, *catalog_, parity, &scan);
      });
    }
    if (!scan.ok) return std::nullopt;
  }
  if (member_active) {
    // Transfer-edge join hops read base relations too.
    for (const SpecializationPlan::Edge& e : plan_->edges) {
      if (members.count(e.to_node) == 0 || e.via_base == nullptr) continue;
      ScanRangeInputs(*e.via_base, *catalog_, 0, &scan);
    }
    if (!scan.ok) return std::nullopt;
  }

  ComponentCacheKey out;
  std::vector<std::string> keys;
  keys.reserve(component.size());
  for (int n : component) {
    keys.push_back(graph_->nodes()[static_cast<size_t>(n)].key);
  }
  std::sort(keys.begin(), keys.end());
  // The strategy is part of the key so replayed EvalStats always describe
  // the strategy the current options would have run.
  out.key = strategy == ComponentStrategy::kCapture ? "c|capture"
            : options_.strategy == FixpointStrategy::kNaive ? "c|naive"
                                                            : "c|semi";
  for (const std::string& k : keys) {
    out.key += '|';
    out.key += k;
  }
  out.key += suffix;
  out.inputs = std::move(scan.inputs);
  // Insert-only maintenance re-derives only the branches touching changed
  // bases; that is sound only when every input occurs positively, every
  // application the component reads is in-component (growth of an external
  // node would go unnoticed), and no member is magically restricted.
  // The frontier algorithm of a captured closure has no incremental form:
  // a full recompute is its own seed.
  out.maintainable = scan.maintainable && !external && !member_active &&
                     options_.strategy == FixpointStrategy::kSemiNaive &&
                     strategy != ComponentStrategy::kCapture;
  return out;
}

Status SystemEvaluator::InstallCachedMembers(
    const std::vector<int>& component,
    const std::vector<CachedRelation>& members) {
  for (int n : component) {
    const std::string& key = graph_->nodes()[static_cast<size_t>(n)].key;
    const CachedRelation* found = nullptr;
    for (const CachedRelation& m : members) {
      if (m.node_key == key) {
        found = &m;
        break;
      }
    }
    if (found == nullptr || found->relation == nullptr) {
      return Status::Internal("cache entry lacks member '" + key + "'");
    }
    totals_[static_cast<size_t>(n)] =
        std::const_pointer_cast<Relation>(found->relation);
  }
  return Status::OK();
}

std::vector<CachedRelation> SystemEvaluator::SnapshotMembers(
    const std::vector<int>& component) const {
  std::vector<CachedRelation> out;
  out.reserve(component.size());
  for (int n : component) {
    out.push_back(CachedRelation{graph_->nodes()[static_cast<size_t>(n)].key,
                                 totals_[static_cast<size_t>(n)]});
  }
  return out;
}

Status SystemEvaluator::MaintainComponent(size_t comp,
                                          const CacheLookup& found) {
  const std::vector<int>& component = program_->scc->components[comp];
  ProfileNode* comp_node = cur_;

  // Mutable working copies — the cached relations themselves stay
  // immutable (the entry keeps referencing them until NoteMaintained swaps
  // in the refreshed snapshot).
  DATACON_RETURN_IF_ERROR(InstallCachedMembers(component, found.members));
  for (int n : component) {
    std::shared_ptr<Relation>& total = totals_[static_cast<size_t>(n)];
    total = std::make_shared<Relation>(*total);
  }
  iterating_nodes_.clear();
  iterating_nodes_.insert(component.begin(), component.end());

  DATACON_ASSIGN_OR_RETURN(const std::vector<ComponentBranch>* branches,
                           ComponentBranches(comp));
  const std::vector<ComponentBranch>& infos = *branches;

  // The inserted tuples of each changed base.
  std::map<std::string, std::unique_ptr<Relation>> base_deltas;
  for (const CacheInputDelta& d : found.deltas) {
    DATACON_ASSIGN_OR_RETURN(const Relation* base,
                             catalog_->LookupRelation(d.relation));
    auto delta = std::make_unique<Relation>(base->schema());
    for (const Tuple& t : d.inserted) {
      DATACON_ASSIGN_OR_RETURN(bool inserted, InsertDerived(delta.get(), t));
      (void)inserted;
    }
    base_deltas[d.relation] = std::move(delta);
  }
  // The inserted tuples of the base a constructor-free range reads, or null
  // when that base did not change.
  auto changed_base = [&](const Range& range) -> const Relation* {
    RangeSplit split = SplitAtLastConstructor(range);
    if (split.ctor_head.has_value()) return nullptr;
    auto it = base_deltas.find(split.base_relation);
    return it != base_deltas.end() ? it->second.get() : nullptr;
  };

  // Seed round: derive exactly the tuples the base inserts enable — the
  // differential rewrite over each branch's changed *base* occurrences
  // (DifferentialRounds then propagates through the derived relations).
  // Every other occurrence reads the current state, including the full
  // cached approximations of recursive bindings.
  NodeRelations deltas = EmptyRelations(component);
  {
    RoundScope scope(this, comp_node, 1, "maintain");
    OldRelations olds;
    for (const ComponentBranch& info : infos) {
      const std::vector<Binding>& bindings = info.branch->bindings();
      std::vector<ChangedSource> changed(bindings.size());
      bool any_changed = false;
      for (size_t j = 0; j < bindings.size(); ++j) {
        const Relation* delta = changed_base(*bindings[j].range);
        if (delta == nullptr) continue;
        DATACON_ASSIGN_OR_RETURN(
            changed[j].all,
            catalog_->LookupRelation(bindings[j].range->relation()));
        changed[j].delta = delta;
        any_changed = true;
      }
      bool pred_touches = false;
      ForEachRangeWithParity(*info.branch->pred(), 0,
                             [&](const Range& r, int /*parity*/) {
                               if (changed_base(r) != nullptr) {
                                 pred_touches = true;
                               }
                             });
      if (!any_changed && !pred_touches) continue;
      Relation* out = deltas[info.owner].get();
      if (pred_touches || !info.differentiable) {
        // No differential form through the predicate; re-derive the branch
        // in full — the raw−total fold keeps only new tuples.
        DATACON_RETURN_IF_ERROR(EvaluateBranch(*info.branch, out,
                                               /*count_inserted=*/false,
                                               info.owner, info.branch_index));
        continue;
      }
      DATACON_RETURN_IF_ERROR(DifferentialBranch(info, changed, &olds, out));
    }
    DATACON_RETURN_IF_ERROR(FoldDeltas(component, &deltas, &scope));
  }

  bool any_recursive = false;
  for (const ComponentBranch& info : infos) {
    if (info.recursive) any_recursive = true;
  }
  size_t round = 1;
  if (any_recursive) {
    DATACON_RETURN_IF_ERROR(
        DifferentialRounds(component, infos, &deltas, comp_node, &round));
  }
  iterating_nodes_.clear();
  return Status::OK();
}

Status SystemEvaluator::EvaluateNodeBody(int node, Relation* out,
                                         bool count_inserted) {
  const ApplicationGraph::Node& n = graph_->nodes()[static_cast<size_t>(node)];
  const std::vector<BranchPtr>& branches = n.body->branches();
  for (size_t bi = 0; bi < branches.size(); ++bi) {
    DATACON_RETURN_IF_ERROR(
        EvaluateBranch(*branches[bi], out, count_inserted, node, bi));
  }
  return Status::OK();
}

Result<const Relation*> SystemEvaluator::FilteredBinding(
    int node, size_t branch_index, size_t binding_index,
    const Relation* rel) {
  if (plan_ == nullptr || node < 0) return rel;
  const SpecializationPlan::NodePlan& node_plan =
      plan_->nodes[static_cast<size_t>(node)];
  if (!node_plan.active || branch_index >= node_plan.branch_filters.size()) {
    return rel;
  }
  const SpecializationPlan::BindingFilter* filter = nullptr;
  for (const SpecializationPlan::BindingFilter& f :
       node_plan.branch_filters[branch_index]) {
    if (f.binding == binding_index) {
      filter = &f;
      break;
    }
  }
  if (filter == nullptr) return rel;
  const std::unordered_set<Value>* relevant =
      magic_.ValuesFor(filter->magic_node);
  if (relevant == nullptr) return rel;
  auto filtered = std::make_unique<Relation>(rel->schema());
  for (const Tuple& t : rel->tuples()) {
    if (relevant->count(t.value(filter->field)) == 0) continue;
    DATACON_ASSIGN_OR_RETURN(bool inserted, InsertDerived(filtered.get(), t));
    (void)inserted;
  }
  const size_t pruned = rel->size() - filtered->size();
  record_.stats.seed_tuples_pruned += pruned;
  if (cur_ != nullptr && pruned > 0) {
    cur_->counters().Add("seed_tuples_pruned", static_cast<int64_t>(pruned));
  }
  scratch_.push_back(std::move(filtered));
  return scratch_.back().get();
}

BranchProgram& SystemEvaluator::BranchSlot(int node, size_t branch_index) {
  if (node < 0) return program_->query_branches[branch_index];
  std::vector<std::vector<BranchProgram>>& nodes = program_->node_branches;
  if (nodes.empty()) nodes.resize(graph_->nodes().size());
  std::vector<BranchProgram>& branches = nodes[static_cast<size_t>(node)];
  if (branches.empty()) {
    branches.resize(
        graph_->nodes()[static_cast<size_t>(node)].body->branches().size());
  }
  return branches[branch_index];
}

Status SystemEvaluator::EvaluateBranch(
    const Branch& branch, Relation* out, bool count_inserted, int node,
    size_t branch_index, const std::vector<const Relation*>& supplied) {
  BranchProgram& program = BranchSlot(node, branch_index);
  const std::vector<Binding>& bindings = branch.bindings();
  if (!program.sources_ready) {
    program.sources.reserve(bindings.size());
    for (const Binding& b : bindings) {
      BindingSource source;
      source.split = SplitAtLastConstructor(*b.range);
      if (source.split.ctor_head.has_value()) {
        Result<int> found = graph_->FindNode(**source.split.ctor_head);
        if (found.ok()) source.node = found.value();
      } else {
        Result<const Relation*> base =
            catalog_->LookupRelation(source.split.base_relation);
        if (base.ok()) source.base = base.value();
      }
      if (!source.split.trailing_selectors.empty()) {
        source.cache_key = ToString(*b.range);
      }
      program.sources.push_back(std::move(source));
    }
    program.sources_ready = true;
  }

  std::vector<ResolvedBinding> resolved;
  resolved.reserve(bindings.size());
  for (size_t j = 0; j < bindings.size(); ++j) {
    const Binding& b = bindings[j];
    const BindingSource& source = program.sources[j];
    const Relation* rel = nullptr;
    if (j < supplied.size() && supplied[j] != nullptr) {
      DATACON_ASSIGN_OR_RETURN(rel, ApplyTrailing(supplied[j], source.split));
    } else {
      DATACON_ASSIGN_OR_RETURN(rel, ResolveSource(source, *b.range));
    }
    DATACON_ASSIGN_OR_RETURN(rel, FilteredBinding(node, branch_index, j, rel));
    resolved.push_back(ResolvedBinding{b.var, rel});
  }
  const bool catalog0 =
      !resolved.empty() && resolved[0].relation->is_catalog_variable();
  std::optional<CompiledBranch>& compiled = program.compiled[catalog0 ? 1 : 0];
  if (!compiled.has_value()) {
    std::vector<BindingSchema> schemas;
    schemas.reserve(resolved.size());
    for (const ResolvedBinding& r : resolved) {
      schemas.push_back(BindingSchema{r.var, &r.relation->schema(),
                                      r.relation->is_catalog_variable()});
    }
    Result<CompiledBranch> fresh =
        CompileBranch(branch, schemas, this, options_.exec);
    if (!fresh.ok()) return fresh.status();
    compiled = std::move(fresh).value();
  }
  Evaluator eval(this, options_.typed_proven);
  BranchExecStats exec_stats;
  DATACON_RETURN_IF_ERROR(RunBranch(branch, *compiled, resolved, eval,
                                    params_, out, &exec_stats, options_.exec));
  record_.AddBranchExec(exec_stats, count_inserted, cur_);
  return Status::OK();
}

Result<const Relation*> SystemEvaluator::Resolve(const Range& range) const {
  BindingSource source;
  source.split = SplitAtLastConstructor(range);
  if (source.split.ctor_head.has_value()) {
    DATACON_ASSIGN_OR_RETURN(source.node,
                             graph_->FindNode(**source.split.ctor_head));
  } else {
    DATACON_ASSIGN_OR_RETURN(
        source.base, catalog_->LookupRelation(source.split.base_relation));
  }
  if (!source.split.trailing_selectors.empty()) {
    source.cache_key = ToString(range);
  }
  return ResolveSource(source, range);
}

Result<const Relation*> SystemEvaluator::ResolveSource(
    const BindingSource& source, const Range& range) const {
  const Relation* base = source.base;
  bool stable = true;
  if (source.node >= 0) {
    const std::shared_ptr<Relation>& total =
        totals_[static_cast<size_t>(source.node)];
    if (total == nullptr) {
      return Status::Internal("application '" +
                              ToString(**source.split.ctor_head) +
                              "' resolved before materialization");
    }
    base = total.get();
    stable = iterating_nodes_.count(source.node) == 0;
  } else if (base == nullptr) {
    // Compilation could not resolve the range: resolving it by name
    // reports why.
    return Resolve(range);
  }

  if (source.split.trailing_selectors.empty()) return base;

  if (stable) {
    auto it = source_cache_.find(source.cache_key);
    if (it != source_cache_.end()) return it->second.get();
  }

  DATACON_ASSIGN_OR_RETURN(const Relation* current,
                           ApplyTrailing(base, source.split));
  // The final filtered relation lives in scratch_; promote it to the cache
  // when the source is stable.
  if (stable) {
    std::unique_ptr<Relation>& cached = source_cache_[source.cache_key];
    cached = std::move(scratch_.back());
    scratch_.pop_back();
    return cached.get();
  }
  return current;
}

Result<const Relation*> SystemEvaluator::ApplyTrailing(
    const Relation* base, const RangeSplit& split) const {
  for (const RangeApp& app : split.trailing_selectors) {
    DATACON_ASSIGN_OR_RETURN(std::unique_ptr<Relation> filtered,
                             ApplySelector(*base, app));
    scratch_.push_back(std::move(filtered));
    base = scratch_.back().get();
  }
  return base;
}

Result<std::unique_ptr<Relation>> SystemEvaluator::ApplySelector(
    const Relation& input, const RangeApp& app) const {
  DATACON_ASSIGN_OR_RETURN(const SelectorDecl* sel,
                           catalog_->LookupSelector(app.name));
  if (app.term_args.size() != sel->params().size()) {
    return Status::TypeError("selector '" + app.name +
                             "' argument count mismatch");
  }
  Evaluator eval(this, options_.typed_proven);
  Environment env(&params_);
  for (size_t i = 0; i < app.term_args.size(); ++i) {
    // Selector arguments in range position must be constants (literals or
    // prepared-query parameters); correlated arguments would need an outer
    // environment that range resolution does not carry.
    Result<Value> v = eval.EvalTerm(*app.term_args[i], params_);
    if (!v.ok()) {
      return Status::Unsupported(
          "selector argument '" + ToString(*app.term_args[i]) +
          "' is not a constant: " + v.status().message());
    }
    env.BindParam(sel->params()[i].name, std::move(v).value());
  }

  auto out = std::make_unique<Relation>(input.schema());
  for (const Tuple& t : input.tuples()) {
    env.Bind(sel->var(), &t, &input.schema());
    DATACON_ASSIGN_OR_RETURN(bool keep, eval.EvalPred(*sel->pred(), env));
    if (keep) {
      DATACON_ASSIGN_OR_RETURN(bool inserted, InsertDerived(out.get(), t));
      (void)inserted;
    }
  }
  return out;
}

}  // namespace datacon
