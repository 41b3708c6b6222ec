#include "layers.h"

#include <optional>
#include <unordered_set>

#include "analysis/adorn.h"
#include "analysis/typecheck.h"
#include "ast/builder.h"
#include "core/capture.h"
#include "core/fixpoint.h"
#include "core/instantiate.h"
#include "core/positivity.h"
#include "core/rewrite.h"
#include "core/semantics.h"
#include "core/specialize.h"
#include "lang/parser.h"
#include "prolog/sld.h"
#include "ra/branch_exec.h"
#include "storage/index.h"
#include "workload/generators.h"

namespace perfbench {

using datacon::ApplicationGraph;
using datacon::CalcExprPtr;
using datacon::Database;
using datacon::Relation;
using datacon::Result;
using datacon::Schema;
using datacon::Status;
using datacon::Tuple;

namespace {

/// Runs `fn` inside a span named `name`, adding its wall time to `*acc`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, int64_t query_id, int64_t* acc,
           Fn&& fn) {
  ScopedSpan span(tracer, name, query_id);
  const int64_t start = NowNs();
  auto result = fn();
  *acc += NowNs() - start;
  return result;
}

/// Database::Evaluate only takes the seeded plan when the closure binding
/// is the expression's sole constructor reference.
bool SeededPlanApplies(const datacon::CalcExpr& expr,
                       const datacon::SeededTcPlan& plan) {
  if (expr.branches().size() != 1 || plan.branch_index != 0) return false;
  const datacon::Branch& branch = *expr.branches()[0];
  size_t constructed = 0;
  bool pred_recursion = false;
  for (const datacon::Binding& b : branch.bindings()) {
    if (b.range->ContainsConstructor()) ++constructed;
  }
  datacon::ForEachRangeWithParity(
      *branch.pred(), 0, [&](const datacon::Range& r, int) {
        if (r.ContainsConstructor()) pred_recursion = true;
      });
  return constructed == 1 && !pred_recursion;
}

Result<CalcExprPtr> ParseQuery(const Database& db, const std::string& text) {
  datacon::SymbolSeed seed;
  for (const auto& [name, schema] : db.catalog().relation_types()) {
    (void)schema;
    seed.relation_types.insert(name);
  }
  for (const auto& [name, type] : db.catalog().relation_type_names()) {
    (void)type;
    seed.relation_names.insert(name);
  }
  DATACON_ASSIGN_OR_RETURN(datacon::Script script,
                           datacon::ParseScript(text, &seed));
  if (script.stmts.size() != 1 ||
      !std::holds_alternative<datacon::QueryStmt>(script.stmts[0])) {
    return Status::InvalidArgument("not a single QUERY statement: " + text);
  }
  const datacon::RelationExpr& value =
      std::get<datacon::QueryStmt>(script.stmts[0]).value;
  if (value.range != nullptr) {
    // Database::EvalRange's identity query.
    return datacon::build::Union({datacon::build::IdentityBranch(
        "__q", value.range, datacon::build::True())});
  }
  return value.expr;
}

/// The replayed level-3 phases of Database::ExecuteSeeded.
Result<Relation> ReplaySeeded(Database* db, const CalcExprPtr& expr,
                              const Schema& schema,
                              const datacon::SeededTcPlan& plan,
                              const datacon::EvalOptions& eval_options,
                              Tracer* tracer, int64_t qid,
                              ReplayTotals* totals) {
  const datacon::Catalog& catalog = db->catalog();
  ApplicationGraph graph(&catalog);
  datacon::SystemEvaluator ev(&catalog, &graph, eval_options);
  DATACON_RETURN_IF_ERROR(Timed(tracer, "core.materialize", qid,
                                &totals->materialize_ns,
                                [&] { return ev.MaterializeAll(); }));
  DATACON_ASSIGN_OR_RETURN(const Relation* edges, ev.Resolve(*plan.edges_range));
  if (!plan.seed_literal.has_value()) {
    return Status::Unsupported("parameterized seeded plan");
  }
  DATACON_ASSIGN_OR_RETURN(
      Relation closure,
      Timed(tracer, "core.capture_closure", qid, &totals->capture_ns, [&] {
        return datacon::SeededClosure(*edges, {*plan.seed_literal},
                                      plan.result_schema);
      }));
  const datacon::Branch& branch = *expr->branches()[0];
  std::vector<datacon::ResolvedBinding> resolved;
  for (size_t j = 0; j < branch.bindings().size(); ++j) {
    if (j == plan.binding_index) {
      resolved.push_back({branch.bindings()[j].var, &closure});
    } else {
      DATACON_ASSIGN_OR_RETURN(const Relation* rel,
                               ev.Resolve(*branch.bindings()[j].range));
      resolved.push_back({branch.bindings()[j].var, rel});
    }
  }
  Relation out(schema);
  datacon::Evaluator eval(&ev, eval_options.typed_proven);
  datacon::BranchExecStats stats;
  DATACON_RETURN_IF_ERROR(Timed(
      tracer, "ra.branch_exec", qid, &totals->branch_ns, [&] {
        return datacon::ExecuteBranch(branch, resolved, eval,
                                      datacon::Environment(), &out, &stats,
                                      eval_options.exec);
      }));
  totals->considered += stats.env_count;
  totals->inserted += stats.inserted;
  return out;
}

/// The replayed phases of Database::EvaluateGeneral without the cache.
Result<Relation> ReplayGeneral(Database* db, const CalcExprPtr& expr,
                               const Schema& schema,
                               const datacon::EvalOptions& eval_options,
                               Tracer* tracer, int64_t qid,
                               ReplayTotals* totals) {
  const datacon::Catalog& catalog = db->catalog();
  const datacon::DatabaseOptions& options = db->options();
  ApplicationGraph graph(&catalog);
  DATACON_RETURN_IF_ERROR(Timed(
      tracer, "core.instantiate", qid, &totals->instantiate_ns, [&] {
        Status added = graph.AddRoots(*expr);
        if (!added.ok()) return added;
        return graph.Stratify().status();
      }));
  datacon::SystemEvaluator ev(&catalog, &graph, eval_options);
  std::optional<datacon::SpecializationPlan> plan;
  if (options.specialize) {
    DATACON_ASSIGN_OR_RETURN(
        datacon::AdornmentAnalysis adornment,
        Timed(tracer, "analysis.adorn", qid, &totals->adorn_ns, [&] {
          return datacon::AnalyzeAdornment(*expr, graph, catalog);
        }));
    DATACON_ASSIGN_OR_RETURN(
        plan, Timed(tracer, "core.plan", qid, &totals->plan_ns, [&] {
          return datacon::BuildSpecializationPlan(adornment, graph);
        }));
    if (plan.has_value()) ev.InstallSpecialization(&*plan);
  }
  if (options.use_capture_rules) {
    for (size_t i = 0; i < graph.nodes().size(); ++i) {
      const ApplicationGraph::Node& node = graph.nodes()[i];
      if (plan.has_value() && plan->nodes[i].active) continue;
      if (node.base->ContainsConstructor()) continue;
      if (!datacon::DetectTransitiveClosure(*node.ctor).has_value()) continue;
      DATACON_RETURN_IF_ERROR(Timed(
          tracer, "core.capture_closure", qid, &totals->capture_ns, [&] {
            Result<const Relation*> edges = ev.Resolve(*node.base);
            if (!edges.ok()) return edges.status();
            Result<Relation> closure =
                datacon::FullClosure(*edges.value(), node.result_schema);
            if (!closure.ok()) return closure.status();
            return ev.InstallNodeRelation(
                static_cast<int>(i),
                std::make_unique<Relation>(std::move(closure).value()));
          }));
    }
  }
  DATACON_RETURN_IF_ERROR(Timed(tracer, "core.materialize", qid,
                                &totals->materialize_ns,
                                [&] { return ev.MaterializeAll(); }));
  DATACON_ASSIGN_OR_RETURN(
      Relation out,
      Timed(tracer, "core.evaluate_expr", qid, &totals->evaluate_expr_ns,
            [&] { return ev.EvaluateExpr(*expr, schema); }));
  totals->rounds += ev.stats().iterations;
  totals->considered += ev.stats().tuples_considered;
  totals->inserted += ev.stats().tuples_inserted;
  return out;
}

Result<Relation> Replay(Database* db, const CalcExprPtr& parsed,
                        const Schema& schema, Tracer* tracer, int64_t qid,
                        ReplayTotals* totals) {
  const datacon::Catalog& catalog = db->catalog();
  const datacon::DatabaseOptions& options = db->options();
  CalcExprPtr expr = parsed;
  if (options.inline_nonrecursive) {
    DATACON_ASSIGN_OR_RETURN(
        std::optional<CalcExprPtr> inlined,
        Timed(tracer, "core.inline", qid, &totals->inline_ns, [&] {
          return datacon::InlineNonRecursiveApplications(expr, catalog);
        }));
    if (inlined.has_value()) expr = *inlined;
  }
  datacon::EvalOptions eval_options = options.eval;
  eval_options.typed_proven = options.typecheck &&
                              db->catalog_typed_clean() &&
                              !options.eval.unchecked;
  if (options.use_capture_rules) {
    DATACON_ASSIGN_OR_RETURN(
        std::optional<datacon::SeededTcPlan> seeded,
        Timed(tracer, "core.detect_seeded", qid, &totals->detect_seeded_ns,
              [&]() -> Result<std::optional<datacon::SeededTcPlan>> {
                DATACON_ASSIGN_OR_RETURN(
                    std::optional<datacon::SeededTcPlan> found,
                    datacon::DetectSeededTc(*expr, catalog));
                if (found.has_value() && !SeededPlanApplies(*expr, *found)) {
                  found.reset();
                }
                return found;
              }));
    if (seeded.has_value()) {
      return ReplaySeeded(db, expr, schema, *seeded, eval_options, tracer, qid,
                          totals);
    }
  }
  return ReplayGeneral(db, expr, schema, eval_options, tracer, qid, totals);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

}  // namespace

bool ReplayQuery(Database* db, const std::string& text, Tracer* tracer,
                 int64_t query_id, ReplayTotals* totals, Relation* answer,
                 std::string* why) {
  ScopedSpan root(tracer, "bench.replay", query_id);
  Result<CalcExprPtr> expr =
      Timed(tracer, "lang.parse", query_id, &totals->parse_ns,
            [&] { return ParseQuery(*db, text); });
  if (!expr.ok()) {
    *why = text + ": " + expr.status().ToString();
    return false;
  }
  // Database::EvalQuery on the same expression, with the cache off so it
  // does the replay's work.
  const bool cache = db->options().cache;
  db->options().cache = false;
  Result<Relation> expected =
      Timed(tracer, "core.eval_query", query_id, &totals->eval_query_ns,
            [&] { return db->EvalQuery(expr.value()); });
  db->options().cache = cache;
  if (!expected.ok()) {
    *why = text + ": " + expected.status().ToString();
    return false;
  }
  Result<Schema> schema = Timed(
      tracer, "core.infer_schema", query_id, &totals->schema_ns,
      [&] { return datacon::InferQuerySchema(*expr.value(), db->catalog()); });
  if (!schema.ok()) {
    *why = text + ": " + schema.status().ToString();
    return false;
  }
  Result<Relation> replayed =
      Replay(db, expr.value(), schema.value(), tracer, query_id, totals);
  ++totals->queries;
  if (!replayed.ok()) {
    *why = text + ": replay failed: " + replayed.status().ToString();
    return false;
  }
  if (!replayed.value().SameTuples(expected.value())) {
    *why = text + ": replayed answer (" +
           std::to_string(replayed.value().size()) +
           " tuples) differs from EvalQuery's (" +
           std::to_string(expected.value().size()) + ")";
    return false;
  }
  *answer = std::move(expected).value();
  return true;
}

void ProbeStorage(const Relation& largest, Tracer* tracer, Metrics* out) {
  const std::vector<Tuple> tuples(largest.tuples().begin(),
                                  largest.tuples().end());
  const double n = static_cast<double>(tuples.size());
  std::vector<Tuple> keys;
  keys.reserve(tuples.size());
  for (const Tuple& t : tuples) keys.push_back(Tuple({t.value(0)}));
  std::vector<double> insert_ns, dup_ns, build_ns, probe_ns;
  size_t matches = 0;
  for (int rep = 0; rep < 3 && !tuples.empty(); ++rep) {
    Relation rel(largest.schema());
    int64_t acc = 0;
    Timed(tracer, "storage.insert", 0, &acc, [&] {
      for (const Tuple& t : tuples) (void)rel.Insert(t);
      return 0;
    });
    insert_ns.push_back(static_cast<double>(acc) / n);
    acc = 0;
    Timed(tracer, "storage.insert_dup", 0, &acc, [&] {
      for (const Tuple& t : tuples) (void)rel.Insert(t);
      return 0;
    });
    dup_ns.push_back(static_cast<double>(acc) / n);
    acc = 0;
    std::optional<datacon::HashIndex> index;
    Timed(tracer, "storage.index_build", 0, &acc, [&] {
      index.emplace(rel, std::vector<int>{0});
      return 0;
    });
    build_ns.push_back(static_cast<double>(acc) / n);
    acc = 0;
    Timed(tracer, "storage.probe", 0, &acc, [&] {
      for (const Tuple& k : keys) matches += index->Probe(k).size();
      return 0;
    });
    probe_ns.push_back(static_cast<double>(acc) / n);
  }
  std::unordered_set<size_t> hashes;
  for (const Tuple& t : tuples) hashes.insert(t.Hash());
  (*out)["storage.insert_ns"] = Median(insert_ns);
  (*out)["storage.insert_dup_ns"] = Median(dup_ns);
  (*out)["storage.index_build_ns_per_tuple"] = Median(build_ns);
  (*out)["storage.probe_ns"] = Median(probe_ns);
  (*out)["storage.hash_distinct_ratio"] =
      tuples.empty() ? 0 : static_cast<double>(hashes.size()) / n;
}

bool ProbeBranches(const std::vector<BranchInput>& inputs, Tracer* tracer,
                   Metrics* out, std::string* why) {
  double total_ms = 0;
  double total_ns = 0;
  double envs = 0;
  double probes = 0;
  for (const BranchInput& input : inputs) {
    std::vector<double> samples;
    datacon::BranchExecStats stats;
    for (int rep = 0; rep < 3; ++rep) {
      Relation result(input.output);
      datacon::Evaluator eval(nullptr);
      stats = datacon::BranchExecStats();
      int64_t acc = 0;
      Status status = Timed(tracer, "ra.branch_exec", 0, &acc, [&] {
        return datacon::ExecuteBranch(*input.branch, input.bindings, eval,
                                      datacon::Environment(), &result, &stats);
      });
      if (!status.ok()) {
        *why = "ExecuteBranch(" + input.label + "): " + status.ToString();
        return false;
      }
      samples.push_back(static_cast<double>(acc));
    }
    const double ns = Median(samples);
    total_ms += ns / 1e6;
    total_ns += ns;
    envs += static_cast<double>(stats.env_count);
    probes += static_cast<double>(stats.index_probes);
  }
  (*out)["ra.branch_exec_ms"] = total_ms;
  (*out)["ra.ns_per_env"] = envs > 0 ? total_ns / envs : 0;
  (*out)["ra.index_probes"] = probes;
  return true;
}

bool ProbeProlog(const Edges& edges, Tracer* tracer, Metrics* out,
                 std::string* why) {
  datacon::DatabaseOptions options;
  options.cache = false;
  Database db(options);
  datacon::workload::EdgeList list;
  for (const auto& [a, b] : edges) {
    list.node_count = std::max({list.node_count, a + 1, b + 1});
  }
  list.edges = edges;
  Status setup = datacon::workload::SetupClosure(&db, "r", list);
  if (!setup.ok()) {
    *why = "prolog instance: " + setup.ToString();
    return false;
  }
  const datacon::RangePtr range =
      datacon::build::Constructed(datacon::build::Rel("r_E"), "r_tc");
  datacon::SldOptions sld;
  sld.tabling = true;
  std::vector<double> sld_ms, set_ms;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t acc = 0;
    Result<Relation> proof = Timed(tracer, "prolog.sld", 0, &acc, [&] {
      return datacon::EvaluateRangeTopDown(db.catalog(), range, sld);
    });
    sld_ms.push_back(static_cast<double>(acc) / 1e6);
    acc = 0;
    Result<Relation> set = Timed(tracer, "core.eval_range", 0, &acc,
                                 [&] { return db.EvalRange(range); });
    set_ms.push_back(static_cast<double>(acc) / 1e6);
    if (!proof.ok() || !set.ok() || !proof.value().SameTuples(set.value())) {
      *why = "tabled SLD and set evaluation disagree on the reduced closure";
      return false;
    }
  }
  (*out)["prolog.sld_ms"] = Median(sld_ms);
  (*out)["prolog.proof_vs_set_ratio"] = Median(sld_ms) / Median(set_ms);
  return true;
}

void ProbeTypecheck(const Database& db, Tracer* tracer, Metrics* out) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    int64_t acc = 0;
    Timed(tracer, "analysis.typecheck", 0, &acc, [&] {
      return datacon::InferCatalogTypes(db.catalog()).constructors.size();
    });
    samples.push_back(static_cast<double>(acc) / 1e6);
  }
  (*out)["analysis.typecheck_ms"] = Median(samples);
}

bool ProbeInsertOverhead(Workload* workload, Tracer* tracer, Metrics* out,
                         std::string* why) {
  Status setup = workload->Setup(nullptr);
  if (!setup.ok()) {
    *why = "setup: " + setup.ToString();
    return false;
  }
  Database* db = workload->db();
  auto [name, facts] = workload->FreshFacts(200);
  Result<const Relation*> base = db->GetRelation(name);
  if (!base.ok()) {
    *why = base.status().ToString();
    return false;
  }
  Relation plain = *base.value();  // same schema and tuples, no constraints
  std::vector<double> db_us, rel_us;
  for (const Tuple& fact : facts) {
    Status status;
    int64_t acc = 0;
    Timed(tracer, "core.insert", 0, &acc, [&] {
      status = db->Insert(name, fact);
      return 0;
    });
    if (!status.ok()) {
      *why = "fresh fact rejected: " + status.ToString();
      return false;
    }
    db_us.push_back(static_cast<double>(acc) / 1e3);
    acc = 0;
    Timed(tracer, "storage.insert", 0, &acc,
          [&] { return plain.Insert(fact).ok(); });
    rel_us.push_back(static_cast<double>(acc) / 1e3);
  }
  (*out)["core.constraint_overhead_us"] = Median(db_us) - Median(rel_us);
  return true;
}

}  // namespace perfbench
