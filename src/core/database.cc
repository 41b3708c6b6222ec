#include "core/database.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "analysis/adorn.h"
#include "analysis/typecheck.h"
#include "ast/builder.h"
#include "ast/printer.h"
#include "common/check.h"
#include "common/trace.h"
#include "core/positivity.h"
#include "core/quant_graph.h"
#include "core/semantics.h"
#include "ra/branch_exec.h"
#include "ra/eval.h"

namespace datacon {

Database::Database(DatabaseOptions options)
    : options_(options),
      // Eagerly registered so SHOW METRICS / ToPrometheus always expose the
      // full instrument set (and so the hot paths below never re-hash names).
      query_latency_ns_(metrics_.GetHistogram("query.latency_ns")),
      query_fixpoint_rounds_(metrics_.GetHistogram("query.fixpoint_rounds")),
      query_tuples_inserted_(metrics_.GetHistogram("query.tuples_inserted")),
      query_seed_tuples_pruned_(
          metrics_.GetHistogram("query.seed_tuples_pruned")),
      constraints_checks_(metrics_.GetCounter("constraints.checks")),
      constraints_simplified_(metrics_.GetCounter("constraints.simplified")),
      constraints_full_rechecks_(
          metrics_.GetCounter("constraints.full_rechecks")),
      constraints_violations_(metrics_.GetCounter("constraints.violations")),
      prepared_compilations_(metrics_.GetCounter("prepared.compilations")),
      slow_query_log_(options.slow_query_log_capacity),
      mat_cache_(options.cache_capacity, &metrics_, &event_log_) {
  event_log_.set_enabled(options.events);
}

Database::~Database() { ProcessMetrics().MergeFrom(metrics_); }

Status Database::DefineRelationType(const std::string& name, Schema schema) {
  return catalog_.DefineRelationType(name, std::move(schema));
}

Status Database::CreateRelation(const std::string& name,
                                const std::string& type_name) {
  return catalog_.CreateRelation(name, type_name);
}

Status Database::Insert(const std::string& relation, Tuple tuple) {
  DATACON_ASSIGN_OR_RETURN(Relation * rel, catalog_.LookupRelation(relation));
  const std::vector<CompiledConstraint*> verified = VerifiedConstraints();
  DATACON_ASSIGN_OR_RETURN(bool grew, rel->Insert(tuple));
  if (grew) {
    Status checked = CheckConstraintsAfterUpdate();
    if (!checked.ok()) {
      rel->Erase(tuple);
      RestoreBaselines(verified);
      return checked;
    }
  }
  return Status::OK();
}

Status Database::InsertAll(const std::string& relation,
                           const std::vector<Tuple>& tuples) {
  DATACON_ASSIGN_OR_RETURN(Relation * rel, catalog_.LookupRelation(relation));
  const std::vector<CompiledConstraint*> verified = VerifiedConstraints();
  std::vector<Tuple> grown;
  grown.reserve(tuples.size());
  Status status = Status::OK();
  for (const Tuple& t : tuples) {
    Result<bool> grew = rel->Insert(t);
    if (!grew.ok()) {
      status = grew.status();
      break;
    }
    if (grew.value()) grown.push_back(t);
  }
  if (status.ok() && !grown.empty()) status = CheckConstraintsAfterUpdate();
  if (!status.ok()) {
    // Statement atomicity: undo exactly the tuples this statement added.
    for (const Tuple& t : grown) rel->Erase(t);
    RestoreBaselines(verified);
    return status;
  }
  return Status::OK();
}

Result<const Relation*> Database::GetRelation(const std::string& name) const {
  return catalog_.LookupRelation(name);
}

Result<Relation*> Database::GetMutableRelation(const std::string& name) {
  return catalog_.LookupRelation(name);
}

Status Database::Assign(const std::string& relation, const Relation& value) {
  DATACON_ASSIGN_OR_RETURN(Relation * rel, catalog_.LookupRelation(relation));
  // Build the new value first so a key violation leaves `relation`
  // unchanged — the paper's IF <test> THEN rel := rex ELSE <exception>.
  Relation fresh(rel->schema());
  DATACON_RETURN_IF_ERROR(fresh.InsertAll(value));
  const std::vector<CompiledConstraint*> verified = VerifiedConstraints();
  Relation saved = std::move(*rel);
  *rel = std::move(fresh);
  Status checked = CheckConstraintsAfterUpdate();
  if (!checked.ok()) {
    *rel = std::move(saved);
    RestoreBaselines(verified);
    return checked;
  }
  return Status::OK();
}

Status Database::AssignThroughSelector(const std::string& relation,
                                       const std::string& selector,
                                       const std::vector<Value>& args,
                                       const Relation& value) {
  DATACON_ASSIGN_OR_RETURN(const SelectorDecl* sel,
                           catalog_.LookupSelector(selector));
  if (args.size() != sel->params().size()) {
    return Status::TypeError("selector '" + selector + "' takes " +
                             std::to_string(sel->params().size()) +
                             " argument(s), got " + std::to_string(args.size()));
  }
  // An empty application graph still resolves plain and selected ranges,
  // which is all a selector predicate may reference.
  ApplicationGraph graph(&catalog_);
  Environment env;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].type() != sel->params()[i].type) {
      return Status::TypeError("argument '" + sel->params()[i].name +
                               "' of selector '" + selector + "' expects " +
                               std::string(ValueTypeName(sel->params()[i].type)));
    }
    env.BindParam(sel->params()[i].name, args[i]);
  }
  const EvalOptions eval_options = EvalOptionsNow();
  SystemEvaluator ev(&catalog_, &graph, eval_options, env);
  DATACON_RETURN_IF_ERROR(ev.MaterializeAll());
  Evaluator eval(&ev, eval_options.typed_proven);

  Environment tuple_env = env;
  for (const Tuple& t : value.tuples()) {
    tuple_env.Bind(sel->var(), &t, &value.schema());
    DATACON_ASSIGN_OR_RETURN(bool ok, eval.EvalPred(*sel->pred(), tuple_env));
    if (!ok) {
      return Status::InvalidArgument(
          "tuple " + t.ToString() + " violates selector '" + selector +
          "'; assignment through a selected relation rejected (section 2.3)");
    }
  }
  return Assign(relation, value);
}

Status Database::DefineSelector(SelectorDeclPtr decl) {
  if (options_.typecheck) {
    DATACON_RETURN_IF_ERROR(CheckSelectorDecl(*decl, catalog_));
  } else {
    // Admitting an unchecked definition permanently demotes the catalog to
    // the checked interpreter (the typed proof no longer holds).
    catalog_typed_clean_ = false;
  }
  return catalog_.DefineSelector(std::move(decl));
}

Status Database::DefineConstructorGroup(
    const std::vector<ConstructorDeclPtr>& decls, bool check_positivity) {
  // Register the whole group first: a recursive constructor must be visible
  // to its own type check, and mutually recursive constructors (section
  // 3.1's ahead/above) to each other's. Roll everything back on failure.
  std::vector<std::string> registered;
  Status status = Status::OK();
  for (const ConstructorDeclPtr& decl : decls) {
    status = catalog_.DefineConstructor(decl);
    if (!status.ok()) break;
    registered.push_back(decl->name());
  }
  if (status.ok()) {
    // One type-checker pass over the group. Per member, its level-1
    // verdict comes before its positivity test; the remaining inference
    // errors (E130 conflicts, E131 ill-typed operations) reject the group
    // last. Warnings surface through CHECK/datacon-lint.
    GroupVerdict verdict;
    if (options_.typecheck) verdict = CheckConstructorGroup(decls, catalog_);
    for (size_t i = 0; status.ok() && i < decls.size(); ++i) {
      if (options_.typecheck) status = verdict.members[i];
      if (status.ok() && check_positivity) {
        // The strict DBPL rule: reject at definition time (section 3.3).
        // With the stratified extension, negative references are instead
        // validated against the application graph at query compilation.
        status = CheckPositivity(*decls[i]);
      }
    }
    if (status.ok()) status = verdict.inference;
  }
  if (status.ok() && !options_.typecheck) catalog_typed_clean_ = false;
  if (!status.ok()) {
    for (const std::string& name : registered) catalog_.RemoveConstructor(name);
    return status;
  }
  return Status::OK();
}

Status Database::DefineConstructor(ConstructorDeclPtr decl) {
  return DefineConstructorGroup({std::move(decl)},
                                !options_.allow_stratified_negation);
}

Status Database::DefineConstructorGroup(
    const std::vector<ConstructorDeclPtr>& decls) {
  return DefineConstructorGroup(decls, !options_.allow_stratified_negation);
}

Status Database::DefineConstructorUnchecked(ConstructorDeclPtr decl) {
  return DefineConstructorGroup({std::move(decl)}, /*check_positivity=*/false);
}

namespace {

/// Renders the first (lexicographically smallest) witness tuple of a
/// non-empty violation result — deterministic across runs.
std::string FirstWitness(const Relation& witnesses) {
  std::vector<Tuple> sorted = witnesses.SortedTuples();
  return sorted.front().ToString();
}

}  // namespace

Status Database::DefineConstraint(ConstraintDeclPtr decl) {
  if (constraints_.count(decl->name()) > 0) {
    return Status::AlreadyExists("constraint '" + decl->name() + "'");
  }
  ConstraintAnalysis analysis = AnalyzeConstraint(*decl, catalog_);
  if (analysis.HasErrors()) {
    for (const Diagnostic& d : analysis.diagnostics) {
      if (d.severity != Severity::kError) continue;
      Status status(d.code == kDiagConstraintUnknownRelation
                        ? StatusCode::kNotFound
                        : StatusCode::kTypeError,
                    d.code + ": " + d.message);
      return status;
    }
  }

  CompiledConstraint compiled;
  compiled.decl = decl;
  compiled.body = analysis.body;
  DATACON_ASSIGN_OR_RETURN(CalcExprPtr denial,
                           DenialQuery(compiled.body, catalog_));
  DATACON_ASSIGN_OR_RETURN(PreparedQuery full, Prepare(denial, {}));
  // Checks must be invisible to later queries: never warm the cache.
  full.cache_bypass_ = true;
  compiled.full = std::move(full);

  for (const ConstraintEvent& event : analysis.events) {
    CompiledEvent ce;
    ce.insert_mode = event.insert_mode;
    if (event.insert_mode == ConstraintCheckMode::kSimplified) {
      for (size_t index : event.residue_bindings) {
        Result<ConstraintResidue> residue =
            BuildResidue(compiled.body, index, catalog_);
        Result<PreparedQuery> prepared =
            residue.ok() ? Prepare(residue->expr, residue->placeholders)
                         : Result<PreparedQuery>(residue.status());
        if (!prepared.ok()) {
          // A residue the query compiler cannot handle degrades the event
          // to full re-evaluation instead of rejecting the constraint.
          ce.insert_mode = ConstraintCheckMode::kFull;
          ce.residues.clear();
          break;
        }
        PreparedQuery residue_query = std::move(prepared).value();
        residue_query.cache_bypass_ = true;
        ce.residues.push_back(CompiledResidue{std::move(residue_query),
                                              residue->param_fields,
                                              Environment(),
                                              {}});
      }
    }
    compiled.events.emplace(event.relation, std::move(ce));
  }

  // The W231 case at runtime: a constraint refuted by the facts already in
  // the database is rejected (while enforcement is off it is admitted and
  // caught by the first checked statement).
  if (options_.constraints) {
    DATACON_ASSIGN_OR_RETURN(Relation witnesses, compiled.full->Execute({}));
    if (witnesses.size() > 0) {
      return Status::ConstraintViolation(
          "constraint '" + decl->name() +
          "' is already violated by existing facts: witness " +
          FirstWitness(witnesses));
    }
  }
  for (const std::string& input : analysis.inputs) {  // in name order
    DATACON_ASSIGN_OR_RETURN(const Relation* rel,
                             catalog_.LookupRelation(input));
    compiled.snapshot.push_back(
        SnapshotEntry{input, rel, nullptr, rel->generation()});
  }
  DATACON_RETURN_IF_ERROR(catalog_.DefineConstraint(decl));
  // Link each input to its event and each residue's parameters to their
  // cells where the constraint now lives.
  CompiledConstraint& stored =
      constraints_.emplace(decl->name(), std::move(compiled)).first->second;
  for (SnapshotEntry& entry : stored.snapshot) {
    auto it = stored.events.find(entry.relation);
    if (it != stored.events.end()) entry.event = &it->second;
  }
  for (auto& [relation, event] : stored.events) {
    for (CompiledResidue& residue : event.residues) {
      for (const std::string& field : residue.param_fields) {
        residue.slots.push_back(residue.params.ParamSlot(field));
      }
    }
  }
  return Status::OK();
}

std::vector<Database::CompiledConstraint*> Database::VerifiedConstraints() {
  std::vector<CompiledConstraint*> verified;
  for (auto& [name, compiled] : constraints_) {
    bool current = true;
    for (const SnapshotEntry& entry : compiled.snapshot) {
      if (entry.rel->generation() != entry.generation) {
        current = false;
        break;
      }
    }
    if (current) verified.push_back(&compiled);
  }
  return verified;
}

void Database::RestoreBaselines(
    const std::vector<CompiledConstraint*>& verified) {
  for (CompiledConstraint* compiled : verified) {
    for (SnapshotEntry& entry : compiled->snapshot) {
      entry.generation = entry.rel->generation();
    }
  }
}

Status Database::CheckConstraintsAfterUpdate() {
  if (!options_.constraints || constraints_.empty()) return Status::OK();
  for (auto& [name, compiled] : constraints_) {
    DATACON_RETURN_IF_ERROR(CheckOneConstraint(&compiled));
  }
  return Status::OK();
}

Status Database::CheckOneConstraint(CompiledConstraint* constraint) {
  // Which inputs moved since the last successful check, and are their
  // deltas still reconstructible as pure inserts?
  struct MovedInput {
    const SnapshotEntry* input;
    std::optional<std::vector<Tuple>> delta;
  };
  std::vector<MovedInput> moved;
  bool rebase = false;
  for (const SnapshotEntry& entry : constraint->snapshot) {
    if (entry.rel->generation() == entry.generation) continue;
    std::optional<std::vector<Tuple>> delta =
        entry.rel->InsertedSince(entry.generation);
    // Erase/Clear churn or insert-log overflow: the delta is gone, so only
    // full re-evaluation is sound (erases can create witnesses through
    // odd-parity occurrences that inserts never could).
    if (!delta.has_value()) rebase = true;
    moved.push_back(MovedInput{&entry, std::move(delta)});
  }
  if (moved.empty()) return Status::OK();

  constraints_checks_->Increment();
  TraceSpan span("constraint");
  if (span.active()) span.AddArg("name", constraint->decl->name());

  bool need_full = rebase || !options_.constraints_simplify;
  if (!need_full) {
    for (const MovedInput& input : moved) {
      const CompiledEvent* event = input.input->event;
      if (event == nullptr ||
          event->insert_mode == ConstraintCheckMode::kFull) {
        need_full = true;
        break;
      }
    }
  }

  if (need_full) {
    if (span.active()) span.AddArg("mode", "full");
    constraints_full_rechecks_->Increment();
    DATACON_ASSIGN_OR_RETURN(Relation witnesses,
                             constraint->full->ExecuteBound(Environment()));
    if (witnesses.size() > 0) {
      constraints_violations_->Increment();
      std::string witness = FirstWitness(witnesses);
      if (event_log_.enabled()) {
        event_log_.Emit("constraint.violation",
                        {EventField::Str("name", constraint->decl->name()),
                         EventField::Str("witness", witness)});
      }
      return Status::ConstraintViolation(
          "constraint '" + constraint->decl->name() + "' violated: witness " +
          witness);
    }
  } else {
    if (span.active()) span.AddArg("mode", "simplified");
    for (const MovedInput& input : moved) {
      CompiledEvent& event = *input.input->event;
      if (event.insert_mode == ConstraintCheckMode::kSkip) continue;
      for (const Tuple& delta_tuple : *input.delta) {
        for (CompiledResidue& residue : event.residues) {
          constraints_simplified_->Increment();
          for (size_t i = 0; i < residue.slots.size(); ++i) {
            *residue.slots[i] = delta_tuple.value(static_cast<int>(i));
          }
          DATACON_ASSIGN_OR_RETURN(Relation witnesses,
                                   residue.query.ExecuteBound(residue.params));
          if (witnesses.size() > 0) {
            constraints_violations_->Increment();
            std::string witness = FirstWitness(witnesses);
            if (event_log_.enabled()) {
              event_log_.Emit(
                  "constraint.violation",
                  {EventField::Str("name", constraint->decl->name()),
                   EventField::Str("relation", input.input->relation),
                   EventField::Str("witness", witness)});
            }
            return Status::ConstraintViolation(
                "constraint '" + constraint->decl->name() +
                "' violated by tuple " + delta_tuple.ToString() + " (" +
                input.input->relation + "): witness " + witness);
          }
        }
      }
    }
  }

  // Success: advance the delta baseline to the current generations.
  for (SnapshotEntry& entry : constraint->snapshot) {
    entry.generation = entry.rel->generation();
  }
  return Status::OK();
}

std::string Database::DescribeConstraints() const {
  if (constraints_.empty()) return "no constraints defined\n";
  // A check's physical plan: each branch as the executor runs it (probes
  // over the catalog relations' own indexes, scans, filters).
  auto plan = [this](const PreparedQuery& query) {
    std::string text;
    for (const BranchPtr& branch : query.program_->plan.expr->branches()) {
      Result<std::string> one = ExplainBranch(*branch);
      if (!text.empty()) text += " | ";
      text += one.ok() ? one.value() : one.status().ToString();
    }
    return text;
  };
  std::string out;
  for (const auto& [name, compiled] : constraints_) {
    out += ToString(*compiled.decl) + "\n";
    out += "  full check: ";
    out += plan(*compiled.full) + "\n";
    for (const auto& [relation, event] : compiled.events) {
      out += "  on INSERT INTO " + relation + ": " +
             std::string(ConstraintCheckModeName(event.insert_mode));
      if (event.insert_mode == ConstraintCheckMode::kSimplified) {
        out += " (" + std::to_string(event.residues.size()) + " residue" +
               (event.residues.size() == 1 ? "" : "s") + ")";
      }
      out += "\n";
      for (size_t i = 0; i < event.residues.size(); ++i) {
        out += "    residue " + std::to_string(i) + ": ";
        out += plan(event.residues[i].query) + "\n";
      }
    }
    out += "  on erase/rebase of any input: full recheck\n";
  }
  return out;
}

Result<Relation> Database::EvalRange(const RangePtr& range) {
  // `Rel {ctor}` is the identity query over the range.
  CalcExprPtr expr = build::Union(
      {build::IdentityBranch("__q", range, build::True())});
  return EvalQuery(expr);
}

Result<Relation> Database::EvalQuery(const CalcExprPtr& expr) {
  DATACON_ASSIGN_OR_RETURN(Schema schema, InferQuerySchema(*expr, catalog_));
  return Evaluate(expr, schema, Environment());
}

Result<Relation> Database::EvalQueryAs(const CalcExprPtr& expr,
                                       const Schema& schema) {
  DATACON_RETURN_IF_ERROR(CheckQuery(*expr, catalog_, schema));
  return Evaluate(expr, schema, Environment());
}

void Database::BeginEvaluation(const std::string* plan) {
  static_cast<QueryRecord&>(last_record_) = QueryRecord{};
  ++last_record_.eval_index;
  last_record_.typed_proven = TypedProven();
  // assign() copies into the retained buffer: no allocation per query.
  last_record_.plan.assign(plan != nullptr ? *plan : std::string_view());
}

void Database::KeepRecord(SystemEvaluator* ev) {
  static_cast<QueryRecord&>(last_record_) = ev->record();
  StoreProfile(ev->TakeProfile());
}

void Database::StoreProfile(std::unique_ptr<ProfileNode> profile) {
  if (profile == nullptr) return;
  profiles_.emplace_back(last_record_.eval_index, std::move(profile));
  if (profiles_.size() > kRetainedProfiles) profiles_.erase(profiles_.begin());
}

const ProfileNode* Database::profile_at(int64_t index) const {
  for (const auto& [idx, profile] : profiles_) {
    if (idx == index) return profile.get();
  }
  return nullptr;
}

void Database::FinishEvaluation(const CalcExpr& expr) {
  const EvaluationRecord& r = last_record_;
  // Always-on monitoring: four relaxed-atomic histogram records per query.
  query_latency_ns_->Record(r.elapsed_ns);
  query_fixpoint_rounds_->Record(static_cast<int64_t>(r.stats.iterations));
  query_tuples_inserted_->Record(static_cast<int64_t>(r.stats.tuples_inserted));
  query_seed_tuples_pruned_->Record(
      static_cast<int64_t>(r.stats.seed_tuples_pruned));
  // The statement/digest strings are only built once admission is certain.
  if (slow_query_log_.WouldRecord(r.elapsed_ns)) {
    std::string digest = FieldsText(r, /*resources=*/false);
    digest += '\n';
    digest += FieldsText(r, /*resources=*/true);
    if (const ProfileNode* profile = profile_at(r.eval_index)) {
      digest += "\n" + profile->ToText();
      while (!digest.empty() && digest.back() == '\n') digest.pop_back();
    }
    slow_query_log_.Record(ToString(expr), r.elapsed_ns, std::move(digest));
    if (event_log_.enabled()) {
      event_log_.Emit("slowlog.admit",
                      {EventField::Int("eval_index", r.eval_index),
                       EventField::Int("elapsed_ns", r.elapsed_ns)});
    }
  }
  if (event_log_.enabled()) {
    std::vector<EventField> fields = {
        EventField::Int("eval_index", r.eval_index),
        EventField::Int("ok", r.ok ? 1 : 0),
        EventField::Int("elapsed_ns", r.elapsed_ns)};
    for (const QueryField& f : kQueryFields) {
      fields.push_back(EventField::Int(f.key, static_cast<int64_t>(f.Of(r))));
    }
    event_log_.Emit("query.finish", std::move(fields));
  }
}

template <typename Run>
Result<Relation> Database::ObservedEvaluation(const CalcExpr& expr,
                                              const std::string* plan,
                                              Run run) {
  BeginEvaluation(plan);
  TraceSpan span("evaluate", std::size(kQueryFields) + 3);
  if (span.active()) {
    span.AddArg("eval_index", last_record_.eval_index);
    if (plan != nullptr) span.AddArg("plan", *plan);
  }
  if (event_log_.enabled()) {
    event_log_.Emit("query.start",
                    {EventField::Int("eval_index", last_record_.eval_index),
                     plan != nullptr
                         ? EventField::Str("plan", *plan)
                         : EventField::Str("query", ToString(expr))});
  }
  Timer timer;
  Result<Relation> out = run();
  last_record_.elapsed_ns = timer.ElapsedNs();
  last_record_.ok = out.ok();
  // The span times what elapsed_ns times; its arguments and the record's
  // rendering below are bookkeeping.
  span.StopClock();
  if (span.active()) {
    for (const QueryField& f : kQueryFields) {
      span.AddArg(f.key, static_cast<int64_t>(f.Of(last_record_)));
    }
    span.AddArg("ok", out.ok() ? int64_t{1} : int64_t{0});
  }
  FinishEvaluation(expr);
  return out;
}

Result<Relation> Database::Evaluate(const CalcExprPtr& expr,
                                    const Schema& schema,
                                    const Environment& params) {
  return ObservedEvaluation(*expr, nullptr, [&]() -> Result<Relation> {
    DATACON_ASSIGN_OR_RETURN(std::unique_ptr<QueryProgram> program,
                             PlanProgram(expr));
    return RunProgram(program.get(), schema, params);
  });
}

Result<QueryPlan> Database::PlanQuery(const CalcExprPtr& expr) const {
  QueryPlan plan{expr, std::nullopt, "general evaluation"};
  if (options_.inline_nonrecursive) {
    DATACON_ASSIGN_OR_RETURN(std::optional<CalcExprPtr> inlined,
                             InlineNonRecursiveApplications(expr, catalog_));
    if (inlined.has_value()) {
      plan.expr = *inlined;
      plan.description = "inlined non-recursive applications";
    }
  }
  if (options_.use_capture_rules) {
    DATACON_ASSIGN_OR_RETURN(std::optional<SeededTcPlan> seeded,
                             DetectSeededTc(*plan.expr, catalog_));
    if (seeded.has_value()) {
      plan.description =
          "seeded transitive closure (" +
          (seeded->seed_param.has_value()
               ? "parameter '" + *seeded->seed_param + "'"
               : "constant " + seeded->seed_literal->ToString()) +
          ")";
      plan.seeded = std::move(seeded);
    }
  }
  return plan;
}

QueryProgram::Key Database::ProgramKeyNow() const {
  QueryProgram::Key key;
  key.definitions = catalog_.definition_version();
  key.specialize = options_.specialize;
  key.capture_rules = options_.use_capture_rules;
  key.inline_nonrecursive = options_.inline_nonrecursive;
  key.hash_joins = options_.eval.exec.use_hash_joins;
  key.typed_proven = TypedProven();
  key.unchecked = options_.eval.unchecked;
  key.strategy = options_.eval.strategy;
  return key;
}

Result<std::unique_ptr<QueryProgram>> Database::PlanProgram(
    const CalcExprPtr& expr) const {
  auto program = std::make_unique<QueryProgram>();
  program->key = ProgramKeyNow();
  DATACON_ASSIGN_OR_RETURN(program->plan, PlanQuery(expr));
  return program;
}

Status Database::CompileProgram(QueryProgram* program, bool for_explain) const {
  const CalcExpr& expr = *program->plan.expr;
  ApplicationGraph& graph = program->graph.emplace(&catalog_);
  DATACON_RETURN_IF_ERROR(graph.AddRoots(expr));
  if (const std::optional<SeededTcPlan>& seeded = program->plan.seeded) {
    // DetectSeededTc leaves the closure's node the graph's only one.
    DATACON_ASSIGN_OR_RETURN(
        program->seeded_node,
        graph.FindNode(*expr.branches()[seeded->branch_index]
                            ->bindings()[seeded->binding_index]
                            .range));
  } else if (options_.specialize || for_explain) {
    TraceSpan plan_span("plan specialize");
    DATACON_ASSIGN_OR_RETURN(program->adornment,
                             AnalyzeAdornment(expr, graph, catalog_));
    DATACON_ASSIGN_OR_RETURN(
        program->specialization,
        BuildSpecializationPlan(*program->adornment, graph));
  }
  program->compiled = true;
  return Status::OK();
}

Result<Relation> Database::RunProgram(QueryProgram* program,
                                      const Schema& schema,
                                      const Environment& params,
                                      bool allow_cache) {
  if (!program->compiled) DATACON_RETURN_IF_ERROR(CompileProgram(program));
  SystemEvaluator ev(&catalog_, &*program->graph, EvalOptionsNow(),
                     Environment(&params));
  ev.InstallProgram(&program->system);
  ev.InstallEventLog(&event_log_);
  // Parameterized executions bypass the cache: parameter values change
  // results (and magic seeds) without appearing in any cache key.
  if (allow_cache && options_.cache && !params.HasParams()) {
    ev.InstallMatCache(&mat_cache_);
  }
  if (program->specialization.has_value()) {
    ev.InstallSpecialization(&*program->specialization);
  }
  Result<Relation> result = [&]() -> Result<Relation> {
    if (options_.use_capture_rules) {
      // Constant propagation into the recursive constructor: a seeded plan
      // computes reachability from its seed only, never the full closure.
      std::optional<CaptureSeed> seed;
      if (const std::optional<SeededTcPlan>& seeded = program->plan.seeded) {
        const Value* value = seeded->seed_literal.has_value()
                                 ? &*seeded->seed_literal
                                 : params.LookupParam(*seeded->seed_param);
        if (value == nullptr) {
          return Status::NotFound("parameter '" + *seeded->seed_param +
                                  "' not bound");
        }
        seed = CaptureSeed{program->seeded_node, *value};
      }
      ev.InstallCaptureRules(std::move(seed));
    }
    DATACON_RETURN_IF_ERROR(ev.MaterializeAll());
    return ev.EvaluateExpr(*program->plan.expr, schema);
  }();
  KeepRecord(&ev);
  return result;
}

EvalOptions Database::EvalOptionsNow() {
  EvalOptions eval = options_.eval;
  eval.typed_proven = TypedProven();
  if (eval.exec.pool != nullptr) return eval;
  const size_t threads = ThreadPool::ResolveThreadCount(eval.exec.num_threads);
  if (threads <= 1) {
    pool_.reset();
    pool_threads_ = 0;
    return eval;
  }
  if (pool_threads_ != threads) {
    pool_.reset();  // join the old workers before spawning the new ones
    pool_ = std::make_unique<ThreadPool>(threads);
    pool_threads_ = threads;
  }
  eval.exec.pool = pool_.get();
  return eval;
}

Result<PreparedQuery> Database::Prepare(
    CalcExprPtr expr, std::map<std::string, ValueType> placeholders) {
  DATACON_ASSIGN_OR_RETURN(Schema schema,
                           InferQuerySchema(*expr, catalog_, placeholders));

  PreparedQuery q;
  q.db_ = this;
  DATACON_ASSIGN_OR_RETURN(q.program_, PlanProgram(expr));
  q.expr_ = std::move(expr);
  q.schema_ = std::move(schema);
  q.placeholders_ = std::move(placeholders);
  return q;
}

Result<Relation> PreparedQuery::Execute(
    const std::map<std::string, Value>& params) {
  // Validate the bindings against the declared placeholders.
  for (const auto& [name, type] : placeholders_) {
    auto it = params.find(name);
    if (it == params.end()) {
      return Status::InvalidArgument("parameter '" + name + "' not bound");
    }
    if (it->second.type() != type) {
      return Status::TypeError("parameter '" + name + "' expects " +
                               std::string(ValueTypeName(type)) + ", got " +
                               it->second.ToString());
    }
  }
  for (const auto& [name, value] : params) {
    (void)value;
    if (placeholders_.count(name) == 0) {
      return Status::InvalidArgument("unknown parameter '" + name + "'");
    }
  }
  Environment env;
  for (const auto& [name, value] : params) env.BindParam(name, value);
  return ExecuteBound(env);
}

Result<Relation> PreparedQuery::ExecuteBound(const Environment& params) {
  if (!(program_->key == db_->ProgramKeyNow())) {
    // A definition or a plan-shaping option changed since the program was
    // planned: plan the form afresh, as Prepare would now.
    DATACON_ASSIGN_OR_RETURN(program_, db_->PlanProgram(expr_));
  }
  // The plan was chosen at planning time (level 2); Execute runs level 3
  // only — compiled on the first run, reused by every later one.
  // Observability wraps it the same way Database::Evaluate wraps ad-hoc
  // queries.
  QueryProgram* program = program_.get();
  return db_->ObservedEvaluation(
      *program->plan.expr, &program->plan.description, [&] {
        const bool compiling = !program->compiled;
        Result<Relation> out =
            db_->RunProgram(program, schema_, params, !cache_bypass_);
        if (compiling && program->compiled) {
          db_->prepared_compilations_->Increment();
        }
        return out;
      });
}

Result<std::string> Database::Explain(const RangePtr& range) const {
  // The program of the identity query `EACH __q IN range: TRUE` — the form
  // EvalRange evaluates — without level-2 rewrites. Its adornment table is
  // informational; the rewrite itself is gated by options().specialize
  // (PRAGMA SPECIALIZE).
  QueryProgram program;
  program.plan.expr =
      build::Union({build::IdentityBranch("__q", range, build::True())});
  DATACON_RETURN_IF_ERROR(CompileProgram(&program, /*for_explain=*/true));
  const ApplicationGraph& graph = *program.graph;
  const AdornmentAnalysis& adornment = *program.adornment;

  std::string out = "query range: " + ToString(*range) + "\n";

  out += "level 1 (definition analysis): partitions:\n";
  for (const std::vector<std::string>& part : PartitionDefinitions(catalog_)) {
    out += "  {";
    for (size_t i = 0; i < part.size(); ++i) {
      if (i > 0) out += ", ";
      out += part[i];
    }
    out += "}\n";
  }

  out += "level 2 (query compilation): instantiated applications:\n";
  if (!range->ContainsConstructor()) {
    out += "  (none — plain range)\n";
    return out;
  }
  Result<SccDecomposition> scc = graph.Stratify();
  if (!scc.ok()) return scc.status();

  const SpecializationPlan* active_plan =
      options_.specialize && program.specialization.has_value()
          ? &*program.specialization
          : nullptr;

  for (int comp : scc->topological_order) {
    const std::vector<int>& members =
        scc->components[static_cast<size_t>(comp)];
    out += "  component:";
    for (int n : members) {
      out += " [" + graph.nodes()[static_cast<size_t>(n)].key + "]";
    }
    // Indexed by ComponentStrategy; the plan never restricts a capture.
    static constexpr const char* kPlain[] = {
        "single pass", "naive fixpoint", "semi-naive fixpoint",
        "capture rule: specialized transitive closure"};
    static constexpr const char* kRestricted[] = {
        "single pass (restricted)", "magic-seed specialized naive fixpoint",
        "magic-seed specialized semi-naive fixpoint", ""};
    const bool restricted =
        active_plan != nullptr &&
        active_plan->nodes[static_cast<size_t>(members[0])].active;
    const ComponentStrategy strategy = ChooseComponentStrategy(
        graph, catalog_, members, scc->cyclic[static_cast<size_t>(comp)],
        options_.eval, options_.use_capture_rules, active_plan);
    out += std::string(" -> ") +
           (restricted ? kRestricted : kPlain)[static_cast<size_t>(strategy)] +
           "\n";
  }

  out += "level 2 (inferred schemas):\n";
  TypeInference inference = InferCatalogTypes(catalog_);
  std::set<std::string> explained;
  for (const ApplicationGraph::Node& node : graph.nodes()) {
    const std::string& ctor_name = node.ctor->name();
    if (!explained.insert(ctor_name).second) continue;
    auto it = inference.constructors.find(ctor_name);
    if (it != inference.constructors.end()) {
      out += "  " + ctor_name + ": " + it->second.ToString() + "\n";
    }
  }
  out += TypedProven()
             ? "  typed evaluation: proven (per-tuple type checks elided)\n"
             : "  typed evaluation: checked fallback (catalog not "
               "typed-proven)\n";

  out += "level 2 (adornment & relevance):\n";
  out += adornment.ToText(graph);
  out += options_.specialize
             ? "  specialization: ON (PRAGMA SPECIALIZE = OFF disables)\n"
             : "  specialization: OFF (PRAGMA SPECIALIZE = ON enables)\n";
  for (const Diagnostic& d : adornment.diagnostics) {
    out += "  " + d.ToString() + "\n";
  }

  out += "level 3 (physical branch plans):\n";
  for (const ApplicationGraph::Node& node : graph.nodes()) {
    out += "  [" + node.key + "]\n";
    for (const BranchPtr& branch : node.body->branches()) {
      DATACON_ASSIGN_OR_RETURN(std::string plan, ExplainBranch(*branch));
      out += "    " + plan + "\n";
    }
  }
  return out;
}

Result<std::string> Database::ExplainBranch(const Branch& branch) const {
  std::vector<BindingSchema> schemas;
  for (const Binding& b : branch.bindings()) {
    DATACON_ASSIGN_OR_RETURN(const Schema* schema,
                             RangeSchemaOf(*b.range, catalog_));
    // A plain range names a catalog relation variable.
    schemas.push_back(BindingSchema{b.var, schema, b.range->IsPlain()});
  }
  return ExplainBranchPlan(branch, schemas, options_.eval.exec);
}

}  // namespace datacon
