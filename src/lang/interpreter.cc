#include "lang/interpreter.h"

#include "analysis/constraint.h"
#include "analysis/typecheck.h"
#include "ast/printer.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "lang/parser.h"

namespace datacon {

namespace {

/// Trace label per ScriptStmt alternative, in variant order.
constexpr const char* kStmtKinds[] = {
    "type decl", "var decl", "selector decl", "constructor decl",
    "constraint decl", "insert", "assign", "query",
    "explain",   "check",    "pragma", "show",
};
static_assert(std::variant_size_v<ScriptStmt> ==
                  sizeof(kStmtKinds) / sizeof(kStmtKinds[0]),
              "kStmtKinds must cover every ScriptStmt alternative");

}  // namespace

LintOptions Interpreter::lint_options() const {
  LintOptions options;
  options.allow_stratified_negation =
      db_->options().allow_stratified_negation;
  return options;
}

Status Interpreter::ReportDefinitionLint(std::vector<Diagnostic> found) {
  LintReport report;
  report.Append(std::move(found));
  report.SortBySpan();
  std::string errors;
  for (const Diagnostic& d : report.diagnostics) {
    diagnostics_.push_back(d);
    if (d.severity == Severity::kError) errors += d.ToString() + "\n";
  }
  if (!errors.empty()) {
    return Status::TypeError("rejected by lint:\n" + errors);
  }
  return Status::OK();
}

Status Interpreter::Execute(std::string_view source) {
  SymbolSeed seed;
  seed.scalar_types = scalar_aliases_;
  for (const auto& [name, schema] : db_->catalog().relation_types()) {
    (void)schema;
    seed.relation_types.insert(name);
  }
  for (const auto& [name, type] : db_->catalog().relation_type_names()) {
    (void)type;
    seed.relation_names.insert(name);
  }
  Result<Script> parsed = [&] {
    TraceSpan span("parse");
    if (span.active()) {
      span.AddArg("bytes", static_cast<int64_t>(source.size()));
    }
    return ParseScript(source, &seed);
  }();
  DATACON_ASSIGN_OR_RETURN(Script script, std::move(parsed));
  // Consecutive constructor declarations form one definition group, so
  // mutually recursive constructors (section 3.1) can reference each other
  // forward — exactly as the paper writes them down.
  for (size_t i = 0; i < script.stmts.size();) {
    if (std::holds_alternative<ConstructorStmt>(script.stmts[i])) {
      TraceSpan span("statement");
      if (span.active()) span.AddArg("kind", "constructor group");
      std::vector<ConstructorDeclPtr> group;
      while (i < script.stmts.size() &&
             std::holds_alternative<ConstructorStmt>(script.stmts[i])) {
        group.push_back(std::get<ConstructorStmt>(script.stmts[i]).decl);
        ++i;
      }
      if (lint_enabled_) {
        // Lint BEFORE defining: an error rejects the whole group and leaves
        // the catalog untouched.
        TraceSpan lint_span("lint");
        DATACON_RETURN_IF_ERROR(ReportDefinitionLint(
            LintConstructorGroup(group, db_->catalog(), lint_options())));
      }
      DATACON_RETURN_IF_ERROR(db_->DefineConstructorGroup(group));
      continue;
    }
    TraceSpan span("statement");
    if (span.active()) span.AddArg("kind", kStmtKinds[script.stmts[i].index()]);
    DATACON_RETURN_IF_ERROR(Run(script.stmts[i]));
    ++i;
  }
  return Status::OK();
}

Result<Relation> Interpreter::EvalRelationExpr(const RelationExpr& value) {
  if (value.range != nullptr) return db_->EvalRange(value.range);
  return db_->EvalQuery(value.expr);
}

Status Interpreter::Run(const ScriptStmt& stmt) {
  if (const auto* type_decl = std::get_if<TypeDeclStmt>(&stmt)) {
    if (type_decl->is_relation) {
      return db_->DefineRelationType(type_decl->name, type_decl->schema);
    }
    scalar_aliases_[type_decl->name] = type_decl->scalar;
    return Status::OK();
  }
  if (const auto* var_decl = std::get_if<VarDeclStmt>(&stmt)) {
    return db_->CreateRelation(var_decl->name, var_decl->type_name);
  }
  if (const auto* selector = std::get_if<SelectorStmt>(&stmt)) {
    if (lint_enabled_) {
      TraceSpan lint_span("lint");
      DATACON_RETURN_IF_ERROR(ReportDefinitionLint(
          LintSelector(*selector->decl, db_->catalog())));
    }
    return db_->DefineSelector(selector->decl);
  }
  if (const auto* ctor = std::get_if<ConstructorStmt>(&stmt)) {
    if (lint_enabled_) {
      TraceSpan lint_span("lint");
      DATACON_RETURN_IF_ERROR(ReportDefinitionLint(LintConstructorGroup(
          {ctor->decl}, db_->catalog(), lint_options())));
    }
    return db_->DefineConstructor(ctor->decl);
  }
  if (const auto* constraint = std::get_if<ConstraintStmt>(&stmt)) {
    if (lint_enabled_) {
      // Lint BEFORE defining, like selectors/constructors: warnings are
      // collected, errors reject and leave the catalog untouched.
      TraceSpan lint_span("lint");
      DATACON_RETURN_IF_ERROR(ReportDefinitionLint(
          LintConstraint(*constraint->decl, db_->catalog())));
    }
    return db_->DefineConstraint(constraint->decl);
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
    // One statement, one atomic batch: a key or constraint violation rolls
    // every tuple of the statement back.
    return db_->InsertAll(insert->relation, insert->tuples);
  }
  if (const auto* assign = std::get_if<AssignStmt>(&stmt)) {
    DATACON_ASSIGN_OR_RETURN(Relation value, EvalRelationExpr(assign->value));
    if (assign->selector.has_value()) {
      return db_->AssignThroughSelector(assign->relation, *assign->selector,
                                        assign->selector_args, value);
    }
    return db_->Assign(assign->relation, value);
  }
  if (const auto* query = std::get_if<QueryStmt>(&stmt)) {
    DATACON_ASSIGN_OR_RETURN(Relation value, EvalRelationExpr(query->value));
    std::string text = query->value.range != nullptr
                           ? ToString(*query->value.range)
                           : ToString(*query->value.expr);
    results_.push_back(QueryResult{std::move(text), std::move(value)});
    return Status::OK();
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&stmt)) {
    DATACON_ASSIGN_OR_RETURN(std::string text, db_->Explain(explain->range));
    if (!explain->analyze) {
      results_.push_back(QueryResult{std::move(text), Relation()});
      return Status::OK();
    }
    // EXPLAIN ANALYZE: actually evaluate the range with profiling forced on
    // (restoring the PRAGMA PROFILE setting afterwards) and render the
    // collected profile tree below the plan.
    bool saved_profile = db_->options().eval.profile;
    db_->options().eval.profile = true;
    Result<Relation> value = db_->EvalRange(explain->range);
    db_->options().eval.profile = saved_profile;
    DATACON_RETURN_IF_ERROR(value.status());
    const EvaluationRecord& record = db_->last_record();
    const EvalStats& stats = record.stats;
    text += "analyze:\n";
    if (db_->last_profile() != nullptr) {
      std::string profile_text = db_->last_profile()->ToText();
      size_t start = 0;
      while (start < profile_text.size()) {
        size_t end = profile_text.find('\n', start);
        if (end == std::string::npos) end = profile_text.size();
        text += "  " + profile_text.substr(start, end - start) + "\n";
        start = end + 1;
      }
    }
    text += "result: " + std::to_string(value->size()) + " tuple(s), " +
            std::to_string(stats.iterations) + " round(s), " +
            std::to_string(stats.tuples_considered) + " considered, " +
            std::to_string(stats.tuples_inserted) + " inserted";
    if (stats.specialized_branches > 0) {
      text += ", " + std::to_string(stats.specialized_branches) +
              " specialized branch(es), " +
              std::to_string(stats.seed_tuples_pruned) +
              " seed tuple(s) pruned";
    }
    text += "\n";
    // Only queries that actually consulted the materialization cache grow a
    // cache line (plain-range queries and PRAGMA CACHE = OFF stay as-is).
    if (record.cache_hits + record.cache_misses + record.cache_delta_hits > 0) {
      text += "cache: " + std::to_string(record.cache_hits) + " hit(s), " +
              std::to_string(record.cache_misses) + " miss(es)";
      if (record.cache_delta_hits > 0) {
        text += ", " + std::to_string(record.cache_delta_hits) +
                " delta-maintained";
      }
      text += "\n";
    }
    text += "resources: " + FieldsText(record, /*resources=*/true) + "\n";
    results_.push_back(QueryResult{std::move(text), std::move(value).value()});
    return Status::OK();
  }
  if (const auto* check = std::get_if<CheckStmt>(&stmt)) {
    LintReport report;
    if (check->name.has_value()) {
      DATACON_ASSIGN_OR_RETURN(report, db_->Lint(*check->name));
    } else {
      report = db_->Lint();
    }
    for (const Diagnostic& d : report.diagnostics) diagnostics_.push_back(d);
    std::string header =
        check->name.has_value() ? "CHECK " + *check->name : "CHECK SCRIPT";
    std::string text = report.empty() ? header + ": no diagnostics\n"
                                      : header + ":\n" + report.ToText();
    results_.push_back(QueryResult{std::move(text), Relation()});
    return Status::OK();
  }
  if (const auto* pragma = std::get_if<PragmaStmt>(&stmt)) {
    if (pragma->name == "THREADS") {
      if (pragma->value < 0) {
        return Status::InvalidArgument("PRAGMA THREADS requires a value >= 0");
      }
      db_->options().eval.exec.num_threads =
          static_cast<size_t>(pragma->value);
      return Status::OK();
    }
    if (pragma->name == "LINT") {
      if (pragma->value != 0 && pragma->value != 1) {
        return Status::InvalidArgument("PRAGMA LINT requires ON or OFF");
      }
      lint_enabled_ = pragma->value != 0;
      return Status::OK();
    }
    if (pragma->name == "PROFILE") {
      if (pragma->value != 0 && pragma->value != 1) {
        return Status::InvalidArgument("PRAGMA PROFILE requires ON or OFF");
      }
      db_->options().eval.profile = pragma->value != 0;
      return Status::OK();
    }
    if (pragma->name == "SPECIALIZE") {
      if (pragma->value != 0 && pragma->value != 1) {
        return Status::InvalidArgument("PRAGMA SPECIALIZE requires ON or OFF");
      }
      db_->options().specialize = pragma->value != 0;
      return Status::OK();
    }
    if (pragma->name == "TRACE") {
      if (pragma->value != 0 && pragma->value != 1) {
        return Status::InvalidArgument("PRAGMA TRACE requires ON or OFF");
      }
      TraceRecorder::Global().Enable(pragma->value != 0);
      return Status::OK();
    }
    if (pragma->name == "SLOW_QUERY_MS") {
      if (pragma->value < 0) {
        return Status::InvalidArgument(
            "PRAGMA SLOW_QUERY_MS requires a value >= 0");
      }
      db_->slow_query_log().set_threshold_ns(pragma->value * 1'000'000);
      return Status::OK();
    }
    if (pragma->name == "CACHE") {
      if (pragma->value != 0 && pragma->value != 1) {
        return Status::InvalidArgument("PRAGMA CACHE requires ON or OFF");
      }
      db_->options().cache = pragma->value != 0;
      return Status::OK();
    }
    if (pragma->name == "CACHE_CAPACITY") {
      if (pragma->value < 0) {
        return Status::InvalidArgument(
            "PRAGMA CACHE_CAPACITY requires a value >= 0");
      }
      db_->options().cache_capacity = static_cast<size_t>(pragma->value);
      db_->mat_cache().set_capacity(static_cast<size_t>(pragma->value));
      return Status::OK();
    }
    if (pragma->name == "CONSTRAINTS") {
      if (pragma->value != 0 && pragma->value != 1) {
        return Status::InvalidArgument("PRAGMA CONSTRAINTS requires ON or OFF");
      }
      db_->options().constraints = pragma->value != 0;
      return Status::OK();
    }
    if (pragma->name == "TYPECHECK") {
      if (pragma->value != 0 && pragma->value != 1) {
        return Status::InvalidArgument("PRAGMA TYPECHECK requires ON or OFF");
      }
      db_->options().typecheck = pragma->value != 0;
      return Status::OK();
    }
    if (pragma->name == "EVENTS") {
      if (pragma->value != 0 && pragma->value != 1) {
        return Status::InvalidArgument("PRAGMA EVENTS requires ON or OFF");
      }
      db_->options().events = pragma->value != 0;
      db_->events().set_enabled(pragma->value != 0);
      return Status::OK();
    }
    return Status::Unsupported("unknown pragma '" + pragma->name + "'");
  }
  if (const auto* show = std::get_if<ShowStmt>(&stmt)) {
    std::string text;
    switch (show->what) {
      case ShowStmt::What::kMetrics:
        text = "METRICS:\n" + db_->metrics().ToText();
        break;
      case ShowStmt::What::kSlowLog:
        text = "SLOWLOG:\n" + db_->slow_query_log().ToText();
        break;
      case ShowStmt::What::kConstraints:
        text = "CONSTRAINTS:\n" + db_->DescribeConstraints();
        break;
      case ShowStmt::What::kSchemas: {
        TypeInference inference = InferCatalogTypes(db_->catalog());
        text = "SCHEMAS:\n";
        if (inference.constructors.empty()) {
          text += "  no constructors defined\n";
        } else {
          for (const auto& [name, schema] : inference.constructors) {
            text += "  " + name + ": " + schema.ToString() + "\n";
          }
        }
        break;
      }
      case ShowStmt::What::kEvents:
        text = "EVENTS:\n" + db_->events().ToText();
        break;
    }
    results_.push_back(QueryResult{std::move(text), Relation()});
    return Status::OK();
  }
  return Status::Internal("unhandled script statement");
}

}  // namespace datacon
