#include "prolog/sld.h"

#include <functional>

#include "common/check.h"
#include "common/trace.h"
#include "core/instantiate.h"
#include "prolog/translate.h"

namespace datacon {

PrologTerm SldEngine::Deref(PrologTerm t) const {
  while (t.kind == PrologTerm::Kind::kVar) {
    auto it = bindings_.find(t.var);
    if (it == bindings_.end()) return t;
    t = it->second;
  }
  return t;
}

void SldEngine::Bind(const std::string& var, PrologTerm term) {
  bindings_[var] = std::move(term);
  trail_.push_back(var);
}

void SldEngine::UndoTo(size_t mark) {
  while (trail_.size() > mark) {
    bindings_.erase(trail_.back());
    trail_.pop_back();
  }
}

bool SldEngine::Unify(const PrologTerm& a, const PrologTerm& b) {
  PrologTerm x = Deref(a);
  PrologTerm y = Deref(b);
  if (x.kind == PrologTerm::Kind::kVar) {
    if (y.kind == PrologTerm::Kind::kVar && x.var == y.var) return true;
    Bind(x.var, y);
    return true;
  }
  if (y.kind == PrologTerm::Kind::kVar) {
    Bind(y.var, x);
    return true;
  }
  return x.constant == y.constant;
}

Clause SldEngine::Rename(const Clause& clause) {
  std::string suffix = "#" + std::to_string(rename_counter_++);
  Clause out = clause;
  auto rename = [&suffix](PrologTerm& t) {
    if (t.kind == PrologTerm::Kind::kVar) t.var += suffix;
  };
  for (PrologTerm& t : out.head.args) rename(t);
  for (Atom& a : out.body) {
    for (PrologTerm& t : a.args) rename(t);
  }
  for (BuiltinComparison& b : out.builtins) {
    rename(b.lhs);
    rename(b.rhs);
  }
  return out;
}

Result<bool> SldEngine::CheckBuiltins(
    const std::vector<BuiltinComparison>& builtins) {
  for (const BuiltinComparison& b : builtins) {
    PrologTerm lhs = Deref(b.lhs);
    PrologTerm rhs = Deref(b.rhs);
    if (lhs.kind != PrologTerm::Kind::kConst ||
        rhs.kind != PrologTerm::Kind::kConst) {
      return Status::Unsupported(
          "builtin comparison over unbound variables (program is not "
          "range-restricted)");
    }
    if (lhs.constant.type() != rhs.constant.type()) return false;
    int c = lhs.constant.Compare(rhs.constant);
    bool ok = false;
    switch (b.op) {
      case CompareOp::kEq:
        ok = c == 0;
        break;
      case CompareOp::kNe:
        ok = c != 0;
        break;
      case CompareOp::kLt:
        ok = c < 0;
        break;
      case CompareOp::kLe:
        ok = c <= 0;
        break;
      case CompareOp::kGt:
        ok = c > 0;
        break;
      case CompareOp::kGe:
        ok = c >= 0;
        break;
    }
    if (!ok) return false;
  }
  return true;
}

Status SldEngine::SolveAtoms(const std::vector<Atom>& atoms, size_t index,
                             size_t depth, const Continuation& next) {
  if (index == atoms.size()) return next();
  return SolveAtom(atoms[index], depth, [&]() {
    return SolveAtoms(atoms, index + 1, depth, next);
  });
}

Status SldEngine::SolveAtom(const Atom& goal, size_t depth,
                            const Continuation& next) {
  if (options_.max_steps != 0 &&
      stats_.resolution_steps > options_.max_steps) {
    return Status::Divergence("SLD resolution exceeded its step budget of " +
                              std::to_string(options_.max_steps));
  }

  // Extensional predicate: scan the stored relation tuple-at-a-time.
  Result<const Relation*> rel =
      static_cast<const Catalog*>(catalog_)->LookupRelation(goal.predicate);
  if (rel.ok()) {
    const Relation& relation = *rel.value();
    if (goal.args.size() != static_cast<size_t>(relation.schema().arity())) {
      return Status::TypeError("atom " + goal.ToString() +
                               " does not match relation arity");
    }
    for (const Tuple& t : relation.tuples()) {
      ++stats_.facts_scanned;
      size_t mark = trail_.size();
      bool ok = true;
      for (size_t i = 0; i < goal.args.size(); ++i) {
        if (!Unify(goal.args[i],
                   PrologTerm::MakeConst(t.value(static_cast<int>(i))))) {
          ok = false;
          break;
        }
      }
      if (ok) DATACON_RETURN_IF_ERROR(next());
      UndoTo(mark);
    }
    return Status::OK();
  }

  // Intensional predicate.
  std::vector<const Clause*> clauses = program_->ClausesFor(goal.predicate);
  if (clauses.empty()) {
    return Status::NotFound("no clauses or relation for predicate '" +
                            goal.predicate + "'");
  }

  // Call-variant key: the predicate plus the ground-argument pattern of
  // this call. Distinct binding patterns are tabled separately (OLDT-style
  // subgoal tables), so a bound recursive call like tc(8, Z) is solved in
  // its own right rather than starved by the table of tc(7, Z).
  std::string call_key = goal.predicate + "|";
  for (const PrologTerm& arg : goal.args) {
    PrologTerm g = Deref(arg);
    call_key += g.kind == PrologTerm::Kind::kConst
                    ? g.constant.ToString()
                    : std::string("_");
    call_key += ",";
  }

  if (options_.tabling && ancestors_.count(call_key) > 0) {
    // Recursive variant call: consume the answer table instead of
    // recursing. The snapshot bound keeps this pass finite; later
    // saturation passes pick up answers added meanwhile.
    std::vector<std::vector<Value>>& answers = tables_[call_key];
    size_t bound = answers.size();
    for (size_t a = 0; a < bound; ++a) {
      size_t mark = trail_.size();
      bool ok = true;
      for (size_t i = 0; i < goal.args.size(); ++i) {
        if (!Unify(goal.args[i], PrologTerm::MakeConst(answers[a][i]))) {
          ok = false;
          break;
        }
      }
      if (ok) DATACON_RETURN_IF_ERROR(next());
      UndoTo(mark);
    }
    return Status::OK();
  }

  if (!options_.tabling && depth >= options_.max_depth) {
    return Status::Divergence(
        "SLD resolution exceeded depth " + std::to_string(options_.max_depth) +
        " — pure depth-first SLD does not terminate on cyclic data");
  }

  if (options_.tabling) ancestors_.insert(call_key);
  Status status = Status::OK();
  for (const Clause* clause : clauses) {
    ++stats_.resolution_steps;
    Clause instance = Rename(*clause);
    size_t mark = trail_.size();
    bool head_ok = true;
    for (size_t i = 0; i < goal.args.size(); ++i) {
      if (!Unify(goal.args[i], instance.head.args[i])) {
        head_ok = false;
        break;
      }
    }
    if (head_ok) {
      status = SolveAtoms(instance.body, 0, depth + 1, [&]() -> Status {
        DATACON_ASSIGN_OR_RETURN(bool builtins_ok,
                                 CheckBuiltins(instance.builtins));
        if (!builtins_ok) return Status::OK();
        if (options_.tabling) {
          // Record the (ground) derived head in the answer table.
          std::vector<Value> answer;
          answer.reserve(instance.head.args.size());
          for (const PrologTerm& t : instance.head.args) {
            PrologTerm g = Deref(t);
            if (g.kind != PrologTerm::Kind::kConst) {
              return Status::Unsupported(
                  "derived a non-ground head; the program is not "
                  "range-restricted: " + instance.head.ToString());
            }
            answer.push_back(g.constant);
          }
          if (table_index_[call_key].insert(answer).second) {
            tables_[call_key].push_back(std::move(answer));
          }
        }
        return next();
      });
    }
    UndoTo(mark);
    if (!status.ok()) break;
  }
  if (options_.tabling) ancestors_.erase(call_key);
  return status;
}

Result<Relation> SldEngine::Solve(
    const std::string& predicate,
    const std::vector<std::optional<Value>>& bound_args,
    const Schema& result_schema) {
  Relation result(Schema(result_schema.fields()));

  Atom query;
  query.predicate = predicate;
  for (size_t i = 0; i < static_cast<size_t>(result_schema.arity()); ++i) {
    if (i < bound_args.size() && bound_args[i].has_value()) {
      query.args.push_back(PrologTerm::MakeConst(*bound_args[i]));
    } else {
      std::string var = "Q";
      var += std::to_string(i);
      query.args.push_back(PrologTerm::MakeVar(std::move(var)));
    }
  }

  // Tabling mode: repeat top-down passes until the tables saturate.
  // Pure SLD: a single (possibly diverging) pass.
  TraceSpan solve_span("sld solve");
  if (solve_span.active()) solve_span.AddArg("predicate", predicate);
  while (true) {
    ++stats_.passes;
    TraceSpan pass_span("sld pass");
    if (pass_span.active()) {
      pass_span.AddArg("pass", static_cast<int64_t>(stats_.passes));
    }
    size_t answers_before = result.size();
    size_t tables_before = 0;
    for (const auto& [p, answers] : tables_) {
      (void)p;
      tables_before += answers.size();
    }

    Status status = SolveAtom(query, 0, [&]() -> Status {
      std::vector<Value> values;
      values.reserve(query.args.size());
      for (const PrologTerm& t : query.args) {
        PrologTerm g = Deref(t);
        if (g.kind != PrologTerm::Kind::kConst) {
          return Status::Unsupported("non-ground query answer");
        }
        values.push_back(g.constant);
      }
      DATACON_ASSIGN_OR_RETURN(bool grew, result.Insert(Tuple(values)));
      (void)grew;
      return Status::OK();
    });
    DATACON_RETURN_IF_ERROR(status);

    if (pass_span.active()) {
      pass_span.AddArg("answers", static_cast<int64_t>(result.size()));
    }
    if (!options_.tabling) break;
    size_t tables_after = 0;
    for (const auto& [p, answers] : tables_) {
      (void)p;
      tables_after += answers.size();
    }
    if (result.size() == answers_before && tables_after == tables_before) {
      break;
    }
  }
  if (solve_span.active()) {
    solve_span.AddArg("answers", static_cast<int64_t>(result.size()));
    solve_span.AddArg("passes", static_cast<int64_t>(stats_.passes));
  }
  return result;
}

Result<Relation> EvaluateRangeTopDown(
    const Catalog& catalog, const RangePtr& range, const SldOptions& options,
    const std::vector<std::optional<Value>>& bound_args, SldStats* stats) {
  ApplicationGraph graph(&catalog);
  DATACON_ASSIGN_OR_RETURN(int root, graph.AddRootRange(*range));
  if (root < 0) {
    return Status::InvalidArgument(
        "top-down evaluation requires a constructed range");
  }
  RangeSplit split = SplitAtLastConstructor(*range);
  if (!split.trailing_selectors.empty()) {
    return Status::Unsupported(
        "trailing selectors are not supported in top-down evaluation");
  }
  DATACON_ASSIGN_OR_RETURN(HornProgram program,
                           TranslateApplicationGraph(graph, catalog));
  SldEngine engine(&program, &catalog, options);
  Result<Relation> result =
      engine.Solve(graph.nodes()[static_cast<size_t>(root)].key, bound_args,
                   graph.nodes()[static_cast<size_t>(root)].result_schema);
  if (stats != nullptr) *stats = engine.stats();
  return result;
}

}  // namespace datacon
