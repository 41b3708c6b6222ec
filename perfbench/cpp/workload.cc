#include "workload.h"

namespace perfbench {

using datacon::Relation;
using datacon::Status;

QueryRun RunQuery(datacon::Interpreter* interp, const std::string& text,
                  Tracer* tracer, int64_t query_id) {
  QueryRun run;
  {
    ScopedSpan span(tracer, "op.query", query_id);
    const int64_t start = NowNs();
    run.status = interp->Execute(text);
    run.ns = NowNs() - start;
  }
  if (run.status.ok()) {
    if (interp->results().empty()) {
      run.status = Status::Internal("query produced no result");
    } else {
      run.answer = interp->results().back().relation;
    }
  }
  interp->ClearResults();
  return run;
}

int64_t TimedInsert(datacon::Database* db, const std::string& relation,
                    datacon::Tuple tuple, Status* status) {
  const int64_t start = NowNs();
  *status = db->Insert(relation, std::move(tuple));
  return NowNs() - start;
}

OpOutcome CheckedQuery(QueryRun run, std::string label,
                       const std::string& text, const PairOracle& oracle,
                       bool keep_answer) {
  OpOutcome out;
  out.kind = OpKind::kQuery;
  out.label = std::move(label);
  out.ns = run.ns;
  out.query_text = text;
  if (!run.status.ok()) {
    out.failed = true;
    out.why = text + ": " + run.status.ToString();
    return out;
  }
  out.result_tuples = run.answer.size();
  std::string why;
  if (!MatchesOracle(run.answer, oracle, &why)) {
    out.failed = true;
    out.why = text + ": " + why;
  }
  if (keep_answer) out.answer = std::move(run.answer);
  return out;
}

datacon::Relation PairRelation(
    const datacon::Schema& schema, const Edges& pairs,
    const std::function<datacon::Value(int)>& encode) {
  Relation rel(schema);
  for (const auto& [a, b] : pairs) {
    (void)rel.Insert(datacon::Tuple({encode(a), encode(b)}));
  }
  return rel;
}

datacon::Value IntValue(int id) { return datacon::Value::Int(id); }

}  // namespace perfbench
