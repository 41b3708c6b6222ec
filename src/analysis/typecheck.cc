#include "analysis/typecheck.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "ast/pred.h"
#include "ast/printer.h"
#include "ast/range.h"
#include "ast/term.h"
#include "core/semantics.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "types/schema.h"

namespace datacon {

namespace {

/// " (at L:C)" naming a finding's secondary span; empty when unknown.
std::string At(const SourceLoc& loc) {
  return loc.valid() ? " (at " + loc.ToString() + ")" : "";
}

std::string TypeName(ValueType type) {
  return std::string(ValueTypeName(type));
}

std::string Describe(const InferredType& cell) {
  std::string origin = cell.origin.ToString();
  return origin.empty() ? TypeName(cell.type)
                        : TypeName(cell.type) + " from " + origin;
}

TypeOrigin TermOrigin(const Term& term) {
  return {.kind = TypeOrigin::Kind::kTerm, .term = &term};
}

TypeOrigin NamedOrigin(TypeOrigin::Kind kind, const std::string& name) {
  return {.kind = kind, .name = &name};
}

/// A row bound in scope: its range's declared schema and, for a constructor
/// of the group under inference, the in-progress cells (null: the declared
/// types are the cells). A null schema is a row of unknown shape — its range
/// failed to resolve, already reported — and references through it abstain.
struct Row {
  const Schema* schema = nullptr;
  const std::vector<InferredType>* cells = nullptr;
  TypeOrigin origin;
  SourceLoc loc;

  int arity() const { return schema == nullptr ? 0 : schema->arity(); }
  InferredType Cell(int i) const {
    if (cells != nullptr) return (*cells)[static_cast<size_t>(i)];
    return InferredType::Known(schema->field(i).type, loc, origin);
  }
};

/// Names in scope during one walk: formal relation parameters, scalar
/// parameters (a declaration's formals or a query's placeholders), and the
/// bound tuple variables, innermost last.
struct Scope {
  std::vector<const FormalRelation*> relation_formals;
  const std::vector<FormalScalar>* scalar_formals = nullptr;
  const std::map<std::string, ValueType>* placeholders = nullptr;
  std::vector<std::pair<const std::string*, Row>> vars;

  const std::string* RelationFormal(const std::string& name) const {
    for (const FormalRelation* formal : relation_formals) {
      if (formal->name == name) return &formal->type_name;
    }
    return nullptr;
  }
  std::optional<ValueType> ScalarParam(const std::string& name) const {
    for (size_t i = 0; scalar_formals && i < scalar_formals->size(); ++i) {
      if ((*scalar_formals)[i].name == name) return (*scalar_formals)[i].type;
    }
    if (placeholders == nullptr) return std::nullopt;
    auto it = placeholders->find(name);
    if (it == placeholders->end()) return std::nullopt;
    return it->second;
  }
  const Row* Var(const std::string& name) const {
    for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
      if (*it->first == name) return &it->second;
    }
    return nullptr;
  }
};

/// A scalar term's two views: its declared type (nullopt when a name in it
/// does not resolve — already reported) and its inference cell.
struct TermType {
  std::optional<ValueType> declared;
  InferredType cell;

  bool known() const { return cell.state == InferredType::State::kKnown; }
};

/// How two types disagree: as declared (level 1 rejects) and/or as inferred.
struct Mismatch {
  bool declared = false;
  bool inferred = false;

  bool any() const { return declared || inferred; }
  /// `t` as a finding names it: by its cell when the cells disagree.
  std::string Show(const TermType& t) const {
    return inferred ? Describe(t.cell) : TypeName(*t.declared);
  }
};

Mismatch Compare(const TermType& a, const TermType& b) {
  return {a.declared && b.declared && *a.declared != *b.declared,
          a.known() && b.known() && a.cell.type != b.cell.type};
}

Mismatch Compare(const TermType& a, ValueType expected) {
  return {a.declared && *a.declared != expected,
          a.known() && a.cell.type != expected};
}

/// What one branch contributes to its body's result: a cell and a candidate
/// field name ("" for a computed target) per position. Only `resolved`
/// branches (every binding's range resolved) feed inference.
struct BranchShape {
  bool resolved = false;
  std::vector<InferredType> cells;
  std::vector<std::string> names;
};

/// Joins `contrib` into `cell` per the lattice (unknown ⊑ type ⊑ conflict).
/// Conflicted contributions join as unknown — the conflict is reported at
/// its own source, not cascaded. Returns true when `cell` changed.
bool JoinInto(InferredType* cell, const InferredType& contrib) {
  if (contrib.state != InferredType::State::kKnown) return false;
  switch (cell->state) {
    case InferredType::State::kUnknown:
      *cell = contrib;
      return true;
    case InferredType::State::kKnown:
      if (cell->type == contrib.type) return false;
      cell->state = InferredType::State::kConflict;
      cell->other_type = contrib.type;
      cell->other_loc = contrib.loc;
      cell->other_origin = contrib.origin;
      return true;
    case InferredType::State::kConflict:
      return false;
  }
  return false;
}

std::string ConflictMessage(const InferredType& cell) {
  return Describe(cell) + At(cell.loc) + " conflicts with " +
         TypeName(cell.other_type) + " from " + cell.other_origin.ToString() +
         At(cell.other_loc);
}

constexpr bool kFatal = true;
/// Unresolved range names and unbound tuple variables: lint's own name and
/// safety passes (E101, E110) report them, so lint output leaves them out.
constexpr bool kLintReports = false;

/// One finding of the walk: `fatal` ones level 1 rejects on; invisible ones
/// are left out of lint output because another finding already says it.
struct Finding {
  Diagnostic diag;
  bool fatal = false;
  bool visible = true;
};

/// The type checker: a fixpoint over one constructor group's cells, then
/// one checking walk over every construct.
class Inferencer {
 public:
  explicit Inferencer(const Catalog& catalog) : catalog_(catalog) {}

  /// Checks one constructor group: registers its members, propagates
  /// their cells to a fixpoint, then checks each against its declaration.
  void CheckGroup(const std::vector<ConstructorDeclPtr>& group) {
    for (const ConstructorDeclPtr& decl : group) {
      if (decl == nullptr) continue;
      group_.push_back(decl.get());
      Member member{decl.get(), nullptr, {}};
      auto result = catalog_.LookupRelationType(decl->result_type_name());
      if (result.ok()) {
        // Arity comes from the declared result type; the cell types are
        // inferred from scratch (never seeded from it).
        member.result = result.value();
        member.cells.assign(static_cast<size_t>(member.result->arity()),
                            InferredType::Unknown());
      }
      members_.emplace(decl->name(), std::move(member));
    }

    // Propagate contributions to a fixpoint, one SCC of the constructor
    // reference graph at a time, dependencies first — silently: the
    // checking walk below reports.
    Digraph graph(static_cast<int>(group_.size()));
    std::map<std::string, int> node_of;
    for (size_t i = 0; i < group_.size(); ++i) {
      node_of.emplace(group_[i]->name(), static_cast<int>(i));
    }
    for (size_t i = 0; i < group_.size(); ++i) {
      for (const BranchPtr& branch : group_[i]->body()->branches()) {
        for (const Binding& b : branch->bindings()) {
          AddRangeEdges(static_cast<int>(i), *b.range, node_of, &graph);
        }
      }
    }
    SccDecomposition scc = ComputeScc(graph);
    quiet_ = true;
    for (int comp : scc.topological_order) {
      bool changed = true;
      while (changed) {
        changed = false;
        for (int node : scc.components[static_cast<size_t>(comp)]) {
          changed |= SeedDecl(*group_[static_cast<size_t>(node)]);
        }
      }
    }
    quiet_ = false;

    for (const ConstructorDecl* decl : group_) {
      member_begin_.push_back(findings_.size());
      CheckDecl(*decl);
    }
    member_begin_.push_back(findings_.size());
  }

  void CheckSelector(const SelectorDecl& decl) {
    const SourceLoc loc = decl.loc();
    const Schema* base = LookupType(decl.base().type_name, loc);
    CheckDistinctParams(decl.params(), "selector", decl.name(), loc);
    Scope scope;
    scope.relation_formals.push_back(&decl.base());
    scope.scalar_formals = &decl.params();
    scope.vars.emplace_back(
        &decl.var(),
        Row{base, nullptr,
            NamedOrigin(TypeOrigin::Kind::kBaseRelation, decl.base().name),
            loc});
    WalkPred(*decl.pred(), &scope, loc);
  }

  /// Checks a query. Against `declared` fields when given; otherwise the
  /// result schema is inferred from the first branch and returned (nullopt
  /// when that branch does not type).
  std::optional<Schema> CheckQuery(
      const CalcExpr& expr,
      const std::map<std::string, ValueType>* placeholders,
      const std::vector<Field>* declared) {
    const std::vector<BranchPtr>& branches = expr.branches();
    if (declared == nullptr && branches.empty()) {
      Report(kDiagTypeError, "cannot infer a schema for an empty expression",
             {}, kFatal);
      return std::nullopt;
    }
    Scope scope;
    scope.placeholders = placeholders;
    std::optional<std::vector<Field>> head;
    const std::vector<Field>* expected = declared;
    std::vector<BranchShape> shapes;
    shapes.reserve(branches.size());
    for (size_t bi = 0; bi < branches.size(); ++bi) {
      if (declared == nullptr && bi == 0) {
        shapes.push_back(CheckBranch(*branches[0], &scope, nullptr, &head));
        if (head.has_value()) expected = &*head;
      } else {
        shapes.push_back(CheckBranch(*branches[bi], &scope, expected));
      }
    }
    ReportUnion(expr, shapes);
    if (!head.has_value()) return std::nullopt;
    return NameColumns(std::move(*head), shapes);
  }

  /// The row `range` denotes under `scope`, checking every application;
  /// nullopt when a name does not resolve.
  std::optional<Row> ResolveRange(const Range& range, const Scope& scope,
                                  SourceLoc loc) {
    const std::string* type_name = scope.RelationFormal(range.relation());
    if (type_name == nullptr) {
      auto named = catalog_.LookupRelationTypeName(range.relation());
      if (!named.ok()) {
        Report(kDiagUnknownName,
               "relation '" + range.relation() +
                   "' is neither a formal parameter nor a declared relation "
                   "variable",
               loc, kFatal, kLintReports);
        return std::nullopt;
      }
      type_name = named.value();
    }
    const Schema* schema = LookupType(*type_name, loc);
    if (schema == nullptr) return std::nullopt;
    Row row{schema, nullptr,
            NamedOrigin(TypeOrigin::Kind::kRelation, range.relation()), loc};
    for (const RangeApp& app : range.apps()) {
      if (app.kind == RangeApp::Kind::kSelector) {
        // Selectors restrict but never change the element type.
        auto sel = catalog_.LookupSelector(app.name);
        if (!sel.ok()) {
          Report(kDiagUnknownName, "unknown selector '" + app.name + "'", loc,
                 kFatal, kLintReports);
        } else if (!quiet_) {
          CheckApp(app, sel.value()->base(), {}, sel.value()->params(),
                   row.schema, scope, loc);
        }
        continue;
      }
      // In-group constructors resolve to their in-progress cells;
      // everything else to its declared result schema.
      auto member = members_.find(app.name);
      const ConstructorDecl* ctor = nullptr;
      if (member != members_.end()) {
        ctor = member->second.decl;
      } else {
        auto looked = catalog_.LookupConstructor(app.name);
        if (!looked.ok()) {
          Report(kDiagUnknownName, "unknown constructor '" + app.name + "'",
                 loc, kFatal, kLintReports);
          return std::nullopt;
        }
        ctor = looked.value();
      }
      if (!quiet_) {
        CheckApp(app, ctor->base(), ctor->rel_params(), ctor->scalar_params(),
                 row.schema, scope, loc);
      }
      if (member != members_.end()) {
        if (member->second.result == nullptr) {
          LookupType(ctor->result_type_name(), loc);
        }
        row = Row{member->second.result, &member->second.cells, {}, loc};
      } else {
        const Schema* result = LookupType(ctor->result_type_name(), loc);
        if (result == nullptr) return std::nullopt;
        row = Row{result, nullptr,
                  NamedOrigin(TypeOrigin::Kind::kConstructor, app.name), loc};
      }
    }
    return row;
  }

  /// The inferred schema of every group member.
  std::map<std::string, InferredSchema> Schemas() const {
    std::map<std::string, InferredSchema> out;
    for (const auto& [name, member] : members_) {
      InferredSchema schema;
      if (member.result != nullptr) {
        for (const Field& f : member.result->fields()) {
          schema.names.push_back(f.name);
        }
      }
      schema.columns = member.cells;
      out.emplace(name, std::move(schema));
    }
    return out;
  }

  std::vector<Diagnostic> TakeDiagnostics() {
    std::vector<Diagnostic> out;
    for (Finding& f : findings_) {
      if (f.visible) out.push_back(std::move(f.diag));
    }
    findings_.clear();
    return out;
  }

  /// The first fatal finding among those of group member `member` (every
  /// finding when npos), as a Status.
  Status FirstFatal(size_t member = std::string::npos) const {
    size_t begin = 0;
    size_t end = findings_.size();
    if (member != std::string::npos) {
      begin = member_begin_[member];
      end = member_begin_[member + 1];
    }
    for (size_t i = begin; i < end; ++i) {
      const Diagnostic& d = findings_[i].diag;
      if (!findings_[i].fatal) continue;
      return Status(d.code == kDiagUnknownName ? StatusCode::kNotFound
                                               : StatusCode::kTypeError,
                    d.code + ": " + d.message);
    }
    return Status::OK();
  }

  /// The first error-severity finding level 1 does not reject on.
  Status FirstInferenceError() const {
    for (const Finding& f : findings_) {
      if (!f.fatal && f.diag.severity == Severity::kError) {
        return Status::TypeError(f.diag.ToString());
      }
    }
    return Status::OK();
  }

 private:
  struct Member {
    const ConstructorDecl* decl;
    /// Declared result schema; null when its type is unknown.
    const Schema* result;
    std::vector<InferredType> cells;
  };

  void Report(std::string_view code, std::string message, SourceLoc loc,
              bool fatal = false, bool visible = true) {
    if (quiet_) return;
    findings_.push_back(
        Finding{MakeDiagnostic(code, std::move(message), loc), fatal, visible});
  }

  const Schema* LookupType(const std::string& type_name, SourceLoc loc) {
    auto schema = catalog_.LookupRelationType(type_name);
    if (schema.ok()) return schema.value();
    Report(kDiagUnknownName, "unknown relation type '" + type_name + "'", loc,
           kFatal);
    return nullptr;
  }

  /// Records dependency edges from `from` to every in-group constructor
  /// referenced anywhere in `range` (including nested range arguments).
  void AddRangeEdges(int from, const Range& range,
                     const std::map<std::string, int>& node_of,
                     Digraph* graph) {
    for (const RangeApp& app : range.apps()) {
      if (app.kind == RangeApp::Kind::kConstructor) {
        auto it = node_of.find(app.name);
        if (it != node_of.end()) graph->AddEdge(from, it->second);
      }
      for (const RangePtr& arg : app.range_args) {
        AddRangeEdges(from, *arg, node_of, graph);
      }
    }
  }

  Scope ScopeFor(const ConstructorDecl& decl) {
    Scope scope;
    scope.relation_formals.push_back(&decl.base());
    for (const FormalRelation& r : decl.rel_params()) {
      scope.relation_formals.push_back(&r);
    }
    scope.scalar_formals = &decl.scalar_params();
    return scope;
  }

  void CheckDistinctParams(const std::vector<FormalScalar>& params,
                           const char* kind, const std::string& name,
                           SourceLoc loc) {
    for (size_t i = 0; i < params.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (params[j].name != params[i].name) continue;
        Report(kDiagTypeError,
               "duplicate parameter '" + params[i].name + "' in " + kind +
                   " '" + name + "'",
               loc, kFatal);
        break;
      }
    }
  }

  /// A selector or constructor application to a range of `current`
  /// schema: the callee's base schema, then its relation arguments and its
  /// scalar arguments (the "parameter substitution" edge of inference).
  void CheckApp(const RangeApp& app, const FormalRelation& base,
                const std::vector<FormalRelation>& rel_formals,
                const std::vector<FormalScalar>& formals,
                const Schema* current, const Scope& scope, SourceLoc loc) {
    const bool selector = app.kind == RangeApp::Kind::kSelector;
    const std::string what =
        (selector ? "selector '" : "constructor '") + app.name + "'";
    const Schema* base_schema = LookupType(base.type_name, loc);
    if (base_schema != nullptr && current != nullptr &&
        current->fields() != base_schema->fields()) {
      Report(kDiagTypeError,
             what + " expects base " + base_schema->ToString() +
                 ", applied to " + current->ToString(),
             loc, kFatal);
    }
    if (app.range_args.size() != rel_formals.size()) {
      Report(kDiagTypeError,
             what + " takes " + std::to_string(rel_formals.size()) +
                 " relation argument(s), got " +
                 std::to_string(app.range_args.size()),
             loc, kFatal);
    }
    for (size_t i = 0; i < app.range_args.size() && i < rel_formals.size();
         ++i) {
      std::optional<Row> arg = ResolveRange(*app.range_args[i], scope, loc);
      const Schema* formal = LookupType(rel_formals[i].type_name, loc);
      if (arg.has_value() && arg->schema != nullptr && formal != nullptr &&
          arg->schema->fields() != formal->fields()) {
        Report(kDiagTypeError,
               "relation argument '" + rel_formals[i].name + "' of " + what +
                   " expects " + formal->ToString() + ", got " +
                   arg->schema->ToString(),
               loc, kFatal);
      }
    }
    if (app.term_args.size() != formals.size()) {
      Report(kDiagTypeError,
             what + " takes " + std::to_string(formals.size()) +
                 (selector ? " argument(s)" : " scalar argument(s)") +
                 ", got " + std::to_string(app.term_args.size()),
             loc, kFatal);
    }
    for (size_t i = 0; i < app.term_args.size() && i < formals.size(); ++i) {
      TermType arg = TypeTerm(*app.term_args[i], scope, loc);
      Mismatch m = Compare(arg, formals[i].type);
      if (!m.any()) continue;
      Report(kDiagTypeConflict,
             "argument '" + formals[i].name + "' of " + what +
                 " is declared " + TypeName(formals[i].type) +
                 " but receives " + m.Show(arg),
             loc, m.declared);
    }
  }

  /// The declared type and inference cell of a scalar term under `scope`.
  TermType TypeTerm(const Term& term, const Scope& scope, SourceLoc loc) {
    switch (term.kind()) {
      case Term::Kind::kLiteral: {
        ValueType type = static_cast<const LiteralTerm&>(term).value().type();
        return {type, InferredType::Known(type, loc, TermOrigin(term))};
      }
      case Term::Kind::kParamRef: {
        const auto& t = static_cast<const ParamRefTerm&>(term);
        std::optional<ValueType> type = scope.ScalarParam(t.name());
        if (!type.has_value()) {
          Report(kDiagUnknownName, "unknown parameter '" + t.name() + "'", loc,
                 kFatal);
          return {};
        }
        return {*type, InferredType::Known(*type, loc, TermOrigin(term))};
      }
      case Term::Kind::kFieldRef: {
        const auto& t = static_cast<const FieldRefTerm&>(term);
        const Row* row = scope.Var(t.var());
        if (row == nullptr) {
          Report(kDiagUnknownName, "unbound tuple variable '" + t.var() + "'",
                 loc, kFatal, kLintReports);
          return {};
        }
        if (row->schema == nullptr) return {};
        std::optional<int> idx = row->schema->FieldIndex(t.field());
        if (!idx.has_value()) {
          Report(kDiagUnknownName,
                 "no field '" + t.field() + "' in " + row->schema->ToString(),
                 loc, kFatal);
          return {};
        }
        TermType out;
        out.declared = row->schema->field(*idx).type;
        InferredType cell = row->Cell(*idx);
        if (cell.state == InferredType::State::kKnown) {
          out.cell = InferredType::Known(cell.type, loc, TermOrigin(term));
        }
        return out;
      }
      case Term::Kind::kArith: {
        // Arithmetic always denotes an integer; its operands must be
        // integers too.
        const auto& t = static_cast<const ArithTerm&>(term);
        if (!quiet_) {
          for (const TermPtr& operand : {t.lhs(), t.rhs()}) {
            TermType op = TypeTerm(*operand, scope, loc);
            Mismatch m = Compare(op, ValueType::kInt);
            if (!m.any()) continue;
            Report(kDiagIllTypedOperation,
                   "operand of '" + ArithOpName(t.op()) + "' has type " +
                       m.Show(op) + " in '" + ToString(term) + "'",
                   loc, m.declared);
          }
        }
        return {ValueType::kInt,
                InferredType::Known(ValueType::kInt, loc, TermOrigin(term))};
      }
    }
    return {};
  }

  void WalkPred(const Pred& pred, Scope* scope, SourceLoc loc) {
    switch (pred.kind()) {
      case Pred::Kind::kBool:
        return;
      case Pred::Kind::kCompare: {
        const auto& p = static_cast<const ComparePred&>(pred);
        TermType lhs = TypeTerm(*p.lhs(), *scope, loc);
        TermType rhs = TypeTerm(*p.rhs(), *scope, loc);
        Mismatch m = Compare(lhs, rhs);
        if (!m.any()) return;
        bool ordered = p.op() == CompareOp::kLt || p.op() == CompareOp::kLe ||
                       p.op() == CompareOp::kGt || p.op() == CompareOp::kGe;
        if (ordered) {
          Report(kDiagIllTypedOperation,
                 "ordered comparison mixes " + m.Show(lhs) + " and " +
                     m.Show(rhs) + " in '" + ToString(pred) + "'",
                 loc, m.declared);
        } else {
          Report(kDiagDisjointComparison,
                 "'" + ToString(pred) + "' compares disjoint types " +
                     m.Show(lhs) + " and " + m.Show(rhs) +
                     "; it is statically always " +
                     (p.op() == CompareOp::kEq ? "FALSE" : "TRUE"),
                 loc, m.declared);
        }
        return;
      }
      case Pred::Kind::kAnd:
        for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
          WalkPred(*op, scope, loc);
        }
        return;
      case Pred::Kind::kOr:
        for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
          WalkPred(*op, scope, loc);
        }
        return;
      case Pred::Kind::kNot:
        WalkPred(*static_cast<const NotPred&>(pred).operand(), scope, loc);
        return;
      case Pred::Kind::kQuant: {
        const auto& p = static_cast<const QuantPred&>(pred);
        SourceLoc qloc = p.loc().valid() ? p.loc() : loc;
        if (scope->Var(p.var()) != nullptr) {
          Report(kDiagTypeError,
                 "quantifier shadows variable '" + p.var() + "' in '" +
                     ToString(pred) + "'",
                 qloc, kFatal);
        }
        std::optional<Row> row = ResolveRange(*p.range(), *scope, qloc);
        scope->vars.emplace_back(&p.var(), row.value_or(Row{}));
        WalkPred(*p.body(), scope, qloc);
        scope->vars.pop_back();
        return;
      }
      case Pred::Kind::kIn: {
        const auto& p = static_cast<const InPred&>(pred);
        std::optional<Row> row = ResolveRange(*p.range(), *scope, loc);
        const bool shaped = row.has_value() && row->schema != nullptr;
        const size_t arity = shaped ? static_cast<size_t>(row->arity()) : 0;
        if (shaped && p.tuple().size() != arity) {
          Report(kDiagTypeError,
                 "membership tuple arity " + std::to_string(p.tuple().size()) +
                     " does not match " + row->schema->ToString(),
                 loc, kFatal);
        }
        for (size_t i = 0; i < p.tuple().size(); ++i) {
          TermType term = TypeTerm(*p.tuple()[i], *scope, loc);
          if (i >= arity) continue;
          const int pos = static_cast<int>(i);
          TermType attr{row->schema->field(pos).type, row->Cell(pos)};
          Mismatch m = Compare(term, attr);
          if (!m.any()) continue;
          Report(kDiagDisjointComparison,
                 "membership position " + std::to_string(i) + " compares " +
                     m.Show(term) + " against " +
                     TypeName(m.inferred ? attr.cell.type : *attr.declared) +
                     " attribute '" + row->schema->field(pos).name + "' in '" +
                     ToString(pred) + "'; it can never match",
                 loc, m.declared);
        }
        return;
      }
    }
  }

  /// Binds each of `branch`'s variables in order (a range may reference
  /// earlier ones); a variable bound twice keeps its first row. With
  /// `check_duplicates` the duplicate is reported before its range is
  /// resolved (level 1's order). A range that fails to resolve binds a row
  /// of unknown shape. Returns false when any range failed.
  bool BindBranch(const Branch& branch, Scope* scope, bool check_duplicates) {
    bool resolved = true;
    for (const Binding& b : branch.bindings()) {
      SourceLoc loc = b.loc.valid() ? b.loc : branch.loc();
      bool duplicate = scope->Var(b.var) != nullptr;
      if (duplicate && check_duplicates) {
        Report(kDiagTypeError,
               "duplicate or shadowing variable '" + b.var +
                   "' in branch: " + ToString(branch),
               loc, kFatal);
      }
      std::optional<Row> row = ResolveRange(*b.range, *scope, loc);
      if (!row.has_value()) resolved = false;
      if (!duplicate) scope->vars.emplace_back(&b.var, row.value_or(Row{}));
    }
    return resolved;
  }

  /// Identity contributions: the bound row's cells, retagged so conflict
  /// messages point at the identity branch rather than the row's source.
  std::vector<InferredType> RetagIdentity(const Row& row,
                                          const Branch& branch) {
    std::vector<InferredType> out;
    const Binding& b = branch.bindings()[0];
    SourceLoc loc = b.loc.valid() ? b.loc : branch.loc();
    TypeOrigin origin{.kind = TypeOrigin::Kind::kIdentity,
                      .range = b.range.get()};
    for (int i = 0; i < row.arity(); ++i) {
      InferredType cell = row.Cell(i);
      out.push_back(cell.state == InferredType::State::kKnown
                        ? InferredType::Known(cell.type, loc, origin)
                        : InferredType::Unknown());
    }
    return out;
  }

  void ReportBadIdentity(const Branch& branch) {
    Report(kDiagTypeError,
           "a branch without a target list must bind exactly one variable: " +
               ToString(branch),
           branch.loc(), kFatal);
  }

  /// Checks one branch against `expected` (null when unknown) in level 1's
  /// order: bindings, predicate, targets. A query's first branch, given
  /// `head`, types its ranges and targets first instead — they define the
  /// result schema returned through `head` — and its own structure and
  /// predicate after.
  BranchShape CheckBranch(const Branch& branch, Scope* scope,
                          const std::vector<Field>* expected,
                          std::optional<std::vector<Field>>* head = nullptr) {
    BranchShape shape;
    const SourceLoc loc = branch.loc();
    const std::vector<Binding>& bindings = branch.bindings();
    const bool bad_identity =
        !branch.targets().has_value() && bindings.size() != 1;
    // Schema inference needs an identity head's single range before all.
    if (bad_identity && head != nullptr) ReportBadIdentity(branch);
    if (head == nullptr && bindings.empty()) {
      Report(kDiagTypeError, "branch binds no variables: " + ToString(branch),
             loc, kFatal);
    }
    shape.resolved = BindBranch(branch, scope, head == nullptr);
    if (head == nullptr) WalkPred(*branch.pred(), scope, loc);
    std::vector<Field> fields;  // the head's schema
    bool typed = true;
    if (branch.targets().has_value()) {
      const std::vector<TermPtr>& targets = *branch.targets();
      const bool arity_ok =
          expected == nullptr || targets.size() == expected->size();
      if (!arity_ok) {
        Report(kDiagTypeError,
               "target list has " + std::to_string(targets.size()) +
                   " terms, result type has arity " +
                   std::to_string(expected->size()) + ": " + ToString(branch),
               loc, kFatal);
      }
      for (size_t i = 0; i < targets.size(); ++i) {
        TermType t = TypeTerm(*targets[i], *scope, loc);
        shape.cells.push_back(t.cell);
        shape.names.push_back(
            targets[i]->kind() == Term::Kind::kFieldRef
                ? static_cast<const FieldRefTerm&>(*targets[i]).field()
                : std::string());
        if (expected != nullptr && arity_ok) {
          // When the cells disagree too, the fixpoint's or the union's
          // E130 already names the conflict; lint does not see this one.
          Mismatch m = Compare(t, (*expected)[i].type);
          if (m.declared) {
            Report(kDiagTypeConflict,
                   "target position " + std::to_string(i) + ": expected " +
                       TypeName((*expected)[i].type) + ", got " +
                       TypeName(*t.declared) + " in '" +
                       ToString(*targets[i]) + "'",
                   loc, kFatal, !(m.inferred && shape.resolved));
          }
        }
        if (head == nullptr) continue;
        if (!t.declared.has_value()) {
          typed = false;
          continue;
        }
        // Prefer the source field's own name when the target is a plain
        // field reference; fall back to positional names.
        std::string name = shape.names.back();
        if (name.empty()) name = "c" + std::to_string(i);
        fields.push_back(Field{std::move(name), *t.declared});
      }
    } else if (bad_identity) {
      if (head == nullptr) ReportBadIdentity(branch);
      typed = false;
    } else {
      const Row& row = scope->vars.front().second;
      if (row.schema != nullptr && expected != nullptr &&
          !row.schema->UnionCompatible(Schema(*expected))) {
        Report(kDiagTypeError,
               "identity branch over " + row.schema->ToString() +
                   " is not union-compatible with result " +
                   Schema(*expected).ToString(),
               loc, kFatal);
      }
      shape.cells = RetagIdentity(row, branch);
      if (row.schema == nullptr) {
        typed = false;
      } else {
        for (const Field& f : row.schema->fields()) {
          shape.names.push_back(f.name);
        }
        // Derived results use set semantics: the key declaration is dropped.
        if (head != nullptr) fields = row.schema->fields();
      }
    }
    if (head != nullptr) {
      if (bindings.empty()) {
        Report(kDiagTypeError,
               "branch binds no variables: " + ToString(branch), loc, kFatal);
      }
      for (size_t j = 1; j < bindings.size(); ++j) {
        for (size_t k = 0; k < j; ++k) {
          if (bindings[k].var != bindings[j].var) continue;
          Report(kDiagTypeError,
                 "duplicate or shadowing variable '" + bindings[j].var +
                     "' in branch: " + ToString(branch),
                 bindings[j].loc.valid() ? bindings[j].loc : loc, kFatal);
          break;
        }
      }
      WalkPred(*branch.pred(), scope, loc);
      if (typed) *head = std::move(fields);
    }
    scope->vars.clear();
    return shape;
  }

  /// Joins the branches' contributions per result position: E130 on a
  /// cross-branch conflict, W242 (once) when branches disagree on a field
  /// name.
  void ReportUnion(const CalcExpr& expr,
                   const std::vector<BranchShape>& shapes) {
    if (shapes.empty() || !shapes[0].resolved) return;
    std::vector<InferredType> cells(shapes[0].cells.size());
    const std::vector<std::string>& names = shapes[0].names;
    bool names_clash = false;
    for (size_t bi = 0; bi < shapes.size(); ++bi) {
      const BranchShape& shape = shapes[bi];
      if (!shape.resolved) continue;
      for (size_t i = 0; i < shape.cells.size() && i < cells.size(); ++i) {
        JoinInto(&cells[i], shape.cells[i]);
        if (names_clash || i >= names.size() || shape.names[i].empty() ||
            names[i].empty() || shape.names[i] == names[i]) {
          continue;
        }
        names_clash = true;
        Report(kDiagUnionNameMismatch,
               "union branches disagree on the result field name at "
               "position " +
                   std::to_string(i) + " ('" + names[i] + "' vs '" +
                   shape.names[i] + "'); the positional name 'c" +
                   std::to_string(i) + "' is used",
               expr.branches()[bi]->loc());
      }
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].state != InferredType::State::kConflict) continue;
      Report(kDiagTypeConflict,
             "result position " + std::to_string(i) +
                 " of the query: " + ConflictMessage(cells[i]),
             cells[i].other_loc.valid() ? cells[i].other_loc : cells[i].loc);
    }
  }

  /// The final names of an inferred query schema. Positions where later
  /// branches propose a different source field name revert to positional
  /// names, so a union's schema never depends on which branch happens to
  /// be written first; duplicate names are disambiguated positionally.
  static Schema NameColumns(std::vector<Field> fields,
                            const std::vector<BranchShape>& shapes) {
    for (size_t bi = 1; bi < shapes.size(); ++bi) {
      const std::vector<std::string>& names = shapes[bi].names;
      if (names.size() != fields.size()) continue;
      for (size_t i = 0; i < fields.size(); ++i) {
        if (!names[i].empty() && names[i] != fields[i].name) {
          fields[i].name = "c" + std::to_string(i);
        }
      }
    }
    for (size_t a = 0; a < fields.size(); ++a) {
      for (size_t b = a + 1; b < fields.size(); ++b) {
        if (fields[a].name == fields[b].name) {
          fields[b].name += "_" + std::to_string(b);
        }
      }
    }
    return Schema(std::move(fields));
  }

  /// One propagation pass over `decl`'s branches. True when any cell of the
  /// constructor changed.
  bool SeedDecl(const ConstructorDecl& decl) {
    auto member = members_.find(decl.name());
    if (member == members_.end() || member->second.cells.empty()) {
      return false;
    }
    std::vector<InferredType>& out = member->second.cells;
    bool changed = false;
    Scope scope = ScopeFor(decl);
    for (const BranchPtr& branch : decl.body()->branches()) {
      if (BindBranch(*branch, &scope, /*check_duplicates=*/false)) {
        if (branch->targets().has_value()) {
          const std::vector<TermPtr>& targets = *branch->targets();
          size_t n = std::min(targets.size(), out.size());
          for (size_t i = 0; i < n; ++i) {
            changed |= JoinInto(
                &out[i], TypeTerm(*targets[i], scope, branch->loc()).cell);
          }
        } else if (branch->bindings().size() == 1 &&
                   static_cast<size_t>(scope.vars.front().second.arity()) ==
                       out.size()) {
          std::vector<InferredType> contribs =
              RetagIdentity(scope.vars.front().second, *branch);
          for (size_t i = 0; i < contribs.size(); ++i) {
            changed |= JoinInto(&out[i], contribs[i]);
          }
        }
      }
      scope.vars.clear();
    }
    return changed;
  }

  void CheckDecl(const ConstructorDecl& decl) {
    const SourceLoc loc = decl.loc();
    // The declaration's own names: formal types, distinct formals, a body.
    LookupType(decl.base().type_name, loc);
    const Schema* result = LookupType(decl.result_type_name(), loc);
    const std::vector<FormalRelation>& rel_params = decl.rel_params();
    for (size_t i = 0; i < rel_params.size(); ++i) {
      LookupType(rel_params[i].type_name, loc);
      bool duplicate = rel_params[i].name == decl.base().name;
      for (size_t j = 0; j < i && !duplicate; ++j) {
        duplicate = rel_params[j].name == rel_params[i].name;
      }
      if (duplicate) {
        Report(kDiagTypeError,
               "duplicate relation parameter '" + rel_params[i].name +
                   "' in constructor '" + decl.name() + "'",
               loc, kFatal);
      }
    }
    CheckDistinctParams(decl.scalar_params(), "constructor", decl.name(), loc);
    if (decl.body()->branches().empty()) {
      Report(kDiagTypeError,
             "constructor '" + decl.name() + "' has an empty body", loc,
             kFatal);
    }

    // Inferred cells vs the declared result schema.
    auto member = members_.find(decl.name());
    if (member != members_.end() && result != nullptr) {
      const std::vector<InferredType>& cells = member->second.cells;
      size_t n = std::min(cells.size(), static_cast<size_t>(result->arity()));
      for (size_t i = 0; i < n; ++i) {
        const InferredType& cell = cells[i];
        const Field& field = result->field(static_cast<int>(i));
        auto attribute = [&] {
          return "attribute '" + field.name + "' of constructor '" +
                 decl.name() + "'";
        };
        switch (cell.state) {
          case InferredType::State::kConflict:
            Report(kDiagTypeConflict,
                   attribute() + ": " + ConflictMessage(cell),
                   cell.other_loc.valid() ? cell.other_loc : loc);
            break;
          case InferredType::State::kKnown:
            if (cell.type != field.type) {
              Report(kDiagTypeConflict,
                     attribute() + " is declared " + TypeName(field.type) +
                         " but inferred " + Describe(cell) + At(cell.loc),
                     cell.loc.valid() ? cell.loc : loc);
            }
            break;
          case InferredType::State::kUnknown:
            Report(kDiagUnconstrainedAttribute,
                   attribute() +
                       " is not constrained by any branch; its inferred type "
                       "is unknown",
                   loc);
            break;
        }
      }
    }

    const std::vector<Field>* expected =
        result == nullptr ? nullptr : &result->fields();
    Scope scope = ScopeFor(decl);
    for (const BranchPtr& branch : decl.body()->branches()) {
      CheckBranch(*branch, &scope, expected);
    }
  }

  const Catalog& catalog_;
  std::vector<const ConstructorDecl*> group_;
  std::map<std::string, Member> members_;
  std::vector<Finding> findings_;
  /// Index into findings_ where each group_ member's check starts, plus the
  /// end.
  std::vector<size_t> member_begin_;
  /// Set while seeding: nothing is reported and application arguments are
  /// not checked.
  bool quiet_ = false;
};

}  // namespace

std::string TypeOrigin::ToString() const {
  switch (kind) {
    case Kind::kNone:
      return "";
    case Kind::kTerm:
      switch (term->kind()) {
        case Term::Kind::kLiteral:
          return "literal " +
                 static_cast<const LiteralTerm*>(term)->value().ToString();
        case Term::Kind::kParamRef:
          return "parameter '" +
                 static_cast<const ParamRefTerm*>(term)->name() + "'";
        case Term::Kind::kFieldRef: {
          const auto* t = static_cast<const FieldRefTerm*>(term);
          return "'" + t->var() + "." + t->field() + "'";
        }
        case Term::Kind::kArith:
          return "'" + datacon::ToString(*term) + "'";
      }
      return "";
    case Kind::kRelation:
      return "relation '" + *name + "'";
    case Kind::kBaseRelation:
      return "base relation '" + *name + "'";
    case Kind::kConstructor:
      return "constructor '" + *name + "'";
    case Kind::kIdentity:
      return "identity branch over '" + datacon::ToString(*range) + "'";
  }
  return "";
}

InferredType InferredType::Known(ValueType type, SourceLoc loc,
                                 TypeOrigin origin) {
  InferredType cell;
  cell.state = State::kKnown;
  cell.type = type;
  cell.loc = loc;
  cell.origin = origin;
  return cell;
}

std::string InferredType::ToString() const {
  switch (state) {
    case State::kKnown:
      return TypeName(type);
    case State::kUnknown:
      return "?";
    case State::kConflict:
      return "<conflict>";
  }
  return "?";
}

std::string InferredSchema::ToString() const {
  std::string out = "RECORD ";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += "; ";
    out += (i < names.size() ? names[i] : "c" + std::to_string(i)) + ": " +
           columns[i].ToString();
  }
  out += columns.empty() ? "END" : " END";
  return out;
}

bool TypeInference::HasErrors() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

TypeInference InferCatalogTypes(const Catalog& catalog) {
  std::vector<ConstructorDeclPtr> group;
  for (const auto& [name, decl] : catalog.constructors()) group.push_back(decl);
  Inferencer inf(catalog);
  inf.CheckGroup(group);
  TypeInference result;
  result.constructors = inf.Schemas();
  for (const auto& [name, decl] : catalog.selectors()) {
    for (Diagnostic& d : TypecheckSelector(*decl, catalog)) {
      result.diagnostics.push_back(std::move(d));
    }
  }
  for (Diagnostic& d : inf.TakeDiagnostics()) {
    result.diagnostics.push_back(std::move(d));
  }
  return result;
}

std::vector<Diagnostic> TypecheckConstructorGroup(
    const std::vector<ConstructorDeclPtr>& group, const Catalog& catalog) {
  Inferencer inf(catalog);
  inf.CheckGroup(group);
  return inf.TakeDiagnostics();
}

GroupVerdict CheckConstructorGroup(const std::vector<ConstructorDeclPtr>& group,
                                   const Catalog& catalog) {
  Inferencer inf(catalog);
  inf.CheckGroup(group);
  GroupVerdict verdict;
  size_t member = 0;
  for (const ConstructorDeclPtr& decl : group) {
    verdict.members.push_back(decl == nullptr ? Status::OK()
                                              : inf.FirstFatal(member++));
  }
  verdict.inference = inf.FirstInferenceError();
  return verdict;
}

std::vector<Diagnostic> TypecheckSelector(const SelectorDecl& decl,
                                          const Catalog& catalog) {
  Inferencer inf(catalog);
  inf.CheckSelector(decl);
  return inf.TakeDiagnostics();
}

std::vector<Diagnostic> TypecheckQueryExpr(
    const CalcExpr& expr, const Catalog& catalog,
    const std::map<std::string, ValueType>& placeholders) {
  Inferencer inf(catalog);
  inf.CheckQuery(expr, &placeholders, nullptr);
  return inf.TakeDiagnostics();
}

// --- Level-1 Status API (core/semantics.h) ----------------------------------

Result<const Schema*> RangeSchemaOf(const Range& range,
                                    const Catalog& catalog) {
  Inferencer inf(catalog);
  std::optional<Row> row = inf.ResolveRange(range, Scope(), SourceLoc());
  // Without group members every resolved row has a schema.
  if (row.has_value()) return row->schema;
  return inf.FirstFatal();
}

Status CheckSelectorDecl(const SelectorDecl& decl, const Catalog& catalog) {
  Inferencer inf(catalog);
  inf.CheckSelector(decl);
  return inf.FirstFatal();
}

Status CheckConstructorDecl(const ConstructorDecl& decl,
                            const Catalog& catalog) {
  // A non-owning alias: the group API wants shared ownership but never
  // stores it beyond the call.
  ConstructorDeclPtr alias(&decl, [](const ConstructorDecl*) {});
  return CheckConstructorGroup({alias}, catalog).members[0];
}

Status CheckQuery(const CalcExpr& expr, const Catalog& catalog,
                  const Schema& result_schema,
                  const std::map<std::string, ValueType>& placeholders) {
  Inferencer inf(catalog);
  inf.CheckQuery(expr, &placeholders, &result_schema.fields());
  return inf.FirstFatal();
}

Result<Schema> InferQuerySchema(
    const CalcExpr& expr, const Catalog& catalog,
    const std::map<std::string, ValueType>& placeholders) {
  Inferencer inf(catalog);
  std::optional<Schema> schema = inf.CheckQuery(expr, &placeholders, nullptr);
  DATACON_RETURN_IF_ERROR(inf.FirstFatal());
  if (!schema.has_value()) {
    return Status::Internal("query schema inference produced no schema");
  }
  return std::move(*schema);
}

}  // namespace datacon
