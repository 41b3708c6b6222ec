#include "analysis/constraint.h"

#include <algorithm>
#include <utility>

#include "analysis/fold.h"
#include "ast/builder.h"
#include "core/matcache.h"
#include "core/positivity.h"
#include "core/semantics.h"
#include "core/subst.h"

namespace datacon {

namespace {

/// Reports E121 for every undeclared relation, selector, or constructor
/// referenced by `range` (recursively through constructor arguments), at
/// most once per name.
void CheckRangeNames(const Range& range, const Catalog& catalog, SourceLoc loc,
                     std::set<std::string>* reported,
                     std::vector<Diagnostic>* out) {
  if (!catalog.LookupRelation(range.relation()).ok() &&
      reported->insert(range.relation()).second) {
    out->push_back(MakeDiagnostic(
        kDiagConstraintUnknownRelation,
        "constraint references undeclared relation '" + range.relation() + "'",
        loc));
  }
  for (const RangeApp& app : range.apps()) {
    if (app.kind == RangeApp::Kind::kSelector) {
      if (!catalog.LookupSelector(app.name).ok() &&
          reported->insert(app.name).second) {
        out->push_back(MakeDiagnostic(
            kDiagConstraintUnknownRelation,
            "constraint references undeclared selector '" + app.name + "'",
            loc));
      }
    } else {
      if (!catalog.LookupConstructor(app.name).ok() &&
          reported->insert(app.name).second) {
        out->push_back(MakeDiagnostic(
            kDiagConstraintUnknownRelation,
            "constraint references undeclared constructor '" + app.name + "'",
            loc));
      }
      for (const RangePtr& arg : app.range_args) {
        CheckRangeNames(*arg, catalog, loc, reported, out);
      }
    }
  }
}

bool HasErrorDiagnostic(const std::vector<Diagnostic>& diags) {
  return std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError;
  });
}

}  // namespace

bool ConstraintAnalysis::HasErrors() const {
  return HasErrorDiagnostic(diagnostics);
}

std::string_view ConstraintCheckModeName(ConstraintCheckMode mode) {
  switch (mode) {
    case ConstraintCheckMode::kSkip:
      return "skip";
    case ConstraintCheckMode::kSimplified:
      return "simplified";
    case ConstraintCheckMode::kFull:
      return "full";
  }
  return "full";
}

Result<ConstraintBody> DesugarConstraint(const ConstraintDecl& decl,
                                         const Catalog& catalog) {
  using namespace build;  // NOLINT(build/namespaces)
  switch (decl.kind()) {
    case ConstraintDecl::Kind::kDenial:
      return ConstraintBody{decl.bindings(), decl.pred()};

    case ConstraintDecl::Kind::kKey: {
      // KEY <f...> ON Rel: deny two tuples agreeing on every key field but
      // differing on some other field.
      DATACON_ASSIGN_OR_RETURN(const Relation* rel,
                               catalog.LookupRelation(decl.relation()));
      const Schema& schema = rel->schema();
      std::set<std::string> key_set;
      std::vector<PredPtr> agree;
      for (const std::string& f : decl.key_fields()) {
        if (!schema.FieldIndex(f).has_value()) {
          return Status::TypeError("key field '" + f +
                                   "' is not a field of relation '" +
                                   decl.relation() + "'");
        }
        if (!key_set.insert(f).second) {
          return Status::TypeError("key field '" + f + "' listed twice");
        }
        agree.push_back(Eq(FieldRef("a", f), FieldRef("b", f)));
      }
      std::vector<PredPtr> differ;
      for (const Field& f : schema.fields()) {
        if (key_set.count(f.name) > 0) continue;
        differ.push_back(Ne(FieldRef("a", f.name), FieldRef("b", f.name)));
      }
      // A key covering every field is plain set semantics: the disjunction
      // is empty, the denial folds to FALSE, and the lint reports W230.
      PredPtr differs = differ.empty()     ? False()
                        : differ.size() == 1 ? differ[0]
                                             : Or(std::move(differ));
      agree.push_back(std::move(differs));
      ConstraintBody body;
      body.bindings.push_back(Each("a", Rel(decl.relation())));
      body.bindings.push_back(Each("b", Rel(decl.relation())));
      body.pred = agree.size() == 1 ? agree[0] : And(std::move(agree));
      return body;
    }

    case ConstraintDecl::Kind::kForeign: {
      // FOREIGN f OF lhs REFERENCES g OF rhs: deny an lhs tuple whose
      // f-value matches no rhs g-value.
      DATACON_ASSIGN_OR_RETURN(const Schema* lhs,
                               RangeSchemaOf(*decl.fk_range(), catalog));
      if (!lhs->FieldIndex(decl.fk_field()).has_value()) {
        return Status::TypeError("foreign field '" + decl.fk_field() +
                                 "' is not a field of the referencing range");
      }
      DATACON_ASSIGN_OR_RETURN(const Schema* rhs,
                               RangeSchemaOf(*decl.ref_range(), catalog));
      if (!rhs->FieldIndex(decl.ref_field()).has_value()) {
        return Status::TypeError("referenced field '" + decl.ref_field() +
                                 "' is not a field of the referenced range");
      }
      ConstraintBody body;
      body.bindings.push_back(Each("fk", decl.fk_range()));
      body.pred = Not(Some("ref", decl.ref_range(),
                           Eq(FieldRef("ref", decl.ref_field()),
                              FieldRef("fk", decl.fk_field()))));
      return body;
    }
  }
  return Status::Internal("unhandled constraint kind");
}

std::vector<Diagnostic> LintConstraint(const ConstraintDecl& decl,
                                       const Catalog& catalog) {
  std::vector<Diagnostic> out;
  std::set<std::string> reported;
  const SourceLoc loc = decl.loc();

  switch (decl.kind()) {
    case ConstraintDecl::Kind::kDenial:
      for (const Binding& b : decl.bindings()) {
        CheckRangeNames(*b.range, catalog, loc, &reported, &out);
      }
      ForEachRangeWithParity(*decl.pred(), 0,
                             [&](const Range& r, int /*parity*/) {
                               CheckRangeNames(r, catalog, loc, &reported,
                                               &out);
                             });
      break;
    case ConstraintDecl::Kind::kKey:
      if (!catalog.LookupRelation(decl.relation()).ok()) {
        out.push_back(MakeDiagnostic(
            kDiagConstraintUnknownRelation,
            "constraint references undeclared relation '" + decl.relation() +
                "'",
            loc));
      }
      break;
    case ConstraintDecl::Kind::kForeign:
      CheckRangeNames(*decl.fk_range(), catalog, loc, &reported, &out);
      CheckRangeNames(*decl.ref_range(), catalog, loc, &reported, &out);
      break;
  }
  if (HasErrorDiagnostic(out)) return out;

  Result<ConstraintBody> body_or = DesugarConstraint(decl, catalog);
  if (!body_or.ok()) {
    std::string_view code = body_or.status().code() == StatusCode::kNotFound
                                ? kDiagConstraintUnknownRelation
                                : kDiagUnsafeConstraint;
    out.push_back(MakeDiagnostic(code, body_or.status().message(), loc));
    return out;
  }
  const ConstraintBody& body = body_or.value();

  // The denial's bindings and predicate, checked as a branch with an empty
  // target list. Constraints take no parameters, so an unresolved name
  // inside the predicate (a free variable or a $-style placeholder) fails
  // right here.
  Status checked =
      CheckQuery(*build::Union({build::MakeBranch({}, body.bindings,
                                                  body.pred)}),
                 catalog, Schema());
  if (!checked.ok()) {
    out.push_back(
        MakeDiagnostic(kDiagUnsafeConstraint, checked.message(), loc));
    return out;
  }

  if (FoldPred(*body.pred) == FoldOutcome::kFalse) {
    out.push_back(MakeDiagnostic(
        kDiagConstraintTrivial,
        "constraint '" + decl.name() +
            "' is trivially satisfied: its denial folds to FALSE",
        loc));
  }
  return out;
}

ConstraintAnalysis AnalyzeConstraint(const ConstraintDecl& decl,
                                     const Catalog& catalog) {
  ConstraintAnalysis analysis;
  analysis.diagnostics = LintConstraint(decl, catalog);
  if (analysis.HasErrors()) return analysis;

  Result<ConstraintBody> body_or = DesugarConstraint(decl, catalog);
  if (!body_or.ok()) {
    analysis.diagnostics.push_back(MakeDiagnostic(
        kDiagUnsafeConstraint, body_or.status().message(), decl.loc()));
    return analysis;
  }
  analysis.body = std::move(body_or).value();

  // Per input relation: the direct plain bindings (candidate residues) and
  // whether any occurrence could create a witness in a way a residue does
  // not cover. Merely *appearing* in the map makes a relation an input —
  // odd-parity-only occurrences classify as kSkip but still force a full
  // recheck when their delta log rebases (an erase there can create
  // witnesses).
  struct RelInfo {
    std::vector<size_t> direct;
    bool complex_even = false;
  };
  std::map<std::string, RelInfo> info;
  auto mark_all_inputs = [&](const Range& r, int parity) {
    InputScan scan;
    ScanRangeInputs(r, catalog, parity, &scan);
    // Conservative regardless of the outer parity: a derived range can
    // create witnesses through selector predicates or constructor bodies
    // whose internal parity differs from the occurrence's.
    for (const std::string& name : scan.inputs) {
      info[name].complex_even = true;
    }
  };

  const std::vector<Binding>& bindings = analysis.body.bindings;
  for (size_t i = 0; i < bindings.size(); ++i) {
    const Range& r = *bindings[i].range;
    if (r.IsPlain()) {
      info[r.relation()].direct.push_back(i);
    } else {
      mark_all_inputs(r, 0);
    }
  }
  ForEachRangeWithParity(*analysis.body.pred, 0,
                         [&](const Range& r, int parity) {
                           if (r.IsPlain()) {
                             if (parity % 2 == 0) {
                               // An even-parity quantifier/membership range:
                               // a new witness can bind the inserted tuple
                               // there, outside any residue.
                               info[r.relation()].complex_even = true;
                             } else {
                               info[r.relation()];
                             }
                           } else {
                             mark_all_inputs(r, parity);
                           }
                         });

  for (const auto& [relation, rel_info] : info) {
    analysis.inputs.insert(relation);
    ConstraintEvent event;
    event.relation = relation;
    if (rel_info.complex_even) {
      event.insert_mode = ConstraintCheckMode::kFull;
    } else if (!rel_info.direct.empty()) {
      event.insert_mode = ConstraintCheckMode::kSimplified;
      event.residue_bindings = rel_info.direct;
    } else {
      event.insert_mode = ConstraintCheckMode::kSkip;
    }
    analysis.events.push_back(std::move(event));
  }
  return analysis;
}

Result<CalcExprPtr> DenialQuery(const ConstraintBody& body,
                                const Catalog& catalog) {
  std::vector<TermPtr> targets;
  for (const Binding& b : body.bindings) {
    DATACON_ASSIGN_OR_RETURN(const Schema* schema,
                             RangeSchemaOf(*b.range, catalog));
    for (const Field& f : schema->fields()) {
      targets.push_back(build::FieldRef(b.var, f.name));
    }
  }
  return build::Union(
      {build::MakeBranch(std::move(targets), body.bindings, body.pred)});
}

Result<ConstraintResidue> BuildResidue(const ConstraintBody& body,
                                       size_t binding_index,
                                       const Catalog& catalog) {
  using namespace build;  // NOLINT(build/namespaces)
  if (binding_index >= body.bindings.size()) {
    return Status::InvalidArgument("residue binding index out of range");
  }
  const Binding& delta = body.bindings[binding_index];
  if (!delta.range->IsPlain()) {
    return Status::InvalidArgument(
        "residue binding must range over a plain base relation");
  }
  DATACON_ASSIGN_OR_RETURN(const Relation* rel,
                           catalog.LookupRelation(delta.range->relation()));
  const Schema& schema = rel->schema();

  ConstraintResidue residue;
  residue.binding_index = binding_index;
  // The delta variable's fields become parameters everywhere, selector
  // arguments of the remaining ranges included.
  Substitution subst;
  for (const Field& f : schema.fields()) {
    std::string param = "delta_" + f.name;
    subst.fields[{delta.var, f.name}] = Param(param);
    residue.param_fields.push_back(param);
    residue.placeholders.emplace(std::move(param), f.type);
  }

  std::vector<Binding> rest;
  for (size_t j = 0; j < body.bindings.size(); ++j) {
    if (j == binding_index) continue;
    const Binding& b = body.bindings[j];
    rest.push_back(Binding{b.var, SubstituteRange(b.range, subst), b.loc});
  }

  std::vector<TermPtr> targets;
  PredPtr pred;
  if (rest.empty()) {
    // Single-binding denial: a branch needs a binding, so keep the delta
    // variable and pin it to the inserted tuple (already present in the
    // relation when the check runs) by parameter equalities.
    std::vector<PredPtr> conjuncts;
    for (const Field& f : schema.fields()) {
      conjuncts.push_back(
          Eq(FieldRef(delta.var, f.name), Param("delta_" + f.name)));
      targets.push_back(FieldRef(delta.var, f.name));
    }
    conjuncts.push_back(body.pred);
    rest.push_back(delta);
    pred = And(std::move(conjuncts));
  } else {
    pred = SubstitutePred(body.pred, subst);
    for (const Binding& b : rest) {
      DATACON_ASSIGN_OR_RETURN(const Schema* s,
                               RangeSchemaOf(*b.range, catalog));
      for (const Field& f : s->fields()) {
        targets.push_back(FieldRef(b.var, f.name));
      }
    }
  }
  residue.expr = Union({MakeBranch(std::move(targets), std::move(rest), pred)});
  return residue;
}

}  // namespace datacon
