#ifndef DATACON_CORE_CATALOG_H_
#define DATACON_CORE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "ast/decl.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/relation.h"
#include "types/schema.h"

namespace datacon {

/// The schema-level name space of a database program: relation types,
/// relation variables, selector declarations, and constructor declarations.
///
/// The catalog is the context against which semantic analysis resolves
/// names (level 1 of the paper's three-level framework) and against which
/// queries are instantiated (level 2).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // --- Relation types ---

  /// Declares `TYPE name = RELATION ... OF RECORD ... END`.
  Status DefineRelationType(const std::string& name, Schema schema);
  Result<const Schema*> LookupRelationType(const std::string& name) const;

  // --- Relation variables ---

  /// Declares `VAR name: type_name` and creates empty storage for it, with
  /// the insert log on (storage/relation.h InsertLog).
  Status CreateRelation(const std::string& name, const std::string& type_name);
  Result<Relation*> LookupRelation(const std::string& name);
  Result<const Relation*> LookupRelation(const std::string& name) const;
  /// The declared type name of relation variable `name`.
  Result<const std::string*> LookupRelationTypeName(const std::string& name) const;

  // --- Selectors and constructors ---

  Status DefineSelector(SelectorDeclPtr decl);
  Result<const SelectorDecl*> LookupSelector(const std::string& name) const;

  Status DefineConstructor(ConstructorDeclPtr decl);
  Result<const ConstructorDecl*> LookupConstructor(const std::string& name) const;

  /// Removes a constructor again — used to roll back a registration whose
  /// semantic checks failed (recursive constructors must be visible to
  /// their own type check, so registration happens first).
  void RemoveConstructor(const std::string& name) {
    if (constructors_.erase(name) > 0) ++definition_version_;
  }

  // --- Integrity constraints ---

  Status DefineConstraint(ConstraintDeclPtr decl);
  Result<const ConstraintDecl*> LookupConstraint(const std::string& name) const;

  /// Rolls back a constraint registration whose initial full check failed.
  void RemoveConstraint(const std::string& name) {
    if (constraints_.erase(name) > 0) ++definition_version_;
  }

  /// Counts the definitions this catalog has admitted or rolled back: every
  /// relation type, relation variable, selector, constructor and
  /// constraint bumps it. A compiled query program is valid while this is
  /// unchanged (data changes never bump it).
  uint64_t definition_version() const { return definition_version_; }

  const std::map<std::string, ConstraintDeclPtr>& constraints() const {
    return constraints_;
  }

  const std::map<std::string, ConstructorDeclPtr>& constructors() const {
    return constructors_;
  }
  const std::map<std::string, SelectorDeclPtr>& selectors() const {
    return selectors_;
  }
  const std::map<std::string, Schema>& relation_types() const {
    return relation_types_;
  }
  const std::map<std::string, std::string>& relation_type_names() const {
    return relation_var_types_;
  }

 private:
  std::map<std::string, Schema> relation_types_;
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  std::map<std::string, std::string> relation_var_types_;
  std::map<std::string, SelectorDeclPtr> selectors_;
  std::map<std::string, ConstructorDeclPtr> constructors_;
  std::map<std::string, ConstraintDeclPtr> constraints_;
  uint64_t definition_version_ = 0;
};

}  // namespace datacon

#endif  // DATACON_CORE_CATALOG_H_
