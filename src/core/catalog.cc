#include "core/catalog.h"

namespace datacon {

Status Catalog::DefineRelationType(const std::string& name, Schema schema) {
  DATACON_RETURN_IF_ERROR(schema.Validate());
  if (relation_types_.count(name) > 0) {
    return Status::AlreadyExists("relation type '" + name + "'");
  }
  relation_types_.emplace(name, std::move(schema));
  ++definition_version_;
  return Status::OK();
}

Result<const Schema*> Catalog::LookupRelationType(const std::string& name) const {
  auto it = relation_types_.find(name);
  if (it == relation_types_.end()) {
    return Status::NotFound("relation type '" + name + "'");
  }
  return &it->second;
}

Status Catalog::CreateRelation(const std::string& name,
                               const std::string& type_name) {
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "'");
  }
  DATACON_ASSIGN_OR_RETURN(const Schema* schema, LookupRelationType(type_name));
  // Relation variables are what the materialization cache and constraint
  // residues observe by name, so they are the relations that log inserts.
  relations_.emplace(
      name, std::make_unique<Relation>(*schema, Relation::InsertLog::kOn));
  relation_var_types_.emplace(name, type_name);
  ++definition_version_;
  return Status::OK();
}

Result<Relation*> Catalog::LookupRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "'");
  }
  return it->second.get();
}

Result<const Relation*> Catalog::LookupRelation(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "'");
  }
  return static_cast<const Relation*>(it->second.get());
}

Result<const std::string*> Catalog::LookupRelationTypeName(
    const std::string& name) const {
  auto it = relation_var_types_.find(name);
  if (it == relation_var_types_.end()) {
    return Status::NotFound("relation '" + name + "'");
  }
  return &it->second;
}

Status Catalog::DefineSelector(SelectorDeclPtr decl) {
  const std::string& name = decl->name();
  if (selectors_.count(name) > 0) {
    return Status::AlreadyExists("selector '" + name + "'");
  }
  selectors_.emplace(name, std::move(decl));
  ++definition_version_;
  return Status::OK();
}

Result<const SelectorDecl*> Catalog::LookupSelector(
    const std::string& name) const {
  auto it = selectors_.find(name);
  if (it == selectors_.end()) {
    return Status::NotFound("selector '" + name + "'");
  }
  return it->second.get();
}

Status Catalog::DefineConstructor(ConstructorDeclPtr decl) {
  const std::string& name = decl->name();
  if (constructors_.count(name) > 0) {
    return Status::AlreadyExists("constructor '" + name + "'");
  }
  constructors_.emplace(name, std::move(decl));
  ++definition_version_;
  return Status::OK();
}

Result<const ConstructorDecl*> Catalog::LookupConstructor(
    const std::string& name) const {
  auto it = constructors_.find(name);
  if (it == constructors_.end()) {
    return Status::NotFound("constructor '" + name + "'");
  }
  return it->second.get();
}

Status Catalog::DefineConstraint(ConstraintDeclPtr decl) {
  const std::string& name = decl->name();
  if (constraints_.count(name) > 0) {
    return Status::AlreadyExists("constraint '" + name + "'");
  }
  constraints_.emplace(name, std::move(decl));
  ++definition_version_;
  return Status::OK();
}

Result<const ConstraintDecl*> Catalog::LookupConstraint(
    const std::string& name) const {
  auto it = constraints_.find(name);
  if (it == constraints_.end()) {
    return Status::NotFound("constraint '" + name + "'");
  }
  return it->second.get();
}

}  // namespace datacon
