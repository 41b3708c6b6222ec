#ifndef DATACON_RA_ENV_H_
#define DATACON_RA_ENV_H_

#include <string>
#include <unordered_map>

#include "storage/tuple.h"
#include "types/schema.h"
#include "types/value.h"

namespace datacon {

/// Evaluation environment: the tuple variables currently bound by enclosing
/// `EACH`/quantifier binders, plus the scalar parameter values of the
/// enclosing selector/constructor application.
///
/// Tuples are referenced, not copied — bindings are valid only while the
/// underlying storage is alive and unmodified, which the executors
/// guarantee by construction.
///
/// An environment may extend an enclosing one (its parent): lookups it
/// cannot answer go to the parent, and its own bindings shadow the
/// parent's. Extending is O(1) where a copy would duplicate every binding;
/// the parent must outlive the extension and stay unchanged meanwhile.
class Environment {
 public:
  struct TupleBinding {
    const Tuple* tuple;
    const Schema* schema;
  };

  Environment() = default;
  /// An empty environment extending `parent` (may be null).
  explicit Environment(const Environment* parent) : parent_(parent) {}

  /// Binds tuple variable `var`; rebinding shadows the previous binding.
  void Bind(const std::string& var, const Tuple* tuple, const Schema* schema) {
    tuples_[var] = TupleBinding{tuple, schema};
  }

  /// Removes this environment's own binding of `var` (no-op if absent).
  void Unbind(const std::string& var) { tuples_.erase(var); }

  /// The binding of `var`, or nullptr when unbound.
  const TupleBinding* Lookup(const std::string& var) const {
    auto it = tuples_.find(var);
    if (it != tuples_.end()) return &it->second;
    return parent_ != nullptr ? parent_->Lookup(var) : nullptr;
  }

  /// Binds scalar parameter `name` to `value`.
  void BindParam(const std::string& name, Value value) {
    params_[name] = std::move(value);
  }

  /// The value cell of parameter `name`, binding it to a default Value
  /// first when unbound. A caller rebinding the same parameters many times
  /// keeps the pointers and assigns through them; they stay valid as long
  /// as the environment, moves included (never across a copy).
  Value* ParamSlot(const std::string& name) { return &params_[name]; }

  /// The value of parameter `name`, or nullptr when unbound.
  const Value* LookupParam(const std::string& name) const {
    auto it = params_.find(name);
    if (it != params_.end()) return &it->second;
    return parent_ != nullptr ? parent_->LookupParam(name) : nullptr;
  }

  /// Whether any scalar parameter is bound. Parameterized evaluations are
  /// excluded from the materialization cache — parameter values change
  /// results without appearing in the cache key.
  bool HasParams() const {
    return !params_.empty() || (parent_ != nullptr && parent_->HasParams());
  }

 private:
  const Environment* parent_ = nullptr;
  std::unordered_map<std::string, TupleBinding> tuples_;
  std::unordered_map<std::string, Value> params_;
};

}  // namespace datacon

#endif  // DATACON_RA_ENV_H_
