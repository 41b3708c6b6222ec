#ifndef DATACON_TYPES_VALUE_H_
#define DATACON_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/hash.h"

namespace datacon {

/// Scalar domains of the DBPL fragment. The paper's INTEGER and CARDINAL
/// both map to kInt (a 64-bit signed integer); STRING covers the part
/// identifiers of the CAD examples; BOOLEAN supports predicate-valued
/// attributes.
enum class ValueType {
  kInt,
  kString,
  kBool,
};

/// Canonical spelling of a value type ("INTEGER", "STRING", "BOOLEAN").
std::string_view ValueTypeName(ValueType type);

/// A single scalar value of one of the supported domains.
///
/// Values are immutable once constructed, cheaply copyable (strings are the
/// only heap case), hashable, and totally ordered within a type. Comparing
/// or ordering values of different types is a programming error; the type
/// checker guarantees it never happens for checked programs.
class Value {
 public:
  /// Constructs the integer 0 (the natural zero value).
  Value() : rep_(int64_t{0}) {}

  /// Named constructors, one per domain.
  static Value Int(int64_t v) { return Value(std::in_place_index<0>, v); }
  static Value String(std::string v) {
    return Value(std::in_place_index<1>, std::move(v));
  }
  static Value Bool(bool v) { return Value(std::in_place_index<2>, v); }

  /// The domain this value belongs to.
  ValueType type() const {
    switch (rep_.index()) {
      case 0:
        return ValueType::kInt;
      case 1:
        return ValueType::kString;
      default:
        return ValueType::kBool;
    }
  }

  /// Accessors; each requires the matching type.
  int64_t AsInt() const {
    DATACON_CHECK(type() == ValueType::kInt, "Value is not an integer");
    return std::get<0>(rep_);
  }
  const std::string& AsString() const {
    DATACON_CHECK(type() == ValueType::kString, "Value is not a string");
    return std::get<1>(rep_);
  }
  bool AsBool() const {
    DATACON_CHECK(type() == ValueType::kBool, "Value is not a boolean");
    return std::get<2>(rep_);
  }

  /// Three-way comparison within a single type: negative, zero, or positive
  /// as this value sorts before, equal to, or after `other`. Requires both
  /// values to have the same type.
  int Compare(const Value& other) const;

  /// Renders the value for diagnostics: integers as digits, strings quoted,
  /// booleans as TRUE/FALSE.
  std::string ToString() const;

  size_t Hash() const {
    size_t seed = rep_.index();
    switch (rep_.index()) {
      case 0:
        HashCombineValue(seed, std::get<0>(rep_));
        break;
      case 1:
        HashCombineValue(seed, std::get<1>(rep_));
        break;
      default:
        HashCombineValue(seed, std::get<2>(rep_));
        break;
    }
    return seed;
  }

  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  /// Orders first by type index, then by value; gives deterministic sorted
  /// output for relations holding a single type per column.
  friend bool operator<(const Value& a, const Value& b) {
    if (a.rep_.index() != b.rep_.index()) return a.rep_.index() < b.rep_.index();
    return a.Compare(b) < 0;
  }

 private:
  using Rep = std::variant<int64_t, std::string, bool>;
  /// Constructs the alternative in place: moving a temporary Rep in trips
  /// GCC 12's -Wmaybe-uninitialized under the sanitizers.
  template <size_t I, typename T>
  Value(std::in_place_index_t<I> tag, T&& v) : rep_(tag, std::forward<T>(v)) {}

  Rep rep_;
};

}  // namespace datacon

namespace std {
template <>
struct hash<datacon::Value> {
  size_t operator()(const datacon::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // DATACON_TYPES_VALUE_H_
