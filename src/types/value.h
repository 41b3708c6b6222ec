#ifndef DATACON_TYPES_VALUE_H_
#define DATACON_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/hash.h"
#include "types/symbol_table.h"

namespace datacon {

/// Scalar domains of the DBPL fragment. The paper's INTEGER and CARDINAL
/// both map to kInt (a 64-bit signed integer); STRING covers the part
/// identifiers of the CAD examples; BOOLEAN supports predicate-valued
/// attributes.
enum class ValueType : uint8_t {
  kInt,
  kString,
  kBool,
};

/// Canonical spelling of a value type ("INTEGER", "STRING", "BOOLEAN").
std::string_view ValueTypeName(ValueType type);

/// A single scalar value of one of the supported domains.
///
/// A value is one 64-bit payload plus a type tag (16 bytes, no heap): an
/// INTEGER's bits, a BOOLEAN's 0/1, or a STRING's id in the process-wide
/// SymbolTable, which stores each distinct string once. Copying, hashing
/// and equality are word operations; only ordering, `AsString()` and
/// `ToString()` read a string's characters. `Hash()` mixes a string's
/// content hash, not its id, so hash order never depends on which strings
/// were interned first. Values are immutable once constructed and totally
/// ordered within a type. Comparing or ordering values of different types
/// is a programming error; the type checker guarantees it never happens
/// for checked programs.
class Value {
 public:
  /// Constructs the integer 0 (the natural zero value).
  Value() = default;

  /// Named constructors, one per domain. `String` interns its argument.
  static Value Int(int64_t v) {
    return Value(ValueType::kInt, static_cast<uint64_t>(v));
  }
  static Value String(std::string_view v) {
    return Value(ValueType::kString, SymbolTable::Intern(v));
  }
  static Value Bool(bool v) { return Value(ValueType::kBool, v ? 1 : 0); }

  /// The domain this value belongs to.
  ValueType type() const { return type_; }

  /// Accessors; each requires the matching type. A string lives in the
  /// symbol table for the life of the process.
  int64_t AsInt() const {
    DATACON_CHECK(type_ == ValueType::kInt, "Value is not an integer");
    return static_cast<int64_t>(bits_);
  }
  const std::string& AsString() const {
    DATACON_CHECK(type_ == ValueType::kString, "Value is not a string");
    return SymbolTable::Text(static_cast<uint32_t>(bits_));
  }
  bool AsBool() const {
    DATACON_CHECK(type_ == ValueType::kBool, "Value is not a boolean");
    return bits_ != 0;
  }

  /// Three-way comparison within a single type: negative, zero, or positive
  /// as this value sorts before, equal to, or after `other`. Requires both
  /// values to have the same type. Strings compare lexicographically.
  int Compare(const Value& other) const;

  /// Renders the value for diagnostics: integers as digits, strings quoted,
  /// booleans as TRUE/FALSE.
  std::string ToString() const;

  /// The type tag mixed with the std::hash of the payload's value (for a
  /// string, of its text).
  size_t Hash() const {
    size_t seed = static_cast<size_t>(type_);
    switch (type_) {
      case ValueType::kInt:
        HashCombineValue(seed, static_cast<int64_t>(bits_));
        break;
      case ValueType::kString:
        HashCombine(seed, SymbolTable::Hash(static_cast<uint32_t>(bits_)));
        break;
      case ValueType::kBool:
        HashCombineValue(seed, bits_ != 0);
        break;
    }
    return seed;
  }

  friend bool operator==(const Value& a, const Value& b) {
    return a.type_ == b.type_ && a.bits_ == b.bits_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  /// Orders first by type, then by value; gives deterministic sorted
  /// output for relations holding a single type per column.
  friend bool operator<(const Value& a, const Value& b) {
    if (a.type_ != b.type_) return a.type_ < b.type_;
    return a.Compare(b) < 0;
  }

 private:
  Value(ValueType type, uint64_t bits) : bits_(bits), type_(type) {}

  uint64_t bits_ = 0;
  ValueType type_ = ValueType::kInt;
};

}  // namespace datacon

namespace std {
template <>
struct hash<datacon::Value> {
  size_t operator()(const datacon::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // DATACON_TYPES_VALUE_H_
