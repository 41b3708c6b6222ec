#include "types/value.h"

namespace datacon {

std::string_view ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return "INTEGER";
    case ValueType::kString:
      return "STRING";
    case ValueType::kBool:
      return "BOOLEAN";
  }
  return "UNKNOWN";
}

int Value::Compare(const Value& other) const {
  DATACON_CHECK(type() == other.type(),
                "Compare across types: " + ToString() + " vs " +
                    other.ToString());
  switch (type()) {
    case ValueType::kInt: {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString: {
      if (bits_ == other.bits_) return 0;
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kBool: {
      int a = AsBool() ? 1 : 0, b = other.AsBool() ? 1 : 0;
      return a - b;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kString:
      return "\"" + AsString() + "\"";
    case ValueType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
  }
  return "?";
}

}  // namespace datacon
