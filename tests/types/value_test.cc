#include "types/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "types/symbol_table.h"

namespace datacon {
namespace {

TEST(Value, DefaultIsIntZero) {
  Value v;
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(Value, Constructors) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_EQ(Value::String("table").AsString(), "table");
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Bool(false).AsBool(), false);
}

TEST(Value, TypeTags) {
  EXPECT_EQ(Value::Int(1).type(), ValueType::kInt);
  EXPECT_EQ(Value::String("").type(), ValueType::kString);
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
}

TEST(Value, Equality) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_NE(Value::Int(1), Value::String("1"));
  EXPECT_EQ(Value::String("a"), Value::String("a"));
  EXPECT_NE(Value::Bool(true), Value::Bool(false));
}

TEST(Value, CompareWithinType) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Int(5).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
}

TEST(Value, OrderingIsStrictWeak) {
  std::vector<Value> values = {Value::Int(3), Value::String("b"),
                               Value::Int(1), Value::String("a"),
                               Value::Bool(true)};
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_FALSE(values[i + 1] < values[i]);
  }
}

TEST(Value, ToString) {
  EXPECT_EQ(Value::Int(12).ToString(), "12");
  EXPECT_EQ(Value::String("vase").ToString(), "\"vase\"");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Bool(false).ToString(), "FALSE");
}

TEST(Value, HashEqualValuesAgree) {
  EXPECT_EQ(Value::Int(9).Hash(), Value::Int(9).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
}

TEST(Value, HashSupportsUnorderedContainers) {
  std::unordered_set<Value> set;
  set.insert(Value::Int(1));
  set.insert(Value::Int(1));
  set.insert(Value::String("1"));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(Value::Int(1)) > 0);
}

TEST(Value, IntAndStringWithSameSpellingDiffer) {
  // The hash mixes the type tag, so 1 and "1" rarely collide and never
  // compare equal.
  EXPECT_NE(Value::Int(1), Value::String("1"));
}

TEST(Value, IsOneWordPlusATag) { EXPECT_EQ(sizeof(Value), 16u); }

/// The hash a value had when it held a `std::variant<int64_t, std::string,
/// bool>`: the alternative's index mixed with the std::hash of its content.
size_t VariantHash(const std::variant<int64_t, std::string, bool>& rep) {
  size_t seed = rep.index();
  std::visit([&](const auto& v) { HashCombineValue(seed, v); }, rep);
  return seed;
}

TEST(Value, HashEqualsTheVariantFormula) {
  // Hash order decides unordered iteration, first-error choice and EXPLAIN
  // text, so interning must not change a single hash.
  for (int64_t i : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(Value::Int(i).Hash(), VariantHash(i)) << i;
  }
  for (const std::string& s :
       {std::string(), std::string("a"), std::string("table"),
        std::string("a part name longer than the small-string buffer"),
        std::string("nul\0inside", 10), std::string("caf\xc3\xa9")}) {
    EXPECT_EQ(Value::String(s).Hash(), VariantHash(s)) << s;
  }
  EXPECT_EQ(Value::Bool(true).Hash(), VariantHash(true));
  EXPECT_EQ(Value::Bool(false).Hash(), VariantHash(false));
}

TEST(Value, StringOrderIgnoresInternOrder) {
  // The later-interned string still sorts first: ordering reads the text.
  const uint32_t b = SymbolTable::Intern("intern-order-b");
  const uint32_t a = SymbolTable::Intern("intern-order-a");
  ASSERT_LT(b, a);
  EXPECT_LT(Value::String("intern-order-a"), Value::String("intern-order-b"));
  EXPECT_LT(Value::String("intern-order-a").Compare(
                Value::String("intern-order-b")),
            0);
  EXPECT_GT(Value::String("intern-order-b").Compare(
                Value::String("intern-order-a")),
            0);
  EXPECT_EQ(Value::String("intern-order-a").Compare(
                Value::String("intern-order-a")),
            0);
}

TEST(Value, UnusualStringsRoundTrip) {
  const std::string empty;
  const std::string nul("a\0b", 3);
  const std::string utf8 = "\xe2\x88\x80x \xe2\x88\x83y";
  for (const std::string& s : {empty, nul, utf8}) {
    Value v = Value::String(s);
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(v, Value::String(s));
    EXPECT_EQ(v.Hash(), Value::String(s).Hash());
  }
  EXPECT_EQ(Value::String(nul).AsString().size(), 3u);
  // An embedded NUL is part of the string, not its end.
  EXPECT_NE(Value::String(nul), Value::String("a"));
  EXPECT_LT(Value::String("a"), Value::String(nul));
  EXPECT_LT(Value::String(empty), Value::String("a"));
  EXPECT_EQ(Value::String(empty).ToString(), "\"\"");
}

TEST(Value, ReinterningDoesNotGrowTheTable) {
  const uint32_t id = SymbolTable::Intern("reintern-me");
  const size_t size = SymbolTable::Size();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SymbolTable::Intern(std::string("reintern-") + "me"), id);
    Value v = Value::String("reintern-me");
    EXPECT_EQ(v.AsString(), "reintern-me");
  }
  EXPECT_EQ(SymbolTable::Size(), size);
}

TEST(Value, ConcurrentInterningAndReading) {
  // Threads intern overlapping string sets (crossing chunk boundaries, so
  // chunks are allocated while others read) and read back every value
  // they made; a shared string gets one id whichever thread interns first.
  constexpr int kThreads = 4;
  constexpr int kStrings = 3000;
  std::vector<std::vector<Value>> made(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &made] {
      for (int k = 0; k < kStrings; ++k) {
        const std::string shared = "shared-" + std::to_string(k);
        const std::string own =
            "own-" + std::to_string(t) + "-" + std::to_string(k);
        made[static_cast<size_t>(t)].push_back(Value::String(shared));
        Value mine = Value::String(own);
        EXPECT_EQ(mine.AsString(), own);
        EXPECT_EQ(mine.Hash(), VariantHash(own));
      }
      for (int k = 0; k < kStrings; ++k) {
        EXPECT_EQ(made[static_cast<size_t>(t)][static_cast<size_t>(k)]
                      .AsString(),
                  "shared-" + std::to_string(k));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(made[static_cast<size_t>(t)], made[0]) << t;
  }
}

TEST(ValueTypeName, Spellings) {
  EXPECT_EQ(ValueTypeName(ValueType::kInt), "INTEGER");
  EXPECT_EQ(ValueTypeName(ValueType::kString), "STRING");
  EXPECT_EQ(ValueTypeName(ValueType::kBool), "BOOLEAN");
}

}  // namespace
}  // namespace datacon
