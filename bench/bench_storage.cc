// Experiment E9 — the storage substrate (section 2.2's keyed relations).
//
// Micro-benchmarks for the operations every higher layer leans on: tuple
// hashing, insertion with and without a declared key, membership probes,
// hash-index construction and probing, and the checked whole-relation
// assignment. The *String* cases repeat insert, duplicate insert, probe,
// hash and sort over STRING pairs (part names, as in the CAD examples),
// where a value's copy, hash and equality are those of an interned id.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "storage/index.h"
#include "storage/relation.h"

namespace datacon {
namespace {

using bench::Must;
using bench::MustValue;

Schema SetSchema() {
  return Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
}

Schema KeyedSchema() {
  return Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}, {0});
}

Relation Filled(const Schema& schema, int n) {
  Relation r(schema);
  for (int i = 0; i < n; ++i) {
    Must(r.Insert(Tuple({Value::Int(i), Value::Int(i * 7 % n)})).status());
  }
  return r;
}

void BM_InsertSetSemantics(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Relation r(SetSchema());
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          MustValue(r.Insert(Tuple({Value::Int(i), Value::Int(i)}))));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_InsertKeyed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Relation r(KeyedSchema());
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          MustValue(r.Insert(Tuple({Value::Int(i), Value::Int(i)}))));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_InsertDuplicates(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Relation r = Filled(SetSchema(), n);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MustValue(r.Insert(Tuple({Value::Int(i), Value::Int(i * 7 % n)}))));
    i = (i + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Contains(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Relation r = Filled(SetSchema(), n);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Contains(Tuple({Value::Int(i), Value::Int(i)})));
    i = (i + 1) % (2 * n);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_KeyViolationDetection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Relation r = Filled(KeyedSchema(), n);
  int i = 0;
  for (auto _ : state) {
    // Same key, different payload: must be detected, not inserted.
    Result<bool> result = r.Insert(Tuple({Value::Int(i), Value::Int(-1)}));
    benchmark::DoNotOptimize(result.status().code());
    i = (i + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BuildHashIndex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Relation r = Filled(SetSchema(), n);
  for (auto _ : state) {
    HashIndex index(r, {1});
    benchmark::DoNotOptimize(index.key_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_ProbeHashIndex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Relation r = Filled(SetSchema(), n);
  HashIndex index(r, {0});
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Probe(Tuple({Value::Int(i)})).size());
    i = (i + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CheckedAssignment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Relation value = Filled(SetSchema(), n);
  for (auto _ : state) {
    Relation target(KeyedSchema());
    Must(target.InsertAll(value));
    benchmark::DoNotOptimize(target.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

Schema StringSchema() {
  return Schema({{"a", ValueType::kString}, {"b", ValueType::kString}});
}

/// n distinct part names ("part-000000", ...), built once.
std::vector<Value> PartNames(int n) {
  std::vector<Value> names;
  names.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string digits = std::to_string(i);
    names.push_back(Value::String("part-" +
                                  std::string(6 - digits.size(), '0') +
                                  digits));
  }
  return names;
}

/// The STRING counterpart of Filled's i -> i * 7 % n pairs.
Tuple StringPair(const std::vector<Value>& names, int i) {
  const int n = static_cast<int>(names.size());
  return Tuple({names[static_cast<size_t>(i)],
                names[static_cast<size_t>(i * 7 % n)]});
}

Relation FilledStrings(const std::vector<Value>& names) {
  Relation r(StringSchema());
  for (int i = 0; i < static_cast<int>(names.size()); ++i) {
    Must(r.Insert(StringPair(names, i)).status());
  }
  return r;
}

void BM_InsertStringSetSemantics(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Value> names = PartNames(n);
  for (auto _ : state) {
    Relation r(StringSchema());
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(MustValue(r.Insert(StringPair(names, i))));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_InsertStringDuplicates(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Value> names = PartNames(n);
  Relation r = FilledStrings(names);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustValue(r.Insert(StringPair(names, i))));
    i = (i + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ProbeStringHashIndex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Value> names = PartNames(n);
  Relation r = FilledStrings(names);
  HashIndex index(r, {0});
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Probe(Tuple({names[static_cast<size_t>(i)]})).size());
    i = (i + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_HashStringTuple(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Value> names = PartNames(n);
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) tuples.push_back(StringPair(names, i));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuples[i].Hash());
    i = (i + 1) % tuples.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SortStringTuples(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Value> names = PartNames(n);
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) tuples.push_back(StringPair(names, i * 13 % n));
  for (auto _ : state) {
    std::vector<Tuple> sorted = tuples;
    std::sort(sorted.begin(), sorted.end());
    benchmark::DoNotOptimize(sorted.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_InsertSetSemantics)->Arg(1000)->Arg(100000);
BENCHMARK(BM_InsertKeyed)->Arg(1000)->Arg(100000);
BENCHMARK(BM_InsertDuplicates)->Arg(100000);
BENCHMARK(BM_Contains)->Arg(100000);
BENCHMARK(BM_KeyViolationDetection)->Arg(100000);
BENCHMARK(BM_BuildHashIndex)->Arg(1000)->Arg(100000);
BENCHMARK(BM_ProbeHashIndex)->Arg(100000);
BENCHMARK(BM_CheckedAssignment)->Arg(1000)->Arg(100000);
BENCHMARK(BM_InsertStringSetSemantics)->Arg(1000)->Arg(100000);
BENCHMARK(BM_InsertStringDuplicates)->Arg(100000);
BENCHMARK(BM_ProbeStringHashIndex)->Arg(100000);
BENCHMARK(BM_HashStringTuple)->Arg(100000);
BENCHMARK(BM_SortStringTuples)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace datacon

BENCHMARK_MAIN();
