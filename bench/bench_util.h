#ifndef DATACON_BENCH_BENCH_UTIL_H_
#define DATACON_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "core/database.h"

namespace datacon::bench {

/// Aborts the benchmark run on setup errors — benchmark bodies must not
/// silently measure failed work.
inline void Must(const Status& status) {
  DATACON_CHECK(status.ok(), status.ToString());
}

template <typename T>
T MustValue(Result<T> result) {
  DATACON_CHECK(result.ok(), result.status().ToString());
  return std::move(result).value();
}

/// Options for a bench that re-evaluates on one database: the
/// materialization cache is off, so every iteration measures a cold
/// evaluation instead of replaying the first one from the cache. Such
/// benches register with DATACON_BENCHMARK_COLD.
inline DatabaseOptions ColdOptions() {
  DatabaseOptions options;
  options.cache = false;
  return options;
}

/// Registers `fn` under the name `fn/cold` (its regime; see ColdOptions).
#define DATACON_BENCHMARK_COLD(fn) BENCHMARK(fn)->Name(#fn "/cold")

/// Splices `"datacon_metrics":{...}` (the process-level aggregate —
/// query latency percentiles, fixpoint rounds, ... merged from every
/// destroyed Database) into the Google Benchmark JSON artifact, just
/// before its closing brace. A no-op when the run recorded no metrics or
/// the file is malformed. Benchmark fixtures must destroy their databases
/// before Shutdown for their registries to be retired into the aggregate.
inline void AppendMetricsToArtifact(const std::string& path) {
  MetricsRegistry& registry = ProcessMetrics();
  std::string metrics = registry.ToJson();
  if (metrics == "{\"histograms\":{}}" ||
      metrics == "{\"histograms\":{},\"counters\":{}}") {
    return;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string doc = buffer.str();
  in.close();
  size_t close = doc.find_last_of('}');
  if (close == std::string::npos) return;
  doc.insert(close, ",\"datacon_metrics\":" + metrics);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return;
  out << doc;
}

/// Shared benchmark driver: like BENCHMARK_MAIN(), plus a `--json` flag
/// that writes the run as machine-readable JSON to BENCH_<name>.json (the
/// EXPERIMENTS.md artifact convention), with the engine's own metric
/// histograms spliced in as `datacon_metrics`. All other arguments pass
/// through to Google Benchmark untouched.
inline int RunBenchmarks(int argc, char** argv, const char* name) {
  std::vector<char*> args;
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  args.reserve(static_cast<size_t>(argc) + 2);
  args.push_back(argv[0]);
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (json) {
    out_flag = std::string("--benchmark_out=BENCH_") + name + ".json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int run_argc = static_cast<int>(args.size());
  ::benchmark::Initialize(&run_argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(run_argc, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (json) {
    AppendMetricsToArtifact(std::string("BENCH_") + name + ".json");
  }
  return 0;
}

}  // namespace datacon::bench

#endif  // DATACON_BENCH_BENCH_UTIL_H_
