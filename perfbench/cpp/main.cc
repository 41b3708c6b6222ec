// The end-to-end DataCon benchmark.
//
//   datacon_perfbench --workload <analytic_cold|point_lookup|update_mix>
//                     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// One client in one process runs the workload's seeded operation stream in a
// closed loop (the next operation is sent when the previous one returns)
// for --seconds, against a Database at its default THREADS 1. Every answer
// is checked against the benchmark's own oracle. With --trace 0 the last
// stdout line is a JSON object with the end-to-end metrics; with --trace 1
// the same loop alternates untraced and traced windows, replays traced
// queries phase by phase, probes each module's public calls, and reports
// the per-layer metrics instead. --tiny shrinks every input (smoke test).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "analytic_cold") {
    return MakeAnalyticCold(args.seed, args.tiny);
  }
  if (args.workload == "point_lookup") {
    return MakePointLookup(args.seed, args.tiny);
  }
  if (args.workload == "update_mix") return MakeUpdateMix(args.seed, args.tiny);
  return nullptr;
}

/// One operation of the loop, as measured.
struct Sample {
  OpKind kind = OpKind::kQuery;
  std::string label;
  bool traced = false;
  bool accepted_insert = false;  // an insert of the stream, accepted
  int64_t ns = 0;
  size_t result_tuples = 0;
};

/// The measured samples, merged.
struct Measured {
  std::vector<double> stream_insert_us;  // accepted inserts of the stream
  std::vector<double> query_ms;          // untraced queries
  std::vector<double> traced_query_ms;   // traced queries (--trace 1)
  std::map<std::string, std::vector<double>> ms_by_label;
  int64_t ops = 0;
  int64_t op_ns = 0;
  int64_t query_ns = 0;
  size_t result_tuples = 0;

  void Add(const Sample& s) {
    const double ms = static_cast<double>(s.ns) / 1e6;
    ++ops;
    op_ns += s.ns;
    ms_by_label[s.label].push_back(ms);
    if (s.kind == OpKind::kQuery) {
      (s.traced ? traced_query_ms : query_ms).push_back(ms);
      query_ns += s.ns;
      result_tuples += s.result_tuples;
    } else if (s.accepted_insert) {
      stream_insert_us.push_back(ms * 1e3);
    }
  }
};

/// How many of `total` samples the fastest `share` of them is (at least one).
size_t MeasuredCount(size_t total, double share) {
  const auto n = static_cast<size_t>(std::ceil(static_cast<double>(total) * share));
  return std::clamp<size_t>(n, 1, std::max<size_t>(total, 1));
}

/// The fastest `share` of each operation's samples, merged. Every window
/// runs the same operations in the same order, so the samples at one place
/// in the window (traced and untraced apart) time the same operation and
/// differ only in how fast the machine was. The shared machine the
/// benchmark runs on slows by 10-50% for seconds at a time, but runs some
/// operations at full speed even then; a slower program slows every sample,
/// so the fastest ones still show it. Samples of the first windows, which
/// warm the process, drop out the same way.
Measured Fastest(const std::vector<std::vector<Sample>>& windows,
                 double share) {
  std::map<std::pair<size_t, bool>, std::vector<const Sample*>> by_place;
  for (const std::vector<Sample>& window : windows) {
    for (size_t i = 0; i < window.size(); ++i) {
      by_place[{i, window[i].traced}].push_back(&window[i]);
    }
  }
  Measured merged;
  for (auto& [place, samples] : by_place) {
    std::sort(samples.begin(), samples.end(),
              [](const Sample* a, const Sample* b) { return a->ns < b->ns; });
    const size_t count = MeasuredCount(samples.size(), share);
    for (size_t i = 0; i < count; ++i) merged.Add(*samples[i]);
  }
  return merged;
}

/// The fastest `share` of `values`.
std::vector<double> FastestValues(std::vector<double> values, double share) {
  std::sort(values.begin(), values.end());
  values.resize(std::min(values.size(), MeasuredCount(values.size(), share)));
  return values;
}

/// Correctness over everything the run did.
struct Verdict {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t expected_rejections = 0;
  std::string first_failure;

  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

/// The fastest `share` of each base-fact insert's samples over `loads`.
/// Every load inserts the same facts in the same order into a fresh
/// database, so, like the operations of the windows, the samples at one
/// place differ only in how fast the machine was.
std::vector<double> FastestInserts(
    const std::vector<std::vector<double>>& loads, double share) {
  std::vector<double> out;
  for (size_t i = 0; !loads.empty() && i < loads.front().size(); ++i) {
    std::vector<double> samples;
    for (const std::vector<double>& load : loads) samples.push_back(load[i]);
    for (double us : FastestValues(std::move(samples), share)) {
      out.push_back(us);
    }
  }
  return out;
}

bool TimedSetup(Workload* workload, std::vector<double>* load_insert_us,
                std::vector<double>* setup_s) {
  const int64_t start = NowNs();
  datacon::Status status = workload->Setup(load_insert_us);
  setup_s->push_back(static_cast<double>(NowNs() - start) / 1e9);
  if (!status.ok()) {
    std::cerr << "perfbench: setup failed: " << status.ToString() << "\n";
    return false;
  }
  return true;
}

/// Cache and constraint counters, read around the counting window.
struct Counters {
  datacon::MatCacheStats cache;
  int64_t checks = 0;
  int64_t full_rechecks = 0;
};

Counters ReadCounters(datacon::Database* db) {
  Counters c;
  c.cache = db->mat_cache().stats();
  c.checks = db->metrics().GetCounter("constraints.checks")->value();
  c.full_rechecks =
      db->metrics().GetCounter("constraints.full_rechecks")->value();
  return c;
}

using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void PrintMetrics(const MetricList& metrics) {
  for (const auto& [name, value] : metrics) {
    std::printf("# %-34s %.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
}

void PrintJson(const Verdict& verdict, bool correct,
               const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(verdict.attempted),
              static_cast<long long>(verdict.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second.first)
                         ? metrics[i].second.first
                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(), v,
                metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: datacon_perfbench --workload "
                 "<analytic_cold|point_lookup|update_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny]\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s "
              "load=closed-loop clients=1 threads=1\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? " tiny" : "");

  // Set-up is timed on a second instance of the workload (same seed),
  // interleaved with the operation loop at points fixed by the operation
  // stream, so its samples spread over the run. At most kLoadSamples of
  // them record their load inserts, one every 1/kLoadSamples of the run, so
  // the loads reach fast spells of the machine wherever they fall, and the
  // sample count, and the memory it takes, does not grow with run length.
  // The first set-up of each instance only warms the process.
  constexpr size_t kLoadSamples = 40;
  const auto load_interval_ns = static_cast<int64_t>(
      args.seconds * 1e9 / static_cast<double>(kLoadSamples));
  constexpr size_t kMinSetups = 5;
  std::unique_ptr<Workload> spare = MakeWorkload(args);
  for (Workload* w : {workload.get(), spare.get()}) {
    datacon::Status status = w->Setup(nullptr);
    if (!status.ok()) {
      std::cerr << "perfbench: setup failed: " << status.ToString() << "\n";
      return 1;
    }
  }
  int64_t next_load_ns = 0;
  std::vector<std::vector<double>> loads;
  std::vector<double> setup_s;
  auto sample_setup = [&]() {
    const bool sample_inserts = workload->setup_inserts_count() &&
                                loads.size() < kLoadSamples &&
                                NowNs() >= next_load_ns;
    std::vector<double> load_insert_us;
    if (!TimedSetup(spare.get(), sample_inserts ? &load_insert_us : nullptr,
                    &setup_s)) {
      return false;
    }
    if (sample_inserts) {
      loads.push_back(std::move(load_insert_us));
      next_load_ns = NowNs() + load_interval_ns;
    }
    return true;
  };

  Verdict verdict;
  Tracer tracer;
  ReplayTotals replay;
  Metrics layer;
  datacon::Relation largest;
  const int kMaxReplays = args.tiny ? 6 : 60;
  const int64_t ops_per_setup = workload->ops_per_setup_sample();
  const int64_t epoch_ops = workload->epoch_ops();
  const int64_t window_ops = workload->window_ops();
  // Cache and constraint counters cover the first epoch, or the first 1000
  // operations.
  const int64_t counter_ops = epoch_ops > 0 ? epoch_ops : 1000;
  const Counters counters_start = ReadCounters(workload->db());
  std::optional<Counters> counters_end;
  std::vector<std::vector<Sample>> windows;
  std::vector<Sample> current;
  int64_t ops = 0;
  int64_t epoch_index = 0;
  int64_t replay_ns = 0;

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  while (NowNs() < deadline) {
    if (epoch_ops > 0 && epoch_index == epoch_ops) {
      if (!TimedSetup(workload.get(), nullptr, &setup_s)) return 1;
      epoch_index = 0;
    }
    if (ops_per_setup > 0 && ops % ops_per_setup == 0 && !sample_setup()) {
      return 1;
    }
    // The traced run alternates untraced and traced windows, so every
    // operation is timed both ways.
    const bool traced = args.trace && (ops / window_ops) % 2 == 1;
    const int64_t query_id = ops + 1;
    OpOutcome op = workload->Run(epoch_index, traced ? &tracer : nullptr,
                                 query_id, traced);
    ++epoch_index;
    ++ops;
    ++verdict.attempted;
    if (op.failed) verdict.Fail(op.why);
    if (op.expected_reject) ++verdict.expected_rejections;
    current.push_back({op.kind, op.label, traced,
                       op.kind == OpKind::kInsert && !op.failed &&
                           !op.expected_reject,
                       op.ns, op.result_tuples});
    if (traced && op.kind == OpKind::kQuery && !op.failed &&
        replay.queries < kMaxReplays) {
      const int64_t start = NowNs();
      datacon::Relation answer;
      std::string why;
      ++verdict.attempted;
      if (!ReplayQuery(workload->db(), op.query_text, &tracer, query_id,
                       &replay, &answer, &why)) {
        verdict.Fail(why);
      } else if (!answer.SameTuples(op.answer)) {
        verdict.Fail(op.query_text + ": EvalQuery differs from the answer");
      }
      if (answer.size() > largest.size()) largest = std::move(answer);
      replay_ns += NowNs() - start;
    }
    if (!counters_end.has_value() && ops == counter_ops) {
      counters_end = ReadCounters(workload->db());
    }
    if (static_cast<int64_t>(current.size()) == window_ops) {
      windows.push_back(std::move(current));
      current.clear();
    }
  }
  if (!counters_end.has_value()) counters_end = ReadCounters(workload->db());
  // A window cut off by the deadline is dropped once one has completed.
  const size_t complete_windows = windows.size();
  if (windows.empty()) windows.push_back(std::move(current));
  const double share = workload->measured_share();
  const Measured measured = Fastest(windows, share);
  while (setup_s.size() < kMinSetups) {
    if (!sample_setup()) return 1;
  }
  const std::vector<double> measured_setup_s = FastestValues(setup_s, share);
  spare.reset();

  bool probes_ok = true;
  if (args.trace) {
    std::string why;
    ProbeTypecheck(*workload->db(), &tracer, &layer);
    if (!ProbeBranches(workload->BranchInputs(), &tracer, &layer, &why) ||
        !ProbeProlog(workload->ReducedClosure(), &tracer, &layer, &why) ||
        !ProbeInsertOverhead(workload.get(), &tracer, &layer, &why)) {
      ++verdict.attempted;
      verdict.Fail(why);
      probes_ok = false;
    }
    ProbeStorage(largest, &tracer, &layer);
  }

  const std::vector<double> insert_us = workload->setup_inserts_count()
                                            ? FastestInserts(loads, share)
                                            : measured.stream_insert_us;
  const double query_p50 = Quantile(measured.query_ms, 0.5);
  const double failed_ratio = static_cast<double>(verdict.failed) /
                              static_cast<double>(verdict.attempted);
  std::printf("# ops=%lld windows=%zu of %lld ops, measured the fastest "
              "%.0f%% of each operation's samples: ops=%lld queries=%zu "
              "(beyond p95: %zu) inserts=%zu setups=%zu\n",
              static_cast<long long>(ops), complete_windows,
              static_cast<long long>(window_ops), share * 100,
              static_cast<long long>(measured.ops), measured.query_ms.size(),
              measured.query_ms.size() / 20, insert_us.size(),
              measured_setup_s.size());
  std::printf("# expected_rejections=%lld failed_op_ratio=%.6g\n",
              static_cast<long long>(verdict.expected_rejections),
              failed_ratio);
  for (const auto& [label, ms] : measured.ms_by_label) {
    std::printf("#   %-16s n=%-7zu p50=%.4g ms  p95=%.4g ms  max=%.4g ms\n",
                label.c_str(), ms.size(), Quantile(ms, 0.5), Quantile(ms, 0.95),
                *std::max_element(ms.begin(), ms.end()));
  }
  if (!verdict.first_failure.empty()) {
    std::printf("# first failure: %s\n", verdict.first_failure.c_str());
  }
  const MetricList end_to_end = {
      {"query_p50_ms", {query_p50, "ms"}},
      {"query_p95_ms", {Quantile(measured.query_ms, 0.95), "ms"}},
      {"ops_per_s",
       {static_cast<double>(measured.ops) /
            (static_cast<double>(measured.op_ns) / 1e9),
        "1/s"}},
      {"ns_per_derived_tuple",
       {static_cast<double>(measured.query_ns) /
            static_cast<double>(std::max<size_t>(measured.result_tuples, 1)),
        "ns"}},
      {"insert_p50_us", {Quantile(insert_us, 0.5), "us"}},
      {"insert_p95_us", {Quantile(insert_us, 0.95), "us"}},
      {"setup_s", {Quantile(measured_setup_s, 0.5), "s"}},
      {"peak_rss_mb", {PeakRssMb(), "MB"}},
  };
  PrintMetrics(end_to_end);
  std::printf("# %-34s %.6g ratio\n", "failed_op_ratio", failed_ratio);
  const bool correct = verdict.failed == 0 && probes_ok;
  if (!args.trace) {
    PrintJson(verdict, correct, end_to_end);
    return 0;
  }

  // Per-layer metrics of the traced run.
  const double q = static_cast<double>(std::max<int64_t>(replay.queries, 1));
  auto per_query_us = [&](int64_t ns) {
    return static_cast<double>(ns) / q / 1e3;
  };
  auto per_query_ms = [&](int64_t ns) {
    return static_cast<double>(ns) / q / 1e6;
  };
  const int64_t phases_ns = replay.schema_ns + replay.inline_ns +
                            replay.detect_seeded_ns + replay.instantiate_ns +
                            replay.adorn_ns + replay.plan_ns +
                            replay.capture_ns + replay.materialize_ns +
                            replay.evaluate_expr_ns + replay.branch_ns;
  const datacon::MatCacheStats& c0 = counters_start.cache;
  const datacon::MatCacheStats& c1 = counters_end->cache;
  const int64_t lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses);
  const std::map<std::string, double> self = tracer.SelfMsByLayer();
  auto self_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  auto count = [](int64_t n) { return static_cast<double>(n); };
  const MetricList per_layer = {
      {"lang.parse_us", {per_query_us(replay.parse_ns), "us"}},
      {"analysis.adorn_us", {per_query_us(replay.adorn_ns), "us"}},
      {"analysis.typecheck_ms", {layer["analysis.typecheck_ms"], "ms"}},
      {"core.inline_us", {per_query_us(replay.inline_ns), "us"}},
      {"core.detect_seeded_us", {per_query_us(replay.detect_seeded_ns), "us"}},
      {"core.instantiate_us", {per_query_us(replay.instantiate_ns), "us"}},
      {"core.plan_us", {per_query_us(replay.plan_ns), "us"}},
      {"core.wrapper_us",
       {per_query_us(replay.eval_query_ns - phases_ns), "us"}},
      {"core.materialize_ms", {per_query_ms(replay.materialize_ns), "ms"}},
      {"core.evaluate_expr_ms", {per_query_ms(replay.evaluate_expr_ns), "ms"}},
      {"core.capture_closure_ms", {per_query_ms(replay.capture_ns), "ms"}},
      {"core.rounds", {static_cast<double>(replay.rounds) / q, "count"}},
      {"core.tuples_considered",
       {static_cast<double>(replay.considered) / q, "count"}},
      {"core.derive_yield",
       {static_cast<double>(replay.inserted) /
            static_cast<double>(std::max<size_t>(replay.considered, 1)),
        "ratio"}},
      {"core.cache_hit_ratio",
       {lookups > 0 ? count(c1.hits - c0.hits) / count(lookups) : 0.0,
        "ratio"}},
      {"core.cache_delta_maintained",
       {count(c1.delta_maintained - c0.delta_maintained), "count"}},
      {"core.cache_invalidations",
       {count(c1.invalidations - c0.invalidations), "count"}},
      {"core.constraint_checks",
       {count(counters_end->checks - counters_start.checks), "count"}},
      {"core.constraint_full_rechecks",
       {count(counters_end->full_rechecks - counters_start.full_rechecks),
        "count"}},
      {"core.constraint_overhead_us",
       {layer["core.constraint_overhead_us"], "us"}},
      {"ra.branch_exec_ms", {layer["ra.branch_exec_ms"], "ms"}},
      {"ra.ns_per_env", {layer["ra.ns_per_env"], "ns"}},
      {"ra.index_probes", {layer["ra.index_probes"], "count"}},
      {"storage.insert_ns", {layer["storage.insert_ns"], "ns"}},
      {"storage.insert_dup_ns", {layer["storage.insert_dup_ns"], "ns"}},
      {"storage.index_build_ns_per_tuple",
       {layer["storage.index_build_ns_per_tuple"], "ns"}},
      {"storage.probe_ns", {layer["storage.probe_ns"], "ns"}},
      {"storage.hash_distinct_ratio",
       {layer["storage.hash_distinct_ratio"], "ratio"}},
      {"prolog.sld_ms", {layer["prolog.sld_ms"], "ms"}},
      {"prolog.proof_vs_set_ratio",
       {layer["prolog.proof_vs_set_ratio"], "ratio"}},
      {"self.lang_ms", {self_ms("lang"), "ms"}},
      {"self.analysis_ms", {self_ms("analysis"), "ms"}},
      {"self.core_ms", {self_ms("core"), "ms"}},
      {"self.ra_ms", {self_ms("ra"), "ms"}},
      {"self.storage_ms", {self_ms("storage"), "ms"}},
      {"self.prolog_ms", {self_ms("prolog"), "ms"}},
      {"trace.overhead_ms",
       {Quantile(measured.traced_query_ms, 0.5) - query_p50, "ms"}},
  };
  std::printf("# traced: replayed_queries=%lld spans=%zu replay_s=%.3f\n",
              static_cast<long long>(replay.queries), tracer.spans().size(),
              static_cast<double>(replay_ns) / 1e9);
  PrintMetrics(per_layer);
  // Spans stay in memory during the run and are written once, at exit.
  const std::filesystem::path dir = ".bench_build/traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / (args.workload + "-seed" +
                                   std::to_string(args.seed) + ".json"))
                               .string();
  if (!tracer.WriteChromeTrace(path)) {
    std::cerr << "perfbench: could not write " << path << "\n";
  } else {
    std::printf("# trace written to %s\n", path.c_str());
  }
  PrintJson(verdict, correct, per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
