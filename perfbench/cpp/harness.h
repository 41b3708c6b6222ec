#ifndef PERFBENCH_CPP_HARNESS_H_
#define PERFBENCH_CPP_HARNESS_H_

// Measurement plumbing shared by every workload: a steady clock, quantiles,
// seeded random draws, and the span recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0..1) of `values` by linear interpolation between closest
/// ranks; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Deterministic random source of one workload stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }
  /// Uniform real in [0, 1).
  double Unit() { return std::uniform_real_distribution<double>(0, 1)(engine_); }
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) ranks 0..n-1: rank r has probability ∝ 1/(r+1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  /// The rank at which the distribution's cumulative share reaches `u`.
  int RankAt(double u) const;

 private:
  std::vector<double> cdf_;
};

/// One recorded span: a public call timed from outside the engine.
struct Span {
  std::string name;  // "<layer>.<call>", e.g. "core.inline"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  int64_t query_id = 0;
};

/// In-memory span recorder of the traced run. Spans nest by call order;
/// nothing is written until WriteChromeTrace at exit.
class Tracer {
 public:
  int Begin(std::string name, int64_t query_id);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (span duration minus the time its children cover),
  /// summed over all spans, keyed by the name prefix before the first '.'.
  std::map<std::string, double> SelfMsByLayer() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t query_id)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(std::move(name), query_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_HARNESS_H_
