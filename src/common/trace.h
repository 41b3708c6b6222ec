#ifndef DATACON_COMMON_TRACE_H_
#define DATACON_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace datacon {

/// One key/value argument attached to a trace event. Values are either
/// integers or strings (the two shapes the instrumentation needs); the
/// Chrome serialization emits integers unquoted. The key points to static
/// storage (a literal or a kQueryFields key), so attaching an argument
/// copies no string.
struct TraceArg {
  const char* key = "";
  bool is_int = true;
  int64_t int_value = 0;
  std::string str_value;

  static TraceArg Int(const char* key, int64_t value) {
    TraceArg a;
    a.key = key;
    a.int_value = value;
    return a;
  }
  static TraceArg Str(const char* key, std::string value) {
    TraceArg a;
    a.key = key;
    a.is_int = false;
    a.str_value = std::move(value);
    return a;
  }
};

/// One recorded event. Spans are recorded as *complete* events (Chrome
/// phase "X": a begin timestamp plus a duration) rather than separate B/E
/// pairs — RAII emits exactly one event per span, so the stream is balanced
/// by construction even on error paths, and the event count halves.
/// Instants are phase "i".
struct TraceEvent {
  enum class Phase { kComplete, kInstant };
  Phase phase = Phase::kComplete;
  std::string name;
  /// Steady-clock nanoseconds since the recorder's epoch.
  int64_t start_ns = 0;
  /// Span duration (kComplete only; 0 for instants).
  int64_t dur_ns = 0;
  /// Recorder-assigned small thread id (stable per OS thread).
  uint32_t tid = 0;
  std::vector<TraceArg> args;
};

/// A process-wide span/event recorder for end-to-end query tracing.
///
/// Design goals, in order:
///  1. Tracing OFF must be near-zero cost: the only work on an instrumented
///     path is one relaxed atomic load (`Enabled()`); no allocation, no
///     locking, no clock read.
///  2. Tracing ON must be lock-cheap: every thread appends to its own
///     buffer, guarded by the buffer's own mutex — uncontended on the hot
///     path (only a concurrent Snapshot/Clear ever takes it from another
///     thread). The recorder-wide mutex is taken only at thread
///     registration, thread retirement, and flush/serialization.
///  3. Instrumentation must never feed logical counters: spans carry wall
///     times and scheduling detail, EvalStats stays bit-identical with
///     tracing ON or OFF at any thread count (pinned by tests).
///
/// Buffers of exited threads are retired into a shared spill vector (their
/// events survive for serialization, the buffer itself is reclaimed), so
/// transient worker pools do not grow the registry without bound. The
/// global instance is intentionally leaked — worker thread_local
/// destructors may run arbitrarily late during shutdown and must always
/// find it alive.
class TraceRecorder {
 public:
  /// The process-wide recorder (never destroyed).
  static TraceRecorder& Global();

  /// The instrumentation guard: one relaxed atomic load.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Turns recording on/off. Enabling does not clear previous events —
  /// callers that want a fresh trace (e.g. --trace-out) Clear() first.
  void Enable(bool on);

  /// Drops every recorded event (buffers stay registered; thread ids and
  /// names are preserved).
  void Clear();

  /// Nanoseconds since the recorder epoch (steady clock).
  int64_t NowNs() const;

  /// Names the calling thread's track ("main", "worker-3"). Cheap when the
  /// thread has no buffer yet: the name is stashed thread-locally and
  /// applied at registration, so disabled tracing never touches the
  /// registry.
  void SetCurrentThreadName(std::string name);

  /// Appends a complete span event for the calling thread. No-op when
  /// disabled (events begun before a mid-span Disable are dropped).
  void RecordComplete(std::string name, int64_t start_ns, int64_t dur_ns,
                      std::vector<TraceArg> args);

  /// Appends an instant event for the calling thread. No-op when disabled.
  void RecordInstant(std::string name, std::vector<TraceArg> args);

  /// Every recorded event, sorted by (tid, start time), plus the id→name
  /// thread table. Safe to call while other threads record.
  struct SnapshotResult {
    std::vector<TraceEvent> events;
    std::vector<std::pair<uint32_t, std::string>> threads;
  };
  SnapshotResult Snapshot() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}): phase-M thread-name
  /// metadata, phase-X spans with pid/tid/ts/dur in microseconds, phase-i
  /// instants. Loads directly in chrome://tracing and Perfetto.
  std::string ToChromeJson() const;

  /// Human-readable per-thread span tree (nesting recovered from timestamp
  /// containment), durations formatted, args appended as k=v.
  std::string ToText() const;

  /// Total events currently recorded (live buffers + retired spill).
  size_t EventCount() const;

 private:
  struct ThreadBuffer {
    std::mutex mu;
    /// Assigned once at registration, read without the lock afterwards.
    uint32_t tid = 0;
    std::string name DATACON_GUARDED_BY(mu);
    std::vector<TraceEvent> events DATACON_GUARDED_BY(mu);
  };

  TraceRecorder();

  /// The calling thread's buffer, registering it on first use. The returned
  /// pointer stays valid for the recorder's (infinite) lifetime.
  ThreadBuffer* CurrentBuffer();

  /// Thread-exit hook: moves the buffer's events into retired_events_ and
  /// releases the buffer slot.
  void RetireBuffer(ThreadBuffer* buffer);

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;  // registry: buffers_, retired_*, thread names
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      DATACON_GUARDED_BY(mu_);
  std::vector<TraceEvent> retired_events_ DATACON_GUARDED_BY(mu_);
  std::vector<std::pair<uint32_t, std::string>> retired_threads_
      DATACON_GUARDED_BY(mu_);
  std::atomic<uint32_t> next_tid_{1};
  std::chrono::steady_clock::time_point epoch_;

  friend struct TraceThreadState;
};

/// RAII span: captures the start time at construction when tracing is
/// enabled, emits one complete event at destruction. Constant-name
/// construction (`TraceSpan span("round");`) does no work when tracing is
/// off; dynamic detail goes through AddArg guarded by active():
///
///   TraceSpan span("round");
///   if (span.active()) span.AddArg("delta", delta_size);
class TraceSpan {
 public:
  /// `expected_args` sizes the argument vector once, so a span that
  /// attaches that many arguments grows it by no further allocation.
  explicit TraceSpan(std::string_view name, size_t expected_args = 4)
      : active_(TraceRecorder::Enabled()) {
    if (active_) {
      name_ = name;
      args_.reserve(expected_args);
      start_ns_ = TraceRecorder::Global().NowNs();
    }
  }
  ~TraceSpan() {
    if (!active_) return;
    TraceRecorder& rec = TraceRecorder::Global();
    const int64_t end_ns = end_ns_ >= 0 ? end_ns_ : rec.NowNs();
    rec.RecordComplete(std::move(name_), start_ns_, end_ns - start_ns_,
                       std::move(args_));
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when the span will be recorded — guard any argument computation
  /// that allocates.
  bool active() const { return active_; }

  /// Ends the span's duration now, before the destructor emits it: the
  /// arguments added afterwards describe the work timed, and rendering
  /// them is not part of it. Later calls keep the first end.
  void StopClock() {
    if (active_ && end_ns_ < 0) end_ns_ = TraceRecorder::Global().NowNs();
  }

  /// `key` must point to static storage (see TraceArg).
  void AddArg(const char* key, int64_t value) {
    if (active_) args_.push_back(TraceArg::Int(key, value));
  }
  void AddArg(const char* key, std::string value) {
    if (active_) args_.push_back(TraceArg::Str(key, std::move(value)));
  }

 private:
  bool active_;
  std::string name_;
  int64_t start_ns_ = 0;
  int64_t end_ns_ = -1;
  std::vector<TraceArg> args_;
};

/// Records an instant event (no-op when tracing is off).
inline void TraceInstant(std::string name, std::vector<TraceArg> args = {}) {
  if (TraceRecorder::Enabled()) {
    TraceRecorder::Global().RecordInstant(std::move(name), std::move(args));
  }
}

}  // namespace datacon

#endif  // DATACON_COMMON_TRACE_H_
