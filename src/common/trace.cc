#include "common/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/metrics.h"
#include "common/string_util.h"

namespace datacon {

std::atomic<bool> TraceRecorder::enabled_{false};

/// Per-thread recorder state. The buffer pointer is registered lazily (first
/// recorded event); the destructor retires the buffer so exited worker
/// threads do not accumulate registry slots.
struct TraceThreadState {
  TraceRecorder::ThreadBuffer* buffer = nullptr;
  std::string pending_name;

  ~TraceThreadState() {
    if (buffer != nullptr) TraceRecorder::Global().RetireBuffer(buffer);
  }
};

namespace {

TraceThreadState& ThreadState() {
  static thread_local TraceThreadState state;
  return state;
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::Global() {
  // Intentionally leaked: worker thread_local destructors (RetireBuffer)
  // may run after static destruction would have torn a normal singleton
  // down.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

int64_t TraceRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceRecorder::SetCurrentThreadName(std::string name) {
  TraceThreadState& state = ThreadState();
  if (state.buffer == nullptr) {
    state.pending_name = std::move(name);
    return;
  }
  std::lock_guard<std::mutex> lock(state.buffer->mu);
  state.buffer->name = std::move(name);
}

TraceRecorder::ThreadBuffer* TraceRecorder::CurrentBuffer() {
  TraceThreadState& state = ThreadState();
  if (state.buffer != nullptr) return state.buffer;
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  buffer->name = state.pending_name.empty()
                     ? "thread-" + std::to_string(buffer->tid)
                     : state.pending_name;
  state.buffer = buffer.get();
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::move(buffer));
  return state.buffer;
}

void TraceRecorder::RetireBuffer(ThreadBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < buffers_.size(); ++i) {
    if (buffers_[i].get() != buffer) continue;
    if (!buffer->events.empty()) {
      retired_threads_.emplace_back(buffer->tid, buffer->name);
      retired_events_.insert(retired_events_.end(),
                             std::make_move_iterator(buffer->events.begin()),
                             std::make_move_iterator(buffer->events.end()));
    }
    buffers_.erase(buffers_.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
}

void TraceRecorder::RecordComplete(std::string name, int64_t start_ns,
                                   int64_t dur_ns,
                                   std::vector<TraceArg> args) {
  if (!Enabled()) return;
  ThreadBuffer* buffer = CurrentBuffer();
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.name = std::move(name);
  event.start_ns = start_ns;
  event.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  event.tid = buffer->tid;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->events.push_back(std::move(event));
}

void TraceRecorder::RecordInstant(std::string name,
                                  std::vector<TraceArg> args) {
  if (!Enabled()) return;
  ThreadBuffer* buffer = CurrentBuffer();
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.name = std::move(name);
  event.start_ns = NowNs();
  event.tid = buffer->tid;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->events.push_back(std::move(event));
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  retired_events_.clear();
  retired_threads_.clear();
}

size_t TraceRecorder::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = retired_events_.size();
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    count += buffer->events.size();
  }
  return count;
}

TraceRecorder::SnapshotResult TraceRecorder::Snapshot() const {
  SnapshotResult out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.events = retired_events_;
    out.threads = retired_threads_;
    for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      out.events.insert(out.events.end(), buffer->events.begin(),
                        buffer->events.end());
      if (!buffer->events.empty()) {
        out.threads.emplace_back(buffer->tid, buffer->name);
      }
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.start_ns < b.start_ns;
                   });
  std::sort(out.threads.begin(), out.threads.end());
  return out;
}

namespace {

void AppendMicros(std::string* out, int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  *out += buf;
}

void AppendArgsObject(std::string* out, const std::vector<TraceArg>& args) {
  out->push_back('{');
  bool first = true;
  for (const TraceArg& arg : args) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonEscaped(out, arg.key);
    out->push_back(':');
    if (arg.is_int) {
      *out += std::to_string(arg.int_value);
    } else {
      AppendJsonEscaped(out, arg.str_value);
    }
  }
  out->push_back('}');
}

}  // namespace

std::string TraceRecorder::ToChromeJson() const {
  SnapshotResult snap = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : snap.threads) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    AppendJsonEscaped(&out, name);
    out += "}}";
  }
  for (const TraceEvent& event : snap.events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"";
    out += event.phase == TraceEvent::Phase::kComplete ? 'X' : 'i';
    out += "\",\"pid\":1,\"tid\":" + std::to_string(event.tid) +
           ",\"cat\":\"datacon\",\"name\":";
    AppendJsonEscaped(&out, event.name);
    out += ",\"ts\":";
    AppendMicros(&out, event.start_ns);
    if (event.phase == TraceEvent::Phase::kComplete) {
      out += ",\"dur\":";
      AppendMicros(&out, event.dur_ns);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"args\":";
    AppendArgsObject(&out, event.args);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string TraceRecorder::ToText() const {
  SnapshotResult snap = Snapshot();
  std::string out;
  size_t i = 0;
  for (const auto& [tid, name] : snap.threads) {
    out += "[tid " + std::to_string(tid) + " " + name + "]\n";
    // Events are sorted by start time within the tid; nesting depth is
    // recovered from interval containment (a span is a child while it
    // starts before the enclosing span's end).
    std::vector<int64_t> open_ends;
    for (; i < snap.events.size() && snap.events[i].tid == tid; ++i) {
      const TraceEvent& event = snap.events[i];
      while (!open_ends.empty() && event.start_ns >= open_ends.back()) {
        open_ends.pop_back();
      }
      out.append(2 * (open_ends.size() + 1), ' ');
      out += event.name;
      for (const TraceArg& arg : event.args) {
        out += "  ";
        out += arg.key;
        out += '=';
        out += arg.is_int ? std::to_string(arg.int_value) : arg.str_value;
      }
      if (event.phase == TraceEvent::Phase::kComplete) {
        out += "  (" + FormatDurationNs(event.dur_ns) + ")";
        open_ends.push_back(event.start_ns + event.dur_ns);
      } else {
        out += "  [instant]";
      }
      out.push_back('\n');
    }
  }
  return out;
}

}  // namespace datacon
