#include "common/eventlog.h"

#include <chrono>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace datacon {

EventLog::EventLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void EventLog::Emit(std::string type, std::vector<EventField> fields) {
  if (!enabled()) return;
  int64_t wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  std::lock_guard<std::mutex> lock(mu_);
  Event& slot = ring_[next_seq_ % capacity_];
  slot.seq = next_seq_++;
  // Stamped under the lock so steady order matches sequence order.
  slot.steady_ns = TraceRecorder::Global().NowNs();
  slot.wall_us = wall_us;
  slot.type = std::move(type);
  slot.fields = std::move(fields);
  if (size_ < capacity_) ++size_;
}

std::vector<Event> EventLog::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(size_);
  uint64_t oldest = next_seq_ - size_;
  for (uint64_t s = oldest; s < next_seq_; ++s) {
    out.push_back(ring_[s % capacity_]);
  }
  return out;
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - size_;
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Event& e : ring_) e = Event{};
  size_ = 0;
  // next_seq_ keeps counting: sequences stay unique across a Clear.
}

namespace {

void AppendFieldJson(std::string* out, const EventField& f) {
  AppendJsonEscaped(out, f.key);
  out->push_back(':');
  if (f.is_int) {
    *out += std::to_string(f.int_value);
  } else {
    AppendJsonEscaped(out, f.str_value);
  }
}

}  // namespace

std::string EventLog::ToJsonl() const {
  std::string out;
  for (const Event& e : Events()) {
    out += "{\"seq\":";
    out += std::to_string(e.seq);
    out += ",\"steady_ns\":";
    out += std::to_string(e.steady_ns);
    out += ",\"wall_us\":";
    out += std::to_string(e.wall_us);
    out += ",\"type\":";
    AppendJsonEscaped(&out, e.type);
    for (const EventField& f : e.fields) {
      out.push_back(',');
      AppendFieldJson(&out, f);
    }
    out += "}\n";
  }
  return out;
}

std::string EventLog::ToText() const {
  std::vector<Event> events = Events();
  uint64_t lost = dropped();
  if (events.empty() && lost == 0) return "(no events recorded)\n";
  std::string out;
  for (const Event& e : events) {
    out += '#';
    out += std::to_string(e.seq);
    out += "  ";
    out += FormatWallTimeUs(e.wall_us);
    out += "  ";
    out += e.type;
    for (const EventField& f : e.fields) {
      out += "  ";
      out += f.key;
      out += '=';
      out += f.is_int ? std::to_string(f.int_value) : f.str_value;
    }
    out += "\n";
  }
  if (lost > 0) {
    out += '(';
    out += std::to_string(lost);
    out += " older event(s) dropped)\n";
  }
  return out;
}

}  // namespace datacon
