#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

namespace datacon {
namespace {

/// Minimal recursive-descent JSON syntax checker, enough to assert the
/// Chrome export is well-formed (what chrome://tracing's loader requires).
/// Accepts objects, arrays, strings with escapes, numbers, true/false/null.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Shared-recorder hygiene: every test starts from a clean, disabled
/// recorder and leaves it that way (the recorder is process-global).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Enable(false);
    TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    TraceRecorder::Global().Enable(false);
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  {
    TraceSpan span("should not appear");
    span.AddArg("k", int64_t{1});
    EXPECT_FALSE(span.active());
  }
  TraceInstant("also not");
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
}

TEST_F(TraceTest, SpanRecordsCompleteEventWithArgs) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(true);
  {
    TraceSpan span("round");
    EXPECT_TRUE(span.active());
    span.AddArg("delta", int64_t{42});
    span.AddArg("strategy", std::string("semi-naive"));
  }
  rec.Enable(false);
  TraceRecorder::SnapshotResult snap = rec.Snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  const TraceEvent& event = snap.events[0];
  EXPECT_EQ(event.phase, TraceEvent::Phase::kComplete);
  EXPECT_EQ(event.name, "round");
  EXPECT_GE(event.dur_ns, 0);
  ASSERT_EQ(event.args.size(), 2u);
  EXPECT_STREQ(event.args[0].key, "delta");
  EXPECT_EQ(event.args[0].int_value, 42);
  EXPECT_STREQ(event.args[1].key, "strategy");
  EXPECT_EQ(event.args[1].str_value, "semi-naive");
}

TEST_F(TraceTest, InstantEventsRecord) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(true);
  TraceInstant("marker", {TraceArg::Int("n", 7)});
  rec.Enable(false);
  TraceRecorder::SnapshotResult snap = rec.Snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(snap.events[0].name, "marker");
}

TEST_F(TraceTest, ClearDropsEvents) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(true);
  { TraceSpan span("x"); }
  EXPECT_GE(rec.EventCount(), 1u);
  rec.Clear();
  EXPECT_EQ(rec.EventCount(), 0u);
}

TEST_F(TraceTest, ConcurrentThreadsGetDistinctNamedTracks) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      rec.SetCurrentThreadName("track-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("work");
        span.AddArg("i", int64_t{i});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  rec.Enable(false);
  TraceRecorder::SnapshotResult snap = rec.Snapshot();
  EXPECT_EQ(snap.events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  // Each thread must land on its own tid, and its chosen name must survive
  // buffer retirement at thread exit.
  std::vector<std::string> names;
  for (const auto& [tid, name] : snap.threads) names.push_back(name);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "track-" + std::to_string(t)),
              names.end());
  }
  for (const auto& [tid_a, name_a] : snap.threads) {
    for (const auto& [tid_b, name_b] : snap.threads) {
      if (name_a != name_b) {
        EXPECT_NE(tid_a, tid_b);
      }
    }
  }
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(true);
  rec.SetCurrentThreadName("main");
  {
    TraceSpan outer("evaluate");
    outer.AddArg("plan", std::string("line1\nline2 \"quoted\""));
    TraceSpan inner("round");
    inner.AddArg("round", int64_t{1});
  }
  TraceInstant("note");
  rec.Enable(false);
  std::string json = rec.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"round\""), std::string::npos);
  // The newline in the plan arg must be escaped, never raw.
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_EQ(json.find("line1\nline2"), std::string::npos);
}

TEST_F(TraceTest, EmptyTraceIsStillValidJson) {
  std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST_F(TraceTest, ToTextRecoversNesting) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(true);
  {
    TraceSpan outer("evaluate");
    {
      TraceSpan inner("round");
      inner.AddArg("round", int64_t{1});
    }
  }
  rec.Enable(false);
  std::string text = rec.ToText();
  // The outer span indents one level under the thread header, the inner
  // span one level below it.
  EXPECT_NE(text.find("\n  evaluate"), std::string::npos);
  EXPECT_NE(text.find("\n    round  round=1"), std::string::npos);
}

TEST_F(TraceTest, MidSpanDisableDropsTheEventSafely) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(true);
  {
    TraceSpan span("dropped");
    rec.Enable(false);
  }
  EXPECT_EQ(rec.EventCount(), 0u);
}

}  // namespace
}  // namespace datacon
