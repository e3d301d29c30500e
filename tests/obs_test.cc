// Tests for the runtime observability layer (acps::obs): tracer/span
// semantics under concurrency, Chrome-trace JSON export, metrics registry,
// and the headline claim — a real 8-worker ACP-SGD GradReducer run whose
// exported trace shows a fast worker's bucket all-reduce overlapping a
// slower worker's later grad-ready hooks (WFBP on actual threads).
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.h"
#include "core/grad_reducer.h"
#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "tensor/rng.h"

namespace acps::obs {
namespace {

// ------------------------------------------------- minimal JSON parser ----
// Just enough JSON to verify that exported traces PARSE (structurally) and
// to pull fields back out. Supports objects, arrays, strings (with the
// escapes our writer emits), numbers, true/false/null.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  [[nodiscard]] const JsonValue* Get(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON content");
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }
  char Peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void Expect(char c) {
    if (Peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    ++pos_;
  }

  JsonValue ParseValue() {
    SkipWs();
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return ParseString();
      case 't': case 'f': return ParseBool();
      case 'n': return ParseNull();
      default: return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    Expect('{');
    SkipWs();
    if (Peek() == '}') { ++pos_; return v; }
    while (true) {
      SkipWs();
      JsonValue key = ParseString();
      SkipWs();
      Expect(':');
      v.obj.emplace(key.str, ParseValue());
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    Expect('[');
    SkipWs();
    if (Peek() == ']') { ++pos_; return v; }
    while (true) {
      v.arr.push_back(ParseValue());
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      Expect(']');
      return v;
    }
  }

  JsonValue ParseString() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    Expect('"');
    while (Peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        const char e = Peek();
        ++pos_;
        switch (e) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case 'n': v.str += '\n'; break;
          default: throw std::runtime_error("unsupported escape");
        }
      } else {
        v.str += c;
      }
    }
    ++pos_;
    return v;
  }

  JsonValue ParseBool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) { v.b = true; pos_ += 4; return v; }
    if (s_.compare(pos_, 5, "false") == 0) { v.b = false; pos_ += 5; return v; }
    throw std::runtime_error("bad literal");
  }

  JsonValue ParseNull() {
    if (s_.compare(pos_, 4, "null") != 0) throw std::runtime_error("bad null");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue ParseNumber() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// A parsed "X" complete event with the fields the tests care about.
struct ParsedEvent {
  std::string name, cat;
  int tid = -1;
  double ts = 0.0, dur = 0.0;
};

// ---------------------------------------------------------------- tracer ----

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;  // disabled by default
  {
    ScopedSpan outer(&tracer, "outer", kCatStep, 0);
    ScopedSpan inner(&tracer, "inner", kCatCompress, 0);
  }
  EXPECT_EQ(tracer.size(), 0u);
  // Null tracer is also a no-op (the common not-instrumented case).
  { ScopedSpan span(nullptr, "x", kCatComm, 0); }
  // Spans opened while disabled stay dropped even if enabled before close.
  {
    ScopedSpan span(&tracer, "late", kCatComm, 0);
    tracer.Enable();
  }
  EXPECT_EQ(tracer.size(), 0u);
  tracer.Disable();
}

TEST(Tracer, SpansNestAndOrderUnder8ConcurrentWorkers) {
  constexpr int kWorkers = 8;
  Tracer tracer;
  tracer.Enable();
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&tracer, w] {
      ScopedSpan outer(&tracer, "outer", kCatStep, w);
      for (int i = 0; i < 3; ++i) {
        ScopedSpan inner(&tracer, "inner", kCatCompress, w, /*bytes=*/64, i);
        std::this_thread::sleep_for(  // lint:allow(raw-sleep): real span widths
            std::chrono::microseconds(200));
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), kWorkers * 4u);  // 3 inner + 1 outer per worker
  for (int w = 0; w < kWorkers; ++w) {
    const SpanEvent* outer = nullptr;
    std::vector<const SpanEvent*> inner;
    for (const auto& s : spans) {
      if (s.worker != w) continue;
      if (s.name == "outer") outer = &s;
      else inner.push_back(&s);
    }
    ASSERT_NE(outer, nullptr) << w;
    ASSERT_EQ(inner.size(), 3u) << w;
    int64_t prev_end = outer->begin_us;
    for (int i = 0; i < 3; ++i) {
      // Nesting: every inner span lies inside its worker's outer span.
      EXPECT_GE(inner[i]->begin_us, outer->begin_us);
      EXPECT_LE(inner[i]->end_us, outer->end_us);
      // Order: same-worker spans are recorded in completion order, and
      // sequential spans don't overlap.
      EXPECT_EQ(inner[i]->arg, i);
      EXPECT_GE(inner[i]->begin_us, prev_end);
      EXPECT_LE(inner[i]->begin_us, inner[i]->end_us);
      prev_end = inner[i]->end_us;
    }
  }
}

TEST(Tracer, ClearDropsEventsAndRestartsClock) {
  Tracer tracer;
  tracer.Enable();
  { ScopedSpan span(&tracer, "a", kCatComm, 0); }
  EXPECT_EQ(tracer.size(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
}

// ---------------------------------------------------------- JSON export ----

TEST(ChromeTrace, ExportedJsonParsesWithOneRowPerWorker) {
  constexpr int kWorkers = 8;
  Tracer tracer;
  tracer.Enable();
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&tracer, w] {
      ScopedSpan span(&tracer, "work", kCatComm, w, /*bytes=*/128, w);
      std::this_thread::sleep_for(  // lint:allow(raw-sleep): real span widths
          std::chrono::microseconds(100));
    });
  }
  for (auto& t : threads) t.join();

  const std::string json = tracer.ToChromeTracingJson();
  const JsonValue root = JsonParser(json).Parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kArray);

  std::set<int> x_rows, named_rows;
  size_t x_events = 0;
  for (const auto& e : root.arr) {
    const std::string& ph = e.Get("ph")->str;
    if (ph == "X") {
      ++x_events;
      x_rows.insert(static_cast<int>(e.Get("tid")->num));
      EXPECT_GE(e.Get("dur")->num, 0.0);
      EXPECT_GE(e.Get("ts")->num, 0.0);
      // bytes/arg ride in args.
      const JsonValue* args = e.Get("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->Get("bytes")->num, 128.0);
    } else {
      ASSERT_EQ(ph, "M");
      EXPECT_EQ(e.Get("name")->str, "thread_name");
      named_rows.insert(static_cast<int>(e.Get("tid")->num));
    }
  }
  EXPECT_EQ(x_events, static_cast<size_t>(kWorkers));
  EXPECT_EQ(x_rows.size(), static_cast<size_t>(kWorkers));  // one row each
  EXPECT_EQ(named_rows, x_rows);  // every row is labeled "worker N"
}

TEST(ChromeTrace, EscapesSpecialCharacters) {
  Tracer tracer;
  tracer.Enable();
  tracer.Record(SpanEvent{"a\"b\\c", kCatComm, 0, 0, 1, 0, -1});
  const std::string json = tracer.ToChromeTracingJson();
  const JsonValue root = JsonParser(json).Parse();
  bool found = false;
  for (const auto& e : root.arr)
    if (e.Get("ph")->str == "X" && e.Get("name")->str == "a\"b\\c")
      found = true;
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- metrics ----

TEST(Metrics, DisabledRegistryRecordsNothing) {
  MetricsRegistry reg;  // disabled by default
  reg.counter("c").Add(5);
  reg.gauge("g").Set(1.0);
  reg.histogram("h").Observe(2.0);
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
}

TEST(Metrics, InstrumentsRecordAndDump) {
  MetricsRegistry reg;
  reg.Enable();
  reg.counter("steps").Add();
  reg.counter("steps").Add(2);
  reg.gauge("lr").Set(0.1);
  for (int i = 1; i <= 100; ++i)
    reg.histogram("lat_us").Observe(static_cast<double>(i));
  EXPECT_EQ(reg.counter("steps").value(), 3u);
  EXPECT_EQ(reg.gauge("lr").value(), 0.1);
  EXPECT_EQ(reg.histogram("lat_us").count(), 100u);
  EXPECT_NEAR(reg.histogram("lat_us").Quantile(0.5), 50.0, 2.0);
  const std::string dump = reg.DumpText();
  EXPECT_NE(dump.find("steps"), std::string::npos);
  EXPECT_NE(dump.find("lat_us"), std::string::npos);
  EXPECT_NE(dump.find("p99"), std::string::npos);
}

TEST(Metrics, ConcurrentCountersFromWorkers) {
  MetricsRegistry reg;
  reg.Enable();
  Counter& c = reg.counter("hits");
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w)
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.Add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 8000u);
}

// ------------------------------------------------ real WFBP run (8 wkr) ----

// The acceptance run: 8 real workers drive the ACP-SGD GradReducer with
// rank-proportional delays between gradient hooks. Worker 0 reaches the
// fused low-rank bucket's all-reduce first and blocks at the rendezvous
// until worker 7 arrives — so in the exported (and re-parsed) trace, slow
// workers' later grad_ready spans begin strictly inside worker 0's
// all-reduce span on a different row: WFBP overlap, demonstrated on real
// threads rather than in the simulator.
TEST(GradReducerTrace, WfbpOverlapVisibleInParsedJson) {
  constexpr int kWorkers = 8;
  Tracer tracer;
  tracer.Enable();
  comm::Transport group_transport;
  comm::Session group(group_transport, "obs", kWorkers);
  group_transport.set_tracer(&tracer);

  compress::AcpSgdConfig cfg;
  cfg.rank = 2;
  group.Run([&](comm::Communicator& comm) {
    dnn::Param w1, w2, bias;
    w1.value = Tensor({16, 24});
    w1.grad = Tensor({16, 24});
    w1.matrix_rows = 16;
    w1.matrix_cols = 24;
    w2.value = Tensor({8, 40});
    w2.grad = Tensor({8, 40});
    w2.matrix_rows = 8;
    w2.matrix_cols = 40;
    bias.value = Tensor({24});
    bias.grad = Tensor({24});
    Rng rng(1000 + static_cast<uint64_t>(comm.rank()));
    rng.fill_normal(w1.grad);
    rng.fill_normal(w2.grad);
    rng.fill_normal(bias.grad);

    core::GradReducer reducer(cfg);
    reducer.BeginStep({&w1, &w2, &bias}, comm);
    reducer.OnGradReady(2);  // bias (dense) — backward order
    std::this_thread::sleep_for(  // lint:allow(raw-sleep): staggers ranks
        std::chrono::milliseconds(2 * comm.rank()));
    reducer.OnGradReady(1);  // w2
    std::this_thread::sleep_for(  // lint:allow(raw-sleep): staggers ranks
        std::chrono::milliseconds(2 * comm.rank()));
    reducer.OnGradReady(0);  // w1 — completes the fused low-rank bucket
    reducer.FinishStep();
  });

  // Everything below works on the exported Chrome-trace JSON, re-parsed.
  const std::string json = tracer.ToChromeTracingJson();
  const JsonValue root = JsonParser(json).Parse();

  std::vector<ParsedEvent> events;
  std::set<int> rows;
  for (const auto& e : root.arr) {
    if (e.Get("ph")->str != "X") continue;
    ParsedEvent p;
    p.name = e.Get("name")->str;
    p.cat = e.Get("cat")->str;
    p.tid = static_cast<int>(e.Get("tid")->num);
    p.ts = e.Get("ts")->num;
    p.dur = e.Get("dur")->num;
    rows.insert(p.tid);
    events.push_back(std::move(p));
  }
  EXPECT_EQ(rows.size(), static_cast<size_t>(kWorkers));

  // Worker 0's LAST all_reduce (the fused low-rank bucket, issued from its
  // final hook with no sleeps) waits for worker 7, which is still ~28 ms of
  // sleeps behind.
  const ParsedEvent* w0_allreduce = nullptr;
  for (const auto& p : events)
    if (p.tid == 0 && p.name == "all_reduce" &&
        (w0_allreduce == nullptr || p.ts > w0_allreduce->ts))
      w0_allreduce = &p;
  ASSERT_NE(w0_allreduce, nullptr);

  // Overlap: some slower worker's grad_ready span BEGINS inside worker 0's
  // all-reduce window.
  bool overlap = false;
  for (const auto& p : events) {
    if (p.name != "grad_ready" || p.tid == 0) continue;
    if (p.ts > w0_allreduce->ts && p.ts < w0_allreduce->ts + w0_allreduce->dur)
      overlap = true;
  }
  EXPECT_TRUE(overlap)
      << "no grad_ready span of a slower worker begins inside worker 0's "
         "bucket all-reduce - WFBP overlap not visible in trace";

  // Sanity on categories: comm spans carry bytes, grad spans are kCatGrad.
  bool saw_bucket = false;
  for (const auto& p : events) {
    if (p.name == "bucket_issue") {
      EXPECT_EQ(p.cat, "bucket");
      saw_bucket = true;
    }
    if (p.name == "grad_ready") {
      EXPECT_EQ(p.cat, "grad");
    }
  }
  EXPECT_TRUE(saw_bucket);
}

}  // namespace
}  // namespace acps::obs
