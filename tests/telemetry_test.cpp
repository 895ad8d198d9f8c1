// Tests for src/telemetry: instruments, span tracing, exporters, and the
// virtual-time bridge (trace/telemetry_bridge.hpp).
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/timeseries.hpp"
#include "trace/stage_trace.hpp"
#include "trace/telemetry_bridge.hpp"

namespace kvscale {
namespace {

/// Non-empty lines of a JSONL blob, for line-by-line validation.
std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker, so the exporter tests
// assert real well-formedness rather than substring presence.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Instruments.

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Resolve-once-then-increment, the hot-path pattern.
      Counter& counter = registry.GetCounter("test.shared");
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.GetCounter("test.shared").Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.Value(), -1.25);
}

TEST(HistogramTest, BucketBoundariesRoundTrip) {
  using H = LatencyHistogram;
  // Below 2^kSubBucketBits ns the buckets are exact nanoseconds.
  for (size_t i = 0; i < H::kSubBuckets; ++i) {
    EXPECT_DOUBLE_EQ(H::BucketLowerBoundMicros(i), i * 1e-3) << i;
  }
  // Every bucket's lower bound indexes back into that bucket, and the
  // bounds are strictly increasing.
  for (size_t i = 1; i < H::kBucketCount; ++i) {
    EXPECT_EQ(H::BucketIndex(H::BucketLowerBoundMicros(i)), i) << i;
    EXPECT_GT(H::BucketLowerBoundMicros(i), H::BucketLowerBoundMicros(i - 1))
        << i;
  }
  // Relative bucket width: above the exact range, width / lower bound is
  // at most 1/kSubBuckets (the quantile error bound in the header).
  for (size_t i = H::kSubBuckets; i + 1 < H::kBucketCount; ++i) {
    const double lo = H::BucketLowerBoundMicros(i);
    const double hi = H::BucketLowerBoundMicros(i + 1);
    EXPECT_LE((hi - lo) / lo, 1.0 / H::kSubBuckets + 1e-9) << i;
  }
}

TEST(HistogramTest, StatsAndPercentiles) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);  // empty
  for (int v = 1; v <= 100; ++v) h.Record(static_cast<double>(v));
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_NEAR(h.Mean(), 50.5, 0.01);
  // Log-bucketing bounds the relative error at 6.25%.
  EXPECT_NEAR(h.Percentile(0.50), 50.0, 50.0 * 0.07);
  EXPECT_NEAR(h.Percentile(0.95), 95.0, 95.0 * 0.07);
  EXPECT_NEAR(h.Percentile(0.99), 99.0, 99.0 * 0.07);
  // Quantiles clamp to the observed extremes.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, MergeFoldsNodesTogether) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int v = 1; v <= 50; ++v) a.Record(static_cast<double>(v));
  for (int v = 51; v <= 100; ++v) b.Record(static_cast<double>(v));
  a.Merge(b);
  EXPECT_EQ(a.Count(), 100u);
  EXPECT_DOUBLE_EQ(a.Min(), 1.0);
  EXPECT_DOUBLE_EQ(a.Max(), 100.0);
  EXPECT_NEAR(a.Percentile(0.50), 50.0, 50.0 * 0.07);
  EXPECT_NEAR(a.Sum(), 5050.0, 5050.0 * 0.001);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.x");
  a.Increment();
  EXPECT_EQ(&a, &registry.GetCounter("test.x"));
  EXPECT_EQ(registry.GetCounter("test.x").Value(), 1u);
  EXPECT_NE(&a, &registry.GetCounter("test.y"));
}

TEST(RegistryTest, SnapshotAndSummaryReport) {
  MetricsRegistry registry;
  registry.GetCounter("test.reads").Increment(7);
  registry.GetGauge("test.fill").Set(0.5);
  registry.GetHistogram("test.lat_us").Record(123.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].second, 7u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
  const std::string report = registry.SummaryReport();
  EXPECT_NE(report.find("reads"), std::string::npos);
  EXPECT_NE(report.find("lat_us"), std::string::npos);
  EXPECT_NE(report.find("p99"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span tracing.

TEST(SpanTracerTest, ScopesRecordNestingAndAttributes) {
  SpanTracer tracer;
  {
    SpanTracer::Scope outer = tracer.StartSpan("outer", 3);
    SpanTracer::Scope inner = tracer.StartSpan("inner", 3);
    inner.Attr("key", "value");
  }
  const std::vector<Span> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner ends (and records) first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  ASSERT_EQ(spans[0].attributes.size(), 1u);
  EXPECT_EQ(spans[0].attributes[0].first, "key");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[1].track, 3u);
  EXPECT_GE(spans[1].duration_us, spans[0].duration_us);
}

TEST(SpanTracerTest, DisabledTracerIsInert) {
  SpanTracer tracer;
  tracer.set_enabled(false);
  SpanTracer::Scope scope = tracer.StartSpan("dropped");
  EXPECT_FALSE(scope.active());
  scope.Attr("a", "b");  // must be a safe no-op
  scope.End();
  EXPECT_EQ(tracer.size(), 0u);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(ExportersTest, ChromeTraceIsWellFormedJson) {
  SpanTracer tracer;
  tracer.SetTrackName(0, "node-0");
  tracer.SetTrackName(1, "awkward \"name\"\nwith newline");
  {
    SpanTracer::Scope s = tracer.StartSpan("read", 0);
    s.Attr("partition", "cube:0,1");          // comma
    s.Attr("note", "say \"hi\"\n\ttabbed");   // quote, newline, tab
  }
  { SpanTracer::Scope s = tracer.StartSpan("fold", 1); }

  const std::string json = TracerToChromeTrace(tracer);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"M\""), 2u);  // 2 named tracks
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(ExportersTest, MetricsJsonlHasOneValidObjectPerLine) {
  MetricsRegistry registry;
  registry.GetCounter("store.read.count").Increment(3);
  registry.GetGauge("cache.fill").Set(0.75);
  LatencyHistogram& h = registry.GetHistogram("store.read.latency_us");
  for (int v = 1; v <= 10; ++v) h.Record(static_cast<double>(v));

  const std::string jsonl = MetricsToJsonl(registry.Snapshot());
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string line = jsonl.substr(start, end - start);
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(jsonl.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"p99_us\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Virtual-time bridge.

RequestTrace MakeTrace(uint64_t query, uint32_t sub, uint32_t node,
                       Micros start) {
  RequestTrace t;
  t.query_id = query;
  t.sub_id = sub;
  t.node = node;
  t.keysize = 100.0;
  t.issued = start;
  t.received = start + 10;
  t.db_start = start + 15;
  t.db_end = start + 40;
  t.completed = start + 50;
  return t;
}

TEST(TelemetryBridgeTest, AppendStageSpansMirrorsVirtualTime) {
  StageTracer stage_tracer;
  stage_tracer.Record(MakeTrace(1, 0, 0, 0.0));
  stage_tracer.Record(MakeTrace(1, 1, 2, 5.0));

  SpanTracer tracer;
  AppendStageSpans(stage_tracer, tracer, /*track_base=*/10, "run");
  const std::vector<Span> spans = tracer.snapshot();
  // Per trace: one "request" parent + four stage children.
  ASSERT_EQ(spans.size(), 2u * (1 + kStageCount));

  const Span& request = spans[0];
  EXPECT_EQ(request.name, "request");
  EXPECT_EQ(request.track, 10u);
  EXPECT_DOUBLE_EQ(request.start_us, 0.0);
  EXPECT_DOUBLE_EQ(request.duration_us, 50.0);

  const Span& in_db = spans[3];
  EXPECT_EQ(in_db.name, "in-db");
  EXPECT_EQ(in_db.depth, 1u);
  EXPECT_DOUBLE_EQ(in_db.start_us, 15.0);
  EXPECT_DOUBLE_EQ(in_db.duration_us, 25.0);

  // Second trace lands on track 10 + node 2, and tracks are named.
  EXPECT_EQ(spans[5].track, 12u);
  const auto names = tracer.track_names();
  EXPECT_EQ(names.at(10), "run/node-0");
  EXPECT_EQ(names.at(12), "run/node-2");
}

TEST(TelemetryBridgeTest, RecordStageHistogramsUsesPrefix) {
  StageTracer stage_tracer;
  for (int i = 0; i < 5; ++i) {
    stage_tracer.Record(MakeTrace(1, i, 0, i * 100.0));
  }
  MetricsRegistry registry;
  RecordStageHistograms(stage_tracer, registry, "test.stage.");
  LatencyHistogram& in_db = registry.GetHistogram("test.stage.in_db_us");
  EXPECT_EQ(in_db.Count(), 5u);
  EXPECT_NEAR(in_db.Percentile(0.5), 25.0, 25.0 * 0.07);
}

// ---------------------------------------------------------------------------
// Span retention cap.

TEST(SpanTracerTest, MaxSpansDropsNewestAndCountsThem) {
  SpanTracer tracer;
  MetricsRegistry registry;
  tracer.set_max_spans(3);
  tracer.set_dropped_counter(&registry.GetCounter("telemetry.spans.dropped"));
  for (int i = 0; i < 5; ++i) {
    SpanTracer::Scope s = tracer.StartSpan("s" + std::to_string(i));
  }
  // Newest-lose: the head of the trace survives intact.
  const std::vector<Span> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "s0");
  EXPECT_EQ(spans[2].name, "s2");
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_EQ(registry.GetCounter("telemetry.spans.dropped").Value(), 2u);
  // Clearing frees capacity again; the drop tally is cumulative.
  tracer.set_dropped_counter(nullptr);
  tracer.Clear();
  { SpanTracer::Scope s = tracer.StartSpan("after"); }
  EXPECT_EQ(tracer.size(), 1u);
}

// ---------------------------------------------------------------------------
// Flight recorder.

QueryRecord MakeRecord(uint64_t id, double wall_us) {
  QueryRecord r;
  r.query_id = id;
  r.table = "t";
  r.transport = "message";
  r.subqueries = 4;
  r.completed = 4;
  r.wall_us = wall_us;
  return r;
}

TEST(FlightRecorderTest, RingIsBoundedAndEvictsOldest) {
  FlightRecorder::Options options;
  options.capacity = 3;
  FlightRecorder recorder(options);
  for (uint64_t id = 1; id <= 5; ++id) {
    recorder.Record(MakeRecord(id, 100.0));
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.recorded(), 5u);
  EXPECT_EQ(recorder.evicted(), 2u);
  const std::vector<QueryRecord> records = recorder.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().query_id, 3u);  // 1 and 2 were evicted
  EXPECT_EQ(records.back().query_id, 5u);
}

TEST(FlightRecorderTest, SlowRuleCatchesLatencyAndDegradation) {
  FlightRecorder::Options options;
  options.slow_query_us = 1000.0;
  FlightRecorder recorder(options);

  recorder.Record(MakeRecord(1, 100.0));   // fast, healthy
  recorder.Record(MakeRecord(2, 5000.0));  // over the threshold
  QueryRecord degraded = MakeRecord(3, 100.0);
  degraded.completed = 3;
  degraded.failed = 1;
  degraded.partial = true;
  recorder.Record(degraded);  // fast but degraded: still slow-logged
  QueryRecord shed = MakeRecord(4, 0.0);
  shed.shed_by_admission = true;
  recorder.Record(shed);

  EXPECT_EQ(recorder.recorded(), 4u);
  EXPECT_EQ(recorder.slow_queries(), 3u);
  const std::vector<QueryRecord> records = recorder.snapshot();
  EXPECT_FALSE(records[0].slow);
  EXPECT_TRUE(records[1].slow);
  EXPECT_TRUE(records[2].slow);
  EXPECT_TRUE(records[3].slow);
}

TEST(FlightRecorderTest, ZeroThresholdDisablesTheSlowLog) {
  FlightRecorder recorder;  // slow_query_us defaults to 0 = off
  QueryRecord degraded = MakeRecord(1, 1e9);
  degraded.failed = 1;
  recorder.Record(degraded);
  EXPECT_EQ(recorder.slow_queries(), 0u);
  EXPECT_TRUE(recorder.SlowQueriesJsonl().empty());
}

TEST(FlightRecorderTest, JsonlIsWellFormedPerLine) {
  FlightRecorder::Options options;
  options.slow_query_us = 1.0;
  FlightRecorder recorder(options);
  QueryRecord record = MakeRecord(7, 250.5);
  RequestTrace entry;
  entry.sub_id = 2;
  entry.node = 1;
  entry.attempts = 2;
  entry.answered = true;
  entry.issued = 10.0;
  entry.received = 12.0;
  entry.db_start = 15.0;
  entry.db_end = 20.0;
  entry.completed = 25.0;
  record.timeline.push_back(entry);
  recorder.Record(record);

  const std::string jsonl = recorder.ToJsonl();
  ASSERT_FALSE(jsonl.empty());
  for (const std::string_view line : SplitLines(jsonl)) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
  }
  EXPECT_NE(jsonl.find("\"sub_id\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"slow\":true"), std::string::npos);
  EXPECT_EQ(recorder.SlowQueriesJsonl(), jsonl);
}

// ---------------------------------------------------------------------------
// Metrics time series.

TEST(MetricsTimeSeriesTest, TickHonoursTheInterval) {
  MetricsRegistry registry;
  MetricsTimeSeries::Options options;
  options.interval_us = 100.0;
  MetricsTimeSeries series(&registry, options);

  series.Tick(0.0);    // first tick always samples
  series.Tick(50.0);   // within the interval: skipped
  series.Tick(100.0);  // samples
  series.Tick(120.0);  // skipped
  series.Tick(250.0);  // samples
  EXPECT_EQ(series.size(), 3u);
}

TEST(MetricsTimeSeriesTest, DeltasAreAgainstThePreviousSample) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test.ts.ops");
  MetricsTimeSeries::Options options;
  options.interval_us = 0.0;
  MetricsTimeSeries series(&registry, options);

  counter.Increment(10);
  series.Sample(100.0);
  counter.Increment(5);
  series.Sample(200.0);

  const std::string jsonl = series.ToJsonl();
  for (const std::string_view line : SplitLines(jsonl)) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
  }
  // First sample deltas from zero; the second from the first.
  EXPECT_NE(jsonl.find("\"value\":10,\"delta\":10"), std::string::npos);
  EXPECT_NE(jsonl.find("\"value\":15,\"delta\":5"), std::string::npos);
}

TEST(MetricsTimeSeriesTest, RetentionCapDropsAndCounts) {
  MetricsRegistry registry;
  MetricsTimeSeries::Options options;
  options.interval_us = 0.0;
  options.max_samples = 2;
  MetricsTimeSeries series(&registry, options);
  for (int i = 0; i < 5; ++i) series.Sample(static_cast<double>(i));
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series.dropped_samples(), 3u);
  series.Clear();
  EXPECT_EQ(series.size(), 0u);
  EXPECT_EQ(series.dropped_samples(), 0u);
}

}  // namespace
}  // namespace kvscale
