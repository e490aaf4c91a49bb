#include "src/obs/tracer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "tests/obs/span_collector.h"

namespace sprite {
namespace {

TEST(SpanTracerTest, TrackHelpersFollowPidConvention) {
  EXPECT_EQ(ClientTrack(3).pid, kClientPidBase + 3);
  EXPECT_EQ(ServerTrack(1).pid, kServerPidBase + 1);
  EXPECT_EQ(ClientTrack(0).tid, 1);
}

TEST(SpanTracerTest, EmitRecordsSpansInOrder) {
  SpanTracer tracer;
  tracer.Emit("open", "rpc", ClientTrack(0), 100, 50, {{"server", 2}, {"bytes", 128}});
  tracer.Emit("read-block", "rpc", ClientTrack(1), 200, 7000);
  ASSERT_EQ(tracer.spans().size(), 2u);
  const Span s = tracer.spans()[0];
  EXPECT_STREQ(s.name, "open");
  EXPECT_STREQ(s.category, "rpc");
  EXPECT_EQ(s.start, 100);
  EXPECT_EQ(s.duration, 50);
  ASSERT_EQ(s.num_args, 2);
  EXPECT_STREQ(s.args[0].key, "server");
  EXPECT_EQ(s.args[0].value, 2);
  EXPECT_EQ(tracer.spans()[1].num_args, 0);
}

TEST(SpanTracerTest, ExtraArgsBeyondMaxAreDropped) {
  SpanTracer tracer;
  tracer.Emit("x", "c", ClientTrack(0), 0, 0,
              {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}, {"f", 6}, {"g", 7}});
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].num_args, Span::kMaxArgs);
}

TEST(SpanTracerTest, ViewReturnsEachSpanWithItsOwnArgs) {
  SpanTracer tracer;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = i;
    switch (i % 3) {
      case 0:
        tracer.Emit("bare", "a", ClientTrack(i % 7), i, 2 * i);
        break;
      case 1:
        tracer.Emit("pair", "b", ServerTrack(i % 5), i, 3 * i, {{"x", v}, {"y", -v}});
        break;
      default:
        tracer.Emit("full", "a", ClientTrack(1), i, 4 * i,
                    {{"a", v}, {"b", v + 1}, {"c", v + 2}, {"d", v + 3}, {"e", v + 4},
                     {"f", v + 5}});
        break;
    }
  }
  const SpanTracer::SpanView spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1000u);
  size_t i = 0;
  for (const Span& s : spans) {
    EXPECT_TRUE(s == spans[i]) << "span " << i;
    EXPECT_EQ(s.start, static_cast<SimTime>(i));
    switch (i % 3) {
      case 0:
        EXPECT_STREQ(s.name, "bare");
        EXPECT_STREQ(s.category, "a");
        EXPECT_EQ(s.num_args, 0);
        break;
      case 1:
        EXPECT_STREQ(s.category, "b");
        ASSERT_EQ(s.num_args, 2);
        EXPECT_STREQ(s.args[1].key, "y");
        EXPECT_EQ(s.args[1].value, -static_cast<int64_t>(i));
        break;
      default:
        ASSERT_EQ(s.num_args, Span::kMaxArgs);
        EXPECT_STREQ(s.args[5].key, "f");
        EXPECT_EQ(s.args[5].value, static_cast<int64_t>(i) + 5);
        break;
    }
    ++i;
  }
  EXPECT_EQ(i, spans.size());
}

TEST(SpanTracerTest, CategoriesWithEqualContentShareOneEntry) {
  const std::string cat1 = "rpc";
  const std::string cat2 = "rpc";  // distinct storage, equal content
  SpanTracer tracer;
  tracer.Emit("open", cat1.c_str(), ClientTrack(0), 0, 1);
  tracer.Emit("open", "server", ClientTrack(0), 0, 1);
  tracer.Emit("open", cat2.c_str(), ClientTrack(0), 0, 1);
  EXPECT_STREQ(tracer.spans()[0].category, "rpc");
  EXPECT_STREQ(tracer.spans()[1].category, "server");
  EXPECT_STREQ(tracer.spans()[2].category, "rpc");
  EXPECT_TRUE(tracer.spans()[0] == tracer.spans()[2]);
}

TEST(SpanTracerTest, ResetDropsSpansButKeepsTrackNames) {
  SpanTracer tracer;
  tracer.SetProcessName(ClientTrack(0).pid, "client 0");
  tracer.Emit("open", "rpc", ClientTrack(0), 0, 1);
  tracer.Reset();
  EXPECT_TRUE(tracer.spans().empty());
  // Spans recorded after a reset carry their own args, not stale ones.
  tracer.Emit("close", "rpc", ClientTrack(0), 5, 1, {{"bytes", 9}});
  ASSERT_EQ(tracer.spans().size(), 1u);
  ASSERT_EQ(tracer.spans()[0].num_args, 1);
  EXPECT_EQ(tracer.spans()[0].args[0].value, 9);
  tracer.Reset();
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  EXPECT_NE(out.str().find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.str().find("client 0"), std::string::npos);
}

TEST(SpanTracerTest, WritesChromeTraceEventJson) {
  SpanTracer tracer;
  tracer.SetProcessName(ClientTrack(0).pid, "client 0");
  tracer.SetThreadName(ClientTrack(0), "main");
  tracer.Emit("read-block", "rpc", ClientTrack(0), 1500, 6500, {{"bytes", 4096}});
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);  // starts the array
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"X\",\"name\":\"read-block\",\"cat\":\"rpc\",\"pid\":100,"
                      "\"tid\":1,\"ts\":1500,\"dur\":6500,\"args\":{\"bytes\":4096}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(SpanTracerTest, EscapesControlAndQuoteCharactersInNames) {
  SpanTracer tracer;
  tracer.SetProcessName(7, "we\"ird\\name\n");
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("we\\\"ird\\\\name\\n"), std::string::npos);
}

TEST(SpanTracerTest, ExportsMetricsHistoryAsCounterEvents) {
  MetricsRegistry metrics;
  metrics.AddCounter("rpc.calls")->Add(12);
  metrics.AddGauge("sim.queue.pending", [] { return int64_t{3}; });
  metrics.AddLatency("rpc.open.latency_us")->Record(100);
  metrics.RecordSnapshot(60000000);

  SpanTracer tracer;
  std::ostringstream out;
  tracer.WriteChromeTrace(out, &metrics);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"ph\":\"C\",\"name\":\"rpc.calls\",\"pid\":9999,\"tid\":0,"
                      "\"ts\":60000000,\"args\":{\"value\":12}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"sim.queue.pending\""), std::string::npos);
  // Latency samples are distributions, not counter tracks.
  EXPECT_EQ(json.find("\"rpc.open.latency_us\""), std::string::npos);
  // The synthetic metrics process is named.
  EXPECT_NE(json.find("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":9999"),
            std::string::npos);
}

TEST(CounterTrackPidTest, RoutesPrefixedNamesToComponentTracks) {
  EXPECT_EQ(CounterTrackPid("server.0.queue_depth"), kServerPidBase + 0);
  EXPECT_EQ(CounterTrackPid("server.12.bytes_homed"), kServerPidBase + 12);
  EXPECT_EQ(CounterTrackPid("client.3.cache_bytes"), kClientPidBase + 3);
  // Unprefixed and cluster-wide names stay on the synthetic metrics track.
  EXPECT_EQ(CounterTrackPid("rpc.calls"), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("sim.queue.pending"), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("hotspot.episodes"), kMetricsPid);
  // Malformed near-misses must not route: no id, no dot after the id, or a
  // non-numeric id.
  EXPECT_EQ(CounterTrackPid("server."), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("server.7"), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("server.x.queue"), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("servers.0.queue"), kMetricsPid);
}

TEST(CounterTrackPidTest, GaugesExportOnPerServerTracks) {
  MetricsRegistry metrics;
  metrics.AddGauge("server.1.queue_depth", [] { return int64_t{4}; });
  metrics.RecordSnapshot(1000);
  SpanTracer tracer;
  std::ostringstream out;
  tracer.WriteChromeTrace(out, &metrics);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"ph\":\"C\",\"name\":\"server.1.queue_depth\",\"pid\":1001,"),
            std::string::npos);
}

TEST(SpanTracerTest, SpanEqualityComparesContentNotPointers) {
  const std::string name1 = "open";
  const std::string name2 = "open";  // distinct storage, equal content
  SpanTracer a;
  SpanTracer b;
  a.Emit(name1.c_str(), "rpc", ClientTrack(0), 10, 20);
  b.Emit(name2.c_str(), "rpc", ClientTrack(0), 10, 20);
  EXPECT_TRUE(a.spans()[0] == b.spans()[0]);
}

constexpr uint64_t kCap = SpanTracer::kCapacity;

TEST(SpanTracerTest, RingKeepsTheLastCapacitySpansInOrder) {
  SpanTracer tracer;
  for (uint64_t i = 0; i < 4 * kCap; ++i) {
    const int64_t v = static_cast<int64_t>(i);
    tracer.Emit(i % 2 == 0 ? "even" : "odd", "c", ClientTrack(0), v, 1,
                {{"i", v}, {"n", static_cast<int64_t>(i % 7)}});
  }
  EXPECT_EQ(tracer.emitted(), 4 * kCap);
  const SpanTracer::SpanView spans = tracer.spans();
  ASSERT_EQ(spans.size(), kCap);
  uint64_t want = 3 * kCap;
  for (const Span& s : spans) {
    ASSERT_EQ(s.start, static_cast<SimTime>(want));
    ASSERT_STREQ(s.name, want % 2 == 0 ? "even" : "odd");
    ASSERT_EQ(s.num_args, 2);
    ASSERT_EQ(s.args[0].value, static_cast<int64_t>(want));
    ++want;
  }
  EXPECT_EQ(want, 4 * kCap);
  EXPECT_EQ(spans[0].start, static_cast<SimTime>(3 * kCap));
  EXPECT_EQ(spans[kCap - 1].start, static_cast<SimTime>(4 * kCap - 1));
}

TEST(SpanTracerTest, SinkReceivesEverySpanPastTheRing) {
  SpanTracer tracer;
  SpanCollector sink;
  tracer.SetSink(&sink);
  for (uint64_t i = 0; i < 2 * kCap + 5; ++i) {
    tracer.Emit("x", "c", ServerTrack(1), static_cast<SimTime>(i), 0);
  }
  ASSERT_EQ(sink.spans.size(), 2 * kCap + 5);
  for (size_t i = 0; i < sink.spans.size(); ++i) {
    ASSERT_EQ(sink.spans[i].start, static_cast<SimTime>(i));
  }
}

TEST(SpanTracerTest, ResetMidStreamDropsTheRingAndTheSinksSpans) {
  SpanTracer tracer;
  SpanCollector sink;
  tracer.SetSink(&sink);
  for (uint64_t i = 0; i < kCap + 100; ++i) {
    tracer.Emit("warmup", "c", ClientTrack(0), static_cast<SimTime>(i), 0);
  }
  tracer.Reset();
  EXPECT_EQ(tracer.emitted(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(sink.spans.empty());
  for (SimTime t = 0; t < 10; ++t) {
    tracer.Emit("measured", "c", ClientTrack(0), t, 0);
  }
  EXPECT_EQ(tracer.emitted(), 10u);
  ASSERT_EQ(tracer.spans().size(), 10u);
  ASSERT_EQ(sink.spans.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_STREQ(tracer.spans()[i].name, "measured");
    EXPECT_EQ(tracer.spans()[i].start, static_cast<SimTime>(i));
    EXPECT_TRUE(sink.spans[i] == tracer.spans()[i]);
  }
}

// Emits a few spans of every shape, with track names added mid-stream.
void EmitSample(SpanTracer& tracer) {
  tracer.Emit("open", "rpc", ClientTrack(0), 100, 50, {{"server", 2}, {"bytes", 128}});
  tracer.SetProcessName(ServerTrack(3).pid, "server 3");
  tracer.Emit("we\"ird", "rpc", ServerTrack(3), 200, 7000);
  tracer.SetThreadName(ClientTrack(0), "main");
  tracer.Emit("full", "c", ClientTrack(0), 300, 1,
              {{"a", 1}, {"b", -2}, {"c", 3}, {"d", 4}, {"e", 5}, {"f", 6}});
}

TEST(ChromeTraceWriterTest, FinishEqualsWriteChromeTrace) {
  MetricsRegistry metrics;
  metrics.AddCounter("rpc.calls")->Add(3);
  metrics.RecordSnapshot(1000);
  SpanTracer tracer;
  tracer.SetProcessName(ClientTrack(0).pid, "client 0");
  ChromeTraceWriter writer(tracer);
  EmitSample(tracer);
  std::ostringstream streamed;
  writer.Finish(streamed, &metrics);
  std::ostringstream from_ring;
  tracer.WriteChromeTrace(from_ring, &metrics);
  EXPECT_EQ(streamed.str(), from_ring.str());
  EXPECT_NE(streamed.str().find("\"name\":\"server 3\""), std::string::npos);
}

TEST(ChromeTraceWriterTest, FinishEqualsWriteChromeTraceWithoutMetadata) {
  // No track names and no metrics: the first span event opens the array.
  SpanTracer tracer;
  ChromeTraceWriter writer(tracer);
  tracer.Emit("a", "c", ClientTrack(0), 1, 2);
  tracer.Emit("b", "c", ClientTrack(0), 3, 4);
  std::ostringstream streamed;
  writer.Finish(streamed);
  std::ostringstream from_ring;
  tracer.WriteChromeTrace(from_ring);
  EXPECT_EQ(streamed.str(), from_ring.str());
  EXPECT_EQ(streamed.str().rfind("{\"traceEvents\":[\n{\"ph\":\"X\"", 0), 0u);
}

TEST(ChromeTraceWriterTest, EmptyWriterEqualsEmptyExport) {
  SpanTracer tracer;
  ChromeTraceWriter writer(tracer);
  std::ostringstream streamed;
  writer.Finish(streamed);
  std::ostringstream from_ring;
  tracer.WriteChromeTrace(from_ring);
  EXPECT_EQ(streamed.str(), from_ring.str());
}

TEST(ChromeTraceWriterTest, ResetDropsSpansBeforeTheCut) {
  SpanTracer tracer;
  tracer.SetProcessName(ClientTrack(0).pid, "client 0");
  ChromeTraceWriter writer(tracer);
  for (uint64_t i = 0; i < kCap + 1; ++i) {
    tracer.Emit("warmup-span", "c", ClientTrack(0), static_cast<SimTime>(i), 0,
                {{"i", static_cast<int64_t>(i)}});
  }
  tracer.Reset();
  EmitSample(tracer);
  std::ostringstream streamed;
  writer.Finish(streamed);
  EXPECT_EQ(streamed.str().find("warmup-span"), std::string::npos);
  std::ostringstream from_ring;
  tracer.WriteChromeTrace(from_ring);
  EXPECT_EQ(streamed.str(), from_ring.str());
}

TEST(ChromeTraceWriterTest, StreamsEverySpanPastTheRing) {
  SpanTracer tracer;
  ChromeTraceWriter writer(tracer);
  for (uint64_t i = 0; i < 3 * kCap; ++i) {
    tracer.Emit("x", "c", ClientTrack(0), static_cast<SimTime>(i), 1);
  }
  std::ostringstream out;
  writer.Finish(out);
  const std::string json = out.str();
  size_t events = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3 * kCap);
  EXPECT_NE(json.find("\"ts\":0,"), std::string::npos);  // the first span, long evicted
  EXPECT_NE(json.find("\"ts\":" + std::to_string(3 * kCap - 1) + ","), std::string::npos);
}

TEST(ChromeTraceWriterTest, DetachesOnDestruction) {
  SpanTracer tracer;
  {
    ChromeTraceWriter writer(tracer);
    EXPECT_EQ(tracer.sink(), &writer);
  }
  EXPECT_EQ(tracer.sink(), nullptr);
  tracer.Emit("after", "c", ClientTrack(0), 0, 0);  // no sink to reach
  EXPECT_EQ(tracer.emitted(), 1u);
}

}  // namespace
}  // namespace sprite
