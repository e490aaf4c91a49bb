// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// substrate: cache operations, span recording, the trace codec, the event
// queue, the distributions, and end-to-end workload generation throughput.

#include <benchmark/benchmark.h>
#include <malloc.h>
#include <sys/resource.h>

#include <sstream>

#include "src/fs/block_cache.h"
#include "src/fs/sharding.h"
#include "src/obs/tracer.h"
#include "src/sim/event_queue.h"
#include "src/trace/codec.h"
#include "src/util/distributions.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"

namespace sprite {
namespace {

void BM_CacheHitLookup(benchmark::State& state) {
  CacheConfig config;
  config.min_blocks = 2048;
  config.max_blocks = 2048;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(2048);
  for (int64_t i = 0; i < 2048; ++i) {
    cache.InsertClean({1, i}, i, nullptr);
  }
  int64_t i = 0;
  SimTime now = 10000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup({1, i & 2047}, ++now));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLookup);

// Ascending blocks of one file through a full cache: every insertion evicts
// the file's lowest resident block (a sequential read of a large file). The
// argument is the cache size in blocks: 1024, a 24-MB client cache and a
// 128-MB server cache. Per-insertion cost must not grow with it.
void BM_CacheMissInsertEvict(benchmark::State& state) {
  const int64_t blocks = state.range(0);
  CacheConfig config;
  config.min_blocks = blocks;
  config.max_blocks = blocks;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(blocks);
  int64_t i = 0;
  for (auto _ : state) {
    cache.InsertClean({1, i}, i, nullptr);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissInsertEvict)->Arg(1024)->Arg(6144)->Arg(32768);

void BM_DirtyWriteAndClean(benchmark::State& state) {
  CacheConfig config;
  config.min_blocks = 4096;
  config.max_blocks = 4096;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(4096);
  SimTime now = 0;
  for (auto _ : state) {
    for (int64_t b = 0; b < 64; ++b) {
      cache.Write({2, b}, now, kBlockSize, nullptr);
    }
    now += 31 * kSecond;
    cache.CleanAged(now, nullptr);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DirtyWriteAndClean);

// The 5-second cleaner over a server-sized dirty population with nothing
// due: 1024 files of 8 dirty blocks, all 29 s old. Per file, the scan is
// one bound check, not one check per dirty block.
void BM_CleanAgedManyDirtyFiles(benchmark::State& state) {
  constexpr int64_t kFiles = 1024;
  constexpr int64_t kBlocksPerFile = 8;
  CacheConfig config;
  config.min_blocks = kFiles * kBlocksPerFile;
  config.max_blocks = kFiles * kBlocksPerFile;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(kFiles * kBlocksPerFile);
  for (int64_t f = 0; f < kFiles; ++f) {
    for (int64_t b = 0; b < kBlocksPerFile; ++b) {
      cache.Write({static_cast<uint64_t>(100'000 + f), b}, 0, kBlockSize, nullptr);
    }
  }
  const SimTime now = config.writeback_delay - kSecond;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.CleanAged(now, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * kFiles);
}
BENCHMARK(BM_CleanAgedManyDirtyFiles);

// Repeat routings through the placement ledger, as Cluster::ServerForFile
// records them: 10,000 files already placed on 16 servers.
void BM_PlacementNote(benchmark::State& state) {
  constexpr uint64_t kFiles = 10'000;
  PlacementLedger ledger(16);
  for (uint64_t f = 0; f < kFiles; ++f) {
    ledger.Note(static_cast<ServerId>(f % 16), 100'000 + f);
  }
  uint64_t f = 0;
  for (auto _ : state) {
    ledger.Note(static_cast<ServerId>(f % 16), 100'000 + f);
    f = f + 1 == kFiles ? 0 : f + 1;
  }
  benchmark::DoNotOptimize(ledger.total_routed());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementNote);

// malloc's in-use bytes, mmapped chunks included.
size_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// One million spans into a fresh tracer, cycling through 0, 2 and 6 args
// (a phase span, a small event, a full RPC parent span). bytes_per_span is
// the heap the tracer holds per emitted span just before it is destroyed:
// its fixed ring spread over the million spans.
void BM_SpanEmit(benchmark::State& state) {
  constexpr int64_t kSpans = 1'000'000;
  double bytes_per_span = 0.0;
  for (auto _ : state) {
    const size_t before = HeapInUseBytes();
    SpanTracer tracer;
    for (int64_t i = 0; i < kSpans; ++i) {
      switch (i % 3) {
        case 0:
          tracer.Emit("wire", "rpc.phase", ClientTrack(i & 63), i, 7);
          break;
        case 1:
          tracer.Emit("server.fetch-block", "server", ServerTrack(i & 15), i, 9,
                      {{"file", i}, {"block", i & 7}});
          break;
        default:
          tracer.Emit("read-block", "rpc", ClientTrack(i & 63), i, 11,
                      {{"server", i & 15},
                       {"bytes", 4096},
                       {"retries", 0},
                       {"timeouts", 0},
                       {"net_us", 6500},
                       {"wait_us", 0}});
          break;
      }
    }
    benchmark::DoNotOptimize(tracer.spans().size());
    bytes_per_span = static_cast<double>(HeapInUseBytes() - before) / kSpans;
  }
  state.counters["bytes_per_span"] = bytes_per_span;
  state.SetItemsProcessed(state.iterations() * kSpans);
}
BENCHMARK(BM_SpanEmit)->Unit(benchmark::kMillisecond);

void BM_TraceEncode(benchmark::State& state) {
  TraceLog log;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    Record r;
    r.kind = static_cast<RecordKind>(i % 11);
    r.time = i * 500;
    r.user = static_cast<uint32_t>(rng.NextBelow(50));
    r.file = rng.NextBelow(100000);
    r.handle = static_cast<uint64_t>(i);
    r.run_read_bytes = static_cast<int64_t>(rng.NextBelow(100000));
    log.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeTrace(log));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(log.size()));
}
BENCHMARK(BM_TraceEncode);

void BM_TraceDecode(benchmark::State& state) {
  TraceLog log;
  for (int i = 0; i < 1000; ++i) {
    Record r;
    r.time = i * 500;
    r.file = static_cast<uint64_t>(i * 7);
    log.push_back(r);
  }
  const std::string bytes = EncodeTrace(log);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeTrace(bytes));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(log.size()));
}
BENCHMARK(BM_TraceDecode);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.Schedule(i * 7 % 997, [] {});
    }
    queue.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(10000, 0.8);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    WorkloadParams params;
    params.num_users = 6;
    params.seed = 7;
    ClusterConfig cluster;
    cluster.num_clients = 6;
    cluster.num_servers = 2;
    Generator generator(params, cluster);
    const TraceLog trace = generator.Run(5 * kMinute);
    benchmark::DoNotOptimize(trace.size());
    state.counters["records"] = static_cast<double>(trace.size());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

// End-to-end cluster scenarios for the same-host perf gate (scenario
// <clients>x<servers>, see tools/bench_trajectory.py): run the full
// synthetic workload — users, caches, RPC transport, cleaner daemons,
// trace collection — at three cluster scales and report dispatched-event
// throughput, simulated time per iteration, and peak RSS. The scenario
// name is <clients>x<servers>; users = clients − 6, matching the
// standard analyze configuration (clients = users + 6).
void BM_SimulateCluster(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int servers = static_cast<int>(state.range(1));
  const SimDuration measured = 10 * kMinute;
  const SimDuration warmup = 2 * kMinute;
  uint64_t events = 0;
  double sim_hours = 0.0;
  for (auto _ : state) {
    WorkloadParams params;
    params.num_users = clients - 6;
    params.seed = 1991;
    ClusterConfig cluster;
    cluster.num_clients = clients;
    cluster.num_servers = servers;
    Generator generator(params, cluster);
    const TraceLog trace = generator.Run(measured, warmup);
    benchmark::DoNotOptimize(trace.size());
    events += generator.queue().dispatched_count();
    sim_hours += static_cast<double>(measured + warmup) / kHour;
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_hours"] =
      benchmark::Counter(sim_hours, benchmark::Counter::kAvgIterations);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is the process-wide high-water mark in KiB: scenarios run in
  // ascending size order, so each reading reflects the largest run so far.
  state.counters["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
}
BENCHMARK(BM_SimulateCluster)
    ->Args({26, 4})
    ->Args({100, 16})
    ->Args({400, 32})
    ->Unit(benchmark::kMillisecond);

// The rebalance ablation scenario (rebalance_<c>x<s> in the perf gate): the
// modulo hot-spot recipe — heavy simulation load on an async transport with
// windowed metrics, the detector, and the rebalancer all armed — so perf
// PRs gate the migration machinery's end-to-end cost, not just the quiet
// default path.
void BM_SimulateRebalance(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int servers = static_cast<int>(state.range(1));
  const SimDuration measured = 10 * kMinute;
  const SimDuration warmup = 2 * kMinute;
  uint64_t events = 0;
  double sim_hours = 0.0;
  for (auto _ : state) {
    WorkloadParams params;
    params.num_users = 2 * clients;
    params.seed = 1991;
    for (auto& group : params.groups) {
      group.task_weights[static_cast<int>(TaskKind::kSimulate)] *= 4.0;
      group.sim_input_bytes *= 2;
    }
    ClusterConfig cluster;
    cluster.num_clients = clients;
    cluster.num_servers = servers;
    cluster.rpc.async = true;
    cluster.observability.metrics = true;
    cluster.observability.hotspot = true;
    cluster.observability.snapshot_interval = kMinute;
    cluster.rebalance.enabled = true;
    Generator generator(params, cluster);
    const TraceLog trace = generator.Run(measured, warmup);
    benchmark::DoNotOptimize(trace.size());
    events += generator.queue().dispatched_count();
    sim_hours += static_cast<double>(measured + warmup) / kHour;
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_hours"] =
      benchmark::Counter(sim_hours, benchmark::Counter::kAvgIterations);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  state.counters["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
}
BENCHMARK(BM_SimulateRebalance)->Args({4, 2})->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sprite

BENCHMARK_MAIN();
