// Benchmark driver: runs one named workload of the simulator through its
// public API, times every call it makes with steady_clock, checks the run's
// outputs, and prints one JSON object on stdout.
//
//   perfbench_driver --workload stream|devel|fullstack --seed N
//                    [--obs off] [--minutes M] [--warmup W]
//
// --obs off runs fullstack with observability disabled (the traced run's
// non-perturbation check); --minutes/--warmup shorten a run for tests.
// perfbench/run.py drives this binary, one fresh process per repeat, so a
// process's peak RSS belongs to the one workload it ran.
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the JSON still prints, naming the failed checks), 2 on bad arguments.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "digest.h"
#include "src/analysis/accesses.h"
#include "src/analysis/cache_report.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/patterns.h"
#include "src/consistency/overhead.h"
#include "src/consistency/polling.h"
#include "src/trace/codec.h"
#include "src/workload/generator.h"

namespace {

using namespace sprite;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One workload: the generated inputs plus the operator events the driver
// schedules on the run's event queue.
struct Workload {
  WorkloadParams params;
  ClusterConfig cluster;
  SimDuration duration = 0;
  SimDuration warmup = 0;
  // fullstack only: a replicated server crash (fails over) and an operator
  // drain of another server, at fixed sim times after the warmup.
  bool scheduled_faults = false;
  ServerId crash_server = 3;
  SimDuration crash_after_warmup = 2 * kMinute;
  SimDuration crash_down_for = 30 * kSecond;
  ServerId drain_server = 5;
  SimDuration drain_after_warmup = 4 * kMinute;
};

void ScaleTask(WorkloadParams& params, TaskKind kind, double factor) {
  for (GroupParams& group : params.groups) {
    group.task_weights[static_cast<int>(kind)] *= factor;
  }
}

// Placement stays the default modulo everywhere; every workload is a closed
// loop (each synthetic user waits for its operation before thinking).
bool MakeWorkload(const std::string& name, uint64_t seed, Workload& w) {
  w.params.seed = seed;
  if (name == "stream") {
    // sprite_analyze --heavy: simulate weight x4, inputs x2.
    w.cluster.num_clients = 100;
    w.cluster.num_servers = 16;
    w.params.num_users = 94;
    ScaleTask(w.params, TaskKind::kSimulate, 4.0);
    for (GroupParams& group : w.params.groups) {
      group.sim_input_bytes *= 2;
    }
    w.duration = 10 * kMinute;
    w.warmup = 2 * kMinute;
  } else if (name == "devel") {
    w.cluster.num_clients = 400;
    w.cluster.num_servers = 32;
    w.params.num_users = 394;
    ScaleTask(w.params, TaskKind::kSimulate, 0.0);
    ScaleTask(w.params, TaskKind::kCompile, 4.0);
    ScaleTask(w.params, TaskKind::kEdit, 2.0);
    ScaleTask(w.params, TaskKind::kShareAppend, 2.0);
    w.params.big_build_probability = 0.2;
    w.duration = 10 * kMinute;
    w.warmup = 2 * kMinute;
  } else if (name == "fullstack") {
    w.cluster.num_clients = 100;
    w.cluster.num_servers = 16;
    w.params.num_users = 94;
    w.cluster.rpc.async = true;
    w.cluster.rpc.honest_wire = true;
    w.cluster.rpc.batching = true;
    w.cluster.network.contention = true;
    w.cluster.network.loss_rate = 0.001;
    w.cluster.replication.enabled = true;
    w.cluster.rebalance.enabled = true;
    ObservabilityConfig& obs = w.cluster.observability;
    obs.metrics = true;
    obs.tracing = true;
    obs.critical_path = true;
    obs.hotspot = true;
    obs.snapshot_interval = kMinute;
    // Long enough for the detector and the scheduled events, short enough
    // that every seed's span count stays inside one capacity doubling of
    // the tracer's span vector (2^19..2^20): across that boundary peak RSS
    // jumps by ~70% and would differ between seeds for that reason alone.
    w.duration = 30 * kMinute;
    w.warmup = 5 * kMinute;
    w.scheduled_faults = true;
  } else {
    return false;
  }
  return true;
}

// Peak resident set of this process alone: VmHWM is per address space, so
// it starts fresh at exec and never includes the launching process.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Minimal JSON object writer (keys are identifiers; string values are
// escaped for quotes and backslashes only, which is all the driver emits).
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : -1.0);
    return Raw(key, buffer);
  }
  Json& Int(const std::string& key, int64_t value) { return Raw(key, std::to_string(value)); }
  Json& Bool(const std::string& key, bool value) { return Raw(key, value ? "true" : "false"); }
  Json& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Obj(const std::string& key, const Json& value) { return Raw(key, value.str()); }
  Json& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

Json ManifestJson(const std::string& name, const Workload& w, bool obs_off) {
  const WorkloadParams& p = w.params;
  Json groups;
  for (int g = 0; g < kUserGroupCount; ++g) {
    const GroupParams& gp = p.groups[g];
    std::string weights = "[";
    for (int k = 0; k < kTaskKindCount; ++k) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%s%.6g", k ? "," : "", gp.task_weights[k]);
      weights += buffer;
    }
    groups.Obj(std::to_string(g), Json()
                                      .Raw("task_weights", weights + "]")
                                      .Int("mean_think_us", gp.mean_think)
                                      .Int("mean_session_us", gp.mean_session)
                                      .Int("mean_session_gap_us", gp.mean_session_gap)
                                      .Num("migration_probability", gp.migration_probability)
                                      .Int("sim_input_bytes", gp.sim_input_bytes)
                                      .Int("sim_output_bytes", gp.sim_output_bytes)
                                      .Num("sim_migration_probability",
                                           gp.sim_migration_probability));
  }
  const Json workload = Json()
                            .Int("seed", static_cast<int64_t>(p.seed))
                            .Int("num_users", p.num_users)
                            .Num("occasional_fraction", p.occasional_fraction)
                            .Obj("groups", groups)
                            .Num("small_file_median", p.small_file_median)
                            .Num("small_file_sigma", p.small_file_sigma)
                            .Num("large_file_alpha", p.large_file_alpha)
                            .Int("large_file_min", p.large_file_min)
                            .Int("large_file_max", p.large_file_max)
                            .Num("large_file_probability", p.large_file_probability)
                            .Int("files_per_user", p.files_per_user)
                            .Num("file_popularity_s", p.file_popularity_s)
                            .Int("num_executables", p.num_executables)
                            .Num("cpu_bytes_per_sec", p.cpu_bytes_per_sec)
                            .Int("per_op_overhead_us", p.per_op_overhead)
                            .Int("chunk_bytes", p.chunk_bytes)
                            .Num("faults_per_task_mean", p.faults_per_task_mean)
                            .Int("working_set_pages", p.working_set_pages)
                            .Num("big_build_probability", p.big_build_probability)
                            .Num("object_delete_probability", p.object_delete_probability)
                            .Num("fsync_probability", p.fsync_probability)
                            .Int("num_shared_files", p.num_shared_files);
  const ClusterConfig& c = w.cluster;
  const ObservabilityConfig& o = c.observability;
  const Json cluster =
      Json()
          .Int("num_clients", c.num_clients)
          .Int("num_servers", c.num_servers)
          .Int("consistency", static_cast<int>(c.consistency))
          .Int("client_memory_bytes", c.client.memory_bytes)
          .Int("client_cache_max_blocks", c.client.cache.max_blocks)
          .Int("writeback_delay_us", c.client.cache.writeback_delay)
          .Int("server_memory_bytes", c.server.memory_bytes)
          .Int("disk_layout", static_cast<int>(c.server.disk_layout))
          .Bool("network_contention", c.network.contention)
          .Num("network_loss_rate", c.network.loss_rate)
          .Bool("rpc_async", c.rpc.async)
          .Bool("rpc_honest_wire", c.rpc.honest_wire)
          .Bool("rpc_batching", c.rpc.batching)
          .Int("sharding_policy", static_cast<int>(c.sharding.policy))
          .Bool("replication", c.replication.enabled)
          .Bool("rebalance", c.rebalance.enabled)
          .Bool("obs_metrics", o.metrics)
          .Bool("obs_tracing", o.tracing)
          .Bool("obs_critical_path", o.critical_path)
          .Bool("obs_hotspot", o.hotspot)
          .Int("obs_snapshot_interval_us", o.snapshot_interval);
  Json events;
  if (w.scheduled_faults) {
    events.Int("crash_server", w.crash_server)
        .Int("crash_at_us", w.warmup + w.crash_after_warmup)
        .Int("crash_down_for_us", w.crash_down_for)
        .Int("drain_server", w.drain_server)
        .Int("drain_at_us", w.warmup + w.drain_after_warmup);
  }
  return Json()
      .Str("workload", name)
      .Bool("obs_off", obs_off)
      .Int("duration_us", w.duration)
      .Int("warmup_us", w.warmup)
      .Obj("workload_params", workload)
      .Obj("cluster_config", cluster)
      .Obj("scheduled_events", events)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("cpu_model", CpuModel());
}

// Ledger conservation: the by-kind, by-client and by-server breakdowns must
// each sum to the same calls and payload bytes.
bool LedgerConserved(const RpcLedger& ledger) {
  int64_t client_calls = 0;
  int64_t client_bytes = 0;
  for (const auto& [id, stat] : ledger.by_client) {
    client_calls += stat.calls;
    client_bytes += stat.payload_bytes;
  }
  int64_t server_calls = 0;
  int64_t server_bytes = 0;
  for (const auto& [id, stat] : ledger.by_server) {
    server_calls += stat.calls;
    server_bytes += stat.payload_bytes;
  }
  return ledger.TotalCalls() == client_calls && ledger.TotalCalls() == server_calls &&
         ledger.TotalPayloadBytes() == client_bytes && ledger.TotalPayloadBytes() == server_bytes;
}

int Run(const std::string& name, uint64_t seed, bool obs_off, int minutes, int warmup_minutes) {
  Workload w;
  if (!MakeWorkload(name, seed, w)) {
    std::fprintf(stderr, "unknown workload '%s' (stream, devel, fullstack)\n", name.c_str());
    return 2;
  }
  if (minutes > 0) w.duration = minutes * kMinute;
  if (warmup_minutes >= 0) w.warmup = warmup_minutes * kMinute;
  if (obs_off) w.cluster.observability = ObservabilityConfig{};

  Clock::time_point start = Clock::now();
  Generator generator(w.params, w.cluster);
  const double setup_s = SecondsSince(start);

  Cluster& cluster = generator.cluster();
  if (w.scheduled_faults) {
    generator.queue().Schedule(w.warmup + w.crash_after_warmup, [&cluster, &w] {
      cluster.CrashServer(w.crash_server, w.crash_down_for);
    });
    generator.queue().Schedule(w.warmup + w.drain_after_warmup, [&generator, &w] {
      generator.cluster().MigrateOffServer(w.drain_server, generator.queue().now());
    });
  }

  // The timed span: simulate, round-trip the trace through the codec, then
  // compute the paper's tables from it.
  start = Clock::now();
  const TraceLog trace = generator.Run(w.duration, w.warmup);
  const double run_s = SecondsSince(start);

  start = Clock::now();
  const std::string encoded = EncodeTrace(trace);
  const TraceLog decoded = DecodeTrace(encoded);
  const double codec_s = SecondsSince(start);

  start = Clock::now();
  const std::vector<Access> accesses = ExtractAccesses(decoded);
  const AccessPatternStats patterns = ComputeAccessPatterns(accesses);
  const RunLengthCurves runs = ComputeRunLengths(accesses);
  const FileSizeCurves sizes = ComputeFileSizes(accesses);
  const WeightedSamples opens = ComputeOpenDurations(accesses);
  const LifetimeCurves lifetimes = ComputeLifetimes(decoded);
  const double analysis_s = SecondsSince(start);

  start = Clock::now();
  int64_t consistency_events = 0;
  for (const SimDuration refresh : {60 * kSecond, 3 * kSecond}) {
    consistency_events += SimulatePolling(decoded, refresh).file_opens;
  }
  for (const ConsistencyPolicy policy : {ConsistencyPolicy::kSprite,
                                         ConsistencyPolicy::kSpriteModified,
                                         ConsistencyPolicy::kToken}) {
    consistency_events += SimulateConsistencyOverhead(decoded, policy).events_requested;
  }
  const double consistency_s = SecondsSince(start);
  const double timed_s = run_s + codec_s + analysis_s + consistency_s;

  const CacheCounters cache = cluster.AggregateCacheCounters();
  const TrafficCounters traffic = cluster.AggregateTrafficCounters();
  const ServerCounters server = cluster.AggregateServerCounters();
  const RpcLedger& ledger = cluster.rpc_ledger();
  const uint64_t events = generator.queue().dispatched_count();
  RpcStat rpc;
  for (const RpcStat& stat : ledger.by_kind) {
    rpc.calls += stat.calls;
    rpc.payload_bytes += stat.payload_bytes;
    rpc.net_time += stat.net_time;
    rpc.wait_time += stat.wait_time;
    rpc.queue_time += stat.queue_time;
    rpc.service_time += stat.service_time;
    rpc.retries += stat.retries;
    rpc.timeouts += stat.timeouts;
  }
  const Rebalancer* rebalancer = cluster.rebalancer();
  const int64_t migrations = rebalancer ? rebalancer->migrations() : 0;
  const Observability* obs = cluster.observability();

  const double sim_hours = static_cast<double>(w.duration + w.warmup) / kHour;
  const double read_miss_ratio =
      cache.read_ops > 0 ? static_cast<double>(cache.read_misses) / cache.read_ops : 0.0;
  const double server_traffic_ratio = ComputeFilterRatio(traffic, server);
  const double rpc_ms_per_call =
      rpc.calls > 0 ? ToSeconds(rpc.net_time + rpc.wait_time + rpc.queue_time + rpc.service_time) *
                          1000.0 / static_cast<double>(rpc.calls)
                    : 0.0;

  std::vector<std::string> failed;
  if (!LedgerConserved(ledger)) failed.push_back("ledger_conservation");
  if (decoded != trace) failed.push_back("codec_roundtrip");
  if (trace.empty() || accesses.empty() || patterns.total_accesses <= 0 ||
      consistency_events <= 0 || !(read_miss_ratio > 0) || !(server_traffic_ratio > 0) ||
      !(rpc_ms_per_call > 0)) {
    failed.push_back("nonempty_outputs");
  }
  if (w.scheduled_faults && (cluster.failovers() != 1 || migrations <= 0)) {
    failed.push_back("scheduled_events_ran");
  }
  std::string failed_list = "[";
  for (size_t i = 0; i < failed.size(); ++i) {
    failed_list += (i ? ",\"" : "\"") + failed[i] + "\"";
  }
  failed_list += "]";

  Json counts;
  counts.Int("sim.events", static_cast<int64_t>(events))
      .Int("sim.max_pending", static_cast<int64_t>(generator.queue().max_pending_count()))
      .Num("sim.events_per_host_s", static_cast<double>(events) / run_s)
      .Int("cache.read_ops", cache.read_ops)
      .Int("cache.read_misses", cache.read_misses)
      .Int("cache.write_ops", cache.write_ops)
      .Int("cache.evictions", cache.replaced_for_file + cache.replaced_for_vm)
      .Int("cache.cleanings", cache.cleaned[0] + cache.cleaned[1] + cache.cleaned[2] +
                                  cache.cleaned[3] + cache.cleaned[4])
      .Int("cache.cancelled_bytes", cache.bytes_cancelled_before_writeback)
      .Int("rpc.calls", rpc.calls)
      .Int("rpc.payload_bytes", rpc.payload_bytes)
      .Int("rpc.batches", ledger.batches)
      .Int("rpc.batched_ops", ledger.batched_ops)
      .Int("rpc.charged_control_ops", ledger.charged_control_ops)
      .Int("rpc.retries", rpc.retries)
      .Int("rpc.timeouts", rpc.timeouts)
      .Num("rpc.net_s", ToSeconds(rpc.net_time))
      .Num("rpc.wait_s", ToSeconds(rpc.wait_time))
      .Num("rpc.queue_s", ToSeconds(rpc.queue_time))
      .Num("rpc.service_s", ToSeconds(rpc.service_time))
      .Num("net.busy_s", ToSeconds(cluster.network().busy_time()))
      .Num("net.queued_s", ToSeconds(cluster.network().queued_time()))
      .Int("net.retransmits", cluster.network().retransmits())
      .Int("server.file_opens", server.file_opens)
      .Int("server.bytes", server.TotalBytes())
      .Int("server.failovers", cluster.failovers())
      .Int("server.failover_preserved_bytes", cluster.failover_preserved_bytes())
      .Int("placement.routings", cluster.placement().total_routed())
      .Int("rebalance.migrations", migrations)
      .Int("rebalance.moved_bytes", rebalancer ? rebalancer->moved_bytes() : 0)
      .Int("obs.spans", obs ? static_cast<int64_t>(obs->tracer().spans().size()) : 0)
      .Int("obs.windows", obs ? obs->series().windows_captured() : 0)
      .Int("trace.records", static_cast<int64_t>(trace.size()))
      .Int("trace.encoded_bytes", static_cast<int64_t>(encoded.size()))
      .Num("trace.codec_ms", codec_s * 1000.0)
      .Num("analysis.ms", analysis_s * 1000.0)
      .Num("consistency.ms", consistency_s * 1000.0);

  // Keep the analysis results observably used so none is optimised away.
  const double analysis_witness = runs.by_runs.FractionAtOrBelow(10 * kKilobyte) +
                                  sizes.by_accesses.FractionAtOrBelow(kKilobyte) +
                                  opens.FractionAtOrBelow(0.25) +
                                  lifetimes.by_files.FractionAtOrBelow(30);

  const Json result =
      Json()
          .Str("workload", name)
          .Int("seed", static_cast<int64_t>(seed))
          .Str("digest", perfbench::SimulationDigest(encoded, cache, traffic, server, ledger,
                                                     events))
          .Str("outputs_digest",
               perfbench::OutputsDigest(encoded, cache, traffic, server, ledger).Hex())
          .Raw("failed_checks", failed_list)
          .Num("setup_s", setup_s)
          .Num("run_s", run_s)
          .Num("codec_s", codec_s)
          .Num("analysis_s", analysis_s)
          .Num("consistency_s", consistency_s)
          .Num("timed_s", timed_s)
          .Num("sim_hours", sim_hours)
          .Num("host_ms_per_sim_hour", timed_s * 1000.0 / sim_hours)
          .Num("peak_rss_mb", PeakRssMb())
          .Num("sim_read_miss_ratio", read_miss_ratio)
          .Num("sim_server_traffic_ratio", server_traffic_ratio)
          .Num("sim_rpc_ms_per_call", rpc_ms_per_call)
          .Int("raw_client_bytes", traffic.TotalBytes())
          .Num("analysis_witness", analysis_witness)
          .Obj("counts", counts)
          .Obj("manifest", ManifestJson(name, w, obs_off));
  std::printf("%s\n", result.str().c_str());
  return failed.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  bool obs_off = false;
  int minutes = 0;
  int warmup = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--obs" && has_value && std::strcmp(argv[i + 1], "off") == 0) {
      obs_off = true;
      ++i;
    } else if (arg == "--minutes" && has_value) {
      minutes = std::atoi(argv[++i]);
    } else if (arg == "--warmup" && has_value) {
      warmup = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (workload.empty() || !have_seed || minutes < 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N [--obs off] "
                 "[--minutes M] [--warmup W]\n");
    return 2;
  }
  try {
    return Run(workload, seed, obs_off, minutes, warmup);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 3;
  }
}
