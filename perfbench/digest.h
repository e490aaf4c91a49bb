// Simulation digest: one 64-bit FNV-1a hash over everything a simulated run
// produces — the encoded trace, the aggregated kernel counters, the RPC
// ledger and the dispatched-event count. Two runs of one workload and seed
// must produce the same digest; a change meant only to speed the simulator
// up must leave it unchanged.

#ifndef SPRITE_DFS_PERFBENCH_DIGEST_H_
#define SPRITE_DFS_PERFBENCH_DIGEST_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/fs/counters.h"

namespace perfbench {

class Digest {
 public:
  void Bytes(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ = (hash_ ^ static_cast<uint8_t>(c)) * kPrime;
    }
  }
  void Int(int64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i))) * kPrime;
    }
  }
  // A counter struct's bytes; it must have no padding, whose bytes would be
  // indeterminate.
  template <typename Counters>
  void Fields(const Counters& counters) {
    static_assert(std::has_unique_object_representations_v<Counters>);
    Bytes(std::string_view(reinterpret_cast<const char*>(&counters), sizeof(Counters)));
  }

  std::string Hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  static constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// What the simulated system produced: the encoded trace, the aggregated
// counters and the RPC ledger. Observability must not change it.
inline Digest OutputsDigest(std::string_view encoded_trace, const sprite::CacheCounters& cache,
                            const sprite::TrafficCounters& traffic,
                            const sprite::ServerCounters& server, const sprite::RpcLedger& ledger) {
  Digest digest;
  digest.Int(static_cast<int64_t>(encoded_trace.size()));
  digest.Bytes(encoded_trace);
  digest.Fields(cache);
  digest.Fields(traffic);
  digest.Fields(server);
  for (const sprite::RpcStat& stat : ledger.by_kind) {
    digest.Fields(stat);
  }
  digest.Int(ledger.piggybacked_ops);
  digest.Int(ledger.charged_control_ops);
  digest.Int(ledger.batched_ops);
  digest.Int(ledger.batches);
  return digest;
}

// The outputs plus the dispatched-event count, which also covers the
// observer's own events (one per metrics snapshot).
inline std::string SimulationDigest(std::string_view encoded_trace,
                                    const sprite::CacheCounters& cache,
                                    const sprite::TrafficCounters& traffic,
                                    const sprite::ServerCounters& server,
                                    const sprite::RpcLedger& ledger, uint64_t dispatched_events) {
  Digest digest = OutputsDigest(encoded_trace, cache, traffic, server, ledger);
  digest.Int(static_cast<int64_t>(dispatched_events));
  return digest.Hex();
}

}  // namespace perfbench

#endif  // SPRITE_DFS_PERFBENCH_DIGEST_H_
