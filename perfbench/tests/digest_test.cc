// The simulation digest must be a pure function of the run's outputs: equal
// inputs hash equal, and a change to any one component changes the hash.

#include "digest.h"

#include <gtest/gtest.h>

#include <string>

namespace {

using perfbench::SimulationDigest;
using sprite::CacheCounters;
using sprite::RpcKind;
using sprite::RpcLedger;
using sprite::ServerCounters;
using sprite::TrafficCounters;

struct Outputs {
  std::string trace = std::string("SPRT\x01\x05\x00\x07", 8);
  CacheCounters cache;
  TrafficCounters traffic;
  ServerCounters server;
  RpcLedger ledger;
  uint64_t events = 12345;

  Outputs() {
    cache.read_ops = 100;
    cache.read_misses = 7;
    traffic.file_read_cacheable = 4096;
    server.file_read_bytes = 1024;
    ledger.stat(RpcKind::kReadBlock).calls = 3;
  }
  std::string Digest() const {
    return SimulationDigest(trace, cache, traffic, server, ledger, events);
  }
};

TEST(DigestTest, EqualOutputsHashEqual) {
  EXPECT_EQ(Outputs().Digest(), Outputs().Digest());
  EXPECT_EQ(Outputs().Digest().size(), 16u);
}

TEST(DigestTest, EmptyInputMatchesFnv1aOffsetBasis) {
  perfbench::Digest digest;
  EXPECT_EQ(digest.Hex(), "cbf29ce484222325");
  digest.Bytes("a");
  EXPECT_EQ(digest.Hex(), "af63dc4c8601ec8c");  // published FNV-1a 64 of "a"
}

TEST(DigestTest, EveryComponentChangesTheHash) {
  const std::string base = Outputs().Digest();
  Outputs o;
  o.trace.back() = '\x08';
  EXPECT_NE(o.Digest(), base) << "trace byte";
  o = Outputs();
  o.trace += '\x00';
  EXPECT_NE(o.Digest(), base) << "trace length";
  o = Outputs();
  o.cache.bytes_cancelled_before_writeback = 1;
  EXPECT_NE(o.Digest(), base) << "last cache counter";
  o = Outputs();
  o.traffic.paging_write_backing = 1;
  EXPECT_NE(o.Digest(), base) << "traffic counter";
  o = Outputs();
  o.server.recall_opens = 1;
  EXPECT_NE(o.Digest(), base) << "server counter";
  o = Outputs();
  o.ledger.stat(RpcKind::kMigrateCommit).queue_time = 1;
  EXPECT_NE(o.Digest(), base) << "ledger stat";
  o = Outputs();
  o.ledger.batches = 1;
  EXPECT_NE(o.Digest(), base) << "ledger wire bookkeeping";
  o = Outputs();
  o.events += 1;
  EXPECT_NE(o.Digest(), base) << "event count";
}

TEST(DigestTest, OutputsDigestLeavesOutTheEventCount) {
  const Outputs base;
  Outputs more_events;
  more_events.events += 35;
  auto outputs = [](const Outputs& o) {
    return perfbench::OutputsDigest(o.trace, o.cache, o.traffic, o.server, o.ledger).Hex();
  };
  EXPECT_EQ(outputs(more_events), outputs(base));
  EXPECT_NE(more_events.Digest(), base.Digest());
  Outputs other_trace;
  other_trace.trace.back() = '\x08';
  EXPECT_NE(outputs(other_trace), outputs(base));
}

TEST(DigestTest, SwappedValuesChangeTheHash) {
  Outputs a;
  a.cache.read_ops = 7;
  a.cache.read_misses = 100;
  EXPECT_NE(a.Digest(), Outputs().Digest());
}

}  // namespace
