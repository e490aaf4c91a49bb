#include "src/fs/block_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/util/rng.h"

namespace sprite {
namespace {

// An owning writeback for the tests to keep; the cache only borrows it.
using WritebackFn = std::function<void(BlockKey key, int64_t bytes)>;

CacheConfig SmallConfig(int64_t max_blocks = 4, int64_t min_blocks = 1) {
  CacheConfig c;
  c.max_blocks = max_blocks;
  c.min_blocks = min_blocks;
  return c;
}

class BlockCacheTest : public ::testing::Test {
 protected:
  CacheCounters counters_;
  std::vector<std::pair<BlockKey, int64_t>> writebacks_;

  WritebackFn Sink() {
    return [this](BlockKey key, int64_t bytes) { writebacks_.emplace_back(key, bytes); };
  }
};

TEST_F(BlockCacheTest, StartsAtMinLimit) {
  BlockCache cache(SmallConfig(100, 7), &counters_);
  EXPECT_EQ(cache.limit_blocks(), 7);
  EXPECT_EQ(cache.block_count(), 0);
}

TEST_F(BlockCacheTest, LookupMissThenHit) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  const BlockKey key{1, 0};
  EXPECT_FALSE(cache.Lookup(key, 10));
  cache.InsertClean(key, 10, Sink());
  EXPECT_TRUE(cache.Lookup(key, 20));
  EXPECT_TRUE(cache.Contains(key));
}

TEST_F(BlockCacheTest, LruEvictionOrder) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(2);
  cache.InsertClean({1, 0}, 1, Sink());
  cache.InsertClean({1, 1}, 2, Sink());
  // Touch block 0 so block 1 becomes LRU.
  EXPECT_TRUE(cache.Lookup({1, 0}, 3));
  cache.InsertClean({1, 2}, 4, Sink());
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
  EXPECT_TRUE(cache.Contains({1, 2}));
  EXPECT_EQ(counters_.replaced_for_file, 1);
}

TEST_F(BlockCacheTest, ReplacementAgeRecorded) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(1);
  cache.InsertClean({1, 0}, 100, Sink());
  cache.InsertClean({1, 1}, 100 + kMinute, Sink());
  EXPECT_EQ(counters_.replaced_for_file, 1);
  EXPECT_EQ(counters_.replaced_for_file_age_us, kMinute);
}

TEST_F(BlockCacheTest, WriteMarksDirtyAndTracksExtent) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  const BlockKey key{1, 0};
  cache.Write(key, 10, 100, Sink());
  EXPECT_TRUE(cache.IsDirty(key));
  cache.Write(key, 20, 50, Sink());  // extent must not shrink
  cache.CleanFile(1, 30, CleanReason::kFsync, Sink());
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0].second, 100);
}

TEST_F(BlockCacheTest, ExtentClampedToBlockSize) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  cache.Write({1, 0}, 10, 2 * kBlockSize, Sink());
  EXPECT_EQ(cache.DirtyBytes(1), kBlockSize);  // a whole block fits the 16-bit extent
  cache.CleanFile(1, 30, CleanReason::kFsync, Sink());
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0].second, kBlockSize);
}

TEST_F(BlockCacheTest, WriteReturnsResidency) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  EXPECT_FALSE(cache.Write({1, 0}, 10, 10, Sink()));
  EXPECT_TRUE(cache.Write({1, 0}, 11, 20, Sink()));
}

TEST_F(BlockCacheTest, CleanAgedRespectsDelay) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 100, Sink());
  // At 29 s the block is not yet due.
  EXPECT_EQ(cache.CleanAged(29 * kSecond, Sink()), 0);
  EXPECT_TRUE(cache.IsDirty({1, 0}));
  // At 30 s it is.
  EXPECT_EQ(cache.CleanAged(30 * kSecond, Sink()), 1);
  EXPECT_FALSE(cache.IsDirty({1, 0}));
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kDelay)], 1);
  EXPECT_EQ(counters_.cleaned_age_us[static_cast<int>(CleanReason::kDelay)], 30 * kSecond);
}

TEST_F(BlockCacheTest, CleanAgedFlushesWholeFile) {
  // "All dirty blocks for a file are written to the server if any block in
  // the file has been dirty for 30 seconds."
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.Write({1, 1}, 25 * kSecond, 100, Sink());  // only 5 s dirty at the scan
  cache.Write({2, 0}, 25 * kSecond, 100, Sink());  // different file, not due
  EXPECT_EQ(cache.CleanAged(30 * kSecond, Sink()), 2);
  EXPECT_FALSE(cache.IsDirty({1, 1}));
  EXPECT_TRUE(cache.IsDirty({2, 0}));
}

TEST_F(BlockCacheTest, CleanAgedAfterOldestDirtyBlockLeaves) {
  // The file's oldest dirty block is evicted, so the cleaner's per-file
  // bound on dirty times is stale (too low) until a scan tightens it.
  BlockCache cache(SmallConfig(8, 1), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.Write({1, 1}, 20 * kSecond, 100, Sink());
  cache.DemoteToLruTail({1, 0});
  ASSERT_TRUE(cache.ReleaseLruToVm(21 * kSecond, Sink()));
  EXPECT_EQ(cache.CleanAged(35 * kSecond, Sink()), 0) << "block 1 is only 15 s dirty";
  EXPECT_EQ(cache.CleanAged(49 * kSecond, Sink()), 0);
  EXPECT_EQ(cache.CleanAged(50 * kSecond, Sink()), 1);
  EXPECT_FALSE(cache.HasDirtyBlocks(1));
}

TEST_F(BlockCacheTest, CleanAgedSeesEarlierStampedWrites) {
  // Async server caches take writes stamped with their issue time, so a
  // later write may carry an earlier `now` than the file's first one.
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 100 * kSecond, 100, Sink());
  cache.Write({1, 1}, 80 * kSecond, 100, Sink());
  EXPECT_EQ(cache.CleanAged(109 * kSecond, Sink()), 0);
  EXPECT_EQ(cache.CleanAged(110 * kSecond, Sink()), 2) << "block 1 is 30 s dirty";
}

TEST_F(BlockCacheTest, CleanFileReasonAttribution) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.CleanFile(1, 5 * kSecond, CleanReason::kRecall, Sink());
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kRecall)], 1);
  EXPECT_EQ(counters_.cleaned_age_us[static_cast<int>(CleanReason::kRecall)], 5 * kSecond);
  EXPECT_EQ(cache.CleanFile(1, 6 * kSecond, CleanReason::kRecall, Sink()), 0)
      << "second clean should find nothing dirty";
}

TEST_F(BlockCacheTest, HasDirtyBlocks) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  EXPECT_FALSE(cache.HasDirtyBlocks(1));
  cache.InsertClean({1, 0}, 0, Sink());
  EXPECT_FALSE(cache.HasDirtyBlocks(1));
  cache.Write({1, 1}, 0, 10, Sink());
  EXPECT_TRUE(cache.HasDirtyBlocks(1));
}

TEST_F(BlockCacheTest, InvalidateDropsBlocksAndCountsCancelledBytes) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 300, Sink());
  cache.InsertClean({1, 1}, 0, Sink());
  cache.InvalidateFile(1, 1);
  EXPECT_FALSE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
  EXPECT_EQ(counters_.bytes_cancelled_before_writeback, 300);
  EXPECT_TRUE(writebacks_.empty()) << "invalidated dirty data must not reach the server";
}

TEST_F(BlockCacheTest, DirtyEvictionWritesBackFirst) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(1);
  cache.Write({1, 0}, 0, 200, Sink());
  cache.InsertClean({2, 0}, 1, Sink());
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0].first, (BlockKey{1, 0}));
  EXPECT_EQ(writebacks_[0].second, 200);
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kReplacement)], 1);
}

TEST_F(BlockCacheTest, ReleaseLruToVmShrinksLimit) {
  BlockCache cache(SmallConfig(8, 1), &counters_);
  cache.set_limit_blocks(4);
  cache.InsertClean({1, 0}, 0, Sink());
  cache.InsertClean({1, 1}, 1, Sink());
  EXPECT_TRUE(cache.ReleaseLruToVm(2, Sink()));
  EXPECT_EQ(cache.limit_blocks(), 3);
  EXPECT_FALSE(cache.Contains({1, 0}));
  EXPECT_EQ(counters_.replaced_for_vm, 1);
}

TEST_F(BlockCacheTest, ReleaseLruToVmStopsAtMinimum) {
  BlockCache cache(SmallConfig(8, 2), &counters_);
  cache.set_limit_blocks(2);
  cache.InsertClean({1, 0}, 0, Sink());
  EXPECT_FALSE(cache.ReleaseLruToVm(1, Sink()));
  EXPECT_TRUE(cache.Contains({1, 0}));
}

TEST_F(BlockCacheTest, ReleaseLruToVmCleansDirtyVictim) {
  BlockCache cache(SmallConfig(8, 1), &counters_);
  cache.set_limit_blocks(4);
  cache.Write({1, 0}, 0, 64, Sink());
  EXPECT_TRUE(cache.ReleaseLruToVm(1, Sink()));
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kVm)], 1);
}

TEST_F(BlockCacheTest, GrantPageFromVmGrowsLimit) {
  BlockCache cache(SmallConfig(8, 1), &counters_);
  cache.set_limit_blocks(2);
  cache.GrantPageFromVm();
  EXPECT_EQ(cache.limit_blocks(), 3);
}

TEST_F(BlockCacheTest, SyncVersionFlushesStaleBlocks) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  EXPECT_FALSE(cache.SyncVersion(1, 5, 0)) << "first contact is never stale";
  cache.InsertClean({1, 0}, 0, Sink());
  EXPECT_FALSE(cache.SyncVersion(1, 5, 1)) << "same version keeps blocks";
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_TRUE(cache.SyncVersion(1, 6, 2)) << "newer version flushes";
  EXPECT_FALSE(cache.Contains({1, 0}));
}

TEST_F(BlockCacheTest, SyncVersionNoBlocksNoFlush) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.SyncVersion(1, 5, 0);
  EXPECT_FALSE(cache.SyncVersion(1, 7, 1)) << "no resident blocks -> nothing flushed";
}

TEST_F(BlockCacheTest, DemoteToLruTailEvictedFirst) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(2);
  cache.InsertClean({1, 0}, 0, Sink());
  cache.InsertClean({1, 1}, 1, Sink());
  // Block 1 is MRU; demote it so it becomes the replacement victim.
  cache.DemoteToLruTail({1, 1});
  cache.InsertClean({1, 2}, 2, Sink());
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
}

TEST_F(BlockCacheTest, NullCountersSafe) {
  BlockCache cache(SmallConfig(), nullptr);
  cache.set_limit_blocks(1);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.InsertClean({2, 0}, 1, Sink());  // forces dirty eviction
  cache.InvalidateFile(2, 2);
  EXPECT_EQ(cache.block_count(), 0);
}

TEST_F(BlockCacheTest, WritebackBytesCounted) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 1000, Sink());
  cache.Write({1, 1}, 0, kBlockSize, Sink());
  cache.CleanAged(30 * kSecond, Sink());
  EXPECT_EQ(counters_.bytes_written_to_server, 1000 + kBlockSize);
}

TEST_F(BlockCacheTest, SequentialScanEvictsInAscendingOrder) {
  // A 3072-block file read through a 1024-block cache: every insertion past
  // the first 1024 evicts the file's lowest resident block, the pattern that
  // sequential reads of large files produce at the LRU tail.
  constexpr int64_t kCacheBlocks = 1024;
  constexpr int64_t kFileBlocks = 3072;
  BlockCache cache(SmallConfig(kCacheBlocks, kCacheBlocks), &counters_);
  for (int64_t b = 0; b < kFileBlocks; ++b) {
    cache.Write({7, b}, b, kBlockSize, Sink());
  }
  constexpr int64_t kVictims = kFileBlocks - kCacheBlocks;
  ASSERT_EQ(writebacks_.size(), static_cast<size_t>(kVictims));
  for (int64_t b = 0; b < kVictims; ++b) {
    ASSERT_EQ(writebacks_[b].first, (BlockKey{7, b})) << "victim " << b;
    ASSERT_EQ(writebacks_[b].second, kBlockSize);
  }
  EXPECT_EQ(counters_.replaced_for_file, kVictims);
  EXPECT_EQ(counters_.replaced_for_file_age_us, kVictims * kCacheBlocks);
  EXPECT_EQ(counters_.replaced_for_vm, 0);
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kReplacement)], kVictims);
  EXPECT_EQ(counters_.cleaned_age_us[static_cast<int>(CleanReason::kReplacement)],
            kVictims * kCacheBlocks);
  EXPECT_EQ(counters_.bytes_written_to_server, kVictims * kBlockSize);
  EXPECT_EQ(cache.block_count(), kCacheBlocks);
  EXPECT_EQ(cache.LruAge(kFileBlocks), kCacheBlocks);
  EXPECT_EQ(cache.DirtyBytes(7), kCacheBlocks * kBlockSize);
  EXPECT_FALSE(cache.Contains({7, kVictims - 1}));
  EXPECT_TRUE(cache.Contains({7, kVictims}));
  EXPECT_TRUE(cache.Contains({7, kFileBlocks - 1}));
}

// An entry keeps its block index in 32 bits.
constexpr int64_t kTopIndex = (int64_t{1} << 31) - 1;

TEST_F(BlockCacheTest, IndexJustBelow2To31RoundTrips) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  cache.Write({3, kTopIndex}, 10, 700, Sink());
  cache.Write({3, kTopIndex - 1}, 10, 300, Sink());
  std::vector<std::pair<int64_t, int64_t>> seen;
  cache.ForEachDirtyBlock(3, [&](int64_t block, int64_t extent) {
    seen.emplace_back(block, extent);
  });
  EXPECT_EQ(seen, (std::vector<std::pair<int64_t, int64_t>>{{kTopIndex - 1, 300},
                                                             {kTopIndex, 700}}));
  EXPECT_EQ(cache.CleanFile(3, 20, CleanReason::kFsync, Sink()), 1000);
  ASSERT_EQ(writebacks_.size(), 2u);
  EXPECT_EQ(writebacks_[0].first, (BlockKey{3, kTopIndex - 1}));
  EXPECT_EQ(writebacks_[1].first, (BlockKey{3, kTopIndex}));
  EXPECT_TRUE(cache.Lookup({3, kTopIndex}, 30));
}

TEST_F(BlockCacheTest, IndexAt2To31ThrowsAndLeavesCacheUnchanged) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(2);
  cache.Write({1, 0}, 10, 100, Sink());
  cache.InsertClean({1, 1}, 20, Sink());  // at the limit: an insert would evict
  const BlockKey wide{2, kTopIndex + 1};
  EXPECT_THROW(cache.InsertClean(wide, 30, Sink()), std::out_of_range);
  EXPECT_THROW(cache.InsertPrefetched(wide, 30, Sink()), std::out_of_range);
  EXPECT_THROW(cache.Write(wide, 30, 100, Sink()), std::out_of_range);
  EXPECT_THROW(cache.Write({1, -kTopIndex - 2}, 30, 100, Sink()), std::out_of_range);
  EXPECT_FALSE(cache.Lookup(wide, 30));
  EXPECT_FALSE(cache.Contains(wide));
  EXPECT_TRUE(writebacks_.empty());
  EXPECT_EQ(counters_.replaced_for_file, 0);
  EXPECT_EQ(counters_.prefetch_fetches, 0);
  EXPECT_EQ(cache.block_count(), 2);
  EXPECT_EQ(cache.LruAge(30), 20) << "the LRU block is still {1, 0}, referenced at 10";
  EXPECT_TRUE(cache.IsDirty({1, 0}));
  EXPECT_EQ(cache.DirtyFiles(), std::vector<uint64_t>{1});
  EXPECT_FALSE(cache.HasDirtyBlocks(2));
  EXPECT_EQ(cache.CachedVersion(2), 0u);
  // The cache still works: the next insert evicts the real LRU block.
  cache.InsertClean({1, 2}, 40, Sink());
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0], (std::pair<BlockKey, int64_t>{{1, 0}, 100}));
}

// --- Differential test against a reference model ----------------------------

struct KeyLess {
  bool operator()(const BlockKey& a, const BlockKey& b) const {
    return std::tie(a.file, a.index) < std::tie(b.file, b.index);
  }
};

using WritebackLog = std::vector<std::pair<BlockKey, int64_t>>;

// A deliberately naive cache restated from the header's contract: a
// std::list LRU (front = most recent) plus an ordered map of blocks, so
// "ascending block order" and "ascending file order" are just map order.
class ModelCache {
 public:
  explicit ModelCache(const CacheConfig& config) : config_(config), limit_(config.min_blocks) {}

  CacheCounters counters;
  WritebackLog writebacks;

  int64_t block_count() const { return static_cast<int64_t>(blocks_.size()); }
  int64_t limit_blocks() const { return limit_; }
  void set_limit_blocks(int64_t blocks) { limit_ = blocks; }
  void GrantPageFromVm() { ++limit_; }
  bool Contains(BlockKey key) const { return blocks_.count(key) != 0; }
  bool IsDirty(BlockKey key) const {
    auto it = blocks_.find(key);
    return it != blocks_.end() && it->second.dirty;
  }

  bool Lookup(BlockKey key, SimTime now) {
    auto it = blocks_.find(key);
    if (it == blocks_.end()) {
      return false;
    }
    if (it->second.prefetched) {
      it->second.prefetched = false;
      ++counters.prefetch_useful;
    }
    Touch(key, now);
    return true;
  }

  void InsertClean(BlockKey key, SimTime now) {
    if (Contains(key)) {
      Touch(key, now);
      return;
    }
    while (block_count() >= limit_ && !lru_.empty()) {
      Evict(now, CleanReason::kReplacement, /*for_vm=*/false);
    }
    lru_.push_front(key);
    blocks_[key] = Block{now, false, false, 0, 0, lru_.begin()};
  }

  void InsertPrefetched(BlockKey key, SimTime now) {
    const bool was_resident = Contains(key);
    InsertClean(key, now);
    if (!was_resident) {
      blocks_[key].prefetched = true;
      ++counters.prefetch_fetches;
    }
  }

  bool Write(BlockKey key, SimTime now, int64_t end_in_block) {
    const bool was_resident = Contains(key);
    InsertClean(key, now);
    Block& b = blocks_[key];
    if (!b.dirty) {
      b.dirty = true;
      b.dirty_since = now;
      b.extent = 0;
    }
    b.extent = std::clamp<int64_t>(end_in_block, b.extent, kBlockSize);
    return was_resident;
  }

  int64_t CleanAged(SimTime now) {
    std::vector<uint64_t> due;
    for (uint64_t file : DirtyFiles()) {
      for (auto it = Begin(file); it != End(file); ++it) {
        if (it->second.dirty && now - it->second.dirty_since >= config_.writeback_delay) {
          due.push_back(file);
          break;
        }
      }
    }
    int64_t cleaned = 0;
    for (uint64_t file : due) {
      for (auto it = Begin(file); it != End(file); ++it) {
        if (it->second.dirty) {
          Clean(*it, now, CleanReason::kDelay);
          ++cleaned;
        }
      }
    }
    return cleaned;
  }

  int64_t CleanFile(uint64_t file, SimTime now, CleanReason reason) {
    int64_t bytes = 0;
    for (auto it = Begin(file); it != End(file); ++it) {
      if (it->second.dirty) {
        bytes += it->second.extent;
        Clean(*it, now, reason);
      }
    }
    return bytes;
  }

  int64_t DirtyBytes(uint64_t file) const {
    int64_t bytes = 0;
    for (const auto& [block, extent] : DirtyBlocks(file)) {
      bytes += extent;
    }
    return bytes;
  }

  std::vector<std::pair<int64_t, int64_t>> DirtyBlocks(uint64_t file) const {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (auto it = blocks_.lower_bound({file, 0}); it != blocks_.end() && it->first.file == file;
         ++it) {
      if (it->second.dirty) {
        out.emplace_back(it->first.index, it->second.extent);
      }
    }
    return out;
  }

  std::vector<uint64_t> DirtyFiles() const {
    std::vector<uint64_t> files;
    for (const auto& [key, b] : blocks_) {
      if (b.dirty && (files.empty() || files.back() != key.file)) {
        files.push_back(key.file);
      }
    }
    return files;
  }

  // The dirty block of `file` that has been dirty longest (lowest index on
  // ties), if any.
  std::optional<BlockKey> OldestDirtyBlock(uint64_t file) const {
    std::optional<BlockKey> oldest;
    SimTime since = 0;
    for (auto it = blocks_.lower_bound({file, 0}); it != blocks_.end() && it->first.file == file;
         ++it) {
      if (it->second.dirty && (!oldest || it->second.dirty_since < since)) {
        oldest = it->first;
        since = it->second.dirty_since;
      }
    }
    return oldest;
  }

  uint64_t CachedVersion(uint64_t file) const {
    auto it = versions_.find(file);
    return it == versions_.end() ? 0 : it->second;
  }
  void AdoptVersion(uint64_t file, uint64_t version) { versions_[file] = version; }

  bool SyncVersion(uint64_t file, uint64_t server_version) {
    const uint64_t cached = CachedVersion(file);
    const bool flush = cached != 0 && cached != server_version && Begin(file) != End(file);
    if (flush) {
      InvalidateFile(file);
    }
    versions_[file] = server_version;
    return flush;
  }

  // Both forget the file entirely, version included.
  void InvalidateFile(uint64_t file) { counters.bytes_cancelled_before_writeback += DropFile(file); }
  int64_t DropFile(uint64_t file) {
    const int64_t dropped = DirtyBytes(file);
    for (auto it = Begin(file); it != End(file);) {
      lru_.erase(it->second.pos);
      it = blocks_.erase(it);
    }
    versions_.erase(file);
    return dropped;
  }

  SimDuration LruAge(SimTime now) const {
    return lru_.empty() ? -1 : now - blocks_.at(lru_.back()).last_ref;
  }

  bool ReleaseLruToVm(SimTime now) {
    if (lru_.empty() || limit_ <= config_.min_blocks) {
      return false;
    }
    Evict(now, CleanReason::kVm, /*for_vm=*/true);
    --limit_;
    return true;
  }

  void DemoteToLruTail(BlockKey key) {
    auto it = blocks_.find(key);
    if (it != blocks_.end()) {
      lru_.splice(lru_.end(), lru_, it->second.pos);
    }
  }

  // NVRAM recovery visits dirty blocks in ascending (file, block) order.
  std::pair<int64_t, int64_t> CrashReset(bool nvram) {
    int64_t lost = 0;
    int64_t recovered = 0;
    for (const auto& [key, b] : blocks_) {
      if (!b.dirty) {
        continue;
      }
      if (nvram) {
        writebacks.emplace_back(key, b.extent);
        recovered += b.extent;
      } else {
        lost += b.extent;
      }
    }
    blocks_.clear();
    lru_.clear();
    versions_.clear();
    limit_ = config_.min_blocks;
    return {lost, recovered};
  }

  std::map<BlockKey, bool, KeyLess> Resident() const {
    std::map<BlockKey, bool, KeyLess> out;
    for (const auto& [key, b] : blocks_) {
      out[key] = b.dirty;
    }
    return out;
  }

 private:
  struct Block {
    SimTime last_ref = 0;
    bool prefetched = false;
    bool dirty = false;
    SimTime dirty_since = 0;
    int64_t extent = 0;
    std::list<BlockKey>::iterator pos;
  };
  using BlockMap = std::map<BlockKey, Block, KeyLess>;

  BlockMap::iterator Begin(uint64_t file) { return blocks_.lower_bound({file, 0}); }
  BlockMap::iterator End(uint64_t file) { return blocks_.lower_bound({file + 1, 0}); }

  void Touch(BlockKey key, SimTime now) {
    Block& b = blocks_.at(key);
    b.last_ref = now;
    lru_.splice(lru_.begin(), lru_, b.pos);
  }

  void Clean(BlockMap::value_type& entry, SimTime now, CleanReason reason) {
    Block& b = entry.second;
    const int r = static_cast<int>(reason);
    ++counters.cleaned[r];
    counters.cleaned_age_us[r] += now - b.dirty_since;
    counters.bytes_written_to_server += b.extent;
    writebacks.emplace_back(entry.first, b.extent);
    b.dirty = false;
    b.extent = 0;
  }

  void Evict(SimTime now, CleanReason reason, bool for_vm) {
    auto it = blocks_.find(lru_.back());
    if (it->second.dirty) {
      Clean(*it, now, reason);
    }
    const SimDuration age = now - it->second.last_ref;
    if (for_vm) {
      ++counters.replaced_for_vm;
      counters.replaced_for_vm_age_us += age;
    } else {
      ++counters.replaced_for_file;
      counters.replaced_for_file_age_us += age;
    }
    lru_.pop_back();
    blocks_.erase(it);
  }

  CacheConfig config_;
  int64_t limit_;
  BlockMap blocks_;
  std::list<BlockKey> lru_;
  std::map<uint64_t, uint64_t> versions_;
};

static_assert(std::has_unique_object_representations_v<CacheCounters>,
              "CacheCounters is compared bytewise");

// Everything observable through the public API must agree after every op.
void ExpectSameState(const BlockCache& cache, const ModelCache& model,
                     const WritebackLog& writebacks, const CacheCounters& counters, SimTime now) {
  ASSERT_EQ(writebacks, model.writebacks);
  ASSERT_EQ(std::memcmp(&counters, &model.counters, sizeof(CacheCounters)), 0);
  ASSERT_EQ(cache.block_count(), model.block_count());
  ASSERT_EQ(cache.limit_blocks(), model.limit_blocks());
  ASSERT_EQ(cache.LruAge(now), model.LruAge(now));
  ASSERT_EQ(cache.DirtyFiles(), model.DirtyFiles());
  for (const auto& [key, dirty] : model.Resident()) {
    ASSERT_TRUE(cache.Contains(key)) << key.file << ":" << key.index;
    ASSERT_EQ(cache.IsDirty(key), dirty) << key.file << ":" << key.index;
  }
  for (uint64_t file = 0; file <= 6; ++file) {
    ASSERT_EQ(cache.DirtyBytes(file), model.DirtyBytes(file)) << "file " << file;
    ASSERT_EQ(cache.HasDirtyBlocks(file), !model.DirtyBlocks(file).empty()) << "file " << file;
    ASSERT_EQ(cache.CachedVersion(file), model.CachedVersion(file)) << "file " << file;
    std::vector<std::pair<int64_t, int64_t>> dirty;
    cache.ForEachDirtyBlock(file, [&](int64_t block, int64_t extent) { dirty.emplace_back(block, extent); });
    ASSERT_EQ(dirty, model.DirtyBlocks(file)) << "file " << file;
  }
}

// Extra stress for the cleaner's per-file dirty floor (off for the
// original op mix, whose random streams stay as they were).
struct OpMix {
  // Time also steps backwards, as an async server cache sees it: writes
  // arrive stamped with their issue time, not in order.
  bool backward_time = false;
  // Adds an op that evicts a file's oldest dirty block while later ones
  // stay dirty, so the floor is left below every remaining block.
  bool evict_oldest_dirty = false;
};

// One random op applied to both caches, with return values compared.
void RandomOp(Rng& rng, BlockCache& cache, ModelCache& model, const WritebackFn& sink,
              std::vector<int64_t>& cursors, SimTime& now, OpMix mix = {}) {
  // Half-second steps, so block ages often land exactly on the 30-s delay.
  now += static_cast<SimDuration>(rng.NextBelow(6)) * kSecond / 2;
  if (rng.NextBool(0.02)) {
    now += 25 * kSecond;
  }
  if (mix.backward_time && rng.NextBool(0.3)) {
    now -= static_cast<SimDuration>(rng.NextBelow(12)) * kSecond / 2;
    if (rng.NextBool(0.05)) {
      now -= 25 * kSecond;
    }
  }
  const uint64_t file = 1 + rng.NextBelow(5);
  int64_t index = static_cast<int64_t>(rng.NextBelow(40));
  const uint64_t shape = rng.NextBelow(10);
  if (shape < 3) {
    index = cursors[file]++ % 400;  // sequential runs: evictions at a file's low end
  } else if (shape == 3) {
    index = 5000 + static_cast<int64_t>(rng.NextBelow(4));  // sparse far blocks
  }
  const BlockKey key{file, index};
  switch (rng.NextBelow(mix.evict_oldest_dirty ? 18 : 17)) {
    case 0:
    case 1:
      ASSERT_EQ(cache.Lookup(key, now), model.Lookup(key, now));
      break;
    case 2:
    case 3:
      cache.InsertClean(key, now, sink);
      model.InsertClean(key, now);
      break;
    case 4:
      cache.InsertPrefetched(key, now, sink);
      model.InsertPrefetched(key, now);
      break;
    case 5:
    case 6: {
      const int64_t end = rng.NextInRange(1, kBlockSize + 100);
      ASSERT_EQ(cache.Write(key, now, end, sink), model.Write(key, now, end));
      break;
    }
    case 7:
      ASSERT_EQ(cache.CleanAged(now, sink), model.CleanAged(now));
      break;
    case 8: {
      const auto reason = static_cast<CleanReason>(rng.NextBelow(kCleanReasonCount));
      ASSERT_EQ(cache.CleanFile(file, now, reason, sink), model.CleanFile(file, now, reason));
      break;
    }
    case 9:
      if (rng.NextBool(0.5)) {
        cache.InvalidateFile(file, now);
        model.InvalidateFile(file);
      } else {
        ASSERT_EQ(cache.DropFile(file, now), model.DropFile(file));
      }
      break;
    case 10: {
      const uint64_t version = 1 + rng.NextBelow(3);
      if (rng.NextBool(0.5)) {
        ASSERT_EQ(cache.SyncVersion(file, version, now), model.SyncVersion(file, version));
      } else {
        cache.AdoptVersion(file, version);
        model.AdoptVersion(file, version);
      }
      break;
    }
    case 11:
      ASSERT_EQ(cache.ReleaseLruToVm(now, sink), model.ReleaseLruToVm(now));
      break;
    case 12:
      cache.GrantPageFromVm();
      model.GrantPageFromVm();
      break;
    case 13:
      cache.DemoteToLruTail(key);
      model.DemoteToLruTail(key);
      break;
    case 14: {
      const int64_t limit = rng.NextInRange(0, 64);
      cache.set_limit_blocks(limit);
      model.set_limit_blocks(limit);
      break;
    }
    case 15:
      if (rng.NextBool(0.05)) {
        const bool nvram = rng.NextBool(0.5);
        ASSERT_EQ(cache.CrashReset(nvram ? sink : WritebackFn{}),
                  model.CrashReset(nvram));
      }
      break;
    case 17: {
      const std::optional<BlockKey> oldest = model.OldestDirtyBlock(file);
      if (!oldest) {
        break;
      }
      cache.DemoteToLruTail(*oldest);
      model.DemoteToLruTail(*oldest);
      if (rng.NextBool(0.5)) {
        ASSERT_EQ(cache.ReleaseLruToVm(now, sink), model.ReleaseLruToVm(now));
      } else {
        // At the limit, one insertion replaces exactly the demoted block.
        cache.set_limit_blocks(cache.block_count());
        model.set_limit_blocks(model.block_count());
        const BlockKey fresh{file, 6000 + static_cast<int64_t>(rng.NextBelow(4))};
        cache.InsertClean(fresh, now, sink);
        model.InsertClean(fresh, now);
      }
      break;
    }
    default:
      ASSERT_EQ(cache.IsDirty(key), model.IsDirty(key));
      ASSERT_EQ(cache.Contains(key), model.Contains(key));
      break;
  }
}

void RunDifferential(OpMix mix) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    CacheConfig config = SmallConfig(64, 4);
    CacheCounters counters;
    WritebackLog writebacks;
    BlockCache cache(config, &counters);
    ModelCache model(config);
    const WritebackFn sink = [&](BlockKey key, int64_t bytes) {
      writebacks.emplace_back(key, bytes);
    };
    const int64_t limit = rng.NextInRange(4, 48);
    cache.set_limit_blocks(limit);
    model.set_limit_blocks(limit);
    std::vector<int64_t> cursors(7, 0);
    SimTime now = 0;
    for (int op = 0; op < 4000; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      RandomOp(rng, cache, model, sink, cursors, now, mix);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      ExpectSameState(cache, model, writebacks, counters, now);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
}

TEST(BlockCacheDifferentialTest, MatchesReferenceModel) { RunDifferential({}); }

TEST(BlockCacheDifferentialTest, MatchesReferenceModelWithBackwardTime) {
  RunDifferential({.backward_time = true});
}

TEST(BlockCacheDifferentialTest, MatchesReferenceModelWithStaleDirtyFloors) {
  RunDifferential({.evict_oldest_dirty = true});
}

}  // namespace
}  // namespace sprite
