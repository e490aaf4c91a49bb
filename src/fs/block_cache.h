// Block-granularity file cache with LRU replacement, delayed writes, and
// dynamic sizing — the mechanism at the center of Section 5 of the paper.
//
// One BlockCache instance lives in each simulated client kernel (and a
// larger one in each server). Key behaviours reproduced from the paper:
//   * 4-Kbyte blocks, least-recently-used replacement.
//   * Writes are delayed: dirty data is written back only when it has been
//     dirty for `writeback_delay` (30 s), when an application fsyncs, when
//     the server recalls it, or when the page is given to virtual memory.
//   * When any block of a file exceeds the delay, ALL dirty blocks of that
//     file are written back together.
//   * The cache grows and shrinks: insertions may be denied pages (the VM
//     system has preference), and the VM system can take the LRU page.
//   * Per-file version numbers let a client flush stale blocks when the
//     server reports a newer version at open time.
//
// Hot-path layout: one index, and no allocation on a hit, eviction or clean.
// Entries live in a slab (vector + free list), chained into the intrusive
// LRU by 32-bit slot number. Each file's FileState sits in a flat
// open-addressing map and maps block index -> slot through a dense vector
// spanning just its resident blocks: a lookup is one flat probe plus an
// array index, and evicting a sequentially read file's lowest block clears
// one slot. Files with dirty blocks sit in a small ordered set, so the
// 5-second cleaner visits only dirty files, not a whole ~32K-block server
// cache; each keeps a lower bound on its blocks' dirty times, so a file
// with nothing due is skipped without scanning its slots. Writebacks arrive
// through a non-owning FunctionRef, and may re-enter the cache (see
// WritebackRef).

#ifndef SPRITE_DFS_SRC_FS_BLOCK_CACHE_H_
#define SPRITE_DFS_SRC_FS_BLOCK_CACHE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "src/fs/config.h"
#include "src/fs/counters.h"
#include "src/util/flat_map.h"
#include "src/util/function_ref.h"
#include "src/util/units.h"

namespace sprite {

struct BlockKey {
  uint64_t file = 0;
  int64_t index = 0;  // block number within the file

  bool operator==(const BlockKey&) const = default;
};

struct BlockKeyHash {
  size_t operator()(const BlockKey& k) const {
    return std::hash<uint64_t>()(k.file * 0x9e3779b97f4a7c15ULL ^
                                 static_cast<uint64_t>(k.index));
  }
};

class BlockCache {
 public:
  // `counters` may be null (e.g. in unit tests that only check structure).
  BlockCache(const CacheConfig& config, CacheCounters* counters);

  // Called when the cache must push a dirty block to the server:
  // (key, bytes) where bytes is the dirty extent of the block. Empty (nullptr,
  // an empty std::function) means "no writeback". The callback may re-enter
  // the cache: a writeback RPC that meets a rebooted server runs the
  // client's reopen storm, which can drop or re-version any file, this one
  // included. It sees the block being written back still dirty.
  using WritebackRef = FunctionRef<void(BlockKey key, int64_t bytes)>;

  // --- Size management -----------------------------------------------------
  int64_t block_count() const { return block_count_; }
  int64_t size_bytes() const { return block_count() * kBlockSize; }
  int64_t limit_blocks() const { return limit_blocks_; }
  // Raises or lowers the limit; lowering does not evict immediately (the
  // next insertions will shrink the population).
  void set_limit_blocks(int64_t blocks) { limit_blocks_ = blocks; }

  // --- Read path -----------------------------------------------------------
  // True if the block is resident (does not touch LRU state).
  bool Contains(BlockKey key) const { return Find(key) != kNoSlot; }
  // Read hit check: if resident, refreshes LRU position and returns true.
  bool Lookup(BlockKey key, SimTime now);

  // Inserts a block just fetched from the server (clean). Evicts the LRU
  // block(s) if at the size limit; a dirty victim is written back first via
  // `writeback` with CleanReason::kReplacement.
  void InsertClean(BlockKey key, SimTime now, WritebackRef writeback);

  // Inserts a block fetched by sequential readahead. Counted as a prefetch;
  // the first later demand Lookup that hits it counts as prefetch_useful.
  void InsertPrefetched(BlockKey key, SimTime now, WritebackRef writeback);

  // --- Write path ----------------------------------------------------------
  // Writes `bytes` into the block ending at in-block offset `end_in_block`
  // (the dirty extent grows to `end_in_block`). Inserts the block if absent.
  // Returns true if the block was already resident.
  bool Write(BlockKey key, SimTime now, int64_t end_in_block, WritebackRef writeback);

  bool IsDirty(BlockKey key) const;

  // --- Cleaning ------------------------------------------------------------
  // The 5-second daemon scan: writes back every dirty block belonging to any
  // file that has at least one block dirty for >= writeback_delay.
  // Returns the number of blocks cleaned.
  int64_t CleanAged(SimTime now, WritebackRef writeback);

  // Cleans all dirty blocks of `file` for the given reason (fsync, server
  // recall). Returns bytes written back.
  int64_t CleanFile(uint64_t file, SimTime now, CleanReason reason,
                    WritebackRef writeback);

  // True if `file` has any dirty block.
  bool HasDirtyBlocks(uint64_t file) const;

  // Total dirty bytes resident for `file`.
  int64_t DirtyBytes(uint64_t file) const;

  // Files with at least one dirty block, in ascending id order (stable for
  // deterministic reopen storms during crash recovery).
  std::vector<uint64_t> DirtyFiles() const;

  // Visits every dirty block of `file` in ascending block order with its
  // dirty extent, without touching LRU or dirty state. Replication uses this
  // to rebuild a standby's shadow from the live primary's cache.
  void ForEachDirtyBlock(uint64_t file,
                         FunctionRef<void(int64_t block, int64_t extent)> fn) const;

  // The version last reported/adopted for `file`, or 0 if unknown.
  uint64_t CachedVersion(uint64_t file) const;

  // --- Invalidation --------------------------------------------------------
  // Drops all blocks of `file` (stale version, delete, or caching disabled).
  // Dirty data is discarded and counted as cancelled (never reached the
  // server) — used when the file was deleted; for recalls use CleanFile
  // first.
  void InvalidateFile(uint64_t file, SimTime now);

  // Drops all blocks of `file` without the cancelled-bytes accounting:
  // the dirty data was destroyed by a failure (stale handle after a server
  // crash), not saved by the delayed-write policy. Returns the dirty bytes
  // dropped.
  int64_t DropFile(uint64_t file, SimTime now);

  // --- Page trading with virtual memory -------------------------------------
  // Age (now - last reference) of the least-recently-used block, or -1 if
  // the cache is empty. Used for the global-LRU page trade with VM.
  SimDuration LruAge(SimTime now) const;

  // Releases the LRU block so its page can be given to the VM system.
  // A dirty victim is written back first (CleanReason::kVm). Also lowers the
  // limit by one block. Returns false if the cache is empty or at its
  // minimum size.
  bool ReleaseLruToVm(SimTime now, WritebackRef writeback);

  // Grows the limit by one block (a page acquired from the VM system).
  void GrantPageFromVm() { ++limit_blocks_; }

  // Moves a resident block to the LRU tail so it is replaced first. Sprite
  // does this to code-page blocks after copying their contents to the VM
  // system ("the file cache block is marked for replacement").
  void DemoteToLruTail(BlockKey key);

  // --- Consistency support --------------------------------------------------
  // Compares the server-reported version at open; if it differs from the
  // cached version, flushes the file's blocks and records the new version.
  // Returns true if stale data was flushed.
  bool SyncVersion(uint64_t file, uint64_t server_version, SimTime now);

  // Records `version` as the cached version WITHOUT flushing — used when
  // this client itself produced the new version (its cached blocks are the
  // newest data in the system).
  void AdoptVersion(uint64_t file, uint64_t version) { files_[file].version = version; }

  // Simulates a machine crash + reboot. Every block is dropped and the
  // limit returns to the minimum (rebooted caches start small). Dirty data
  // is LOST unless `nvram_recovery` is provided, in which case it is pushed
  // through it (non-volatile cache memory surviving the crash) in ascending
  // (file, block) order. Returns {lost_bytes, recovered_bytes}.
  std::pair<int64_t, int64_t> CrashReset(WritebackRef nvram_recovery);

  const CacheConfig& config() const { return config_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // One resident block: 40 bytes, against 48 with a whole BlockKey. The
  // block index is narrowed to 32 bits (FindOrInsert rejects a wider one)
  // and the dirty extent, at most kBlockSize, to 16.
  struct Entry {
    uint64_t file = 0;
    SimTime last_ref = 0;
    SimTime dirty_since = 0;      // first write after last clean
    int32_t index = 0;            // block number within the file
    uint32_t lru_prev = kNoSlot;  // toward the LRU head (most recent)
    uint32_t lru_next = kNoSlot;  // toward the tail; the free-list link once freed
    int16_t dirty_extent = 0;     // bytes from block start covered by writeback
    bool prefetched = false;      // inserted by readahead, not yet demanded
    bool dirty = false;

    BlockKey key() const { return BlockKey{file, index}; }
  };
  static_assert(sizeof(Entry) == 40, "keep a cache entry at 40 bytes");
  static_assert(kBlockSize <= std::numeric_limits<int16_t>::max(),
                "a dirty extent must fit an int16_t");

  // One per file: slots[i] is the slot of block base + i, or kNoSlot.
  // slots[0, first) are empty and slots[first] and slots.back() are
  // resident, so slots[first, end) spans exactly the resident blocks in
  // ascending order, and an empty vector means no resident block.
  // version 0 = unknown (server versions start at 1). 56 bytes, so a flat
  // map slot (key + value) is 64 bytes, less than the 80-byte heap node
  // (plus bucket pointer) of a node-based map.
  struct FileState {
    std::vector<uint32_t> slots;
    int64_t base = 0;
    uint64_t version = 0;
    // At or below every dirty block's dirty_since (not necessarily the
    // minimum: cleaning a block leaves it stale). min() keeps it a bound
    // when an async server cache is written at an earlier `now`.
    SimTime dirty_floor = 0;
    uint32_t first = 0;
    uint32_t dirty_count = 0;  // lets cleaners skip clean files
  };
  static_assert(sizeof(FileState) <= 56, "keep a flat-map slot within 64 bytes");

  static std::span<const uint32_t> Resident(const FileState& fs) {  // slots[first, end)
    return std::span<const uint32_t>(fs.slots).subspan(fs.first);
  }
  static uint32_t SlotOf(const FileState& fs, int64_t index);
  uint32_t Find(BlockKey key) const;
  // Moves the block to the LRU head, inserting it (evicting first if at the
  // limit) when absent. Returns its slot. Throws std::out_of_range, before
  // changing anything, for an absent block whose index does not fit an
  // int32_t.
  uint32_t FindOrInsert(BlockKey key, SimTime now, WritebackRef writeback, bool& inserted);
  void LruUnlink(uint32_t slot);
  void LruPushFront(uint32_t slot);
  void TouchLru(uint32_t slot, SimTime now);
  // Calls visit(fs, slot) for each dirty block of `file` in ascending block
  // order. `visit` may write back, and so re-enter the cache; it returns
  // the file's state afterwards (null if gone), and the walk resumes past
  // the visited block by index.
  template <typename Visit>
  void WalkDirtyBlocks(uint64_t file, Visit&& visit);
  // Writes the dirty block in `slot` of file `fs` back and marks it clean.
  // Holds nothing across a writeback: afterwards the file and block are
  // found again by key, and if the callback dropped the block there is
  // nothing left to mark. Returns the file's state (null if dropped).
  FileState* CleanBlock(FileState& fs, uint32_t slot, SimTime now, CleanReason reason,
                        WritebackRef writeback);
  // Cleans every dirty block of `file`; returns {blocks, bytes} written back.
  std::pair<int64_t, int64_t> CleanDirtyBlocks(uint64_t file, SimTime now, CleanReason reason,
                                               WritebackRef writeback);
  // True if some dirty block of the file has aged past the write-back
  // delay. Skips the scan when the dirty floor rules that out, and
  // tightens the floor when a scan finds nothing due.
  bool HasAgedBlock(FileState& fs, SimTime now);
  // Writes the LRU tail back if dirty (for `reason`), then erases it.
  void EvictLruTail(SimTime now, CleanReason reason, ReplaceReason replace_reason,
                    WritebackRef writeback);
  // Erases the file's blocks and its state; returns the dirty bytes dropped.
  int64_t EraseFile(uint64_t file, FileState& fs);
  void FreeSlot(uint32_t slot);

  CacheConfig config_;
  CacheCounters* counters_;
  int64_t limit_blocks_;

  std::vector<Entry> slab_;
  uint32_t free_head_ = kNoSlot;
  int64_t block_count_ = 0;
  uint32_t lru_head_ = kNoSlot;  // most recent
  uint32_t lru_tail_ = kNoSlot;  // least recent
  // A FileState outlives its blocks only while it carries a known version,
  // and then holds no slot vector. Nothing iterates it, so hash order never
  // leaks into outputs.
  FlatMap<FileState> files_;
  // Files with dirty_count > 0, ascending. Small (bounded by the 30-second
  // write-back horizon), and gives cleaners their deterministic file order.
  std::set<uint64_t> dirty_files_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_BLOCK_CACHE_H_
