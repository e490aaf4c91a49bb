#include "src/fs/block_cache.h"

#include <algorithm>
#include <limits>

namespace sprite {

BlockCache::BlockCache(const CacheConfig& config, CacheCounters* counters)
    : config_(config), counters_(counters), limit_blocks_(config.min_blocks) {}

uint32_t BlockCache::SlotOf(const FileState& fs, int64_t index) {
  // A block below base wraps to a huge offset and misses like one past the end.
  const uint64_t at = static_cast<uint64_t>(index - fs.base);
  return at < fs.slots.size() ? fs.slots[at] : kNoSlot;
}

uint32_t BlockCache::Find(BlockKey key) const {
  const FileState* fs = files_.Find(key.file);
  return fs == nullptr ? kNoSlot : SlotOf(*fs, key.index);
}

void BlockCache::LruUnlink(uint32_t slot) {
  const Entry& entry = slab_[slot];
  (entry.lru_prev != kNoSlot ? slab_[entry.lru_prev].lru_next : lru_head_) = entry.lru_next;
  (entry.lru_next != kNoSlot ? slab_[entry.lru_next].lru_prev : lru_tail_) = entry.lru_prev;
}

void BlockCache::LruPushFront(uint32_t slot) {
  slab_[slot].lru_prev = kNoSlot;
  slab_[slot].lru_next = lru_head_;
  (lru_head_ != kNoSlot ? slab_[lru_head_].lru_prev : lru_tail_) = slot;
  lru_head_ = slot;
}

void BlockCache::TouchLru(uint32_t slot, SimTime now) {
  slab_[slot].last_ref = now;
  LruUnlink(slot);
  LruPushFront(slot);
}

bool BlockCache::Lookup(BlockKey key, SimTime now) {
  const uint32_t slot = Find(key);
  if (slot == kNoSlot) {
    return false;
  }
  if (slab_[slot].prefetched) {
    slab_[slot].prefetched = false;
    if (counters_ != nullptr) {
      ++counters_->prefetch_useful;
    }
  }
  TouchLru(slot, now);
  return true;
}

uint32_t BlockCache::FindOrInsert(BlockKey key, SimTime now, WritebackRef writeback,
                                  bool& inserted) {
  uint32_t slot = Find(key);
  inserted = slot == kNoSlot;
  if (!inserted) {
    TouchLru(slot, now);
    return slot;
  }
  while (block_count_ >= limit_blocks_ && lru_tail_ != kNoSlot) {
    EvictLruTail(now, CleanReason::kReplacement, ReplaceReason::kForFileBlock, writeback);
  }
  slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    free_head_ = slab_[slot].lru_next;
  }
  slab_[slot] = Entry{.key = key, .last_ref = now};
  LruPushFront(slot);
  ++block_count_;

  FileState& fs = files_[key.file];
  if (fs.slots.empty()) {
    fs.slots.assign(1, kNoSlot);
    fs.base = key.index;
  } else if (key.index < fs.base) {
    // Grow the front by the vector's length again, so a descending scan
    // shifts the vector once per length, not once per block.
    const size_t grow = static_cast<size_t>(fs.base - key.index) + fs.slots.size();
    fs.slots.insert(fs.slots.begin(), grow, kNoSlot);
    fs.base -= static_cast<int64_t>(grow);
    fs.first += static_cast<uint32_t>(grow);
  } else if (key.index - fs.base >= static_cast<int64_t>(fs.slots.size())) {
    if (2 * size_t{fs.first} >= fs.slots.size()) {
      // At least half the vector is the empty prefix that evictions at the
      // low end left behind: drop it rather than grow.
      fs.slots.erase(fs.slots.begin(), fs.slots.begin() + fs.first);
      fs.base += fs.first;
      fs.first = 0;
    }
    fs.slots.resize(static_cast<size_t>(key.index - fs.base) + 1, kNoSlot);
  }
  const auto at = static_cast<uint32_t>(key.index - fs.base);
  fs.slots[at] = slot;
  fs.first = std::min(fs.first, at);
  return slot;
}

void BlockCache::InsertClean(BlockKey key, SimTime now, WritebackRef writeback) {
  bool inserted = false;
  FindOrInsert(key, now, writeback, inserted);
}

void BlockCache::InsertPrefetched(BlockKey key, SimTime now, WritebackRef writeback) {
  bool inserted = false;
  const uint32_t slot = FindOrInsert(key, now, writeback, inserted);
  if (inserted) {
    slab_[slot].prefetched = true;
    if (counters_ != nullptr) {
      ++counters_->prefetch_fetches;
    }
  }
}

bool BlockCache::Write(BlockKey key, SimTime now, int64_t end_in_block, WritebackRef writeback) {
  bool inserted = false;
  Entry& entry = slab_[FindOrInsert(key, now, writeback, inserted)];
  if (!entry.dirty) {  // a clean entry's extent is 0
    entry.dirty = true;
    entry.dirty_since = now;
    FileState& fs = *files_.Find(key.file);
    if (fs.dirty_count++ == 0) {
      fs.dirty_floor = now;
      dirty_files_.insert(key.file);
    } else {
      fs.dirty_floor = std::min(fs.dirty_floor, now);
    }
  }
  entry.dirty_extent =
      static_cast<int32_t>(std::clamp<int64_t>(end_in_block, entry.dirty_extent, kBlockSize));
  return !inserted;
}

bool BlockCache::IsDirty(BlockKey key) const {
  const uint32_t slot = Find(key);
  return slot != kNoSlot && slab_[slot].dirty;
}

template <typename Visit>
void BlockCache::WalkDirtyBlocks(uint64_t file, Visit&& visit) {
  int64_t next = std::numeric_limits<int64_t>::min();  // lowest block not yet visited
  for (FileState* fs = files_.Find(file); fs != nullptr && fs->dirty_count > 0;) {
    auto at = static_cast<size_t>(std::max<int64_t>(fs->first, next - std::min(next, fs->base)));
    while (at < fs->slots.size() &&
           (fs->slots[at] == kNoSlot || !slab_[fs->slots[at]].dirty)) {
      ++at;
    }
    if (at >= fs->slots.size()) {
      return;
    }
    next = fs->base + static_cast<int64_t>(at) + 1;
    fs = visit(*fs, fs->slots[at]);
  }
}

BlockCache::FileState* BlockCache::CleanBlock(FileState& fs, uint32_t slot, SimTime now,
                                              CleanReason reason, WritebackRef writeback) {
  const Entry& entry = slab_[slot];
  const BlockKey key = entry.key;
  if (counters_ != nullptr) {
    const int r = static_cast<int>(reason);
    ++counters_->cleaned[r];
    counters_->cleaned_age_us[r] += now - entry.dirty_since;
    counters_->bytes_written_to_server += entry.dirty_extent;
  }
  FileState* after = &fs;
  if (writeback) {
    writeback(key, entry.dirty_extent);  // the block is still dirty in here
    after = files_.Find(key.file);
    slot = after == nullptr ? kNoSlot : SlotOf(*after, key.index);
    if (slot == kNoSlot || !slab_[slot].dirty) {
      return after;  // dropped (or cleaned) by a reopen storm the RPC ran
    }
  }
  slab_[slot].dirty = false;
  slab_[slot].dirty_extent = 0;
  if (--after->dirty_count == 0) {
    dirty_files_.erase(key.file);
  }
  return after;
}

std::pair<int64_t, int64_t> BlockCache::CleanDirtyBlocks(uint64_t file, SimTime now,
                                                         CleanReason reason,
                                                         WritebackRef writeback) {
  int64_t blocks = 0;
  int64_t bytes = 0;
  WalkDirtyBlocks(file, [&](FileState& fs, uint32_t slot) {
    ++blocks;
    bytes += slab_[slot].dirty_extent;
    return CleanBlock(fs, slot, now, reason, writeback);
  });
  return {blocks, bytes};
}

void BlockCache::FreeSlot(uint32_t slot) {
  slab_[slot].lru_next = free_head_;
  free_head_ = slot;
  --block_count_;
}

void BlockCache::EvictLruTail(SimTime now, CleanReason reason, ReplaceReason replace_reason,
                              WritebackRef writeback) {
  uint32_t slot = lru_tail_;
  const BlockKey key = slab_[slot].key;
  FileState* fs = files_.Find(key.file);
  if (slab_[slot].dirty) {
    fs = CleanBlock(*fs, slot, now, reason, writeback);
    slot = fs == nullptr ? kNoSlot : SlotOf(*fs, key.index);
    if (slot == kNoSlot) {
      return;  // the writeback's reopen storm dropped the victim already
    }
  }
  if (counters_ != nullptr) {
    const SimDuration age = now - slab_[slot].last_ref;
    if (replace_reason == ReplaceReason::kForFileBlock) {
      ++counters_->replaced_for_file;
      counters_->replaced_for_file_age_us += age;
    } else {
      ++counters_->replaced_for_vm;
      counters_->replaced_for_vm_age_us += age;
    }
  }
  if (size_t{fs->first} + 1 == fs->slots.size()) {  // the file's only resident block
    if (fs->version == 0) {
      files_.Erase(key.file);
    } else {
      fs->slots = std::vector<uint32_t>();  // release the memory, keep the version
      fs->first = 0;
    }
  } else {
    // Clear the slot, then trim empty slots off whichever end it was on.
    fs->slots[static_cast<size_t>(key.index - fs->base)] = kNoSlot;
    while (fs->slots.back() == kNoSlot) {
      fs->slots.pop_back();
    }
    while (fs->slots[fs->first] == kNoSlot) {
      ++fs->first;
    }
  }
  LruUnlink(slot);
  FreeSlot(slot);
}

bool BlockCache::HasAgedBlock(FileState& fs, SimTime now) {
  if (now - fs.dirty_floor < config_.writeback_delay) {
    return false;  // every dirty block is younger than the floor's age
  }
  SimTime oldest = std::numeric_limits<SimTime>::max();
  for (uint32_t slot : Resident(fs)) {
    if (slot != kNoSlot && slab_[slot].dirty) {
      if (now - slab_[slot].dirty_since >= config_.writeback_delay) {
        return true;
      }
      oldest = std::min(oldest, slab_[slot].dirty_since);
    }
  }
  fs.dirty_floor = oldest;
  return false;
}

int64_t BlockCache::CleanAged(SimTime now, WritebackRef writeback) {
  // "All dirty blocks for a file are written to the server if any block ...
  // has been dirty for 30 seconds", file by file in ascending id order.
  // Only files in the dirty set are examined, so a fully clean cache costs
  // nothing, no matter how large it is. Which files are due is fixed by
  // `now`; cleaning one file cannot change another's ages, so deciding per
  // file as the walk reaches it equals deciding for all files up front.
  // Cleaning erases the file from the set (and a writeback may re-enter the
  // cache), so the walk resumes by key.
  int64_t cleaned = 0;
  for (auto it = dirty_files_.begin(); it != dirty_files_.end();) {
    const uint64_t file = *it;
    if (HasAgedBlock(*files_.Find(file), now)) {
      cleaned += CleanDirtyBlocks(file, now, CleanReason::kDelay, writeback).first;
      it = dirty_files_.upper_bound(file);
    } else {
      ++it;
    }
  }
  return cleaned;
}

int64_t BlockCache::CleanFile(uint64_t file, SimTime now, CleanReason reason,
                              WritebackRef writeback) {
  return CleanDirtyBlocks(file, now, reason, writeback).second;
}

bool BlockCache::HasDirtyBlocks(uint64_t file) const {
  const FileState* fs = files_.Find(file);
  return fs != nullptr && fs->dirty_count > 0;
}

int64_t BlockCache::DirtyBytes(uint64_t file) const {
  int64_t bytes = 0;
  ForEachDirtyBlock(file, [&bytes](int64_t, int64_t extent) { bytes += extent; });
  return bytes;
}

std::vector<uint64_t> BlockCache::DirtyFiles() const {
  return std::vector<uint64_t>(dirty_files_.begin(), dirty_files_.end());
}

void BlockCache::ForEachDirtyBlock(uint64_t file,
                                   FunctionRef<void(int64_t block, int64_t extent)> fn) const {
  const FileState* fs = files_.Find(file);
  if (fs == nullptr || fs->dirty_count == 0) {
    return;
  }
  for (uint32_t slot : Resident(*fs)) {
    if (slot != kNoSlot && slab_[slot].dirty) {
      fn(slab_[slot].key.index, slab_[slot].dirty_extent);
    }
  }
}

uint64_t BlockCache::CachedVersion(uint64_t file) const {
  const FileState* fs = files_.Find(file);
  return fs == nullptr ? 0 : fs->version;
}

int64_t BlockCache::EraseFile(uint64_t file, FileState& fs) {
  int64_t dirty_bytes = 0;
  for (uint32_t slot : Resident(fs)) {
    if (slot != kNoSlot) {
      dirty_bytes += slab_[slot].dirty ? slab_[slot].dirty_extent : 0;
      LruUnlink(slot);
      FreeSlot(slot);
    }
  }
  if (fs.dirty_count > 0) {
    dirty_files_.erase(file);
  }
  files_.Erase(file);
  return dirty_bytes;
}

int64_t BlockCache::DropFile(uint64_t file, SimTime /*now*/) {
  FileState* fs = files_.Find(file);
  return fs == nullptr ? 0 : EraseFile(file, *fs);
}

void BlockCache::InvalidateFile(uint64_t file, SimTime /*now*/) {
  FileState* fs = files_.Find(file);
  if (fs == nullptr) {
    return;
  }
  const int64_t cancelled = EraseFile(file, *fs);
  if (counters_ != nullptr) {
    counters_->bytes_cancelled_before_writeback += cancelled;
  }
}

SimDuration BlockCache::LruAge(SimTime now) const {
  return lru_tail_ == kNoSlot ? -1 : now - slab_[lru_tail_].last_ref;
}

bool BlockCache::ReleaseLruToVm(SimTime now, WritebackRef writeback) {
  if (lru_tail_ == kNoSlot || limit_blocks_ <= config_.min_blocks) {
    return false;
  }
  EvictLruTail(now, CleanReason::kVm, ReplaceReason::kForVmPage, writeback);
  --limit_blocks_;
  return true;
}

void BlockCache::DemoteToLruTail(BlockKey key) {
  const uint32_t slot = Find(key);
  if (slot == kNoSlot || slot == lru_tail_) {
    return;
  }
  LruUnlink(slot);  // the old tail stays behind, so the chain is not empty
  slab_[slot].lru_prev = lru_tail_;
  slab_[slot].lru_next = kNoSlot;
  slab_[lru_tail_].lru_next = slot;
  lru_tail_ = slot;
}

std::pair<int64_t, int64_t> BlockCache::CrashReset(WritebackRef nvram_recovery) {
  int64_t lost = 0;
  int64_t recovered = 0;
  // Recovery writebacks may re-enter the cache like any other, so both
  // walks resume by key.
  for (auto it = dirty_files_.begin(); it != dirty_files_.end();) {
    const uint64_t file = *it;
    WalkDirtyBlocks(file, [&](FileState& fs, uint32_t slot) {
      const Entry& entry = slab_[slot];
      if (!nvram_recovery) {
        lost += entry.dirty_extent;
        return &fs;
      }
      recovered += entry.dirty_extent;
      nvram_recovery(entry.key, entry.dirty_extent);
      return files_.Find(file);
    });
    it = dirty_files_.upper_bound(file);
  }
  *this = BlockCache(config_, counters_);  // empty, at the minimum limit
  return {lost, recovered};
}

bool BlockCache::SyncVersion(uint64_t file, uint64_t server_version, SimTime now) {
  const FileState* fs = files_.Find(file);
  const bool stale = fs != nullptr && fs->version != 0 && fs->version != server_version;
  const bool has_blocks = fs != nullptr && !fs->slots.empty();
  if (stale && has_blocks) {
    InvalidateFile(file, now);  // erases the FileState; recreated below
  }
  files_[file].version = server_version;
  return stale && has_blocks;
}

}  // namespace sprite
