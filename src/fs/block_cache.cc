#include "src/fs/block_cache.h"

#include <algorithm>

namespace sprite {

BlockCache::BlockCache(const CacheConfig& config, CacheCounters* counters)
    : config_(config), counters_(counters), limit_blocks_(config.min_blocks) {}

uint32_t BlockCache::Find(BlockKey key) const {
  auto fit = files_.find(key.file);
  if (fit == files_.end()) {
    return kNoSlot;
  }
  const FileState& fs = fit->second;
  // A block below base wraps to a huge offset and misses like one past the end.
  const uint64_t at = static_cast<uint64_t>(key.index - fs.base);
  return at < fs.slots.size() ? fs.slots[at] : kNoSlot;
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

uint32_t BlockCache::FindOrInsert(BlockKey key, SimTime now, const WritebackFn& writeback,
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
  if (fs.resident == 0) {
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
  ++fs.resident;
  return slot;
}

void BlockCache::InsertClean(BlockKey key, SimTime now, const WritebackFn& writeback) {
  bool inserted = false;
  FindOrInsert(key, now, writeback, inserted);
}

void BlockCache::InsertPrefetched(BlockKey key, SimTime now, const WritebackFn& writeback) {
  bool inserted = false;
  const uint32_t slot = FindOrInsert(key, now, writeback, inserted);
  if (inserted) {
    slab_[slot].prefetched = true;
    if (counters_ != nullptr) {
      ++counters_->prefetch_fetches;
    }
  }
}

bool BlockCache::Write(BlockKey key, SimTime now, int64_t end_in_block,
                       const WritebackFn& writeback) {
  bool inserted = false;
  Entry& entry = slab_[FindOrInsert(key, now, writeback, inserted)];
  if (!entry.dirty) {  // a clean entry's extent is 0
    entry.dirty = true;
    entry.dirty_since = now;
    if (++files_.find(key.file)->second.dirty_count == 1) {
      dirty_files_.insert(key.file);
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

void BlockCache::CleanBlock(Entry& entry, FileState& fs, SimTime now, CleanReason reason,
                            const WritebackFn& writeback) {
  if (!entry.dirty) {
    return;
  }
  if (counters_ != nullptr) {
    const int r = static_cast<int>(reason);
    ++counters_->cleaned[r];
    counters_->cleaned_age_us[r] += now - entry.dirty_since;
    counters_->bytes_written_to_server += entry.dirty_extent;
  }
  if (writeback) {
    writeback(entry.key, entry.dirty_extent);
  }
  entry.dirty = false;
  entry.dirty_extent = 0;
  if (--fs.dirty_count == 0) {
    dirty_files_.erase(entry.key.file);
  }
}

void BlockCache::FreeSlot(uint32_t slot) {
  slab_[slot].lru_next = free_head_;
  free_head_ = slot;
  --block_count_;
}

void BlockCache::EvictLruTail(SimTime now, CleanReason reason, ReplaceReason replace_reason,
                              const WritebackFn& writeback) {
  const uint32_t slot = lru_tail_;
  Entry& entry = slab_[slot];
  auto fit = files_.find(entry.key.file);
  FileState& fs = fit->second;
  CleanBlock(entry, fs, now, reason, writeback);
  if (counters_ != nullptr) {
    const SimDuration age = now - entry.last_ref;
    if (replace_reason == ReplaceReason::kForFileBlock) {
      ++counters_->replaced_for_file;
      counters_->replaced_for_file_age_us += age;
    } else {
      ++counters_->replaced_for_vm;
      counters_->replaced_for_vm_age_us += age;
    }
  }
  // Clear the slot, then trim empty slots off whichever end it was on.
  fs.slots[static_cast<size_t>(entry.key.index - fs.base)] = kNoSlot;
  if (--fs.resident == 0) {
    if (fs.version == 0) {
      files_.erase(fit);
    } else {
      fs.slots = std::vector<uint32_t>();  // release the memory, keep the version
      fs.first = 0;
    }
  } else {
    while (fs.slots.back() == kNoSlot) {
      fs.slots.pop_back();
    }
    while (fs.slots[fs.first] == kNoSlot) {
      ++fs.first;
    }
  }
  LruUnlink(slot);
  FreeSlot(slot);
}

int64_t BlockCache::CleanAged(SimTime now, const WritebackFn& writeback) {
  if (dirty_files_.empty()) {
    return 0;
  }
  // Pass 1: find files with at least one block dirty >= delay. Only files
  // in the dirty set are examined — a fully clean cache costs nothing, no
  // matter how large it is. dirty_files_ is ordered, so files_due is in
  // ascending file-id order.
  std::vector<FileState*> files_due;
  for (uint64_t file : dirty_files_) {
    FileState& fs = files_.find(file)->second;
    if (std::ranges::any_of(Resident(fs), [&](uint32_t slot) {
          return slot != kNoSlot && slab_[slot].dirty &&
                 now - slab_[slot].dirty_since >= config_.writeback_delay;
        })) {
      files_due.push_back(&fs);
    }
  }
  // Pass 2: write back every dirty block of those files ("All dirty blocks
  // for a file are written to the server if any block ... has been dirty for
  // 30 seconds"), in ascending block order.
  int64_t cleaned = 0;
  for (FileState* fs : files_due) {
    for (uint32_t slot : Resident(*fs)) {
      if (slot != kNoSlot && slab_[slot].dirty) {
        CleanBlock(slab_[slot], *fs, now, CleanReason::kDelay, writeback);
        ++cleaned;
      }
    }
  }
  return cleaned;
}

int64_t BlockCache::CleanFile(uint64_t file, SimTime now, CleanReason reason,
                              const WritebackFn& writeback) {
  auto fit = files_.find(file);
  if (fit == files_.end() || fit->second.dirty_count == 0) {
    return 0;
  }
  int64_t bytes = 0;
  for (uint32_t slot : Resident(fit->second)) {
    if (slot != kNoSlot && slab_[slot].dirty) {
      bytes += slab_[slot].dirty_extent;
      CleanBlock(slab_[slot], fit->second, now, reason, writeback);
    }
  }
  return bytes;
}

bool BlockCache::HasDirtyBlocks(uint64_t file) const {
  auto fit = files_.find(file);
  return fit != files_.end() && fit->second.dirty_count > 0;
}

int64_t BlockCache::DirtyBytes(uint64_t file) const {
  int64_t bytes = 0;
  ForEachDirtyBlock(file, [&bytes](int64_t, int64_t extent) { bytes += extent; });
  return bytes;
}

std::vector<uint64_t> BlockCache::DirtyFiles() const {
  return std::vector<uint64_t>(dirty_files_.begin(), dirty_files_.end());
}

void BlockCache::ForEachDirtyBlock(
    uint64_t file, const std::function<void(int64_t block, int64_t extent)>& fn) const {
  auto fit = files_.find(file);
  if (fit == files_.end() || fit->second.dirty_count == 0) {
    return;
  }
  for (uint32_t slot : Resident(fit->second)) {
    if (slot != kNoSlot && slab_[slot].dirty) {
      fn(slab_[slot].key.index, slab_[slot].dirty_extent);
    }
  }
}

uint64_t BlockCache::CachedVersion(uint64_t file) const {
  auto fit = files_.find(file);
  return fit == files_.end() ? 0 : fit->second.version;
}

int64_t BlockCache::EraseFile(FileMap::iterator fit) {
  int64_t dirty_bytes = 0;
  for (uint32_t slot : Resident(fit->second)) {
    if (slot != kNoSlot) {
      dirty_bytes += slab_[slot].dirty ? slab_[slot].dirty_extent : 0;
      LruUnlink(slot);
      FreeSlot(slot);
    }
  }
  if (fit->second.dirty_count > 0) {
    dirty_files_.erase(fit->first);
  }
  files_.erase(fit);
  return dirty_bytes;
}

int64_t BlockCache::DropFile(uint64_t file, SimTime /*now*/) {
  auto fit = files_.find(file);
  return fit == files_.end() ? 0 : EraseFile(fit);
}

void BlockCache::InvalidateFile(uint64_t file, SimTime /*now*/) {
  auto fit = files_.find(file);
  if (fit == files_.end()) {
    return;
  }
  const int64_t cancelled = EraseFile(fit);
  if (counters_ != nullptr) {
    counters_->bytes_cancelled_before_writeback += cancelled;
  }
}

SimDuration BlockCache::LruAge(SimTime now) const {
  return lru_tail_ == kNoSlot ? -1 : now - slab_[lru_tail_].last_ref;
}

bool BlockCache::ReleaseLruToVm(SimTime now, const WritebackFn& writeback) {
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

std::pair<int64_t, int64_t> BlockCache::CrashReset(const WritebackFn& nvram_recovery) {
  int64_t lost = 0;
  int64_t recovered = 0;
  for (uint64_t file : dirty_files_) {
    for (uint32_t slot : Resident(files_.find(file)->second)) {
      if (slot == kNoSlot || !slab_[slot].dirty) {
        continue;
      }
      const Entry& entry = slab_[slot];
      if (nvram_recovery) {
        nvram_recovery(entry.key, entry.dirty_extent);
        recovered += entry.dirty_extent;
      } else {
        lost += entry.dirty_extent;
      }
    }
  }
  *this = BlockCache(config_, counters_);  // empty, at the minimum limit
  return {lost, recovered};
}

bool BlockCache::SyncVersion(uint64_t file, uint64_t server_version, SimTime now) {
  auto fit = files_.find(file);
  const bool had_version = fit != files_.end() && fit->second.version != 0;
  const bool stale = had_version && fit->second.version != server_version;
  const bool has_blocks = fit != files_.end() && fit->second.resident > 0;
  if (stale && has_blocks) {
    InvalidateFile(file, now);  // erases the FileState; recreated below
  }
  files_[file].version = server_version;
  return stale && has_blocks;
}

}  // namespace sprite
