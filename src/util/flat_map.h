// Open-addressing hash map from uint64_t keys to values.
//
// Keys and values sit in two parallel flat arrays with a power-of-two
// capacity. Collisions probe linearly, so a probe walks a dense key array
// and touches the value only on a hit. Erase shifts later entries of the
// probe run back into the hole (no tombstones), so probe runs stay as
// short as the load allows. Growth doubles the capacity past a 7/8 load.
//
// There is deliberately no iteration API: the order would be hash order,
// and the owners of these maps (the block cache's per-file index, the
// placement ledger) only ever look keys up.
//
// Entries move on growth and on erase, so a pointer returned by Find or
// TryEmplace is valid only until the next TryEmplace, Erase or clear.
// The key ~0 is reserved as the empty-slot marker.

#ifndef SPRITE_DFS_SRC_UTIL_FLAT_MAP_H_
#define SPRITE_DFS_SRC_UTIL_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sprite {

template <typename V>
class FlatMap {
 public:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  size_t size() const { return size_; }
  size_t capacity() const { return keys_.size(); }

  const V* Find(uint64_t key) const {
    if (keys_.empty()) {
      return nullptr;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        return &values_[i];
      }
      if (keys_[i] == kEmptyKey) {
        return nullptr;
      }
    }
  }
  V* Find(uint64_t key) { return const_cast<V*>(std::as_const(*this).Find(key)); }

  // Returns the value for `key` and true if it was inserted (constructed
  // from `args`), or the existing value and false.
  template <typename... Args>
  std::pair<V*, bool> TryEmplace(uint64_t key, Args&&... args) {
    assert(key != kEmptyKey);
    if (V* existing = Find(key)) {
      return {existing, false};
    }
    if ((size_ + 1) * 8 > keys_.size() * 7) {
      Rehash(keys_.empty() ? 8 : 2 * keys_.size());
    }
    const size_t i = EmptySlotFor(key);
    keys_[i] = key;
    values_[i] = V(std::forward<Args>(args)...);
    ++size_;
    return {&values_[i], true};
  }

  V& operator[](uint64_t key) { return *TryEmplace(key).first; }

  // Removes `key`; returns false if it was absent.
  bool Erase(uint64_t key) {
    if (keys_.empty()) {
      return false;
    }
    size_t hole = Home(key);
    while (keys_[hole] != key) {
      if (keys_[hole] == kEmptyKey) {
        return false;
      }
      hole = (hole + 1) & mask_;
    }
    // Backward-shift: an entry may fill the hole unless its home lies
    // cyclically inside (hole, j], where moving it would put it before its
    // home and out of its own probe run.
    for (size_t j = (hole + 1) & mask_; keys_[j] != kEmptyKey; j = (j + 1) & mask_) {
      if (((j - Home(keys_[j])) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        values_[hole] = std::move(values_[j]);
        hole = j;
      }
    }
    keys_[hole] = kEmptyKey;
    values_[hole] = V();
    --size_;
    return true;
  }

  // Empties the map and keeps its capacity.
  void clear() {
    for (size_t i = 0; i < keys_.size(); ++i) {
      keys_[i] = kEmptyKey;
      values_[i] = V();
    }
    size_ = 0;
  }

 private:
  // Fibonacci hashing: the top bits of key * 2^64/phi spread consecutive
  // and strided ids (the file-id layout is full of both) over the table.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  size_t EmptySlotFor(uint64_t key) const {
    size_t i = Home(key);
    while (keys_[i] != kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(size_t capacity) {
    std::vector<uint64_t> old_keys(capacity, kEmptyKey);
    std::vector<V> old_values(capacity);
    old_keys.swap(keys_);
    old_values.swap(values_);
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) {
      --shift_;
    }
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmptyKey) {
        const size_t at = EmptySlotFor(old_keys[i]);
        keys_[at] = old_keys[i];
        values_[at] = std::move(old_values[i]);
      }
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_UTIL_FLAT_MAP_H_
