#include "src/util/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/function_ref.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

constexpr uint64_t kMaxKey = (uint64_t{1} << 63) - 1;

TEST(FlatMapTest, EmptyMapFindsNothing) {
  FlatMap<int> map;
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(kMaxKey), nullptr);
  EXPECT_FALSE(map.Erase(3));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), 0u);
}

TEST(FlatMapTest, TryEmplaceInsertsOnce) {
  FlatMap<int> map;
  auto [value, inserted] = map.TryEmplace(5, 50);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 50);
  auto [again, inserted_again] = map.TryEmplace(5, 99);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 50) << "an existing value is not overwritten";
  map[6] += 7;
  EXPECT_EQ(*map.Find(6), 7) << "operator[] default-constructs";
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMapTest, BoundaryKeys) {
  FlatMap<std::string> map;
  map[0] = "zero";
  map[kMaxKey] = "max";
  ASSERT_NE(map.Find(0), nullptr);
  ASSERT_NE(map.Find(kMaxKey), nullptr);
  EXPECT_EQ(*map.Find(0), "zero");
  EXPECT_EQ(*map.Find(kMaxKey), "max");
  EXPECT_TRUE(map.Erase(0));
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(kMaxKey), "max");
}

TEST(FlatMapTest, GrowthKeepsEveryEntry) {
  FlatMap<uint64_t> map;
  for (uint64_t k = 0; k < 10'000; ++k) {
    map[k * 1000 + 7] = k;
    ASSERT_LE(map.size() * 8, map.capacity() * 7) << "load stays at or below 7/8";
  }
  EXPECT_EQ(map.size(), 10'000u);
  for (uint64_t k = 0; k < 10'000; ++k) {
    ASSERT_NE(map.Find(k * 1000 + 7), nullptr) << k;
    EXPECT_EQ(*map.Find(k * 1000 + 7), k);
  }
}

// Keys that all hash into the last slots of an 8-slot table, so their probe
// run wraps past the end to slot 0, and erasing from the front of the run
// must shift entries back across the wrap.
TEST(FlatMapTest, BackwardShiftEraseAcrossWrapAround) {
  std::vector<uint64_t> tail_keys;
  for (uint64_t k = 2; tail_keys.size() < 5; ++k) {
    // Home slot is the top three bits of the Fibonacci product.
    if (((k * 0x9e3779b97f4a7c15ULL) >> 61) == 7) {
      tail_keys.push_back(k);
    }
  }
  FlatMap<int> map;
  for (size_t i = 0; i < tail_keys.size(); ++i) {
    map[tail_keys[i]] = static_cast<int>(i);
  }
  ASSERT_EQ(map.capacity(), 8u) << "five entries fit without growth";
  for (size_t i = 0; i < tail_keys.size(); ++i) {
    ASSERT_TRUE(map.Erase(tail_keys[i]));
    EXPECT_EQ(map.Find(tail_keys[i]), nullptr);
    for (size_t j = i + 1; j < tail_keys.size(); ++j) {
      ASSERT_NE(map.Find(tail_keys[j]), nullptr) << "lost key " << j << " after erasing " << i;
      EXPECT_EQ(*map.Find(tail_keys[j]), static_cast<int>(j));
    }
  }
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMapTest, ClearKeepsCapacity) {
  FlatMap<int> map;
  for (uint64_t k = 0; k < 100; ++k) {
    map[k] = 1;
  }
  const size_t capacity = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.Find(3), nullptr);
  map[3] = 4;
  EXPECT_EQ(*map.Find(3), 4);
}

// Random inserts, lookups and erases against std::unordered_map. Keys come
// from a small dense range (long collision runs and frequent re-use of
// erased slots), a strided range and the full 63-bit range.
TEST(FlatMapTest, MatchesUnorderedMap) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FlatMap<int64_t> map;
    std::unordered_map<uint64_t, int64_t> model;
    for (int op = 0; op < 20'000; ++op) {
      uint64_t key = 0;
      switch (rng.NextBelow(4)) {
        case 0:
          key = rng.NextBelow(64);
          break;
        case 1:
          key = 100'000 + 1000 * rng.NextBelow(200);
          break;
        case 2:
          key = rng() >> 1;
          break;
        default:
          key = rng.NextBool(0.5) ? 0 : kMaxKey;
          break;
      }
      const auto value = static_cast<int64_t>(rng.NextBelow(1000));
      switch (rng.NextBelow(5)) {
        case 0:
        case 1: {
          const auto [it, inserted] = model.try_emplace(key, value);
          const auto [got, got_inserted] = map.TryEmplace(key, value);
          ASSERT_EQ(got_inserted, inserted);
          ASSERT_EQ(*got, it->second);
          break;
        }
        case 2:
          ASSERT_EQ(map.Erase(key), model.erase(key) == 1);
          break;
        case 3:
          map[key] = value;
          model[key] = value;
          break;
        default: {
          const int64_t* got = map.Find(key);
          const auto it = model.find(key);
          ASSERT_EQ(got != nullptr, it != model.end());
          if (got != nullptr) {
            ASSERT_EQ(*got, it->second);
          }
          break;
        }
      }
      ASSERT_EQ(map.size(), model.size());
      if (op % 1000 == 999) {
        for (const auto& [k, v] : model) {
          ASSERT_NE(map.Find(k), nullptr) << k;
          ASSERT_EQ(*map.Find(k), v) << k;
        }
      }
    }
  }
}

int CallTwice(FunctionRef<int(int)> fn) { return fn ? fn(1) + fn(2) : -1; }

TEST(FunctionRefTest, CallsWithoutCopying) {
  int calls = 0;
  auto counting = [&calls](int x) {
    ++calls;
    return 10 * x;
  };
  EXPECT_EQ(CallTwice(counting), 30);
  EXPECT_EQ(calls, 2);
  // A mutable temporary keeps its state across the calls it serves.
  EXPECT_EQ(CallTwice([n = 0](int) mutable { return ++n; }), 1 + 2);
}

TEST(FunctionRefTest, EmptyCallablesAreEmpty) {
  EXPECT_EQ(CallTwice(nullptr), -1);
  EXPECT_EQ(CallTwice({}), -1);
  EXPECT_EQ(CallTwice(std::function<int(int)>()), -1);
  int (*null_fn)(int) = nullptr;
  EXPECT_EQ(CallTwice(null_fn), -1);
  EXPECT_EQ(CallTwice(std::function<int(int)>([](int x) { return x; })), 3);
}

}  // namespace
}  // namespace sprite
