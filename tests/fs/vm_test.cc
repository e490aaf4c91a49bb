#include "src/fs/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>

#include "src/util/rng.h"

namespace sprite {
namespace {

constexpr SimDuration kPref = 20 * kMinute;

TEST(VmTest, StartsEmpty) {
  Vm vm(kPref);
  EXPECT_EQ(vm.resident_pages(), 0);
  EXPECT_FALSE(vm.EvictLru().valid);
}

TEST(VmTest, AddAndEvictLruOrder) {
  Vm vm(kPref);
  vm.AddPage(PageKind::kCode, 1);
  vm.AddPage(PageKind::kStack, 2);
  // LRU is the first added.
  const Vm::Evicted e = vm.EvictLru();
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(e.kind, PageKind::kCode);
  EXPECT_EQ(vm.resident_pages(), 1);
}

TEST(VmTest, YieldRequiresPreferenceAge) {
  Vm vm(kPref);
  vm.AddPage(PageKind::kCode, 0);
  EXPECT_FALSE(vm.TryYieldIdlePage(kPref - 1));
  EXPECT_TRUE(vm.TryYieldIdlePage(kPref));
  EXPECT_EQ(vm.resident_pages(), 0);
}

TEST(VmTest, TouchWorkingSetKeepsPagesHot) {
  Vm vm(kPref);
  vm.AddPage(PageKind::kInitData, 0);
  vm.TouchWorkingSet(kPref, 1);
  EXPECT_FALSE(vm.TryYieldIdlePage(kPref + 1)) << "recently touched page is not yieldable";
  EXPECT_TRUE(vm.TryYieldIdlePage(2 * kPref));
}

TEST(VmTest, TouchWorkingSetOnlyPrefix) {
  Vm vm(kPref);
  vm.AddPage(PageKind::kCode, 0);  // will be at the back (LRU)
  vm.AddPage(PageKind::kCode, 0);
  vm.TouchWorkingSet(kPref, 1);  // refreshes only the MRU page
  EXPECT_TRUE(vm.TryYieldIdlePage(kPref)) << "the untouched LRU page is yieldable";
  EXPECT_FALSE(vm.TryYieldIdlePage(kPref));
}

TEST(VmTest, TouchMoreThanResidentIsSafe) {
  Vm vm(kPref);
  vm.AddPage(PageKind::kCode, 0);
  vm.TouchWorkingSet(1, 50);
  EXPECT_EQ(vm.resident_pages(), 1);
}

TEST(VmTest, EvictColdPagesCountsDirty) {
  Vm vm(kPref);
  vm.AddPage(PageKind::kModifiedData, 0);
  vm.AddPage(PageKind::kCode, 1);
  vm.AddPage(PageKind::kStack, 2);
  vm.AddPage(PageKind::kInitData, 3);
  // Evict the three LRU pages: modified-data (dirty), code (clean),
  // stack (dirty).
  EXPECT_EQ(vm.EvictColdPages(3), 2);
  EXPECT_EQ(vm.resident_pages(), 1);
}

TEST(VmTest, EvictColdPagesMoreThanResident) {
  Vm vm(kPref);
  vm.AddPage(PageKind::kStack, 0);
  EXPECT_EQ(vm.EvictColdPages(10), 1);
  EXPECT_EQ(vm.resident_pages(), 0);
}

TEST(VmTest, BootFloorPagesAreEvictedFirstAsCleanCode) {
  Vm vm(kPref, 3);
  EXPECT_EQ(vm.resident_pages(), 3);
  EXPECT_EQ(vm.EvictableLruAge(5), -1) << "nothing above the floor";
  EXPECT_FALSE(vm.EvictLru().valid);
  EXPECT_FALSE(vm.TryYieldIdlePage(2 * kPref));

  vm.AddPage(PageKind::kStack, 10);
  vm.AddPage(PageKind::kModifiedData, 11);
  vm.AddPage(PageKind::kStack, 12);
  // The floor is a count, not a set of pinned pages: the boot pages,
  // referenced at time 0, are the LRU and go first.
  EXPECT_EQ(vm.EvictableLruAge(100), 100);
  EXPECT_EQ(vm.EvictColdPages(2), 0) << "two boot pages: clean code";
  const Vm::Evicted third = vm.EvictLru();
  ASSERT_TRUE(third.valid);
  EXPECT_EQ(third.kind, PageKind::kCode);
  EXPECT_EQ(vm.resident_pages(), 3);
  EXPECT_FALSE(vm.EvictLru().valid) << "the three process pages now hold the floor";
  EXPECT_EQ(vm.EvictableLruAge(100), -1);

  vm.AddPage(PageKind::kInitData, 13);
  const Vm::Evicted stack = vm.EvictLru();
  ASSERT_TRUE(stack.valid);
  EXPECT_EQ(stack.kind, PageKind::kStack);

  // A reboot restores the floor as clean code pages referenced at time 0.
  vm.CrashReset();
  EXPECT_EQ(vm.resident_pages(), 3);
  vm.AddPage(PageKind::kModifiedData, 50);
  EXPECT_EQ(vm.EvictableLruAge(kPref), kPref);
  EXPECT_TRUE(vm.TryYieldIdlePage(kPref)) << "a boot page, idle since time 0";
  EXPECT_FALSE(vm.TryYieldIdlePage(kPref));
}

// The per-page pool the run-length Vm replaced: one {kind, last_ref} per
// page, MRU first.
class ReferenceVm {
 public:
  ReferenceVm(SimDuration preference_age, int64_t floor_pages)
      : preference_age_(preference_age), floor_pages_(floor_pages) {
    CrashReset();
  }

  int64_t resident_pages() const { return static_cast<int64_t>(pages_.size()); }

  void AddPage(PageKind kind, SimTime now) { pages_.push_front(Page{kind, now}); }

  void TouchWorkingSet(SimTime now, int64_t count) {
    const int64_t n = std::min(count, resident_pages());
    for (int64_t i = 0; i < n; ++i) {
      pages_[static_cast<size_t>(i)].last_ref = now;
    }
  }

  Vm::Evicted EvictLru() {
    if (resident_pages() <= floor_pages_) {
      return {};
    }
    const Page page = pages_.back();
    pages_.pop_back();
    return Vm::Evicted{page.kind, true};
  }

  SimDuration EvictableLruAge(SimTime now) const {
    return resident_pages() <= floor_pages_ ? -1 : now - pages_.back().last_ref;
  }

  bool TryYieldIdlePage(SimTime now) {
    if (resident_pages() <= floor_pages_ || now - pages_.back().last_ref < preference_age_) {
      return false;
    }
    pages_.pop_back();
    return true;
  }

  void CrashReset() {
    pages_.clear();
    for (int64_t i = 0; i < floor_pages_; ++i) {
      pages_.push_back(Page{PageKind::kCode, 0});
    }
  }

  int64_t EvictColdPages(int64_t count) {
    int64_t dirty = 0;
    for (int64_t i = 0; i < count && resident_pages() > floor_pages_; ++i) {
      const PageKind kind = pages_.back().kind;
      dirty += kind == PageKind::kModifiedData || kind == PageKind::kStack;
      pages_.pop_back();
    }
    return dirty;
  }

 private:
  struct Page {
    PageKind kind;
    SimTime last_ref;
  };

  SimDuration preference_age_;
  int64_t floor_pages_;
  std::deque<Page> pages_;
};

// A time near `now`: equal, later or earlier, so runs meet every order.
SimTime NearTime(Rng& rng, SimTime now) {
  switch (rng.NextBelow(4)) {
    case 0:
      return now - static_cast<SimDuration>(rng.NextBelow(12));
    case 1:
      return now + static_cast<SimDuration>(rng.NextBelow(3));
    default:
      return now;
  }
}

void ExpectSameThroughRandomSteps(int64_t floor_pages, uint64_t seed, int steps) {
  constexpr SimDuration kShortPref = 16;
  Rng rng(seed);
  Vm vm(kShortPref, floor_pages);
  ReferenceVm model(kShortPref, floor_pages);
  SimTime now = 0;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    now += static_cast<SimDuration>(rng.NextBelow(3));  // often unchanged
    const uint64_t op = rng.NextBelow(100);
    if (op < 34) {
      const auto kind = static_cast<PageKind>(rng.NextBelow(4));
      const SimTime t = NearTime(rng, now);
      vm.AddPage(kind, t);
      model.AddPage(kind, t);
    } else if (op < 54) {
      const int64_t size = model.resident_pages();
      int64_t count = 0;
      switch (rng.NextBelow(4)) {
        case 0:
          count = -static_cast<int64_t>(rng.NextBelow(3));  // <= 0: no-op
          break;
        case 1:
          count = size + 1 + static_cast<int64_t>(rng.NextBelow(5));  // above size
          break;
        default:
          count = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(size) + 1));
          break;
      }
      const SimTime t = NearTime(rng, now);
      vm.TouchWorkingSet(t, count);
      model.TouchWorkingSet(t, count);
    } else if (op < 64) {
      const Vm::Evicted got = vm.EvictLru();
      const Vm::Evicted want = model.EvictLru();
      ASSERT_EQ(got.valid, want.valid);
      if (want.valid) {
        ASSERT_EQ(got.kind, want.kind);
      }
    } else if (op < 74) {
      const SimTime t = now + static_cast<SimDuration>(rng.NextBelow(2 * kShortPref));
      ASSERT_EQ(vm.TryYieldIdlePage(t), model.TryYieldIdlePage(t));
    } else if (op < 86) {
      const SimTime t = NearTime(rng, now);
      ASSERT_EQ(vm.EvictableLruAge(t), model.EvictableLruAge(t));
    } else if (op < 99) {
      const auto count = static_cast<int64_t>(rng.NextBelow(8));
      ASSERT_EQ(vm.EvictColdPages(count), model.EvictColdPages(count));
    } else {
      vm.CrashReset();
      model.CrashReset();
    }
    ASSERT_EQ(vm.resident_pages(), model.resident_pages());
  }
  // Drain the pool: every remaining page comes out in the same order.
  while (true) {
    ASSERT_EQ(vm.EvictableLruAge(now), model.EvictableLruAge(now));
    const Vm::Evicted got = vm.EvictLru();
    const Vm::Evicted want = model.EvictLru();
    ASSERT_EQ(got.valid, want.valid);
    if (!want.valid) {
      break;
    }
    ASSERT_EQ(got.kind, want.kind);
  }
  EXPECT_EQ(vm.resident_pages(), floor_pages);
}

TEST(VmTest, MatchesPerPageReferenceThroughRandomSteps) {
  for (const int64_t floor_pages : {int64_t{0}, int64_t{37}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("floor " + std::to_string(floor_pages) + " seed " + std::to_string(seed));
      ExpectSameThroughRandomSteps(floor_pages, seed, 4000);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
}

}  // namespace
}  // namespace sprite
