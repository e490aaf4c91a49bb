#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace sprite {
namespace {

TEST(EventQueueTest, StartsAtZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0);
  EXPECT_EQ(q.pending_count(), 0u);
  EXPECT_FALSE(q.RunNext());
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, ScheduleDuringDispatch) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] {
    order.push_back(1);
    q.Schedule(15, [&] { order.push_back(2); });
    q.ScheduleAfter(1, [&] { order.push_back(3); });
  });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));  // 11 before 15
}

TEST(EventQueueTest, SchedulingInPastThrows) {
  EventQueue q;
  q.Schedule(10, [] {});
  q.RunAll();
  EXPECT_THROW(q.Schedule(5, [] {}), std::logic_error);
  EXPECT_THROW(q.ScheduleAfter(-1, [] {}), std::logic_error);
}

TEST(EventQueueTest, PastSchedulingErrorNamesBothTimestamps) {
  EventQueue q;
  q.Schedule(10, [] {});
  q.RunAll();
  try {
    q.Schedule(5, [] {});
    FAIL() << "Schedule into the past did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("now=10"), std::string::npos) << what;
    EXPECT_NE(what.find("requested=5"), std::string::npos) << what;
  }
}

TEST(EventQueueTest, MaxPendingTracksHighWaterMark) {
  EventQueue q;
  EXPECT_EQ(q.max_pending_count(), 0u);
  q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Schedule(30, [] {});
  EXPECT_EQ(q.max_pending_count(), 3u);
  q.RunNext();  // pending drops to 2; the high-water mark must not
  EXPECT_EQ(q.pending_count(), 2u);
  EXPECT_EQ(q.max_pending_count(), 3u);
  q.Schedule(40, [] {});
  q.Schedule(50, [] {});
  EXPECT_EQ(q.max_pending_count(), 4u);
  q.RunAll();
  EXPECT_EQ(q.max_pending_count(), 4u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  q.Schedule(30, [&] { order.push_back(3); });
  q.RunUntil(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending_count(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.RunUntil(1000);
  EXPECT_EQ(q.now(), 1000);
}

// --- RunUntil boundary contract (pinned; periodic daemons and metrics
// --- snapshots depend on these exact semantics) --------------------------------

TEST(EventQueueTest, RunUntilDeadlineIsInclusive) {
  // An event scheduled at exactly the deadline runs, and the callback
  // observes its own timestamp (the clock does not jump past it first).
  EventQueue q;
  bool ran = false;
  SimTime observed = -1;
  q.Schedule(500, [&] {
    ran = true;
    observed = q.now();
  });
  q.RunUntil(500);
  EXPECT_TRUE(ran);
  EXPECT_EQ(observed, 500);
  EXPECT_EQ(q.now(), 500);
  EXPECT_EQ(q.pending_count(), 0u);
}

TEST(EventQueueTest, RunUntilPastDeadlineIsNoOpAndNeverRewinds) {
  EventQueue q;
  q.RunUntil(1000);
  ASSERT_EQ(q.now(), 1000);
  bool ran = false;
  q.Schedule(2000, [&] { ran = true; });
  // A deadline behind the clock dispatches nothing and must not rewind time.
  q.RunUntil(500);
  EXPECT_EQ(q.now(), 1000);
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.pending_count(), 1u);
}

TEST(EventQueueTest, ScheduleAtNowRunsAfterPendingEventsAtSameTime) {
  EventQueue q;
  q.RunUntil(100);
  std::vector<int> order;
  q.Schedule(100, [&] { order.push_back(1); });
  q.Schedule(100, [&] { order.push_back(2); });
  q.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 100);
}

TEST(PeriodicTaskTest, FirstAtNowFiresExactlyOnce) {
  // first_at == now() is a valid start: the first firing dispatches once at
  // the current time — no double fire, no silent skip to first_at + period.
  EventQueue q;
  q.RunUntil(100);
  std::vector<SimTime> fires;
  PeriodicTask task(q, /*first_at=*/100, /*period=*/50, [&](SimTime t) { fires.push_back(t); });
  q.RunUntil(100);
  EXPECT_EQ(fires, (std::vector<SimTime>{100}));
  q.RunUntil(200);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 150, 200}));
}

TEST(EventQueueTest, RunAllBudgetGuardsRunaway) {
  EventQueue q;
  std::function<void()> self = [&] { q.ScheduleAfter(1, self); };
  q.Schedule(0, self);
  EXPECT_THROW(q.RunAll(/*max_events=*/1000), std::runtime_error);
}

TEST(EventQueueTest, DispatchedCount) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(i, [] {});
  }
  q.RunAll();
  EXPECT_EQ(q.dispatched_count(), 5u);
}

TEST(PeriodicTaskTest, FiresAtPeriod) {
  EventQueue q;
  std::vector<SimTime> fires;
  PeriodicTask task(q, 100, 50, [&](SimTime t) { fires.push_back(t); });
  q.RunUntil(300);
  task.Cancel();
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 150, 200, 250, 300}));
}

TEST(PeriodicTaskTest, CancelStopsFiring) {
  EventQueue q;
  int count = 0;
  PeriodicTask task(q, 10, 10, [&](SimTime) { ++count; });
  q.RunUntil(35);
  task.Cancel();
  q.RunUntil(1000);
  EXPECT_EQ(count, 3);  // fired at 10, 20, 30
}

TEST(PeriodicTaskTest, DestructionCancels) {
  EventQueue q;
  int count = 0;
  {
    PeriodicTask task(q, 10, 10, [&](SimTime) { ++count; });
    q.RunUntil(25);
  }
  q.RunUntil(1000);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTaskTest, CancelFromWithinCallback) {
  EventQueue q;
  int count = 0;
  PeriodicTask* handle = nullptr;
  PeriodicTask task(q, 10, 10, [&](SimTime) {
    ++count;
    if (count == 2) {
      handle->Cancel();
    }
  });
  handle = &task;
  q.RunUntil(1000);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTaskTest, RejectsNonPositivePeriod) {
  EventQueue q;
  EXPECT_THROW(PeriodicTask(q, 0, 0, [](SimTime) {}), std::logic_error);
}

TEST(EventQueueTest, RejectedScheduleLeavesQueueIntact) {
  // Strong exception guarantee: a Schedule into the past throws without
  // consuming a sequence number, touching the heap, or poisoning the pool —
  // the queue keeps dispatching as if the bad call never happened.
  EventQueue q;
  q.Schedule(10, [] {});
  q.RunAll();

  std::vector<int> order;
  q.Schedule(20, [&] { order.push_back(1); });
  q.Schedule(30, [&] { order.push_back(2); });
  const uint64_t dispatched = q.dispatched_count();
  const size_t pending = q.pending_count();
  const size_t max_pending = q.max_pending_count();

  try {
    q.Schedule(5, [&] { order.push_back(99); });
    FAIL() << "Schedule into the past did not throw";
  } catch (const std::logic_error& e) {
    // The diagnostic reports the live queue depth at the failed call.
    EXPECT_NE(std::string(e.what()).find("pending=2"), std::string::npos) << e.what();
  }

  EXPECT_EQ(q.now(), 10);
  EXPECT_EQ(q.pending_count(), pending);
  EXPECT_EQ(q.dispatched_count(), dispatched);
  EXPECT_EQ(q.max_pending_count(), max_pending);

  // Still fully usable, including among the events scheduled before the
  // rejected call.
  q.Schedule(25, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(q.now(), 30);
  EXPECT_EQ(q.dispatched_count(), dispatched + 3);
}

TEST(EventQueueTest, RandomizedCrossCheckAgainstStableOrderModel) {
  // 10k seeded-random events with heavily duplicated timestamps, re-entrant
  // scheduling (callbacks spawning children, recursively), and periodic
  // tasks cancelled three different ways. Cross-checks the full dispatch
  // order against an independent model: dispatch order must equal a stable
  // sort by timestamp of the events in scheduling order (FIFO among equal
  // times), regardless of heap arity or pooling. Also pins the
  // dispatched/max-pending accounting. The sanitize CI pass runs this same
  // test under ASan/UBSan, exercising the pool recycling under churn.
  EventQueue q;
  std::mt19937 rng(20260809u);  // fixed seed: identical on every platform

  struct Scheduled {
    SimTime at;
    int id;
  };
  std::vector<Scheduled> mirror;  // every visible Schedule, in call order
  std::vector<int> dispatch_log;
  std::vector<SimTime> dispatch_times;
  size_t model_pending = 0;
  size_t model_max_pending = 0;

  std::function<void(SimTime, int)> on_dispatch = [&](SimTime at, int id) {
    --model_pending;  // the running event left the heap before its callback
    dispatch_log.push_back(id);
    dispatch_times.push_back(q.now());
    EXPECT_EQ(q.now(), at);
    if (rng() % 20 == 0) {  // ~5%: re-entrant scheduling during dispatch
      const int children = 1 + static_cast<int>(rng() % 2);
      for (int c = 0; c < children; ++c) {
        const SimTime child_at = q.now() + static_cast<SimTime>(rng() % 500);
        const int child_id = static_cast<int>(mirror.size());
        mirror.push_back({child_at, child_id});
        model_max_pending = std::max(model_max_pending, ++model_pending);
        q.Schedule(child_at, [&, child_at, child_id] { on_dispatch(child_at, child_id); });
      }
    }
  };

  constexpr int kMainEvents = 10000;
  for (int i = 0; i < kMainEvents; ++i) {
    // Coarse timestamps force ~10-way duplication per tick.
    const SimTime at = static_cast<SimTime>(rng() % 1000) * 10;
    const int id = static_cast<int>(mirror.size());
    mirror.push_back({at, id});
    model_max_pending = std::max(model_max_pending, ++model_pending);
    q.Schedule(at, [&, at, id] { on_dispatch(at, id); });
  }

  // Periodic tasks riding along (their fires log separately, so they don't
  // perturb the main order pin): one cancels itself mid-callback, one is
  // cancelled while its next arm is already pending, one runs to the drain.
  std::vector<SimTime> self_fires, paused_fires, survivor_fires;
  PeriodicTask* self_handle = nullptr;
  PeriodicTask self_cancel(q, 7, 37, [&](SimTime t) {
    self_fires.push_back(t);
    if (self_fires.size() == 5) {
      self_handle->Cancel();
    }
  });
  self_handle = &self_cancel;
  PeriodicTask paused(q, 11, 101, [&](SimTime t) { paused_fires.push_back(t); });
  PeriodicTask survivor(q, 3, 250, [&](SimTime t) { survivor_fires.push_back(t); });
  model_pending += 3;  // the three first arms
  model_max_pending = std::max(model_max_pending, model_pending);

  q.RunUntil(5000);
  paused.Cancel();  // next arm stays pending; it must dispatch as a no-op
  q.RunUntil(12000);  // past the last main-event timestamp
  survivor.Cancel();
  q.RunAll();  // drain straggler children and the cancelled no-op arms

  // Dispatch order == stable sort by time of the scheduling order. Ties keep
  // mirror order because sequence numbers increase monotonically across
  // every Schedule call, including re-entrant ones.
  std::vector<Scheduled> expected = mirror;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Scheduled& a, const Scheduled& b) { return a.at < b.at; });
  ASSERT_EQ(dispatch_log.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(dispatch_log[i], expected[i].id) << "divergence at dispatch index " << i;
  }
  for (size_t i = 1; i < dispatch_times.size(); ++i) {
    ASSERT_LE(dispatch_times[i - 1], dispatch_times[i]) << "time went backwards at " << i;
  }

  // Periodic fire schedules are pure arithmetic.
  EXPECT_EQ(self_fires, (std::vector<SimTime>{7, 44, 81, 118, 155}));
  std::vector<SimTime> expect_paused;
  for (SimTime t = 11; t <= 5000; t += 101) {
    expect_paused.push_back(t);
  }
  EXPECT_EQ(paused_fires, expect_paused);
  std::vector<SimTime> expect_survivor;
  for (SimTime t = 3; t <= 12000; t += 250) {
    expect_survivor.push_back(t);
  }
  EXPECT_EQ(survivor_fires, expect_survivor);

  // Total dispatches: every mirrored event ran once; the self-cancelling
  // task never armed a sixth time; the other two each left one pending arm
  // that dispatched as a cancelled no-op.
  const uint64_t expected_dispatched = static_cast<uint64_t>(mirror.size()) +
                                       self_fires.size() + (paused_fires.size() + 1) +
                                       (survivor_fires.size() + 1);
  EXPECT_EQ(q.dispatched_count(), expected_dispatched);
  EXPECT_EQ(q.max_pending_count(), model_max_pending);
  EXPECT_EQ(q.pending_count(), 0u);
}

}  // namespace
}  // namespace sprite
