// Tests for the discrete-event scheduler and simulator driver.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_scheduler.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace diffusion {
namespace {

TEST(SchedulerTest, RunsInTimeOrder) {
  EventScheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(30, [&] { order.push_back(3); });
  scheduler.ScheduleAt(10, [&] { order.push_back(1); });
  scheduler.ScheduleAt(20, [&] { order.push_back(2); });
  scheduler.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), 30);
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  EventScheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  scheduler.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, CancelPreventsExecution) {
  EventScheduler scheduler;
  bool ran = false;
  const EventId id = scheduler.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(scheduler.Cancel(id));
  scheduler.RunAll();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelIsIdempotentAndSafeAfterRun) {
  EventScheduler scheduler;
  const EventId id = scheduler.ScheduleAt(10, [] {});
  scheduler.RunAll();
  EXPECT_FALSE(scheduler.Cancel(id));
  EXPECT_FALSE(scheduler.Cancel(id));
  EXPECT_FALSE(scheduler.Cancel(kInvalidEventId));
  EXPECT_TRUE(scheduler.Empty());
}

TEST(SchedulerTest, PendingCountTracksCancellation) {
  EventScheduler scheduler;
  const EventId a = scheduler.ScheduleAt(10, [] {});
  scheduler.ScheduleAt(20, [] {});
  EXPECT_EQ(scheduler.pending(), 2u);
  scheduler.Cancel(a);
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.RunAll();
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  EventScheduler scheduler;
  std::vector<SimTime> times;
  scheduler.ScheduleAt(1, [&] {
    times.push_back(scheduler.now());
    scheduler.ScheduleAfter(5, [&] { times.push_back(scheduler.now()); });
  });
  scheduler.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{1, 6}));
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryInclusive) {
  EventScheduler scheduler;
  std::vector<SimTime> times;
  scheduler.ScheduleAt(10, [&] { times.push_back(10); });
  scheduler.ScheduleAt(20, [&] { times.push_back(20); });
  scheduler.ScheduleAt(21, [&] { times.push_back(21); });
  const size_t run = scheduler.RunUntil(20);
  EXPECT_EQ(run, 2u);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(scheduler.now(), 20);
  scheduler.RunAll();
  EXPECT_EQ(times.back(), 21);
}

TEST(SchedulerTest, RunUntilAdvancesClockWhenQueueDrains) {
  EventScheduler scheduler;
  scheduler.ScheduleAt(5, [] {});
  scheduler.RunUntil(100);
  EXPECT_EQ(scheduler.now(), 100);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  EventScheduler scheduler;
  scheduler.ScheduleAt(50, [] {});
  scheduler.RunAll();
  SimTime when = -1;
  scheduler.ScheduleAt(10, [&] { when = scheduler.now(); });
  scheduler.RunAll();
  EXPECT_EQ(when, 50);  // clamped, not time-travel
}

TEST(SchedulerTest, CancelFromInsideCallback) {
  EventScheduler scheduler;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  second = scheduler.ScheduleAt(20, [&] { second_ran = true; });
  scheduler.ScheduleAt(10, [&] { scheduler.Cancel(second); });
  scheduler.RunAll();
  EXPECT_FALSE(second_ran);
}

TEST(SchedulerTest, CancelCompactsDeadHeapEntries) {
  // Regression: Cancel used to only drop the id from the live set, leaving
  // the heap entry (and its captured closure) resident until its deadline was
  // reached. A workload that endlessly schedules far-future timers and
  // cancels them (interest refresh, reassembly timeouts) grew the queue
  // without bound. Compaction keeps the heap within a constant factor of the
  // live count.
  EventScheduler scheduler;
  for (int round = 0; round < 10'000; ++round) {
    const EventId id = scheduler.ScheduleAt(1'000'000 + round, [] {});
    EXPECT_TRUE(scheduler.Cancel(id));
  }
  EXPECT_EQ(scheduler.pending(), 0u);
  // Bounded: 2 * live + O(1), not 10'000 dead closures.
  EXPECT_LE(scheduler.queue_size(), 16u);

  // Interleaved live and cancelled events: live ones still run, in order.
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 1'000; ++i) {
    scheduler.ScheduleAt(100 + i, [&order, i] { order.push_back(i); });
    doomed.push_back(scheduler.ScheduleAt(500'000 + i, [&order] { order.push_back(-1); }));
  }
  for (EventId id : doomed) {
    EXPECT_TRUE(scheduler.Cancel(id));
  }
  EXPECT_EQ(scheduler.pending(), 1'000u);
  EXPECT_LE(scheduler.queue_size(), 2u * scheduler.pending() + 16u);
  scheduler.RunAll();
  ASSERT_EQ(order.size(), 1'000u);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

// ---- pairing heap vs compat binary heap ----
//
// The two implementations must run every workload in the identical
// (time, insertion-sequence) order; simulations are byte-identical under
// either. These tests drive both side by side.

TEST(SchedulerImplTest, TieOrderIsIdenticalAcrossImpls) {
  EventScheduler pairing(EventScheduler::Impl::kPairingHeap);
  EventScheduler compat(EventScheduler::Impl::kCompatBinaryHeap);
  std::vector<int> pairing_order;
  std::vector<int> compat_order;
  // Many events at few distinct times: tie-breaking does all the work.
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const SimTime when = rng.NextInt(0, 5);
    pairing.ScheduleAt(when, [&pairing_order, i] { pairing_order.push_back(i); });
    compat.ScheduleAt(when, [&compat_order, i] { compat_order.push_back(i); });
  }
  pairing.RunAll();
  compat.RunAll();
  EXPECT_EQ(pairing_order, compat_order);
}

TEST(SchedulerImplTest, PairingHeapCancelUnlinksEagerly) {
  // O(1) Cancel means the node (and its closure's captured state) leaves
  // the queue immediately — queue_size() tracks pending() exactly, with no
  // compaction slack and no dead closures waiting for their deadline.
  EventScheduler scheduler(EventScheduler::Impl::kPairingHeap);
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const EventId id = scheduler.ScheduleAt(1'000'000, [token = std::move(token)] {});
  EXPECT_TRUE(scheduler.Cancel(id));
  EXPECT_TRUE(watch.expired());  // capture released at Cancel, not at deadline
  EXPECT_EQ(scheduler.queue_size(), 0u);

  for (int round = 0; round < 10'000; ++round) {
    EXPECT_TRUE(scheduler.Cancel(scheduler.ScheduleAt(1'000'000 + round, [] {})));
  }
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(scheduler.queue_size(), 0u);
}

TEST(SchedulerImplTest, CancelUnderChurnKeepsLiveEventsInOrder) {
  // Interleave schedules and cancels deep inside the heap structure, then
  // verify the survivors still run in exact (time, insertion) order.
  for (const auto impl :
       {EventScheduler::Impl::kPairingHeap, EventScheduler::Impl::kCompatBinaryHeap}) {
    EventScheduler scheduler(impl);
    Rng rng(23);
    std::vector<std::pair<EventId, int>> cancellable;
    std::vector<std::pair<SimTime, int>> expected;
    std::vector<int> ran;
    for (int i = 0; i < 2'000; ++i) {
      const SimTime when = rng.NextInt(0, 300);
      const EventId id = scheduler.ScheduleAt(when, [&ran, i] { ran.push_back(i); });
      if (rng.NextBool(0.5)) {
        cancellable.emplace_back(id, i);
        expected.emplace_back(when, i);
      } else {
        expected.emplace_back(when, i);
      }
    }
    // Cancel every other cancellable event, in a shuffled-ish order (walk
    // from both ends) to stress unlinking roots, leaves, and middles.
    std::vector<int> cancelled_labels;
    for (size_t k = 0; k < cancellable.size(); k += 2) {
      const auto& [id, label] = cancellable[cancellable.size() - 1 - k];
      EXPECT_TRUE(scheduler.Cancel(id));
      cancelled_labels.push_back(label);
    }
    for (int label : cancelled_labels) {
      std::erase_if(expected, [&](const auto& entry) { return entry.second == label; });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    scheduler.RunAll();
    ASSERT_EQ(ran.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(ran[i], expected[i].second);
    }
  }
}

TEST(SchedulerImplTest, NextEventTimePeeksTheHead) {
  for (const auto impl :
       {EventScheduler::Impl::kPairingHeap, EventScheduler::Impl::kCompatBinaryHeap}) {
    EventScheduler scheduler(impl);
    EXPECT_EQ(scheduler.NextEventTime(), kNoEventTime);
    const EventId head = scheduler.ScheduleAt(10, [] {});
    scheduler.ScheduleAt(30, [] {});
    scheduler.ScheduleAt(20, [] {});
    EXPECT_EQ(scheduler.NextEventTime(), 10);
    ASSERT_TRUE(scheduler.Cancel(head));
    if (impl == EventScheduler::Impl::kPairingHeap) {
      EXPECT_EQ(scheduler.NextEventTime(), 20);  // Cancel unlinks eagerly
    } else {
      // The dead head stays queued until a run pops it; still a lower bound.
      EXPECT_LE(scheduler.NextEventTime(), 20);
    }
    EXPECT_EQ(scheduler.RunUntil(15), 0u);
    EXPECT_EQ(scheduler.NextEventTime(), 20);
    EXPECT_EQ(scheduler.RunUntil(20), 1u);
    EXPECT_EQ(scheduler.NextEventTime(), 30);
    scheduler.RunAll();
    EXPECT_EQ(scheduler.NextEventTime(), kNoEventTime);
  }
}

TEST(SchedulerImplTest, RandomizedWorkloadsAreEquivalent) {
  // Differential test: mirror a random schedule/cancel/run workload on both
  // implementations and require identical execution sequences and clocks.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EventScheduler pairing(EventScheduler::Impl::kPairingHeap);
    EventScheduler compat(EventScheduler::Impl::kCompatBinaryHeap);
    std::vector<int> pairing_log;
    std::vector<int> compat_log;
    std::vector<EventId> pairing_ids;
    std::vector<EventId> compat_ids;
    Rng rng(seed);
    int label = 0;
    for (int op = 0; op < 3'000; ++op) {
      const int64_t kind = rng.NextInt(0, 9);
      if (kind < 6) {  // schedule (ids differ between impls; track both)
        const SimTime when = rng.NextInt(0, 2'000);
        const int this_label = label++;
        pairing_ids.push_back(pairing.ScheduleAt(
            when, [&pairing_log, this_label] { pairing_log.push_back(this_label); }));
        compat_ids.push_back(compat.ScheduleAt(
            when, [&compat_log, this_label] { compat_log.push_back(this_label); }));
      } else if (kind < 8 && !pairing_ids.empty()) {  // cancel the same event in both
        const size_t index = static_cast<size_t>(
            rng.NextInt(0, static_cast<int64_t>(pairing_ids.size()) - 1));
        EXPECT_EQ(pairing.Cancel(pairing_ids[index]), compat.Cancel(compat_ids[index]));
      } else {  // advance both clocks together
        const SimTime until = rng.NextInt(0, 2'000);
        EXPECT_EQ(pairing.RunUntil(until), compat.RunUntil(until));
        EXPECT_EQ(pairing.now(), compat.now());
        // A run leaves the compat head live, so the two peeks agree.
        EXPECT_EQ(pairing.NextEventTime(), compat.NextEventTime());
      }
      // Between runs a cancelled compat head can only make its peek earlier.
      EXPECT_LE(compat.NextEventTime(), pairing.NextEventTime());
    }
    EXPECT_EQ(pairing.RunAll(), compat.RunAll());
    EXPECT_EQ(pairing_log, compat_log);
    EXPECT_EQ(pairing.now(), compat.now());
    EXPECT_TRUE(pairing.Empty());
    EXPECT_TRUE(compat.Empty());
  }
}

TEST(SchedulerImplTest, EventIdsAreNotRecycledAcrossGenerations) {
  // Slot+generation ids: a slot reused by a later event must not honor a
  // stale handle to the earlier one.
  EventScheduler scheduler(EventScheduler::Impl::kPairingHeap);
  const EventId first = scheduler.ScheduleAt(10, [] {});
  EXPECT_TRUE(scheduler.Cancel(first));
  bool second_ran = false;
  const EventId second = scheduler.ScheduleAt(20, [&] { second_ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(scheduler.Cancel(first));  // stale handle: same slot, old generation
  scheduler.RunAll();
  EXPECT_TRUE(second_ran);
}

TEST(SimulatorTest, SeedsAreReproducible) {
  Simulator a(99);
  Simulator b(99);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.rng().Next(), b.rng().Next());
  }
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.After(10, [&] {
    times.push_back(sim.now());
    sim.After(10, [&] { times.push_back(sim.now()); });
  });
  sim.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(SchedulerTest, ManyEventsStressOrdering) {
  EventScheduler scheduler;
  Rng rng(5);
  SimTime last = -1;
  bool monotonic = true;
  for (int i = 0; i < 5000; ++i) {
    const SimTime when = rng.NextInt(0, 10000);
    scheduler.ScheduleAt(when, [&, when] {
      if (when < last) {
        monotonic = false;
      }
      last = when;
    });
  }
  scheduler.RunAll();
  EXPECT_TRUE(monotonic);
}

}  // namespace
}  // namespace diffusion
