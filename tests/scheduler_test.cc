// Tests for the discrete-event scheduler and simulator driver.

#include <algorithm>
#include <map>
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

// ---- pairing heap internals and a reference oracle ----

TEST(SchedulerImplTest, TieOrderFollowsInsertion) {
  // Many events at few distinct times: tie-breaking does all the work.
  EventScheduler scheduler;
  std::vector<int> order;
  std::vector<std::pair<SimTime, int>> expected;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const SimTime when = rng.NextInt(0, 5);
    scheduler.ScheduleAt(when, [&order, i] { order.push_back(i); });
    expected.emplace_back(when, i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  scheduler.RunAll();
  ASSERT_EQ(order.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(order[i], expected[i].second);
  }
}

TEST(SchedulerImplTest, PairingHeapCancelUnlinksEagerly) {
  // O(1) Cancel means the node (and its closure's captured state) leaves
  // the queue immediately: no dead closure waits for its deadline, so a
  // workload that endlessly schedules far-future timers and cancels them
  // (interest refresh, reassembly timeouts) holds nothing.
  EventScheduler scheduler;
  for (int round = 0; round < 10'000; ++round) {
    auto token = std::make_shared<int>(round);
    std::weak_ptr<int> watch = token;
    const EventId id = scheduler.ScheduleAt(1'000'000 + round, [token = std::move(token)] {});
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(scheduler.Cancel(id));
    EXPECT_TRUE(watch.expired());  // capture released at Cancel, not at deadline
  }
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_TRUE(scheduler.Empty());
}

TEST(SchedulerImplTest, CancelUnderChurnKeepsLiveEventsInOrder) {
  // Interleave schedules and cancels deep inside the heap structure, then
  // verify the survivors still run in exact (time, insertion) order.
  EventScheduler scheduler;
  Rng rng(23);
  std::vector<std::pair<EventId, int>> cancellable;
  std::vector<std::pair<SimTime, int>> expected;
  std::vector<int> ran;
  for (int i = 0; i < 2'000; ++i) {
    const SimTime when = rng.NextInt(0, 300);
    const EventId id = scheduler.ScheduleAt(when, [&ran, i] { ran.push_back(i); });
    if (rng.NextBool(0.5)) {
      cancellable.emplace_back(id, i);
    }
    expected.emplace_back(when, i);
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

TEST(SchedulerImplTest, NextEventTimePeeksTheHead) {
  EventScheduler scheduler;
  EXPECT_EQ(scheduler.NextEventTime(), kNoEventTime);
  const EventId head = scheduler.ScheduleAt(10, [] {});
  scheduler.ScheduleAt(30, [] {});
  scheduler.ScheduleAt(20, [] {});
  EXPECT_EQ(scheduler.NextEventTime(), 10);
  ASSERT_TRUE(scheduler.Cancel(head));
  EXPECT_EQ(scheduler.NextEventTime(), 20);  // Cancel unlinks eagerly
  EXPECT_EQ(scheduler.RunUntil(15), 0u);
  EXPECT_EQ(scheduler.NextEventTime(), 20);
  EXPECT_EQ(scheduler.RunUntil(20), 1u);
  EXPECT_EQ(scheduler.NextEventTime(), 30);
  scheduler.RunAll();
  EXPECT_EQ(scheduler.NextEventTime(), kNoEventTime);
}

// Reference model for the differential test below: an ordered multimap keyed
// on (time, insertion sequence), cancelled through the iterator stored at
// scheduling time. Event i of the workload carries label i.
class OracleScheduler {
 public:
  void ScheduleAt(SimTime when) {
    const int label = static_cast<int>(handles_.size());
    handles_.push_back(queue_.emplace(Key{std::max(when, now_), next_sequence_++}, label));
    live_.push_back(true);
  }

  bool Cancel(size_t label) {
    if (!live_[label]) {
      return false;
    }
    queue_.erase(handles_[label]);
    live_[label] = false;
    return true;
  }

  size_t RunUntil(SimTime end, std::vector<int>* log) {
    size_t run = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= end) {
      RunHead(log);
      ++run;
    }
    now_ = std::max(now_, end);
    return run;
  }

  size_t RunAll(std::vector<int>* log) {
    size_t run = 0;
    for (; !queue_.empty(); ++run) {
      RunHead(log);
    }
    return run;
  }

  SimTime now() const { return now_; }
  size_t pending() const { return queue_.size(); }
  bool Empty() const { return queue_.empty(); }
  SimTime NextEventTime() const {
    return queue_.empty() ? kNoEventTime : queue_.begin()->first.first;
  }

 private:
  using Key = std::pair<SimTime, uint64_t>;

  void RunHead(std::vector<int>* log) {
    const auto head = queue_.begin();
    now_ = head->first.first;
    log->push_back(head->second);
    live_[static_cast<size_t>(head->second)] = false;
    queue_.erase(head);
  }

  std::multimap<Key, int> queue_;
  std::vector<std::multimap<Key, int>::iterator> handles_;
  std::vector<bool> live_;
  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
};

TEST(SchedulerImplTest, RandomizedWorkloadsAreEquivalent) {
  // Differential test: mirror a random schedule/cancel/run workload on the
  // scheduler and the oracle, comparing every observable after every op.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    EventScheduler scheduler;
    OracleScheduler oracle;
    std::vector<int> log;
    std::vector<int> oracle_log;
    std::vector<EventId> ids;
    Rng rng(seed);
    for (int op = 0; op < 3'000; ++op) {
      const int64_t kind = rng.NextInt(0, 9);
      if (kind < 6) {  // schedule
        const SimTime when = rng.NextInt(0, 2'000);
        const int label = static_cast<int>(ids.size());
        ids.push_back(scheduler.ScheduleAt(when, [&log, label] { log.push_back(label); }));
        oracle.ScheduleAt(when);
      } else if (kind < 8 && !ids.empty()) {  // cancel the same event in both
        const size_t index =
            static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(ids.size()) - 1));
        EXPECT_EQ(scheduler.Cancel(ids[index]), oracle.Cancel(index));
      } else {  // advance both clocks together
        const SimTime until = rng.NextInt(0, 2'000);
        EXPECT_EQ(scheduler.RunUntil(until), oracle.RunUntil(until, &oracle_log));
      }
      ASSERT_EQ(log, oracle_log) << "op " << op;
      EXPECT_EQ(scheduler.now(), oracle.now());
      EXPECT_EQ(scheduler.pending(), oracle.pending());
      EXPECT_EQ(scheduler.Empty(), oracle.Empty());
      EXPECT_EQ(scheduler.NextEventTime(), oracle.NextEventTime());
    }
    EXPECT_EQ(scheduler.RunAll(), oracle.RunAll(&oracle_log));
    EXPECT_EQ(log, oracle_log);
    EXPECT_EQ(scheduler.now(), oracle.now());
    EXPECT_TRUE(scheduler.Empty());
  }
}

TEST(SchedulerImplTest, EventIdsAreNotRecycledAcrossGenerations) {
  // Slot+generation ids: a slot reused by a later event must not honor a
  // stale handle to the earlier one.
  EventScheduler scheduler;
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
