// ReplicationPool + bench/replicate glue: results and merged traces must be
// byte-identical at --jobs=1 and --jobs=8, and the pool must survive
// replicate-count < jobs, exceptions inside a replicate, and cancellation.

#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/replicate.h"
#include "src/sim/replication.h"
#include "src/testbed/experiments.h"
#include "src/trace/trace.h"
#include "src/trace/trace_writer.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace diffusion {
namespace {

// Deterministic stand-in for one seeded experiment: burns a private Rng
// stream and emits a few trace events, like a real replicate but cheap.
double FakeReplicate(uint64_t seed, TraceSink* sink) {
  Rng rng(seed);
  double acc = 0.0;
  for (int i = 0; i < 256; ++i) {
    acc += rng.NextDouble();
  }
  if (sink != nullptr) {
    for (int i = 0; i < 4; ++i) {
      TraceEvent event;
      event.when = static_cast<SimTime>(i);
      event.kind = TraceEventKind::kDataForward;
      event.node = static_cast<NodeId>(seed);
      event.packet = (seed << 32) | static_cast<uint64_t>(i);
      event.value = static_cast<int64_t>(rng.Next() & 0xffff);
      sink->OnEvent(event);
    }
  }
  return acc;
}

std::vector<double> RunFakes(unsigned jobs, size_t count, const std::string& trace_out) {
  return bench::RunReplicates<double>(
      jobs, count, trace_out, [](size_t) { return true; },
      [](size_t i, TraceSink* sink) { return FakeReplicate(1000 + i, sink); });
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(ReplicationPoolTest, ResolveJobsPicksHardwareConcurrencyForZero) {
  EXPECT_GE(ReplicationPool::ResolveJobs(0), 1u);
  EXPECT_EQ(ReplicationPool::ResolveJobs(5), 5u);
}

TEST(ReplicationPoolTest, ResultsInIndexOrderRegardlessOfJobs) {
  const std::vector<double> serial = RunFakes(1, 16, "");
  const std::vector<double> parallel = RunFakes(8, 16, "");
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Bitwise equality: same seed, same private stream, same slot.
    EXPECT_EQ(serial[i], parallel[i]) << "replicate " << i;
  }
}

TEST(ReplicationPoolTest, AggregatedStatsBitIdenticalAcrossJobs) {
  const std::vector<double> serial = RunFakes(1, 12, "");
  const std::vector<double> parallel = RunFakes(8, 12, "");
  RunningStat serial_stat;
  RunningStat parallel_stat;
  for (double v : serial) {
    serial_stat.Add(v);
  }
  for (double v : parallel) {
    parallel_stat.Add(v);
  }
  EXPECT_EQ(serial_stat.mean(), parallel_stat.mean());
  EXPECT_EQ(serial_stat.confidence95(), parallel_stat.confidence95());
}

TEST(ReplicationPoolTest, MergedTraceBytesIdenticalAcrossJobs) {
  const std::string serial_path = testing::TempDir() + "/replication_serial.jsonl";
  const std::string parallel_path = testing::TempDir() + "/replication_parallel.jsonl";
  RunFakes(1, 10, serial_path);
  RunFakes(8, 10, parallel_path);
  const std::string serial_bytes = FileBytes(serial_path);
  EXPECT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, FileBytes(parallel_path));
  // Merge order is replicate order: the node field (== seed) must ascend.
  const std::vector<TraceEvent> events = ReadTraceFile(serial_path);
  ASSERT_EQ(events.size(), 40u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].node, events[i].node);
  }
}

TEST(ReplicationPoolTest, HandlesReplicateCountSmallerThanJobs) {
  ReplicationPool pool(8);
  const std::vector<double> results =
      pool.Map<double>(3, [](size_t i) { return static_cast<double>(i) * 2.0; });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], 0.0);
  EXPECT_EQ(results[1], 2.0);
  EXPECT_EQ(results[2], 4.0);
  EXPECT_EQ(pool.executed(), 3u);
}

TEST(ReplicationPoolTest, HandlesZeroReplicates) {
  ReplicationPool pool(4);
  EXPECT_TRUE(pool.Map<int>(0, [](size_t) { return 1; }).empty());
  EXPECT_EQ(pool.executed(), 0u);
}

TEST(ReplicationPoolTest, ExceptionInReplicatePropagatesAndStopsDispatch) {
  ReplicationPool pool(1);
  std::atomic<size_t> ran{0};
  try {
    pool.Run(10, [&ran](size_t i) {
      ran.fetch_add(1);
      if (i == 2) {
        throw std::runtime_error("boom2");
      }
    });
    FAIL() << "expected the replicate's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom2");
  }
  // Serial pool: replicates after the failing one never start.
  EXPECT_EQ(ran.load(), 3u);
}

TEST(ReplicationPoolTest, LowestIndexExceptionWinsInParallel) {
  ReplicationPool pool(4);
  try {
    pool.Run(8, [](size_t i) {
      if (i == 2 || i == 5) {
        throw std::runtime_error("boom" + std::to_string(i));
      }
    });
    FAIL() << "expected a replicate exception";
  } catch (const std::runtime_error& error) {
    // 5 may or may not have started; 2 always ran, and the rethrow scans
    // slots from index 0, so the reported failure is deterministic.
    EXPECT_STREQ(error.what(), "boom2");
  }
}

TEST(ReplicationPoolTest, CancellationSkipsUnstartedReplicates) {
  ReplicationPool pool(1);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(pool.Run(10,
                        [&pool, &ran](size_t) {
                          ran.fetch_add(1);
                          pool.Cancel();
                        }),
               ReplicationCancelled);
  EXPECT_EQ(ran.load(), 1u);
  EXPECT_EQ(pool.executed(), 1u);
  EXPECT_TRUE(pool.cancelled());
}

TEST(ReplicationPoolTest, CancellationInParallelStopsBeforeCompletion) {
  ReplicationPool pool(4);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(pool.Run(64,
                        [&pool, &ran](size_t) {
                          ran.fetch_add(1);
                          pool.Cancel();
                        }),
               ReplicationCancelled);
  EXPECT_LT(ran.load(), 64u);
  EXPECT_EQ(pool.executed(), ran.load());
}

TEST(ReplicationPoolTest, CancelledPoolRunsNothing) {
  ReplicationPool pool(4);
  pool.Cancel();
  std::atomic<size_t> ran{0};
  EXPECT_THROW(pool.Run(4, [&ran](size_t) { ran.fetch_add(1); }), ReplicationCancelled);
  EXPECT_EQ(ran.load(), 0u);
}

// The load-bearing end-to-end check (the TSan CI job runs this binary): real
// Figure-8 replicates, each owning a private Simulator/Channel/node set and
// trace buffer, produce field-identical results and byte-identical merged
// traces at jobs=1 and jobs=4.
TEST(ReplicationIntegrationTest, Fig8ReplicatesDeterministicAcrossJobs) {
  const auto run_all = [](unsigned jobs, const std::string& trace_path) {
    return bench::RunReplicates<Fig8Result>(
        jobs, 6, trace_path, [](size_t) { return true; },
        [](size_t i, TraceSink* sink) {
          Fig8Params params;
          params.sources = 1 + static_cast<int>(i % 3);
          params.duration = 60 * kSecond;
          params.warmup = 10 * kSecond;
          params.seed = 4000 + i;
          params.strategy =
              (i % 2) == 0 ? AggregationStrategy::kSuppression : AggregationStrategy::kNone;
          params.trace_sink = sink;
          return RunFig8(params);
        });
  };
  const std::string serial_path = testing::TempDir() + "/fig8_serial.jsonl";
  const std::string parallel_path = testing::TempDir() + "/fig8_parallel.jsonl";
  const std::vector<Fig8Result> serial = run_all(1, serial_path);
  const std::vector<Fig8Result> parallel = run_all(4, parallel_path);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].bytes_per_event, parallel[i].bytes_per_event) << i;
    EXPECT_EQ(serial[i].distinct_events, parallel[i].distinct_events) << i;
    EXPECT_EQ(serial[i].delivery_rate, parallel[i].delivery_rate) << i;
    EXPECT_EQ(serial[i].diffusion_bytes, parallel[i].diffusion_bytes) << i;
    EXPECT_EQ(serial[i].suppressed, parallel[i].suppressed) << i;
    EXPECT_EQ(serial[i].mean_latency_s, parallel[i].mean_latency_s) << i;
    EXPECT_EQ(serial[i].energy_per_event, parallel[i].energy_per_event) << i;
  }
  const std::string serial_bytes = FileBytes(serial_path);
  EXPECT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, FileBytes(parallel_path));
}

}  // namespace
}  // namespace diffusion
