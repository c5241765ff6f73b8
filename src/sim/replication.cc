#include "src/sim/replication.h"

#include <algorithm>
#include <exception>
#include <thread>

namespace diffusion {

unsigned ReplicationPool::ResolveJobs(unsigned jobs) {
  if (jobs != 0) {
    return jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

void ReplicationPool::Run(size_t count, const std::function<void(size_t)>& task) {
  executed_.store(0, std::memory_order_relaxed);

  // One slot per replicate: exceptions are recorded by index so the rethrow
  // below picks the lowest-index failure deterministically, not whichever
  // worker lost the race.
  std::vector<std::exception_ptr> errors(count);

  std::atomic<size_t> next{0};
  const auto worker = [this, count, &task, &errors, &next] {
    while (true) {
      if (cancelled()) {
        return;
      }
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      executed_.fetch_add(1, std::memory_order_relaxed);
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
        // A failed replicate poisons the aggregate; don't start more.
        Cancel();
      }
    }
  };

  const size_t workers = std::min<size_t>(jobs_, count);
  if (workers <= 1) {
    // Serial path: inline on the calling thread, exactly the pre-pool loop.
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
  if (cancelled() && executed_.load(std::memory_order_relaxed) < count) {
    throw ReplicationCancelled();
  }
}

}  // namespace diffusion
