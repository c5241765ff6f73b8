// diffusion-lint: scope(src)
// DL008 fixture: a class that owns a mutex or threads is a concurrency
// boundary, so every other data member must declare its protection — const,
// std::atomic, or an ownership marker (DIFFUSION_REGION_PINNED /
// DIFFUSION_BARRIER_OWNED) naming the handoff discipline that protects it.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace fixture {

class Engine {
 public:
  void Run();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint64_t> events_ DIFFUSION_REGION_PINNED;
  uint64_t cursor_ DIFFUSION_BARRIER_OWNED = 0;
  const unsigned threads_ = 1;
  std::atomic<bool> stop_{false};
  uint64_t windows_ = 0;  // finding
  // The barrier publishes this between windows; annotation pending.
  // diffusion-lint: allow(DL008)
  std::vector<int> scratch_;
};

// Clean: no mutex, no threads — a plain single-threaded class needs no
// protection declarations at all.
class Ledger {
 private:
  uint64_t balance_ = 0;
  std::vector<uint64_t> history_;
};

}  // namespace fixture
