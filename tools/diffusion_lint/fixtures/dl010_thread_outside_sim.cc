// diffusion-lint: scope(src)
// DL010 fixture: determinism depends on the engine owning every thread.
// Workers are spawned by ShardedEngine and ReplicationPool (src/sim) and
// nowhere else, and no state may be pinned per-OS-thread.
#include <future>
#include <thread>

namespace fixture {

void Work();

void Violations() {
  std::thread worker(Work);               // finding
  worker.detach();                        // finding
  auto pending = std::async(Work);        // finding
  (void)pending;
}

thread_local int per_thread_counter = 0;  // finding

void Suppressed() {
  // One-shot tool process, joined before exit; not simulation code.
  // diffusion-lint: allow(DL010)
  std::thread worker(Work);
  worker.join();
}

// Clean: thread::id is a plain value — the outbox owner check compares ids
// without ever spawning anything.
bool SameThread(std::thread::id a, std::thread::id b) { return a == b; }

}  // namespace fixture
