// diffusion-lint: scope(src)
// DL009 fixture: each region's mailbox has exactly one writer per window.
// One file posting with more than one source symbol is one component writing
// on behalf of several regions — the static half of the contract whose
// dynamic half (the owner check in RegionBridge::Observer::OnTransmit)
// aborts at runtime.
#include <cstdint>

namespace fixture {

struct MailboxPool {
  void Post(int src_region, int dst_region, uint64_t sender);
};

class Bridge {
 public:
  // Clean: every Post names the same source symbol, src_region — the region
  // whose worker thread is running this callback.
  void OnRegionTransmit(int src_region, uint64_t sender) {
    pool_.Post(src_region, 1, sender);
    pool_.Post(src_region, 2, sender);
  }

  void ReplayForNeighbor(int src_region, uint64_t sender) {
    pool_.Post(src_region, 1, sender);
    pool_.Post(0, 1, sender);  // finding: second source symbol in this file
    // Setup-time seeding happens before any window starts.
    // diffusion-lint: allow(DL009)
    pool_.Post(1, 2, sender);
  }

 private:
  MailboxPool pool_;
};

}  // namespace fixture
