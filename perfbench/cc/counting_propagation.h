// A PropagationModel decorator for the traced run: forwards every query to
// the wrapped model unchanged, counts Reaches calls, and times one call in
// kSampleEvery with the host clock, less the clock's own cost. Answers are
// the wrapped model's, so a traced run reproduces the untraced run's
// simulated counts exactly.
//
// Thread-compatible like the Channel that owns it: one region's decorator is
// only touched by that region's worker inside a window, and read by the
// barrier thread between windows.

#ifndef PERFBENCH_CC_COUNTING_PROPAGATION_H_
#define PERFBENCH_CC_COUNTING_PROPAGATION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "cc/measure.h"
#include "src/radio/propagation.h"

namespace perfbench {

class CountingPropagation final : public diffusion::PropagationModel {
 public:
  static constexpr uint64_t kSampleEvery = 64;

  explicit CountingPropagation(std::unique_ptr<diffusion::PropagationModel> inner)
      : inner_(std::move(inner)) {}

  bool Reaches(diffusion::NodeId from, diffusion::NodeId to) const override {
    if (++reaches_ % kSampleEvery != 0) {
      return inner_->Reaches(from, to);
    }
    const Clock::time_point start = Clock::now();
    const bool reaches = inner_->Reaches(from, to);
    sampled_ns_ += std::max<int64_t>(0, NanosBetween(start, Clock::now()) - clock_overhead_ns_);
    return reaches;
  }

  double DeliveryProbability(diffusion::NodeId from, diffusion::NodeId to,
                             diffusion::SimTime now) const override {
    return inner_->DeliveryProbability(from, to, now);
  }

  uint64_t reaches() const { return reaches_; }
  // Each timed call stands for kSampleEvery calls.
  int64_t estimated_busy_ns() const {
    return sampled_ns_ * static_cast<int64_t>(kSampleEvery);
  }

 private:
  std::unique_ptr<diffusion::PropagationModel> inner_;
  const int64_t clock_overhead_ns_ = ClockOverheadNs();
  mutable uint64_t reaches_ = 0;
  mutable int64_t sampled_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_COUNTING_PROPAGATION_H_
