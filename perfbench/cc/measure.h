// Host-side measurement helpers shared by every perfbench workload: the
// clock, order statistics, process peak RSS and the in-memory span recorder
// of the traced run.

#ifndef PERFBENCH_CC_MEASURE_H_
#define PERFBENCH_CC_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NanosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
}

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return static_cast<double>(NanosBetween(start, end)) * 1e-9;
}

// Median cost of reading the clock twice back to back, measured once per
// process; subtracted from intervals too short to ignore it.
int64_t ClockOverheadNs();

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Weighted quantile: the smallest value whose share of the total weight,
// counting it and every smaller value, reaches q. Samples are
// (value, weight); 0 when empty.
double WeightedQuantile(std::vector<std::pair<double, double>> samples, double q);

// High-water resident set size of this process, in MB (2^20 bytes).
double PeakRssMb();

// One timed interval of a traced run. `parent` is 0 for a root span. Slices
// of a simulation carry the propagation decorator's Reaches calls and their
// estimated busy time, summed over the `workers` threads that ran the slice;
// busy time ÷ workers counts as radio-layer time inside the slice.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t reaches = 0;
  int64_t propagation_busy_ns = 0;
  uint32_t workers = 1;

  int64_t radio_ns() const { return propagation_busy_ns / workers; }
};

// The layer a span's self time is charged to, from its name: setup.* is
// testbed, slice/window is sim, dispatch/dispatch.walk/churn.* is core,
// dispatch.confirm is naming, and roots (run, measure) are the benchmark's
// own loop ("bench").
const char* LayerOf(const char* span_name);

// Keeps every span of one run in memory; Write() emits them once the run
// has ended. Times are nanoseconds since the recorder was created.
class SpanRecorder {
 public:
  explicit SpanRecorder(uint64_t run_id);

  uint32_t Begin(const char* name, uint32_t parent);
  void End(uint32_t id);
  // Records an interval that was timed by the caller.
  uint32_t Add(const char* name, uint32_t parent, Clock::time_point start, Clock::time_point end);
  Span& at(uint32_t id) { return spans_[id - 1]; }

  const std::vector<Span>& spans() const { return spans_; }

  // Self seconds per layer: each span's duration minus its children's, with
  // a slice's radio_ns() moved from sim to radio.
  std::map<std::string, double> SelfSecondsByLayer() const;

  // CSV, one span per line, header first. Returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_MEASURE_H_
