#include "cc/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(position));
  const size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

double WeightedQuantile(std::vector<std::pair<double, double>> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (const auto& sample : samples) {
    total += sample.second;
  }
  double below = 0.0;
  for (const auto& [value, weight] : samples) {
    below += weight;
    if (below >= q * total) {
      return value;
    }
  }
  return samples.back().first;
}

int64_t ClockOverheadNs() {
  static const int64_t overhead = [] {
    std::vector<double> samples;
    for (int i = 0; i < 1001; ++i) {
      const Clock::time_point start = Clock::now();
      samples.push_back(static_cast<double>(NanosBetween(start, Clock::now())));
    }
    return static_cast<int64_t>(Quantile(std::move(samples), 0.5));
  }();
  return overhead;
}

double PeakRssMb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // does not: Linux carries it across exec, so a small workload would report
  // the RSS of the process that forked it (run.py's Python, ~14 MB).
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kb = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) {
        break;
      }
    }
    std::fclose(status);
    if (kb >= 0) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports kB
}

const char* LayerOf(const char* span_name) {
  const auto starts_with = [span_name](const char* prefix) {
    return std::strncmp(span_name, prefix, std::strlen(prefix)) == 0;
  };
  if (starts_with("setup")) {
    return "testbed";
  }
  if (starts_with("slice") || starts_with("window")) {
    return "sim";
  }
  if (std::strcmp(span_name, "dispatch.confirm") == 0) {
    return "naming";
  }
  if (starts_with("dispatch") || starts_with("churn")) {
    return "core";
  }
  return "bench";
}

SpanRecorder::SpanRecorder(uint64_t run_id) : run_id_(run_id), origin_(Clock::now()) {}

uint32_t SpanRecorder::Begin(const char* name, uint32_t parent) {
  const int64_t now = NanosBetween(origin_, Clock::now());
  spans_.push_back(Span{static_cast<uint32_t>(spans_.size() + 1), parent, name, now, now});
  return spans_.back().id;
}

void SpanRecorder::End(uint32_t id) { at(id).end_ns = NanosBetween(origin_, Clock::now()); }

uint32_t SpanRecorder::Add(const char* name, uint32_t parent, Clock::time_point start,
                           Clock::time_point end) {
  spans_.push_back(Span{static_cast<uint32_t>(spans_.size() + 1), parent, name,
                        NanosBetween(origin_, start), NanosBetween(origin_, end)});
  return spans_.back().id;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns - spans_[i].radio_ns();
  }
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      self[span.parent - 1] -= span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[LayerOf(spans_[i].name)] += static_cast<double>(self[i]) * 1e-9;
    by_layer["radio"] += static_cast<double>(spans_[i].radio_ns()) * 1e-9;
  }
  return by_layer;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "run_id,span_id,parent_id,name,layer,start_ns,end_ns,reaches,"
                     "propagation_busy_ns,workers\n");
  for (const Span& span : spans_) {
    std::fprintf(file, "%llu,%u,%u,%s,%s,%lld,%lld,%llu,%lld,%u\n",
                 static_cast<unsigned long long>(run_id_), span.id, span.parent, span.name,
                 LayerOf(span.name), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), static_cast<unsigned long long>(span.reaches),
                 static_cast<long long>(span.propagation_busy_ns), span.workers);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
