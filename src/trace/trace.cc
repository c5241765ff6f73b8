#include "src/trace/trace.h"

#include <cstring>
#include <iterator>

namespace diffusion {
namespace {

// Indexed by TraceEventKind; keep in enum order.
constexpr const char* kKindNames[] = {
    "interest_sent",
    "interest_received",
    "gradient_created",
    "gradient_reinforced",
    "gradient_negatively_reinforced",
    "gradient_expired",
    "exploratory_forward",
    "data_forward",
    "data_received",
    "data_delivered",
    "reinforcement_sent",
    "reinforcement_received",
    "duplicate_suppressed",
    "filter_suppressed",
    "stale_filter_reinjected",
    "fragment_tx",
    "fragment_rx",
    "collision",
    "propagation_loss",
    "mac_drop",
    "energy_state",
    "fault_injected",
    "mac_rate_limited",
};
static_assert(std::size(kKindNames) == kTraceEventKindCount,
              "kKindNames must name every TraceEventKind, in enum order");

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  const size_t index = static_cast<size_t>(kind);
  return index < kTraceEventKindCount ? kKindNames[index] : "unknown";
}

bool TraceEventKindFromName(const std::string& name, TraceEventKind* kind) {
  for (size_t i = 0; i < kTraceEventKindCount; ++i) {
    if (name == kKindNames[i]) {
      *kind = static_cast<TraceEventKind>(i);
      return true;
    }
  }
  return false;
}

std::vector<TraceEvent> MemoryTraceSink::EventsForPacket(uint64_t packet) const {
  std::vector<TraceEvent> matches;
  for (const TraceEvent& event : events_) {
    if (event.packet == packet) {
      matches.push_back(event);
    }
  }
  return matches;
}

}  // namespace diffusion
