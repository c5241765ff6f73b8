#include "src/filters/duplicate_suppression_filter.h"

#include "src/naming/keys.h"

namespace diffusion {

DuplicateSuppressionFilter::DuplicateSuppressionFilter(DiffusionNode* node,
                                                       AttributeVector match_attrs,
                                                       int16_t priority, size_t window)
    : node_(node), seen_(window) {
  handle_ = node_->AddFilter(std::move(match_attrs), priority,
                             [this](Message& message, FilterApi& api) { Run(message, api); });
}

DuplicateSuppressionFilter::~DuplicateSuppressionFilter() {
  if (handle_ != kInvalidHandle) {
    (void)node_->RemoveFilter(handle_);
  }
}

void DuplicateSuppressionFilter::Run(Message& message, FilterApi& api) {
  const Attribute* sequence = FindActual(message.attrs, kKeySequence);
  std::optional<int64_t> value = sequence != nullptr ? sequence->AsInt() : std::nullopt;
  if (!value.has_value()) {
    api.SendMessage(std::move(message), handle_);
    return;
  }
  if (seen_.CheckAndInsert(static_cast<uint64_t>(*value))) {
    // A concurrent detection of the same event already went through this
    // node; suppress by simply not propagating (§5.1).
    ++suppressed_;
    Simulator& sim = node_->simulator();
    if (sim.tracing()) {
      sim.Trace(TraceEvent{sim.now(), TraceEventKind::kFilterSuppressed, node_->id(),
                           message.last_hop, message.PacketId(), *value});
    }
    return;
  }
  ++passed_;
  api.SendMessage(std::move(message), handle_);
}

void DuplicateSuppressionFilter::RegisterMetrics(MetricsRegistry* registry) const {
  registry->RegisterCounter(node_->id(), "filter.passed",
                            [this] { return static_cast<double>(passed_); });
  registry->RegisterCounter(node_->id(), "filter.suppressed",
                            [this] { return static_cast<double>(suppressed_); });
}

}  // namespace diffusion
