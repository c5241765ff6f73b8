#include "src/micro/micro_gateway.h"

#include "src/naming/keys.h"

namespace diffusion {

MicroGateway::MicroGateway(DiffusionNode* full, MicroNode* micro) : full_(full), micro_(micro) {}

MicroGateway::~MicroGateway() {
  for (auto& [tag, binding] : bindings_) {
    if (binding.interest_watch != kInvalidHandle) {
      (void)full_->Unsubscribe(binding.interest_watch);
    }
    if (binding.publication != kInvalidHandle) {
      (void)full_->Unpublish(binding.publication);
    }
    if (binding.tasked) {
      (void)micro_->Unsubscribe(tag);
    }
  }
}

void MicroGateway::Bridge(MicroTag tag, AttributeVector full_data_attrs) {
  Binding binding;
  binding.data_attrs = std::move(full_data_attrs);
  if (FindActual(binding.data_attrs, kKeyClass) == nullptr) {
    binding.data_attrs.push_back(ClassIs(kClassData));
  }
  binding.publication = full_->Publish(binding.data_attrs);

  // Subscribe for subscriptions (§4.1): the meta-subscription carries the
  // data actuals (so a matching interest's formals are satisfied) plus a
  // formal that selects interests.
  AttributeVector watch_attrs = binding.data_attrs;
  watch_attrs.push_back(ClassEq(kClassInterest));
  binding.interest_watch =
      full_->Subscribe(std::move(watch_attrs), [this, tag](const AttributeVector& /*interest*/) {
        OnFullTierInterest(tag);
      });

  bindings_[tag] = std::move(binding);
}

bool MicroGateway::TagTasked(MicroTag tag) const {
  auto it = bindings_.find(tag);
  return it != bindings_.end() && it->second.tasked;
}

void MicroGateway::OnFullTierInterest(MicroTag tag) {
  auto it = bindings_.find(tag);
  if (it == bindings_.end() || it->second.tasked) {
    return;
  }
  it->second.tasked = true;
  micro_->Subscribe(tag, [this](MicroTag data_tag, int32_t value, NodeId origin) {
    OnMicroData(data_tag, value, origin);
  });
}

void MicroGateway::OnMicroData(MicroTag tag, int32_t value, NodeId origin) {
  auto it = bindings_.find(tag);
  if (it == bindings_.end()) {
    return;
  }
  Binding& binding = it->second;
  AttributeVector extra;
  extra.push_back(Attribute::Int32(kKeyMicroValue, AttrOp::kIs, value));
  extra.push_back(Attribute::Int32(kKeySourceId, AttrOp::kIs, static_cast<int32_t>(origin)));
  extra.push_back(
      Attribute::Int32(kKeySequence, AttrOp::kIs, static_cast<int32_t>(binding.reading_seq++)));
  if (full_->Send(binding.publication, extra) == ApiResult::kOk) {
    ++readings_bridged_;
  }
}

}  // namespace diffusion
