#include "src/core/gradient_table.h"

#include <algorithm>

#include "src/naming/matching.h"
#include "src/util/memory_bytes.h"

namespace diffusion {

Gradient* InterestEntry::FindGradient(NodeId neighbor) {
  for (Gradient& gradient : gradients) {
    if (gradient.neighbor == neighbor) {
      return &gradient;
    }
  }
  return nullptr;
}

Gradient& InterestEntry::AddOrRefreshGradient(NodeId neighbor, SimTime new_expires) {
  if (Gradient* existing = FindGradient(neighbor)) {
    existing->expires = std::max(existing->expires, new_expires);
    return *existing;
  }
  gradients.push_back(Gradient{neighbor, new_expires, false, 0});
  return gradients.back();
}

void InterestEntry::ExpireGradients(
    SimTime now, const std::function<void(const InterestEntry&, const Gradient&)>* observer) {
  for (Gradient& gradient : gradients) {
    if (gradient.reinforced && gradient.reinforced_until < now) {
      gradient.reinforced = false;
    }
  }
  gradients.erase(std::remove_if(gradients.begin(), gradients.end(),
                                 [&](const Gradient& g) {
                                   if (g.expires >= now) {
                                     return false;
                                   }
                                   if (observer != nullptr && *observer) {
                                     (*observer)(*this, g);
                                   }
                                   return true;
                                 }),
                  gradients.end());
}

bool InterestEntry::HasReinforcedGradient() const {
  for (const Gradient& gradient : gradients) {
    if (gradient.reinforced) {
      return true;
    }
  }
  return false;
}

InterestEntry* GradientTable::FindExact(const AttributeSet& attrs) {
  // Scan the contiguous hash column; touch an entry only on a hash hit
  // (§3.1's hash-before-full-compare, now without pointer chasing).
  const uint64_t hash = attrs.hash();
  for (size_t i = 0; i < hash_col_.size(); ++i) {
    if (hash_col_[i] == hash && ExactMatch(entry_col_[i]->attrs, attrs)) {
      return entry_col_[i];
    }
  }
  return nullptr;
}

std::vector<InterestEntry*> GradientTable::MatchData(const AttributeSet& data_attrs) {
  std::vector<InterestEntry*> matches;
  for (InterestEntry* entry : entry_col_) {
    if (TwoWayMatch(entry->attrs, data_attrs)) {
      matches.push_back(entry);
    }
  }
  return matches;
}

InterestEntry& GradientTable::InsertOrRefresh(const AttributeSet& attrs, SimTime expires) {
  if (InterestEntry* existing = FindExact(attrs)) {
    existing->expires = std::max(existing->expires, expires);
    return *existing;
  }
  InterestEntry entry;
  entry.attrs = attrs;
  entry.expires = expires;
  entries_.push_back(std::move(entry));
  hash_col_.push_back(entries_.back().attrs.hash());
  entry_col_.push_back(&entries_.back());
  return entries_.back();
}

size_t GradientTable::MemoryBytes() const {
  size_t bytes = ListBytes(entries_) + VectorBytes(hash_col_) + VectorBytes(entry_col_);
  for (const InterestEntry& entry : entries_) {
    bytes += VectorBytes(entry.gradients) + HashMapBytes(entry.reinforced_upstream);
  }
  return bytes;
}

void GradientTable::EraseColumn(size_t index) {
  hash_col_.erase(hash_col_.begin() + static_cast<ptrdiff_t>(index));
  entry_col_.erase(entry_col_.begin() + static_cast<ptrdiff_t>(index));
}

void GradientTable::Expire(SimTime now) {
  size_t index = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    it->ExpireGradients(now, &expiry_observer_);
    if (!it->is_local && it->expires < now && it->gradients.empty()) {
      it = entries_.erase(it);
      EraseColumn(index);
    } else {
      ++it;
      ++index;
    }
  }
}

bool GradientTable::RemoveLocal(const AttributeSet& attrs) {
  size_t index = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it, ++index) {
    if (it->is_local && ExactMatch(it->attrs, attrs)) {
      entries_.erase(it);
      EraseColumn(index);
      return true;
    }
  }
  return false;
}

}  // namespace diffusion
