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
  NoteDeadline(expires);
  InterestEntry entry;
  entry.attrs = attrs;
  entry.expires = expires;
  entries_.push_back(std::move(entry));
  hash_col_.push_back(entries_.back().attrs.hash());
  entry_col_.push_back(&entries_.back());
  return entries_.back();
}

Gradient& GradientTable::AddOrRefreshGradient(InterestEntry& entry, NodeId neighbor,
                                               SimTime expires) {
  if (Gradient* existing = entry.FindGradient(neighbor)) {
    existing->expires = std::max(existing->expires, expires);
    return *existing;
  }
  NoteDeadline(expires);
  entry.gradients.push_back(Gradient{neighbor, expires, false, 0});
  return entry.gradients.back();
}

void GradientTable::Reinforce(Gradient& gradient, SimTime until) {
  gradient.reinforced = true;
  gradient.reinforced_until = until;
  NoteDeadline(until);
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
  if (now <= deadline_) {
    return;
  }
  // The walk recomputes the deadline over what survives it. An entry with
  // gradients cannot be dropped before its last gradient expires, and
  // gradients leave only here, so only a gradientless entry's own expiry
  // counts.
  deadline_ = kNoDeadline;
  size_t index = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    std::vector<Gradient>& gradients = it->gradients;
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
                                     if (expiry_observer_) {
                                       expiry_observer_(*it, g);
                                     }
                                     return true;
                                   }),
                    gradients.end());
    if (!it->is_local && it->expires < now && gradients.empty()) {
      it = entries_.erase(it);
      EraseColumn(index);
      continue;
    }
    if (!it->is_local && gradients.empty()) {
      NoteDeadline(it->expires);
    }
    for (const Gradient& gradient : gradients) {
      NoteDeadline(gradient.expires);
      if (gradient.reinforced) {
        NoteDeadline(gradient.reinforced_until);
      }
    }
    ++it;
    ++index;
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
