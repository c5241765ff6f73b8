#include "src/core/match_index.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "src/util/memory_bytes.h"

namespace diffusion {

uint64_t MatchIndex::NormalizedBits(double v) {
  if (std::isnan(v)) {
    v = std::numeric_limits<double>::quiet_NaN();
  } else if (v == 0.0) {
    v = 0.0;  // collapse -0.0 into +0.0
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t MatchIndex::OrderedBits(double v) {
  if (v == 0.0) {
    v = 0.0;  // -0.0 == +0.0 numerically, so they must share one code
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  // Standard sign-flip trick: negatives reverse (bitwise NOT), positives
  // shift above them (set the top bit). Total order matches double's over
  // all non-NaN values, including the infinities.
  return (bits & 0x8000000000000000ULL) != 0 ? ~bits : (bits | 0x8000000000000000ULL);
}

MatchIndex::Position MatchIndex::ClassifyInsert(const AttributeSet& attrs) {
  // Scan the entry's formals on the discriminator key once, then pick the
  // most selective single indexable constraint (see the header's soundness
  // notes): EQ > two-sided range > one-sided bound > NE > any_.
  bool has_key_formal = false;
  bool have_lo = false, lo_strict = false;
  bool have_hi = false, hi_strict = false;
  double lo = 0.0, hi = 0.0;
  bool have_ne_num = false;
  double ne_num = 0.0;
  const std::string* ne_str = nullptr;

  const AttributeVector& items = attrs.items();
  auto it = std::lower_bound(items.begin(), items.end(), discriminator_,
                             [](const Attribute& attr, AttrKey key) { return attr.key() < key; });
  for (; it != items.end() && it->key() == discriminator_; ++it) {
    if (!it->IsFormal()) {
      continue;
    }
    has_key_formal = true;
    switch (it->op()) {
      case AttrOp::kEq:
        if (const std::string* s = it->AsString()) {
          Position position;
          position.kind = GroupKind::kStrEq;
          position.str_key = interner_.Intern(*s);
          position.group = &str_eq_[position.str_key];
          return position;
        }
        if (std::optional<double> v = it->AsDouble()) {
          Position position;
          position.kind = GroupKind::kNumEq;
          position.num_key = NormalizedBits(*v);
          position.group = &num_eq_[position.num_key];
          return position;
        }
        break;  // blob EQ: no bucket key
      case AttrOp::kGe:
      case AttrOp::kGt:
        if (!have_lo) {
          if (std::optional<double> v = it->AsDouble(); v.has_value() && !std::isnan(*v)) {
            have_lo = true;
            lo = *v;
            lo_strict = it->op() == AttrOp::kGt;
          }
        }
        break;
      case AttrOp::kLe:
      case AttrOp::kLt:
        if (!have_hi) {
          if (std::optional<double> v = it->AsDouble(); v.has_value() && !std::isnan(*v)) {
            have_hi = true;
            hi = *v;
            hi_strict = it->op() == AttrOp::kLt;
          }
        }
        break;
      case AttrOp::kNe:
        if (!have_ne_num && ne_str == nullptr) {
          if (const std::string* s = it->AsString()) {
            ne_str = s;
          } else if (std::optional<double> v = it->AsDouble(); v.has_value() && !std::isnan(*v)) {
            have_ne_num = true;
            ne_num = *v;
          }
        }
        break;
      case AttrOp::kIs:
      case AttrOp::kEqAny:
        break;  // actuals don't constrain; EQ_ANY is satisfied by any actual
    }
  }

  Position position;
  if (have_lo && have_hi) {
    // Two-sided range: file at the LCA trie node of [L,H] in code space.
    // Strict bounds shrink the code range by one; contradictory bounds
    // (lo > hi after adjustment) store the swapped gap interval, whose
    // overlap query conservatively covers the containment test the formal
    // pair actually needs.
    uint64_t code_lo = OrderedBits(lo) + (lo_strict ? 1 : 0);
    uint64_t code_hi = OrderedBits(hi) - (hi_strict ? 1 : 0);
    if (code_lo > code_hi) {
      std::swap(code_lo, code_hi);
    }
    const int level = std::bit_width(code_lo ^ code_hi);
    if (level >= 64) {
      position.kind = GroupKind::kIntervalRoot;
      position.group = &interval_root_;
    } else {
      position.kind = GroupKind::kInterval;
      position.level = static_cast<uint8_t>(level);
      position.num_key = code_lo >> level;
      position.group = &trie_[{position.level, position.num_key}];
      used_levels_ |= uint64_t{1} << level;
    }
    return position;
  }
  if (have_lo) {
    position.kind = lo_strict ? GroupKind::kGt : GroupKind::kGe;
    position.bound = lo;
    position.group = lo_strict ? &gt_[lo] : &ge_[lo];
    return position;
  }
  if (have_hi) {
    position.kind = hi_strict ? GroupKind::kLt : GroupKind::kLe;
    position.bound = hi;
    position.group = hi_strict ? &lt_[hi] : &le_[hi];
    return position;
  }
  if (ne_str != nullptr) {
    position.kind = GroupKind::kNeStr;
    position.str_key = interner_.Intern(*ne_str);
    position.group = &ne_str_[position.str_key];
    return position;
  }
  if (have_ne_num) {
    position.kind = GroupKind::kNeNum;
    position.num_key = NormalizedBits(ne_num);
    position.group = &ne_num_[position.num_key];
    return position;
  }
  position.kind = has_key_formal ? GroupKind::kAny : GroupKind::kUnconstrained;
  position.group = has_key_formal ? &any_ : &unconstrained_;
  return position;
}

void MatchIndex::ReleaseGroup(const Position& position) {
  switch (position.kind) {
    case GroupKind::kNumEq:
      num_eq_.erase(position.num_key);
      break;
    case GroupKind::kStrEq:
      str_eq_.erase(position.str_key);
      break;
    case GroupKind::kGe:
      ge_.erase(position.bound);
      break;
    case GroupKind::kGt:
      gt_.erase(position.bound);
      break;
    case GroupKind::kLe:
      le_.erase(position.bound);
      break;
    case GroupKind::kLt:
      lt_.erase(position.bound);
      break;
    case GroupKind::kInterval: {
      trie_.erase({position.level, position.num_key});
      const auto next = trie_.lower_bound({position.level, 0});
      if (next == trie_.end() || next->first.first != position.level) {
        used_levels_ &= ~(uint64_t{1} << position.level);
      }
      break;
    }
    case GroupKind::kNeNum:
      ne_num_.erase(position.num_key);
      break;
    case GroupKind::kNeStr:
      ne_str_.erase(position.str_key);
      break;
    case GroupKind::kIntervalRoot:
    case GroupKind::kAny:
    case GroupKind::kUnconstrained:
      break;  // static members; nothing to release
  }
}

namespace {

// A keyed container of groups: its own nodes plus each group's entries.
template <typename Container>
size_t GroupsBytes(const Container& groups, size_t container_bytes) {
  for (const auto& [key, group] : groups) {
    container_bytes += VectorBytes(group);
  }
  return container_bytes;
}

}  // namespace

size_t MatchIndex::MemoryBytes() const {
  size_t bytes = VectorBytes(interval_root_) + VectorBytes(any_) + VectorBytes(unconstrained_);
  bytes += GroupsBytes(num_eq_, HashMapBytes(num_eq_));
  bytes += GroupsBytes(str_eq_, HashMapBytes(str_eq_));
  for (const std::map<double, Group>* endpoints : {&ge_, &gt_, &le_, &lt_}) {
    bytes += GroupsBytes(*endpoints, MapBytes(*endpoints));
  }
  bytes += GroupsBytes(trie_, MapBytes(trie_));
  bytes += GroupsBytes(ne_num_, MapBytes(ne_num_));
  bytes += GroupsBytes(ne_str_, MapBytes(ne_str_));
  return bytes + interner_.MemoryBytes() + HashMapBytes(positions_);
}

size_t MatchIndex::group_count() const {
  return num_eq_.size() + str_eq_.size() + ge_.size() + gt_.size() + le_.size() + lt_.size() +
         trie_.size() + ne_num_.size() + ne_str_.size();
}

bool MatchIndex::Insert(uint32_t id, int32_t priority, const AttributeSet* attrs) {
  auto [slot_it, inserted] = positions_.try_emplace(id);
  if (!inserted) {
    return false;
  }
  Position position = ClassifyInsert(*attrs);
  position.slot = static_cast<uint32_t>(position.group->size());
  position.group->push_back(MatchIndexEntry{id, priority, attrs});
  slot_it->second = position;
  ++size_;
  return true;
}

bool MatchIndex::Erase(uint32_t id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) {
    return false;
  }
  const Position position = it->second;
  Group& group = *position.group;
  const uint32_t last = static_cast<uint32_t>(group.size()) - 1;
  if (position.slot != last) {
    group[position.slot] = std::move(group[last]);
    positions_[group[position.slot].id].slot = position.slot;
  }
  group.pop_back();
  positions_.erase(it);
  if (group.empty()) {
    ReleaseGroup(position);
  }
  --size_;
  return true;
}

}  // namespace diffusion
