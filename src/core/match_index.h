// Candidate index for filter/subscription dispatch.
//
// DispatchToChain and DeliverLocalData used to test every registered filter
// or subscription against every message. The index classifies each entry by
// ONE of its formals on a discriminating key — `class` for the node's own
// indexes, but any key works (the million-entry benchmark discriminates on
// `confidence`) — and a message then only visits the groups its actuals can
// satisfy:
//
//   * EQ formals: hash buckets keyed by the value (numeric bit pattern, or
//     an interned string id — see src/naming/interner.h), named directly by
//     the message's actuals;
//   * one-sided inequalities (LE/LT/GE/GT): sorted endpoint maps keyed by
//     the bound, range-scanned with the min/max actual value;
//   * two-sided ranges (a lower- and an upper-bound formal on the key): a
//     64-level LCA segment trie over the order-preserving bit encoding of
//     double, queried by overlap with [min actual, max actual];
//   * NE formals: per-value groups, all visited except the group whose
//     value every actual equals;
//   * anything else formal on the key (`any_`), and entries with no formal
//     on the key at all (`unconstrained_`).
//
// Soundness hinges on the matching semantics (paper §3.2, Figure 2): every
// formal must be satisfied by SOME actual, independently — two formals of
// one entry may be satisfied by two different actuals. Indexing therefore
// commits to single formals only:
//
//   * an EQ v formal needs some actual == v, so bucketing by v cannot lose
//     a match (the message's own actual names the bucket);
//   * a GE c formal needs some actual >= c, i.e. max(actuals) >= c, so
//     scanning ge_ keys <= vmax is exact (symmetrically for LE/LT/GT);
//   * a (GE lo, LE hi) pair needs vmax >= lo AND vmin <= hi — exactly
//     "[lo,hi] overlaps [vmin,vmax]" — so the trie's overlap query over the
//     LCA nodes is a superset (node ranges over-approximate the stored
//     interval). Contradictory bounds (lo > hi) are stored as the swapped
//     gap interval, whose overlap superset covers the containment condition
//     the pair actually requires;
//   * a NE c formal needs some actual != c, which fails only when every
//     actual on the key equals c.
//
// The candidate set is a conservative superset of the true match set (no
// false negatives); callers re-run the full match on each candidate to drop
// false positives. NaN never satisfies a comparison but satisfies NE, so
// NaN actuals skip the EQ/interval/endpoint lookups and force a visit of
// every NE group; NaN-valued inequality bounds are unsatisfiable and park
// the entry in any_.
//
// ForEachCandidate visits each entry AT MOST ONCE per message (entries
// carry a per-visit epoch stamp), so callers need no sort+unique pass; the
// visit order is deterministic for a deterministic insert/erase sequence
// (value-keyed groups live in ordered maps — see docs/STATIC_ANALYSIS.md
// rule DL003). The stamps make concurrent queries of one index racy: an
// index belongs to one simulation thread, which is how ReplicationPool
// already partitions nodes.

#ifndef SRC_CORE_MATCH_INDEX_H_
#define SRC_CORE_MATCH_INDEX_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/naming/attribute_set.h"
#include "src/naming/interner.h"

namespace diffusion {

// One indexed filter or subscription. `id` is the handle value (unique per
// owner map), `priority` orders filter selection (0 for subscriptions), and
// `attrs` points at the owner's stored attribute set (stable address — the
// owners keep entries in node-based maps).
struct MatchIndexEntry {
  uint32_t id = 0;
  int32_t priority = 0;
  const AttributeSet* attrs = nullptr;
  // Epoch stamp of the last ForEachCandidate visit (dedup bookkeeping, not
  // part of the entry's value).
  mutable uint64_t last_visit = 0;
};

class MatchIndex {
 public:
  explicit MatchIndex(AttrKey discriminator) : discriminator_(discriminator) {}

  MatchIndex(const MatchIndex&) = delete;
  MatchIndex& operator=(const MatchIndex&) = delete;

  // `attrs` must outlive the entry and must not be mutated while indexed.
  // Returns false (and indexes nothing) if `id` is already present.
  bool Insert(uint32_t id, int32_t priority, const AttributeSet* attrs);

  // Removes the entry by id alone — the position map remembers where it
  // was filed, so erasure cannot be confused by attributes that changed
  // after Insert. Returns false if `id` is not indexed.
  bool Erase(uint32_t id);

  size_t size() const { return size_; }

  // Value-keyed groups currently held (EQ buckets, endpoint-map keys, trie
  // nodes, NE values). A group is released when its last entry leaves, so
  // this never exceeds size() and dispatch never walks an empty group.
  size_t group_count() const;

  // Invokes `fn(const MatchIndexEntry&)` for every entry that could match
  // `message`, at most once per entry. The index must not be mutated from
  // inside `fn`.
  template <typename Fn>
  void ForEachCandidate(const AttributeSet& message, Fn&& fn) const {
    for (const MatchIndexEntry& entry : unconstrained_) {
      fn(entry);
    }
    const uint64_t stamp = ++epoch_;
    const bool has_actual = VisitKeyed(message, stamp, fn);
    if (has_actual) {
      for (const MatchIndexEntry& entry : any_) {
        fn(entry);
      }
    }
  }

  // Bit pattern of `v` with -0.0 collapsed to +0.0 and every NaN collapsed
  // to one representation, so bucket keys agree exactly where double
  // comparison says equal. Exposed for tests.
  static uint64_t NormalizedBits(double v);

  // Order-preserving integer encoding of a non-NaN double (-0.0 collapsed
  // to +0.0 first): a < b iff OrderedBits(a) < OrderedBits(b). The trie's
  // interval endpoints and query points live in this space, so strict
  // bounds become +/-1 on the code. Exposed for tests.
  static uint64_t OrderedBits(double v);

 private:
  using Group = std::vector<MatchIndexEntry>;

  // Which container a group lives in; Position carries the key needed to
  // release the container node once the group empties.
  enum class GroupKind : uint8_t {
    kNumEq,
    kStrEq,
    kGe,
    kGt,
    kLe,
    kLt,
    kInterval,
    kIntervalRoot,
    kNeNum,
    kNeStr,
    kAny,
    kUnconstrained,
  };

  struct Position {
    Group* group = nullptr;
    uint32_t slot = 0;
    GroupKind kind = GroupKind::kUnconstrained;
    uint8_t level = 0;     // kInterval: trie level of the LCA node
    uint64_t num_key = 0;  // kNumEq/kNeNum: value bits; kInterval: node prefix
    double bound = 0.0;    // kGe/kGt/kLe/kLt: the endpoint-map key
    InternId str_key = 0;  // kStrEq/kNeStr
  };

  // Classifies `attrs` and returns the (created-on-demand) group plus the
  // bookkeeping needed to release it later.
  Position ClassifyInsert(const AttributeSet& attrs);

  // Erases the now-empty group's container node (no-op for the static
  // any_/unconstrained_/interval_root_ groups).
  void ReleaseGroup(const Position& position);

  template <typename Fn>
  static void VisitGroup(const Group& group, uint64_t stamp, Fn&& fn) {
    for (const MatchIndexEntry& entry : group) {
      if (entry.last_visit == stamp) {
        continue;
      }
      entry.last_visit = stamp;
      fn(entry);
    }
  }

  // Visits every value-keyed group `message`'s actuals on the discriminator
  // key can satisfy, stamping entries with `stamp` so none is offered
  // twice. Returns whether the message carries any actual on the key (the
  // caller's cue to visit any_).
  template <typename Fn>
  bool VisitKeyed(const AttributeSet& message, uint64_t stamp, Fn&& fn) const {
    bool has_actual = false;
    bool has_num = false;   // at least one non-NaN numeric actual
    bool has_nan = false;   // at least one NaN numeric actual
    double vmin = 0.0;
    double vmax = 0.0;
    bool num_multi = false;  // >1 distinct numeric value
    uint64_t num_bits0 = 0;
    bool have_num_bits0 = false;
    bool str_multi = false;  // >1 distinct string value
    const std::string* str0 = nullptr;

    const AttributeVector& items = message.items();
    auto run = std::lower_bound(items.begin(), items.end(), discriminator_,
                                [](const Attribute& attr, AttrKey key) { return attr.key() < key; });
    for (; run != items.end() && run->key() == discriminator_; ++run) {
      if (!run->IsActual()) {
        continue;
      }
      has_actual = true;
      if (const std::string* s = run->AsString()) {
        if (std::optional<InternId> id = interner_.Find(*s)) {
          auto it = str_eq_.find(*id);
          if (it != str_eq_.end()) {
            VisitGroup(it->second, stamp, fn);
          }
        }
        if (str0 == nullptr) {
          str0 = s;
        } else if (*s != *str0) {
          str_multi = true;
        }
      } else if (std::optional<double> v = run->AsDouble()) {
        if (std::isnan(*v)) {
          has_nan = true;
          continue;
        }
        auto it = num_eq_.find(NormalizedBits(*v));
        if (it != num_eq_.end()) {
          VisitGroup(it->second, stamp, fn);
        }
        if (!has_num) {
          has_num = true;
          vmin = vmax = *v;
        } else {
          vmin = std::min(vmin, *v);
          vmax = std::max(vmax, *v);
        }
        const uint64_t bits = NormalizedBits(*v);
        if (!have_num_bits0) {
          have_num_bits0 = true;
          num_bits0 = bits;
        } else if (bits != num_bits0) {
          num_multi = true;
        }
      }
      // Blob actuals name no value group (blob formals live in any_).
    }

    if (has_num) {
      // GE c is satisfiable iff c <= vmax; GT c iff c < vmax; LE c iff
      // c >= vmin; LT c iff c > vmin. Each scan is exact, not a superset.
      for (auto it = ge_.begin(), end = ge_.upper_bound(vmax); it != end; ++it) {
        VisitGroup(it->second, stamp, fn);
      }
      for (auto it = gt_.begin(), end = gt_.lower_bound(vmax); it != end; ++it) {
        VisitGroup(it->second, stamp, fn);
      }
      for (auto it = le_.lower_bound(vmin); it != le_.end(); ++it) {
        VisitGroup(it->second, stamp, fn);
      }
      for (auto it = lt_.upper_bound(vmin); it != lt_.end(); ++it) {
        VisitGroup(it->second, stamp, fn);
      }
      VisitTrie(OrderedBits(vmin), OrderedBits(vmax), stamp, fn);
    }

    if (has_num || has_nan) {
      // NE c fails only when every numeric actual equals c — and NaN
      // satisfies every NE (NaN != c, including c == NaN).
      const bool visit_all = num_multi || has_nan;
      for (const auto& [bits, group] : ne_num_) {
        if (visit_all || bits != num_bits0) {
          VisitGroup(group, stamp, fn);
        }
      }
    }
    if (str0 != nullptr) {
      std::optional<InternId> skip;
      if (!str_multi) {
        skip = interner_.Find(*str0);  // uninterned: differs from every group
      }
      for (const auto& [id, group] : ne_str_) {
        if (!skip.has_value() || id != *skip) {
          VisitGroup(group, stamp, fn);
        }
      }
    }
    return has_actual;
  }

  // Visits every trie node whose range overlaps [ql, qh] (in OrderedBits
  // space): the ancestors of both endpoints plus, per level, the contiguous
  // run of nodes fully contained in the query range. Cost is O(levels *
  // log) plus the number of contained nodes, which only hold true interval
  // overlaps.
  template <typename Fn>
  void VisitTrie(uint64_t ql, uint64_t qh, uint64_t stamp, Fn&& fn) const {
    VisitGroup(interval_root_, stamp, fn);
    uint64_t levels = used_levels_;
    while (levels != 0) {
      const int k = std::countr_zero(levels);
      levels &= levels - 1;
      const auto& nodes = trie_[static_cast<size_t>(k)];
      auto it = nodes.find(ql >> k);
      if (it != nodes.end()) {
        VisitGroup(it->second, stamp, fn);
      }
      if (ql == qh) {
        continue;  // stabbing query: ancestors cover everything
      }
      if ((qh >> k) != (ql >> k)) {
        it = nodes.find(qh >> k);
        if (it != nodes.end()) {
          VisitGroup(it->second, stamp, fn);
        }
      }
      // Nodes fully inside [ql, qh]: prefixes p with p<<k >= ql and
      // (p<<k) + (2^k - 1) <= qh. Overlap with the two ancestors above is
      // deduplicated by the epoch stamps.
      const uint64_t low_mask = (k == 0) ? 0 : ((uint64_t{1} << k) - 1);
      if (qh < low_mask) {
        continue;
      }
      const uint64_t p_lo = (ql >> k) + ((ql & low_mask) != 0 ? 1 : 0);
      const uint64_t p_hi = (qh - low_mask) >> k;
      if (p_lo > p_hi) {
        continue;
      }
      for (auto range = nodes.lower_bound(p_lo); range != nodes.end() && range->first <= p_hi;
           ++range) {
        VisitGroup(range->second, stamp, fn);
      }
    }
  }

  AttrKey discriminator_;

  // EQ buckets: flat integer-keyed tables (lookup only, never iterated).
  std::unordered_map<uint64_t, Group> num_eq_;
  std::unordered_map<InternId, Group> str_eq_;

  // One-sided inequality endpoint maps, keyed by the (non-NaN) bound.
  // Ordered: queries range-scan them, and iteration order feeds dispatch.
  std::map<double, Group> ge_;
  std::map<double, Group> gt_;
  std::map<double, Group> le_;
  std::map<double, Group> lt_;

  // Two-sided interval trie: the interval [L,H] (OrderedBits codes) lives
  // at its LCA node — level = bit_width(L^H), prefix = L >> level. Level 64
  // (the two codes differ in the top bit) is the root. Ordered maps so the
  // contained-range scans are deterministic.
  std::array<std::map<uint64_t, Group>, 64> trie_;
  Group interval_root_;
  uint64_t used_levels_ = 0;  // bitmask of non-empty trie_ levels

  // NE groups per value; ordered for deterministic visit order (every query
  // iterates them).
  std::map<uint64_t, Group> ne_num_;
  std::map<InternId, Group> ne_str_;

  // Entries whose key formals are not indexable (EQ_ANY, blob comparisons,
  // string inequalities, NaN bounds): any actual on the key could satisfy
  // them.
  Group any_;
  // Entries with no formal on the discriminator key: match regardless.
  Group unconstrained_;

  Interner interner_;
  std::unordered_map<uint32_t, Position> positions_;
  size_t size_ = 0;
  mutable uint64_t epoch_ = 0;
};

}  // namespace diffusion

#endif  // SRC_CORE_MATCH_INDEX_H_
