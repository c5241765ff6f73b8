// Interest and gradient state (paper §3.1).
//
// Every node is task-aware: it stores interests rather than just forwarding
// them. For each distinct interest (identified by exact attribute-set match)
// the node keeps one entry with a gradient per neighbor that sent the
// interest. A gradient records direction (data matching this interest flows
// to that neighbor), demand status (reinforced or not), and freshness.

#ifndef SRC_CORE_GRADIENT_TABLE_H_
#define SRC_CORE_GRADIENT_TABLE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/naming/attribute.h"
#include "src/naming/attribute_set.h"
#include "src/radio/position.h"
#include "src/util/time.h"

namespace diffusion {

struct Gradient {
  NodeId neighbor = kBroadcastId;
  SimTime expires = 0;
  // Data flows at full rate only on reinforced gradients; unreinforced
  // gradients carry exploratory data only.
  bool reinforced = false;
  SimTime reinforced_until = 0;
  // "The desired update rate" (§3.1): when the interest carried an
  // "interval IS n" actual, regular data toward this neighbor is downsampled
  // to at most one message per interval. Zero means unconstrained.
  SimDuration data_interval = 0;
  SimTime last_data_forwarded = -1;
};

struct InterestEntry {
  // Canonical form: key-sorted, with the order-insensitive hash precomputed
  // (attrs.hash()), so exact-match probes are a hash compare first.
  AttributeSet attrs;
  SimTime expires = 0;

  // True when a local application subscription created this entry (the node
  // is a sink for it).
  bool is_local = false;

  std::vector<Gradient> gradients;

  // Reinforcement bookkeeping: for the most recent exploratory packet seen
  // for this interest, which neighbor delivered the first copy ("the
  // preferred neighbor ... which delivered the first copy of the data
  // message").
  uint64_t last_exploratory_packet = 0;
  NodeId last_exploratory_from = kBroadcastId;

  // Upstream neighbors this node has positively reinforced, with the last
  // time each won a first-copy race (for negative reinforcement of stale
  // paths).
  std::unordered_map<NodeId, SimTime> reinforced_upstream;

  // Exploratory packet for which this node last propagated a reinforcement
  // upstream; dedupes reinforcement cascades within one exploratory round.
  uint64_t last_upstream_reinforce_packet = 0;

  // One-phase pull: the neighbor that delivered the first copy of the most
  // recent interest flood for this entry — the preferred (lowest-latency)
  // direction toward the sink.
  uint64_t last_interest_packet = 0;
  NodeId preferred_interest_from = kBroadcastId;

  Gradient* FindGradient(NodeId neighbor);
  // Inserts or refreshes a gradient toward `neighbor`.
  Gradient& AddOrRefreshGradient(NodeId neighbor, SimTime expires);
  // Drops expired gradients and stale reinforcement flags. When `observer`
  // is non-null it is invoked for each dropped gradient (tracing hook).
  void ExpireGradients(
      SimTime now, const std::function<void(const InterestEntry&, const Gradient&)>* observer =
                       nullptr);
  bool HasReinforcedGradient() const;
};

class GradientTable {
 public:
  // Finds the entry whose attributes exactly match `attrs` (order
  // insensitive), or nullptr. Both hashes are precomputed, so the probe is
  // an integer compare per entry (§3.1's hash-before-full-compare
  // optimization) with a structural check only on a hash hit.
  InterestEntry* FindExact(const AttributeSet& attrs);

  // Entries whose interest two-way matches `data_attrs` — i.e. the
  // destinations/consumers of a data message.
  std::vector<InterestEntry*> MatchData(const AttributeSet& data_attrs);

  // Inserts a new entry (or returns the existing exact match), refreshing
  // its expiry to at least `expires`.
  InterestEntry& InsertOrRefresh(const AttributeSet& attrs, SimTime expires);

  // Removes entries and gradients that have expired. Local entries persist
  // until unsubscribed regardless of expiry.
  void Expire(SimTime now);

  // Removes a local entry (unsubscribe). Returns true if found.
  bool RemoveLocal(const AttributeSet& attrs);

  // Drops every entry and gradient without notifying the expiry observer —
  // a rebooted node's gradients vanish rather than age out.
  void Clear() {
    entries_.clear();
    hash_col_.clear();
    entry_col_.clear();
  }

  size_t size() const { return entries_.size(); }

  // Heap bytes held: the entries, their gradients and reinforcement maps,
  // and the probe columns. An entry's attribute storage is shared
  // copy-on-write with the messages that carried it, so it is not counted.
  size_t MemoryBytes() const;

  // Iteration support (e.g. for the debugging/monitoring filter). Callers
  // may mutate entry *contents* (gradients, reinforcement flags) but must
  // not insert/erase entries or reassign attrs — structural changes go
  // through the table API so the probe columns below stay in sync.
  std::list<InterestEntry>& entries() { return entries_; }
  const std::list<InterestEntry>& entries() const { return entries_; }

  // Invoked by Expire for every dropped gradient (flight-recorder hook).
  // Costs nothing unless gradients actually expire.
  void SetExpiryObserver(std::function<void(const InterestEntry&, const Gradient&)> observer) {
    expiry_observer_ = std::move(observer);
  }

 private:
  // Drops the column slot at `index` (after the matching list erase).
  void EraseColumn(size_t index);

  // std::list keeps InterestEntry* stable across insert/erase.
  std::list<InterestEntry> entries_;
  // Structure-of-arrays probe columns, parallel to entries_ in iteration
  // order: FindExact scans the contiguous hash column (one cache line holds
  // eight candidates) and MatchData walks the pointer column, instead of
  // chasing list nodes. Attrs never change after insert, so the hashes
  // cannot go stale.
  std::vector<uint64_t> hash_col_;
  std::vector<InterestEntry*> entry_col_;
  std::function<void(const InterestEntry&, const Gradient&)> expiry_observer_;
};

}  // namespace diffusion

#endif  // SRC_CORE_GRADIENT_TABLE_H_
