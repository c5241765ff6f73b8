// Reliable transfer of large, persistent data objects (paper §3.1).
//
// "Recovery from data loss is currently left to the application. While
// simple applications with transient data ... need no additional recovery
// mechanism, we are also developing retransmission scheme for applications
// that transfer large, persistent data objects."
//
// This is that scheme, built purely from the public diffusion primitives —
// no new message types, no end-to-end addressing:
//
//   * The sender splits the object into chunks and publishes them as data
//     named (type="blob", object id, chunk IS i).
//   * The receiver subscribes to the whole object and collects chunks.
//   * After a repair delay, the receiver asks for what is missing using the
//     matching rules themselves: a repair interest constrains the chunk
//     index with a range formal (chunk GE a, chunk LE b), so only missing
//     spans are re-requested.
//   * The sender watches for blob interests with a *filter* (one-way match:
//     a range formal has no single satisfying actual, so subscription-style
//     two-way matching cannot see repair requests); any arriving repair
//     interest triggers retransmission of exactly the requested chunks.
//     Repair interests carry identifying actuals (type IS blob, id IS n) so
//     the filter stays selective.
//
// The NACK is an interest and the retransmission path is ordinary gradient
// forwarding — the paper's thesis (names carry the semantics; the network
// stays generic) extended to reliability.

#ifndef SRC_APPS_BLOB_TRANSFER_H_
#define SRC_APPS_BLOB_TRANSFER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/core/node.h"

namespace diffusion {

// Attribute keys for the blob protocol (application range).
enum BlobKey : AttrKey {
  kKeyBlobId = kKeyFirstApplication + 10,     // int32: object identifier
  kKeyBlobChunk = kKeyFirstApplication + 11,  // int32: chunk index
  kKeyBlobCount = kKeyFirstApplication + 12,  // int32: total chunks
  kKeyBlobData = kKeyFirstApplication + 13,   // blob: chunk payload
};

inline constexpr char kTypeBlob[] = "blob";

inline constexpr size_t kBlobChunkBytes = 64;
// Pacing between chunk transmissions; a burst of dozens of messages would
// just queue-drop at the 13 kb/s MAC.
inline constexpr SimDuration kBlobChunkInterval = 250 * kMillisecond;

// Offers one object to the network and serves repair interests forever
// (the object is persistent).
class BlobSender {
 public:
  BlobSender(DiffusionNode* node, int32_t object_id, std::vector<uint8_t> object);
  ~BlobSender();

  BlobSender(const BlobSender&) = delete;
  BlobSender& operator=(const BlobSender&) = delete;

  // Starts the initial full transmission (chunks 0..n-1, paced).
  void Start();

  size_t chunk_count() const { return chunks_.size(); }
  uint64_t chunks_sent() const { return chunks_sent_; }
  uint64_t repair_requests() const { return repair_requests_; }

 private:
  void SendChunk(size_t index);
  void OnInterest(Message& message, FilterApi& api);
  void PumpQueue();

  DiffusionNode* node_;
  int32_t object_id_;
  std::vector<std::vector<uint8_t>> chunks_;
  PublicationHandle publication_ = kInvalidHandle;
  FilterHandle interest_filter_ = kInvalidHandle;
  std::vector<size_t> send_queue_;
  std::set<uint64_t> seen_interest_packets_;
  EventId pump_event_ = kInvalidEventId;
  uint64_t chunks_sent_ = 0;
  uint64_t repair_requests_ = 0;
};

struct BlobReceiverConfig {
  // How long to wait for in-flight chunks before requesting repairs.
  SimDuration repair_delay = 5 * kSecond;
  // Maximum repair rounds before giving up (0 = unlimited).
  int max_repair_rounds = 0;
};

// Fetches one object; issues range-scoped repair interests until complete.
class BlobReceiver {
 public:
  using CompletionCallback = std::function<void(const std::vector<uint8_t>& object)>;

  BlobReceiver(DiffusionNode* node, int32_t object_id,
               BlobReceiverConfig config = BlobReceiverConfig{});
  ~BlobReceiver();

  BlobReceiver(const BlobReceiver&) = delete;
  BlobReceiver& operator=(const BlobReceiver&) = delete;

  // Subscribes to the object and arms the repair timer.
  void Start(CompletionCallback on_complete);

  bool complete() const { return complete_; }
  size_t chunks_received() const { return chunks_.size(); }
  std::optional<size_t> expected_chunks() const { return expected_; }
  int repair_rounds() const { return repair_rounds_; }

  // Missing chunk indexes as [first, last] spans (empty when complete or when
  // the total is still unknown).
  std::vector<std::pair<int32_t, int32_t>> MissingSpans() const;

 private:
  void OnChunk(const AttributeVector& attrs);
  void CheckAndRepair();
  void FinishIfComplete();

  DiffusionNode* node_;
  int32_t object_id_;
  BlobReceiverConfig config_;
  SubscriptionHandle subscription_ = kInvalidHandle;
  std::vector<SubscriptionHandle> repair_subscriptions_;
  std::map<int32_t, std::vector<uint8_t>> chunks_;
  std::optional<size_t> expected_;
  CompletionCallback on_complete_;
  EventId repair_event_ = kInvalidEventId;
  int repair_rounds_ = 0;
  bool complete_ = false;
};

}  // namespace diffusion

#endif  // SRC_APPS_BLOB_TRANSFER_H_
