// Tests for the reliable blob transfer (§3.1's retransmission scheme for
// large, persistent data objects).

#include <gtest/gtest.h>

#include "src/apps/blob_transfer.h"
#include "src/core/node.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;
using testing_support::MakeLineChannel;

std::vector<uint8_t> MakeObject(size_t size) {
  std::vector<uint8_t> object(size);
  for (size_t i = 0; i < size; ++i) {
    object[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  return object;
}

class BlobTest : public ::testing::Test {
 protected:
  BlobTest() : sim_(91), channel_(MakeLineChannel(&sim_, 3)) {
    DiffusionConfig config;
    config.exploratory_every = 3;
    for (NodeId id = 1; id <= 3; ++id) {
      nodes_.push_back(std::make_unique<DiffusionNode>(
          &sim_, channel_.get(), id, NodeOptions{.diffusion = config, .radio = FastRadio()}));
    }
  }

  Simulator sim_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<DiffusionNode>> nodes_;
};

TEST_F(BlobTest, TransfersObjectOverCleanLink) {
  const std::vector<uint8_t> object = MakeObject(1000);
  BlobSender sender(nodes_[2].get(), /*object_id=*/7, object);
  EXPECT_EQ(sender.chunk_count(), 16u);  // ceil(1000/64)

  BlobReceiver receiver(nodes_[0].get(), 7);
  std::vector<uint8_t> delivered;
  receiver.Start([&delivered](const std::vector<uint8_t>& data) { delivered = data; });
  sim_.RunUntil(kSecond);
  sender.Start();
  sim_.RunUntil(2 * kMinute);

  EXPECT_TRUE(receiver.complete());
  EXPECT_EQ(delivered, object);
  EXPECT_TRUE(receiver.MissingSpans().empty());
}

TEST_F(BlobTest, EmptyObjectStillCompletes) {
  BlobSender sender(nodes_[2].get(), 8, {});
  EXPECT_EQ(sender.chunk_count(), 1u);
  BlobReceiver receiver(nodes_[0].get(), 8);
  bool done = false;
  receiver.Start([&done](const std::vector<uint8_t>& data) {
    done = true;
    EXPECT_TRUE(data.empty());
  });
  sim_.RunUntil(kSecond);
  sender.Start();
  sim_.RunUntil(kMinute);
  EXPECT_TRUE(done);
}

TEST_F(BlobTest, SenderWaitsForInterestBeforeDelivering) {
  // Start the sender first: chunks cannot leave the node ("published data
  // does not leave the node") and stay queued until the interest arrives.
  const std::vector<uint8_t> object = MakeObject(300);
  BlobSender sender(nodes_[2].get(), 9, object);
  sender.Start();
  sim_.RunUntil(10 * kSecond);
  EXPECT_EQ(nodes_[2]->stats().data_originated, 0u);

  BlobReceiver receiver(nodes_[0].get(), 9);
  std::vector<uint8_t> delivered;
  receiver.Start([&delivered](const std::vector<uint8_t>& data) { delivered = data; });
  sim_.RunUntil(3 * kMinute);
  EXPECT_EQ(delivered, object);
}

TEST_F(BlobTest, RepairsLossesFromTransientOutage) {
  // Sever the middle of the line partway through the initial transmission;
  // the receiver's range-scoped repair interests recover the gap.
  const std::vector<uint8_t> object = MakeObject(2000);  // 32 chunks, ~8 s paced
  BlobSender sender(nodes_[2].get(), 10, object);
  BlobReceiverConfig rconfig;
  rconfig.repair_delay = 5 * kSecond;
  BlobReceiver receiver(nodes_[0].get(), 10, rconfig);
  std::vector<uint8_t> delivered;
  receiver.Start([&delivered](const std::vector<uint8_t>& data) { delivered = data; });
  sim_.RunUntil(kSecond);
  sender.Start();

  // Kill the relay for a few seconds mid-transfer.
  sim_.After(2 * kSecond, [this] { nodes_[1]->Kill(); });
  sim_.After(6 * kSecond, [this] { nodes_[1]->Revive(); });

  sim_.RunUntil(5 * kMinute);
  EXPECT_TRUE(receiver.complete());
  EXPECT_EQ(delivered, object);
  EXPECT_GT(receiver.repair_rounds(), 0);
  EXPECT_GT(sender.repair_requests(), 0u);
}

TEST_F(BlobTest, MissingSpansReportsGaps) {
  BlobReceiver receiver(nodes_[0].get(), 11);
  // Before anything arrives the total is unknown: no spans.
  EXPECT_TRUE(receiver.MissingSpans().empty());
}

TEST_F(BlobTest, MaxRepairRoundsBoundsEffort) {
  // No sender at all: the receiver gives up after the configured rounds.
  BlobReceiverConfig config;
  config.repair_delay = kSecond;
  config.max_repair_rounds = 3;
  BlobReceiver receiver(nodes_[0].get(), 12, config);
  receiver.Start([](const std::vector<uint8_t>&) { FAIL() << "nothing should complete"; });
  sim_.RunUntil(kMinute);
  EXPECT_FALSE(receiver.complete());
  EXPECT_EQ(receiver.repair_rounds(), 3);
}

TEST_F(BlobTest, RepairInterestRangesSelectChunksByMatching) {
  // Drive the sender's filter directly with a crafted repair interest and
  // observe that exactly the requested chunks are (re)transmitted.
  const std::vector<uint8_t> object = MakeObject(640);  // 10 chunks
  BlobSender sender(nodes_[2].get(), 13, object);
  // A receiver creates demand so chunks can flow.
  BlobReceiver receiver(nodes_[0].get(), 13);
  std::vector<uint8_t> delivered;
  receiver.Start([&delivered](const std::vector<uint8_t>& data) { delivered = data; });
  sim_.RunUntil(kSecond);
  sender.Start();
  sim_.RunUntil(2 * kMinute);
  ASSERT_TRUE(receiver.complete());
  const uint64_t sent_before = sender.chunks_sent();

  // Craft a second receiver's repair interest for chunks 3..5 only.
  AttributeVector repair = {
      ClassEq(kClassData),
      Attribute::String(kKeyType, AttrOp::kEq, kTypeBlob),
      Attribute::Int32(kKeyBlobId, AttrOp::kEq, 13),
      Attribute::Int32(kKeyBlobChunk, AttrOp::kGe, 3),
      Attribute::Int32(kKeyBlobChunk, AttrOp::kLe, 5),
      Attribute::String(kKeyType, AttrOp::kIs, kTypeBlob),
      Attribute::Int32(kKeyBlobId, AttrOp::kIs, 13),
  };
  int repair_chunks = 0;
  const SubscriptionHandle repair_handle =
      nodes_[0]->Subscribe(repair, [&repair_chunks](const AttributeVector& attrs) {
        const Attribute* chunk = FindActual(attrs, kKeyBlobChunk);
        const int64_t index = chunk->AsInt().value_or(-1);
        EXPECT_GE(index, 3);
        EXPECT_LE(index, 5);
        ++repair_chunks;
      });
  sim_.RunUntil(3 * kMinute);
  // Only the requested span is retransmitted (the callback asserts every
  // delivered index is within [3, 5]), possibly several times as the
  // standing subscription refreshes.
  EXPECT_GE(sender.chunks_sent(), sent_before + 3);
  EXPECT_GE(repair_chunks, 3);
  (void)nodes_[0]->Unsubscribe(repair_handle);
  // With the subscription gone and its gradients expiring, retransmissions
  // wind down (at most one refresh-worth still in flight).
  sim_.RunUntil(4 * kMinute);
  const uint64_t sent_after_unsub = sender.chunks_sent();
  sim_.RunUntil(13 * kMinute);
  EXPECT_LE(sender.chunks_sent(), sent_after_unsub + 6);
}

}  // namespace
}  // namespace diffusion
