// Reliable transfer of a large, persistent object (§3.1's retransmission
// scheme) across a lossy multihop network.
//
// A 4 KB "calibration table" moves from a sensor node to a user over three
// lossy hops. Chunks are ordinary attribute-named data; the receiver's NACK
// is an ordinary *interest* whose chunk-range formals select exactly the
// missing pieces, and the sender's retransmissions follow ordinary
// gradients. Watch the repair rounds shrink the missing set.
//
// Build & run:   ./build/examples/reliable_transfer

#include <cstdio>
#include <memory>

#include "src/apps/blob_transfer.h"
#include "src/core/node.h"
#include "src/radio/propagation.h"
#include "src/sim/simulator.h"

using namespace diffusion;

int main() {
  Simulator sim(41);
  auto topology = std::make_unique<ExplicitTopology>();
  LinkQuality lossy;
  // Per-fragment loss compounds: a 5-fragment chunk survives one hop with
  // probability 0.97^5 ≈ 0.86, the full 3-hop path with ≈ 0.63 — about every
  // third chunk dies somewhere en route.
  lossy.delivery_probability = 0.97;
  topology->AddSymmetricLink(1, 2, lossy);
  topology->AddSymmetricLink(2, 3, lossy);
  topology->AddSymmetricLink(3, 4, lossy);
  Channel channel(&sim, std::move(topology));

  DiffusionConfig config;
  config.exploratory_every = 5;
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id = 1; id <= 4; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, &channel, id, NodeOptions{.diffusion = config}));
  }

  std::vector<uint8_t> object(4096);
  for (size_t i = 0; i < object.size(); ++i) {
    object[i] = static_cast<uint8_t>((i * 31) ^ (i >> 8));
  }

  BlobSender sender(nodes[3].get(), /*object_id=*/1, object);
  std::printf("object: %zu bytes in %zu chunks, 3 lossy hops (0.97/fragment)\n\n", object.size(),
              sender.chunk_count());

  BlobReceiverConfig receiver_config;
  receiver_config.repair_delay = 10 * kSecond;
  BlobReceiver receiver(nodes[0].get(), 1, receiver_config);
  bool done = false;
  receiver.Start([&](const std::vector<uint8_t>& data) {
    done = true;
    std::printf("\nt=%.1fs  COMPLETE: %zu bytes, intact=%s, after %d repair round(s)\n",
                DurationToSeconds(sim.now()), data.size(), data == object ? "yes" : "NO",
                receiver.repair_rounds());
  });
  sim.RunUntil(kSecond);
  sender.Start();

  for (int tick = 10; tick <= 600 && !done; tick += 10) {
    sim.RunUntil(static_cast<SimDuration>(tick) * kSecond);
    if (done) {
      break;
    }
    const auto spans = receiver.MissingSpans();
    std::printf("t=%3ds  chunks %2zu/%zu", tick, receiver.chunks_received(),
                sender.chunk_count());
    if (!spans.empty()) {
      std::printf("  missing:");
      for (const auto& [lo, hi] : spans) {
        if (lo == hi) {
          std::printf(" %d", lo);
        } else {
          std::printf(" %d-%d", lo, hi);
        }
      }
    }
    std::printf("  (repair round %d)\n", receiver.repair_rounds());
  }

  std::printf("\nsender transmitted %llu chunk messages total (%zu unique) and answered %llu "
              "repair request(s).\n",
              static_cast<unsigned long long>(sender.chunks_sent()), sender.chunk_count(),
              static_cast<unsigned long long>(sender.repair_requests()));
  return done ? 0 : 1;
}
