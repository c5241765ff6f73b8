// §4.3's micro-diffusion footprint and function check.
//
// "Micro-diffusion is a subset of our full system, retaining only gradients,
// condensing attributes to a single tag ... it adds only 2050 bytes of code
// and 106 bytes of data to its host operating system ... statically
// configured to support 5 active gradients and a cache of 10 packets of the
// 2 relevant bytes per packet."
//
// This binary reports the engine's static state budget (the code-size claim
// is compiler/ISA-specific; the data budget is the enforceable one), checks
// wire compatibility with full diffusion, and runs the tiered deployment
// (mote tier gatewayed into a full-diffusion tier) end to end.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/core/message.h"
#include "src/core/node.h"
#include "src/micro/micro_gateway.h"
#include "src/micro/micro_node.h"
#include "src/testbed/topology.h"

namespace diffusion {
namespace {

int Main(int argc, char** argv) {
  bench::ParseFlags(argc, argv, {});
  std::printf("=== Micro-diffusion (§4.3) ===\n\n");
  std::printf("Static engine budgets:\n");
  std::printf("  gradients: %zu slots (paper: 5)\n", MicroNode::kMaxGradients);
  std::printf("  packet cache: %zu entries x 2 bytes (paper: 10 x 2)\n", MicroNode::kCacheEntries);
  std::printf("  engine state: %zu bytes (paper: 106 B of data)\n", MicroNode::StateBytes());
  std::printf("  interest wire size: %zu B, data wire size: %zu B\n", kMicroInterestWireSize,
              kMicroDataWireSize);

  // Wire compatibility check: a full node parses a micro packet.
  MicroMessage micro;
  micro.type = MessageType::kData;
  micro.origin = 7;
  micro.origin_seq = 1;
  micro.tag = 42;
  micro.has_value = true;
  micro.value = 1234;
  uint8_t buffer[kMicroMaxWireSize];
  const size_t size = MicroEncode(micro, buffer);
  const auto parsed = Message::Deserialize(std::vector<uint8_t>(buffer, buffer + size));
  std::printf("  header compatibility: full diffusion %s micro packets\n",
              parsed.has_value() ? "parses" : "FAILS TO PARSE");

  // Tiered deployment: 3 motes -> gateway -> 3 full nodes -> user.
  Simulator sim(5);
  auto upper_topology = std::make_unique<ExplicitTopology>();
  upper_topology->AddSymmetricLink(1, 2);
  upper_topology->AddSymmetricLink(2, 3);
  Channel upper(&sim, std::move(upper_topology));
  auto mote_topology = std::make_unique<ExplicitTopology>();
  mote_topology->AddSymmetricLink(100, 101);
  mote_topology->AddSymmetricLink(101, 102);
  Channel mote_channel(&sim, std::move(mote_topology));

  const RadioConfig rconfig = TestbedRadioConfig();
  DiffusionNode user(&sim, &upper, 1, NodeOptions{.radio = rconfig});
  DiffusionNode relay(&sim, &upper, 2, NodeOptions{.radio = rconfig});
  DiffusionNode gateway_full(&sim, &upper, 3, NodeOptions{.radio = rconfig});
  MicroNode gateway_mote(&sim, &mote_channel, 100, rconfig);
  MicroNode mote_relay(&sim, &mote_channel, 101, rconfig);
  MicroNode sensor(&sim, &mote_channel, 102, rconfig);

  MicroGateway gateway(&gateway_full, &gateway_mote);
  constexpr MicroTag kPhotoTag = 9;
  gateway.Bridge(kPhotoTag, {Attribute::String(kKeyType, AttrOp::kIs, "photo")});

  size_t readings_received = 0;
  (void)user.Subscribe({ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "photo")},
                 [&readings_received](const AttributeVector&) { ++readings_received; });
  sim.RunUntil(5 * kSecond);

  // Mote readings every 2 s for a minute, two hops across the mote tier.
  for (int i = 0; i < 30; ++i) {
    sim.After(i * 2 * kSecond, [&sensor, i] { sensor.SendData(kPhotoTag, 100 + i); });
  }
  sim.RunUntil(2 * kMinute);

  std::printf("\nTiered deployment (2-hop mote tier -> gateway -> 2-hop full tier):\n");
  std::printf("  mote tier tasked only after a full-tier interest arrived: %s\n",
              gateway.TagTasked(kPhotoTag) ? "yes" : "NO");
  std::printf("  readings bridged at gateway: %llu / 30\n",
              static_cast<unsigned long long>(gateway.readings_bridged()));
  std::printf("  readings delivered to user: %zu / 30\n", readings_received);
  std::printf("  mote relay forwarded %llu packets within %zu B of engine state\n",
              static_cast<unsigned long long>(mote_relay.stats().forwarded),
              MicroNode::StateBytes());
  return readings_received > 0 ? 0 : 1;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
