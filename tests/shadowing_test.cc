// Tests for the log-normal shadowing propagation model.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/core/node.h"
#include "src/naming/keys.h"
#include "src/radio/shadowing.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;

ShadowingConfig NoShadow() {
  ShadowingConfig config;
  config.shadowing_sigma_db = 0.0;
  return config;
}

TEST(ShadowingTest, ZeroSigmaBehavesLikeSoftDisk) {
  ShadowingPropagation prop(NoShadow(), 1);
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {5, 0, 0});    // well inside reference range 10
  prop.SetPosition(3, {9.99, 0, 0});  // at the edge
  prop.SetPosition(4, {30, 0, 0});   // far outside
  EXPECT_TRUE(prop.Reaches(1, 2));
  EXPECT_NEAR(prop.DeliveryProbability(1, 2, 0), 0.98, 1e-9);  // strong link
  EXPECT_TRUE(prop.Reaches(1, 3));
  EXPECT_NEAR(prop.DeliveryProbability(1, 3, 0), 0.49, 0.02);  // marginal: ~50% of max
  EXPECT_FALSE(prop.Reaches(1, 4));
  EXPECT_EQ(prop.DeliveryProbability(1, 4, 0), 0.0);
}

TEST(ShadowingTest, MarginMonotoneInDistance) {
  ShadowingPropagation prop(NoShadow(), 1);
  prop.SetPosition(1, {0, 0, 0});
  double last = 1e18;
  for (int d = 1; d <= 40; d += 2) {
    prop.SetPosition(2, {static_cast<double>(d), 0, 0});
    const double margin = prop.LinkMarginDb(1, 2);
    EXPECT_LT(margin, last);
    last = margin;
  }
}

TEST(ShadowingTest, ShadowingIsStablePerLink) {
  ShadowingConfig config;
  config.shadowing_sigma_db = 6.0;
  ShadowingPropagation prop(config, 42);
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {8, 0, 0});
  const double first = prop.LinkMarginDb(1, 2);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(prop.LinkMarginDb(1, 2), first);
  }
}

TEST(ShadowingTest, MarginsArePureInSeedAndLink) {
  // A link's margin depends on the seed and the link alone: not on how many
  // times or in what order links were probed, nor on which model instance
  // answers.
  for (const bool symmetric : {false, true}) {
    ShadowingConfig config;
    config.shadowing_sigma_db = 6.0;
    config.symmetric_shadowing = symmetric;
    ShadowingPropagation first(config, 77);
    ShadowingPropagation second(config, 77);
    constexpr NodeId kNodes = 6;
    for (NodeId id = 1; id <= kNodes; ++id) {
      first.SetPosition(id, {3.0 * id, 2.0 * (id % 3), 0});
      const NodeId mirror = kNodes + 1 - id;  // the second model learns them backwards
      second.SetPosition(mirror, {3.0 * mirror, 2.0 * (mirror % 3), 0});
    }
    std::vector<uint64_t> margins;
    for (NodeId from = 1; from <= kNodes; ++from) {
      for (NodeId to = 1; to <= kNodes; ++to) {
        margins.push_back(std::bit_cast<uint64_t>(first.LinkMarginDb(from, to)));
      }
    }
    for (int pass = 0; pass < 3; ++pass) {
      size_t i = margins.size();
      for (NodeId from = kNodes; from >= 1; --from) {
        for (NodeId to = kNodes; to >= 1; --to) {
          --i;
          SCOPED_TRACE(testing::Message() << "link " << from << "->" << to << ", pass " << pass);
          EXPECT_EQ(std::bit_cast<uint64_t>(second.LinkMarginDb(from, to)), margins[i]);
          EXPECT_EQ(std::bit_cast<uint64_t>(first.LinkMarginDb(from, to)), margins[i]);
        }
      }
    }
  }
}

TEST(ShadowingTest, ProducesAsymmetricLinks) {
  // §6.4: "some experiments seemed to show asymmetric links" — per-direction
  // shadowing draws differ, so some links work one way only.
  ShadowingConfig config;
  config.shadowing_sigma_db = 8.0;
  config.symmetric_shadowing = false;
  int asymmetric = 0;
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    ShadowingPropagation prop(config, rng.Next());
    prop.SetPosition(1, {0, 0, 0});
    prop.SetPosition(2, {11.0, 0, 0});  // just beyond the mean edge
    if (prop.Reaches(1, 2) != prop.Reaches(2, 1)) {
      ++asymmetric;
    }
  }
  EXPECT_GT(asymmetric, 10);  // a real fraction of edge links are one-way
}

TEST(ShadowingTest, SymmetricModeSharesDraws) {
  ShadowingConfig config;
  config.shadowing_sigma_db = 8.0;
  config.symmetric_shadowing = true;
  ShadowingPropagation prop(config, 123);
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {11.0, 0, 0});
  EXPECT_DOUBLE_EQ(prop.LinkMarginDb(1, 2), prop.LinkMarginDb(2, 1));
}

TEST(ShadowingTest, GrayZoneLinksDeliverPartially) {
  // Statistical check: with sigma 4 dB, links near the reference range land
  // in the gray zone with intermediate delivery probabilities.
  ShadowingConfig config;
  config.shadowing_sigma_db = 4.0;
  int gray = 0;
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    ShadowingPropagation prop(config, rng.Next());
    prop.SetPosition(1, {0, 0, 0});
    prop.SetPosition(2, {10.0, 0, 0});
    const double p = prop.DeliveryProbability(1, 2, 0);
    if (p > 0.1 && p < 0.9) {
      ++gray;
    }
  }
  EXPECT_GT(gray, 100);
}

TEST(ShadowingTest, DiffusionRunsOverShadowedChannel) {
  // End-to-end: a 3x3 grid under shadowing still moves data (the protocol
  // tolerates gray-zone and one-way links; §6.4's complaints are about
  // *performance*, not liveness).
  Simulator sim(77);
  ShadowingConfig config;
  config.reference_range = 7.0;
  config.shadowing_sigma_db = 3.0;
  auto prop = std::make_unique<ShadowingPropagation>(config, 5);
  for (NodeId id = 1; id <= 9; ++id) {
    prop->SetPosition(id, {static_cast<double>((id - 1) % 3) * 5.0,
                           static_cast<double>((id - 1) / 3) * 5.0, 0});
  }
  Channel channel(&sim, std::move(prop));
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id = 1; id <= 9; ++id) {
    nodes.push_back(
        std::make_unique<DiffusionNode>(&sim, &channel, id, NodeOptions{.radio = FastRadio()}));
  }
  int received = 0;
  (void)nodes[0]->Subscribe({ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "t")},
                      [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub = nodes[8]->Publish({Attribute::String(kKeyType, AttrOp::kIs, "t")});
  sim.RunUntil(2 * kSecond);
  for (int i = 0; i < 20; ++i) {
    sim.After(i * kSecond, [&, i] {
      (void)nodes[8]->Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, i)});
    });
  }
  sim.RunUntil(2 * kMinute);
  EXPECT_GT(received, 10);
}

}  // namespace
}  // namespace diffusion
