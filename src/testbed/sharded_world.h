// The multi-region world under its old name, kept only because the
// benchmark package (perfbench/tests/worlds_test.cc) still builds one this
// way. TestbedWorld is the one builder; ROADMAP.md item 12 (perfbench onto
// the one world builder) deletes this file.

#ifndef SRC_TESTBED_SHARDED_WORLD_H_
#define SRC_TESTBED_SHARDED_WORLD_H_

#include "src/testbed/testbed_world.h"

namespace diffusion {

struct ShardedWorldParams {
  int regions = 4;
  unsigned threads = 1;
  SimDuration window = 0;  // unused: TestbedWorld derives the window
  uint64_t seed = 1;
  double link_delivery = 0.98;
  DiffusionConfig diffusion{};
  RadioConfig radio{};
};

class ShardedWorld : public TestbedWorld {
 public:
  ShardedWorld(const TestbedLayout& layout, const ShardedWorldParams& params)
      : TestbedWorld(params.seed, layout, MakePropagation(layout, params.link_delivery),
                     NodeOptions{.diffusion = params.diffusion, .radio = params.radio}, nullptr,
                     {.regions = params.regions, .threads = params.threads}) {}
};

}  // namespace diffusion

#endif  // SRC_TESTBED_SHARDED_WORLD_H_
