#include "src/testbed/harness.h"

#include <cstdio>

namespace diffusion {

std::string FormatWithCI(const RunningStat& stat, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f ± %.*f", precision, stat.mean(), precision,
                stat.confidence95());
  return std::string(buffer);
}

}  // namespace diffusion
