#include "src/radio/shadowing.h"

#include <algorithm>
#include <cmath>

namespace diffusion {
namespace {

// Deterministic per-link hash → standard normal draw (Box-Muller over two
// SplitMix64-derived uniforms). Stable across calls, independent per link.
double NormalDraw(uint64_t key) {
  auto mix = [](uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  const uint64_t a = mix(key);
  const uint64_t b = mix(a);
  const double u1 = std::max(1e-12, static_cast<double>(a >> 11) * 0x1.0p-53);
  const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace

ShadowingPropagation::ShadowingPropagation(ShadowingConfig config, uint64_t seed)
    : config_(config), seed_(seed) {}

void ShadowingPropagation::SetPosition(NodeId node, Position position) {
  positions_[node] = position;
  BumpReachVersion();
}

double ShadowingPropagation::ShadowDb(NodeId from, NodeId to) const {
  NodeId a = from;
  NodeId b = to;
  if (config_.symmetric_shadowing && a > b) {
    std::swap(a, b);
  }
  const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  return config_.shadowing_sigma_db * NormalDraw(key ^ seed_);
}

double ShadowingPropagation::LinkMarginDb(NodeId from, NodeId to) const {
  auto from_it = positions_.find(from);
  auto to_it = positions_.find(to);
  if (from == to || from_it == positions_.end() || to_it == positions_.end()) {
    return -1e9;
  }
  const double distance = std::max(0.1, Distance(from_it->second, to_it->second));
  // Margin relative to the reference range: positive inside, negative
  // beyond, scaled by the path-loss exponent.
  const double mean_margin =
      10.0 * kPathLossExponent * std::log10(config_.reference_range / distance);
  return mean_margin + ShadowDb(from, to);
}

bool ShadowingPropagation::Reaches(NodeId from, NodeId to) const {
  return LinkMarginDb(from, to) > -kFullMarginDb;
}

double ShadowingPropagation::DeliveryProbability(NodeId from, NodeId to, SimTime /*now*/) const {
  const double margin = LinkMarginDb(from, to);
  if (margin <= -kFullMarginDb) {
    return 0.0;
  }
  if (margin >= kFullMarginDb) {
    return kMaxShadowedDelivery;
  }
  // Linear ramp through the gray zone: 0 at -kFullMarginDb, max at +kFullMarginDb.
  const double fraction = (margin + kFullMarginDb) / (2.0 * kFullMarginDb);
  return fraction * kMaxShadowedDelivery;
}

}  // namespace diffusion
