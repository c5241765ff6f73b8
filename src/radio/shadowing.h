// Log-distance path loss with log-normal shadowing.
//
// §6.4: "Current simulation models, even with statistical noise, do not
// adequately reflect these observed propagation characteristics" — flat
// unit-disk models have no gray zone, no per-link asymmetry, no obstruction
// effects. This model produces all three: received power follows the
// standard log-distance law with a per-directed-link shadowing term
// (obstructions are static), so some long links work, some short links do
// not, and the two directions of one link can differ.

#ifndef SRC_RADIO_SHADOWING_H_
#define SRC_RADIO_SHADOWING_H_

#include <unordered_map>

#include "src/radio/position.h"
#include "src/radio/propagation.h"
#include "src/util/rng.h"

namespace diffusion {

struct ShadowingConfig {
  // Distance at which the mean link is exactly marginal (0 dB margin).
  double reference_range = 10.0;
  // Path-loss exponent; 2 = free space, 3-4 = indoor/obstructed.
  double path_loss_exponent = 3.0;
  // Standard deviation of the shadowing term, in dB. Zero gives a hard disk.
  double shadowing_sigma_db = 4.0;
  // Margin (dB) mapping to delivery probability: links with margin >=
  // `full_margin_db` deliver at `max_delivery`; at 0 dB they deliver at 50%;
  // below `-full_margin_db` they are unreachable.
  double full_margin_db = 6.0;
  double max_delivery = 0.98;
  // Symmetric links share one shadowing draw; asymmetric links draw per
  // direction (§6.4 observed both).
  bool symmetric_shadowing = false;
};

class ShadowingPropagation : public PropagationModel {
 public:
  ShadowingPropagation(ShadowingConfig config, uint64_t seed);

  void SetPosition(NodeId node, Position position);

  // Received margin (dB) for the directed link; > -full_margin_db means the
  // transmission puts detectable energy at the receiver.
  double LinkMarginDb(NodeId from, NodeId to) const;

  bool Reaches(NodeId from, NodeId to) const override;
  double DeliveryProbability(NodeId from, NodeId to, SimTime now) const override;

 private:
  // The link's shadowing term: a normal draw hashed from the seed and the
  // (directed, or undirected when symmetric) link, so a link's quality is
  // the same on every call without being stored.
  double ShadowDb(NodeId from, NodeId to) const;

  ShadowingConfig config_;
  uint64_t seed_;
  std::unordered_map<NodeId, Position> positions_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_SHADOWING_H_
