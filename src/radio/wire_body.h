// Wire bodies: the one form a message takes on the simulated radio.
//
// The simulated radio only ever *accounts* for a message's bytes (fragment
// counts, airtime, Figure-8 byte totals); nothing reads their content in
// flight. So a message travels as a shared, refcounted WireBody: every
// fragment carries the handle plus the byte range it covers, every
// size-derived quantity (fragmentation, admission, airtime, traces) is
// computed from wire_size(), and the exact bytes are materialized on demand
// (AppendBytes) only for receivers that decode bytes. Two kinds exist:
// MessageBody (src/core/message_body.h) holds a structured diffusion
// message; ByteBody below holds plain bytes (micro nodes, raw radios, and
// frames replayed from another region).
//
// The refcount is intrusive and non-atomic: a body never leaves its
// simulation thread. Recycle() gives the concrete type its storage back
// (the engine pools bodies through the simulator's SlotPool).

#ifndef SRC_RADIO_WIRE_BODY_H_
#define SRC_RADIO_WIRE_BODY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/arena.h"

namespace diffusion {

class BodyRef;

class WireBody {
 public:
  WireBody(const WireBody&) = delete;
  WireBody& operator=(const WireBody&) = delete;

  // Exact byte count of the encoded body: what the message puts on the wire.
  virtual size_t wire_size() const = 0;

  // Materializes the encoded bytes (appended to `out`); used only by
  // receivers that decode bytes (micro nodes, region borders).
  virtual void AppendBytes(std::vector<uint8_t>* out) const = 0;

 protected:
  WireBody() = default;
  virtual ~WireBody() = default;

  // Called when the last BodyRef drops; the implementation returns its
  // storage to whatever pool issued it.
  virtual void Recycle() = 0;

 private:
  friend class BodyRef;
  mutable uint32_t refs_ = 0;
};

// Intrusive smart pointer over WireBody. Copies bump a plain (non-atomic)
// count: no control-block allocation, no contention — one simulation is one
// thread.
class BodyRef {
 public:
  BodyRef() = default;
  explicit BodyRef(const WireBody* body) : body_(body) {
    if (body_ != nullptr) {
      ++body_->refs_;
    }
  }
  BodyRef(const BodyRef& other) : body_(other.body_) {
    if (body_ != nullptr) {
      ++body_->refs_;
    }
  }
  BodyRef(BodyRef&& other) noexcept : body_(other.body_) { other.body_ = nullptr; }
  BodyRef& operator=(BodyRef other) noexcept {
    std::swap(body_, other.body_);
    return *this;
  }
  ~BodyRef() { Drop(); }

  const WireBody* get() const { return body_; }
  const WireBody& operator*() const { return *body_; }
  const WireBody* operator->() const { return body_; }
  explicit operator bool() const { return body_ != nullptr; }

  void reset() { Drop(); }

 private:
  void Drop() {
    if (body_ != nullptr && --body_->refs_ == 0) {
      const_cast<WireBody*>(body_)->Recycle();
    }
    body_ = nullptr;
  }

  const WireBody* body_ = nullptr;
};

// A pooled body over plain bytes. Returns to `pool` when the last BodyRef
// drops, like MessageBody.
class ByteBody final : public WireBody {
 public:
  static BodyRef Make(SlotPool* pool, std::vector<uint8_t> bytes) {
    Pool<ByteBody> typed(pool);
    return BodyRef(typed.New(pool, std::move(bytes)));
  }

  size_t wire_size() const override { return bytes_.size(); }

  void AppendBytes(std::vector<uint8_t>* out) const override {
    out->insert(out->end(), bytes_.begin(), bytes_.end());
  }

 private:
  friend class Pool<ByteBody>;  // placement-constructs and destroys bodies

  ByteBody(SlotPool* pool, std::vector<uint8_t> bytes) : pool_(pool), bytes_(std::move(bytes)) {}

  void Recycle() override {
    SlotPool* pool = pool_;  // survives destruction below
    Pool<ByteBody> typed(pool);
    typed.Delete(this);
  }

  SlotPool* pool_;
  std::vector<uint8_t> bytes_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_WIRE_BODY_H_
