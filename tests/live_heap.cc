#include "tests/live_heap.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DIFFUSION_LIVE_HEAP_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DIFFUSION_LIVE_HEAP_SANITIZED 1
#endif
#endif

namespace {

std::atomic<int64_t> live_bytes{0};

}  // namespace

#ifndef DIFFUSION_LIVE_HEAP_SANITIZED

namespace {

// Each block carries its requested size in a header that keeps the payload
// aligned for any fundamental type.
constexpr size_t kHeaderBytes = alignof(std::max_align_t);

}  // namespace

// The array, nothrow and sized forms of the standard library all reach these
// two.
void* operator new(size_t size) {
  void* block = std::malloc(size + kHeaderBytes);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<size_t*>(block) = size;
  live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeaderBytes;
}

void operator delete(void* payload) noexcept {
  if (payload == nullptr) {
    return;
  }
  void* block = static_cast<char*>(payload) - kHeaderBytes;
  live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<size_t*>(block)),
                       std::memory_order_relaxed);
  std::free(block);
}

void operator delete(void* payload, size_t /*size*/) noexcept { operator delete(payload); }

#endif  // DIFFUSION_LIVE_HEAP_SANITIZED

namespace diffusion {

bool LiveHeapCounted() {
#ifdef DIFFUSION_LIVE_HEAP_SANITIZED
  return false;
#else
  return true;
#endif
}

int64_t LiveHeapBytes() { return live_bytes.load(std::memory_order_relaxed); }

}  // namespace diffusion
