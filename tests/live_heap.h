// Live heap bytes of a test binary that links tests/live_heap.cc.
//
// live_heap.cc replaces the global operator new and delete with versions that
// count the bytes live. They sit in their own translation unit so that no
// caller inlines them. Under a sanitizer the allocator is the sanitizer's:
// the replacement is compiled out and LiveHeapCounted() is false.

#ifndef TESTS_LIVE_HEAP_H_
#define TESTS_LIVE_HEAP_H_

#include <cstdint>

namespace diffusion {

// True when this build counts heap bytes.
bool LiveHeapCounted();

// Bytes allocated through operator new and not yet deleted (0 when not
// counted). The over-aligned forms keep their own allocator and are not
// counted.
int64_t LiveHeapBytes();

}  // namespace diffusion

#endif  // TESTS_LIVE_HEAP_H_
