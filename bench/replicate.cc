#include "bench/replicate.h"

#include "bench/harness.h"

namespace diffusion {
namespace bench {

std::unique_ptr<TraceWriter> OpenTraceOut(const std::string& trace_out) {
  if (trace_out.empty()) {
    return nullptr;
  }
  auto writer = std::make_unique<TraceWriter>(trace_out);
  if (!writer->ok()) {
    Fail("cannot write " + trace_out);
  }
  return writer;
}

std::vector<std::unique_ptr<MemoryTraceSink>> MakeTraceBuffers(
    size_t count, bool tracing, const std::function<bool(size_t)>& traced) {
  std::vector<std::unique_ptr<MemoryTraceSink>> buffers(count);
  if (!tracing) {
    return buffers;
  }
  for (size_t i = 0; i < count; ++i) {
    const bool wants = traced != nullptr ? traced(i) : i == 0;
    if (wants) {
      buffers[i] = std::make_unique<MemoryTraceSink>();
    }
  }
  return buffers;
}

void WriteTraceBuffers(const std::vector<std::unique_ptr<MemoryTraceSink>>& buffers,
                       const std::string& path, TraceWriter* writer) {
  for (const auto& buffer : buffers) {
    if (buffer == nullptr) {
      continue;
    }
    for (const TraceEvent& event : buffer->events()) {
      writer->OnEvent(event);
    }
  }
  writer->Flush();
  if (!writer->ok()) {
    Fail("cannot write " + path);
  }
}

}  // namespace bench
}  // namespace diffusion
