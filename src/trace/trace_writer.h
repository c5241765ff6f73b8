// JSONL export for trace events.
//
// One JSON object per line, one line per event, append-only — the flight
// recorder a fleet-scale run leaves behind. The diffusion packet id is split
// into its origin/seq halves so jq queries stay in exact-integer range:
//
//   {"t":61250,"kind":"data_forward","node":22,"peer":16,
//    "origin":25,"seq":12,"value":114}
//
// A reader (`ReadTraceFile`) parses the format back for replay-style
// analysis and tests.

#ifndef SRC_TRACE_TRACE_WRITER_H_
#define SRC_TRACE_TRACE_WRITER_H_

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace diffusion {

// Encodes one event as a single JSON line (no trailing newline).
std::string TraceEventToJson(const TraceEvent& event);

// Parses a line produced by TraceEventToJson. Returns nullopt on malformed
// input or an unknown kind.
std::optional<TraceEvent> TraceEventFromJson(const std::string& line);

// Reads every well-formed event line of a JSONL trace file.
std::vector<TraceEvent> ReadTraceFile(const std::string& path);

// Streams events to a JSONL file. Construction truncates the target.
// Thread-compatible like every TraceSink: one writer per run, never shared
// across replicate workers (ReplicationPool merges buffers after the join).
class DIFFUSION_THREAD_COMPATIBLE TraceWriter : public TraceSink {
 public:
  explicit TraceWriter(const std::string& path);
  ~TraceWriter() override;

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // False when the file could not be opened; events are then dropped.
  bool ok() const { return out_.is_open() && out_.good(); }

  void OnEvent(const TraceEvent& event) override;

  void Flush() { out_.flush(); }

  uint64_t written() const { return written_; }

 private:
  std::ofstream out_;
  uint64_t written_ = 0;
};

}  // namespace diffusion

#endif  // SRC_TRACE_TRACE_WRITER_H_
