#include "src/trace/trace_writer.h"

#include <cstdio>
#include <cstdlib>

namespace diffusion {
namespace {

// Extracts the value after `"key":` in `line`. Handles the two value shapes
// this writer emits: bare integers and quoted strings.
bool FindField(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  size_t begin = at + needle.size();
  if (begin >= line.size()) {
    return false;
  }
  if (line[begin] == '"') {
    ++begin;
    const size_t end = line.find('"', begin);
    if (end == std::string::npos) {
      return false;
    }
    *out = line.substr(begin, end - begin);
    return true;
  }
  size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') {
    ++end;
  }
  *out = line.substr(begin, end - begin);
  return !out->empty();
}

bool FindInt(const std::string& line, const char* key, int64_t* out) {
  std::string raw;
  if (!FindField(line, key, &raw)) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoll(raw.c_str(), &end, 10);
  return end != raw.c_str();
}

}  // namespace

namespace {

// Formats `event` into `buffer`; returns the length (JSON always fits).
int FormatTraceEvent(const TraceEvent& event, char* buffer, size_t size) {
  return std::snprintf(buffer, size,
                       "{\"t\":%lld,\"kind\":\"%s\",\"node\":%u,\"peer\":%u,"
                       "\"origin\":%u,\"seq\":%u,\"value\":%lld}",
                       static_cast<long long>(event.when), TraceEventKindName(event.kind),
                       event.node, event.peer, static_cast<uint32_t>(event.packet >> 32),
                       static_cast<uint32_t>(event.packet & 0xffffffffu),
                       static_cast<long long>(event.value));
}

}  // namespace

std::string TraceEventToJson(const TraceEvent& event) {
  char buffer[224];
  const int length = FormatTraceEvent(event, buffer, sizeof(buffer));
  return std::string(buffer, static_cast<size_t>(length));
}

std::optional<TraceEvent> TraceEventFromJson(const std::string& line) {
  TraceEvent event;
  std::string kind_name;
  int64_t when = 0;
  int64_t node = 0;
  int64_t peer = 0;
  int64_t origin = 0;
  int64_t seq = 0;
  int64_t value = 0;
  if (!FindInt(line, "t", &when) || !FindField(line, "kind", &kind_name) ||
      !FindInt(line, "node", &node) || !FindInt(line, "peer", &peer) ||
      !FindInt(line, "origin", &origin) || !FindInt(line, "seq", &seq) ||
      !FindInt(line, "value", &value)) {
    return std::nullopt;
  }
  if (!TraceEventKindFromName(kind_name, &event.kind)) {
    return std::nullopt;
  }
  event.when = when;
  event.node = static_cast<NodeId>(node);
  event.peer = static_cast<NodeId>(peer);
  event.packet = (static_cast<uint64_t>(static_cast<uint32_t>(origin)) << 32) |
                 static_cast<uint32_t>(seq);
  event.value = value;
  return event;
}

std::vector<TraceEvent> ReadTraceFile(const std::string& path) {
  std::vector<TraceEvent> events;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (std::optional<TraceEvent> event = TraceEventFromJson(line)) {
      events.push_back(*event);
    }
  }
  return events;
}

TraceWriter::TraceWriter(const std::string& path) : out_(path, std::ios::trunc) {}

TraceWriter::~TraceWriter() { out_.flush(); }

void TraceWriter::OnEvent(const TraceEvent& event) {
  if (!ok()) {
    return;
  }
  // Formats into a stack buffer and writes it directly: the hot path of the
  // flight recorder makes no heap allocation per event.
  char buffer[224];
  const int length = FormatTraceEvent(event, buffer, sizeof(buffer));
  out_.write(buffer, length);
  out_.put('\n');
  ++written_;
}

}  // namespace diffusion
