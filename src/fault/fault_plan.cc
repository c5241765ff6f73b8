#include "src/fault/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/util/json.h"

namespace diffusion {
namespace {

struct KindName {
  FaultEventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultEventKind::kCrash, "crash"},
    {FaultEventKind::kReboot, "reboot"},
    {FaultEventKind::kCrashHottestRelay, "crash_hottest_relay"},
    {FaultEventKind::kLinkDegrade, "link_degrade"},
    {FaultEventKind::kLinkBlackout, "link_blackout"},
    {FaultEventKind::kLinkRestore, "link_restore"},
    {FaultEventKind::kNodeDegrade, "node_degrade"},
    {FaultEventKind::kPartition, "partition"},
    {FaultEventKind::kHeal, "heal"},
};

bool SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

bool ReadNodeId(const JsonValue& event, const char* field, size_t index, NodeId* out,
                std::string* error) {
  const JsonValue* value = event.Find(field);
  if (value == nullptr || value->type != JsonValue::Type::kNumber) {
    return SetError(error, "events[" + std::to_string(index) + "]: missing numeric \"" +
                               field + "\"");
  }
  if (value->number < 0) {
    return SetError(error, "events[" + std::to_string(index) + "]: \"" + std::string(field) +
                               "\" must be >= 0");
  }
  *out = static_cast<NodeId>(value->number);
  return true;
}

bool ReadNodeList(const JsonValue& event, const char* field, size_t index, bool required,
                  std::vector<NodeId>* out, std::string* error) {
  const JsonValue* value = event.Find(field);
  if (value == nullptr) {
    if (required) {
      return SetError(error, "events[" + std::to_string(index) + "]: missing array \"" +
                                 field + "\"");
    }
    return true;
  }
  if (value->type != JsonValue::Type::kArray) {
    return SetError(error, "events[" + std::to_string(index) + "]: \"" + std::string(field) +
                               "\" must be an array");
  }
  for (const JsonValue& element : value->array) {
    if (element.type != JsonValue::Type::kNumber || element.number < 0) {
      return SetError(error, "events[" + std::to_string(index) + "]: \"" + std::string(field) +
                                 "\" must hold non-negative node ids");
    }
    out->push_back(static_cast<NodeId>(element.number));
  }
  if (required && out->empty()) {
    return SetError(error,
                    "events[" + std::to_string(index) + "]: \"" + field + "\" must be non-empty");
  }
  return true;
}

bool ReadDelivery(const JsonValue& event, size_t index, double* out, std::string* error) {
  const JsonValue* value = event.Find("delivery");
  if (value == nullptr || value->type != JsonValue::Type::kNumber) {
    return SetError(error,
                    "events[" + std::to_string(index) + "]: missing numeric \"delivery\"");
  }
  if (value->number < 0.0 || value->number > 1.0) {
    return SetError(error,
                    "events[" + std::to_string(index) + "]: \"delivery\" must be in [0, 1]");
  }
  *out = value->number;
  return true;
}

void AppendNodeList(std::ostringstream& out, const char* field,
                    const std::vector<NodeId>& nodes) {
  out << ", \"" << field << "\": [";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << nodes[i];
  }
  out << "]";
}

// Shortest decimal form that round-trips: delivery probabilities in plans are
// hand-written values like 0.25, so "%g" is exact enough and keeps the
// canonical JSON readable.
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

const char* FaultEventKindName(FaultEventKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "unknown";
}

bool FaultEventKindFromName(const std::string& name, FaultEventKind* kind) {
  for (const KindName& entry : kKindNames) {
    if (name == entry.name) {
      *kind = entry.kind;
      return true;
    }
  }
  return false;
}

std::optional<FaultPlan> ParseFaultPlan(const std::string& json, std::string* error) {
  JsonValue root;
  if (!ParseJson(json, &root, error)) {
    return std::nullopt;
  }
  if (root.type != JsonValue::Type::kObject) {
    SetError(error, "plan must be a JSON object");
    return std::nullopt;
  }
  if (const JsonValue* schema = root.Find("schema"); schema != nullptr) {
    if (schema->type != JsonValue::Type::kString || schema->string != kFaultPlanSchema) {
      SetError(error, std::string("\"schema\" must be \"") + kFaultPlanSchema + "\"");
      return std::nullopt;
    }
  }
  const JsonValue* events = root.Find("events");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    SetError(error, "plan must have an \"events\" array");
    return std::nullopt;
  }

  FaultPlan plan;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& spec = events->array[i];
    if (spec.type != JsonValue::Type::kObject) {
      SetError(error, "events[" + std::to_string(i) + "] must be an object");
      return std::nullopt;
    }
    FaultEvent event;

    const JsonValue* at = spec.Find("at_ms");
    if (at == nullptr || at->type != JsonValue::Type::kNumber || at->number < 0) {
      SetError(error, "events[" + std::to_string(i) + "]: missing non-negative \"at_ms\"");
      return std::nullopt;
    }
    event.at = static_cast<SimTime>(at->number) * kMillisecond;

    const JsonValue* kind = spec.Find("kind");
    if (kind == nullptr || kind->type != JsonValue::Type::kString ||
        !FaultEventKindFromName(kind->string, &event.kind)) {
      SetError(error, "events[" + std::to_string(i) + "]: unknown \"kind\"");
      return std::nullopt;
    }

    if (const JsonValue* symmetric = spec.Find("symmetric"); symmetric != nullptr) {
      if (symmetric->type != JsonValue::Type::kBool) {
        SetError(error, "events[" + std::to_string(i) + "]: \"symmetric\" must be a boolean");
        return std::nullopt;
      }
      event.symmetric = symmetric->boolean;
    }

    bool ok = true;
    switch (event.kind) {
      case FaultEventKind::kCrash:
      case FaultEventKind::kReboot:
        ok = ReadNodeId(spec, "node", i, &event.node, error);
        break;
      case FaultEventKind::kCrashHottestRelay:
        ok = ReadNodeList(spec, "exclude", i, /*required=*/false, &event.exclude, error);
        break;
      case FaultEventKind::kLinkDegrade:
        ok = ReadNodeId(spec, "from", i, &event.from, error) &&
             ReadNodeId(spec, "to", i, &event.to, error) &&
             ReadDelivery(spec, i, &event.delivery, error);
        break;
      case FaultEventKind::kLinkBlackout:
      case FaultEventKind::kLinkRestore:
        ok = ReadNodeId(spec, "from", i, &event.from, error) &&
             ReadNodeId(spec, "to", i, &event.to, error);
        break;
      case FaultEventKind::kNodeDegrade:
        ok = ReadNodeId(spec, "node", i, &event.node, error) &&
             ReadDelivery(spec, i, &event.delivery, error);
        break;
      case FaultEventKind::kPartition:
        ok = ReadNodeList(spec, "group_a", i, /*required=*/true, &event.group_a, error) &&
             ReadNodeList(spec, "group_b", i, /*required=*/true, &event.group_b, error);
        break;
      case FaultEventKind::kHeal:
        break;
    }
    if (!ok) {
      return std::nullopt;
    }
    plan.events.push_back(std::move(event));
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

std::optional<FaultPlan> LoadFaultPlan(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return ParseFaultPlan(contents.str(), error);
}

std::string FaultPlanToJson(const FaultPlan& plan) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kFaultPlanSchema << "\",\n  \"events\": [";
  for (size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& event = plan.events[i];
    out << (i > 0 ? ",\n    " : "\n    ");
    out << "{\"at_ms\": " << event.at / kMillisecond << ", \"kind\": \""
        << FaultEventKindName(event.kind) << "\"";
    switch (event.kind) {
      case FaultEventKind::kCrash:
      case FaultEventKind::kReboot:
        out << ", \"node\": " << event.node;
        break;
      case FaultEventKind::kCrashHottestRelay:
        if (!event.exclude.empty()) {
          AppendNodeList(out, "exclude", event.exclude);
        }
        break;
      case FaultEventKind::kLinkDegrade:
        out << ", \"from\": " << event.from << ", \"to\": " << event.to
            << ", \"delivery\": " << FormatDouble(event.delivery)
            << ", \"symmetric\": " << (event.symmetric ? "true" : "false");
        break;
      case FaultEventKind::kLinkBlackout:
      case FaultEventKind::kLinkRestore:
        out << ", \"from\": " << event.from << ", \"to\": " << event.to
            << ", \"symmetric\": " << (event.symmetric ? "true" : "false");
        break;
      case FaultEventKind::kNodeDegrade:
        out << ", \"node\": " << event.node
            << ", \"delivery\": " << FormatDouble(event.delivery);
        break;
      case FaultEventKind::kPartition:
        AppendNodeList(out, "group_a", event.group_a);
        AppendNodeList(out, "group_b", event.group_b);
        break;
      case FaultEventKind::kHeal:
        break;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace diffusion
