#include "src/naming/interner.h"

#include "src/util/memory_bytes.h"

namespace diffusion {

InternId Interner::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const InternId id = static_cast<InternId>(names_.size());
  auto [inserted, _] = ids_.emplace(std::string(name), id);
  names_.push_back(&inserted->first);
  return id;
}

std::optional<InternId> Interner::Find(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

size_t Interner::MemoryBytes() const {
  size_t bytes = HashMapBytes(ids_) + VectorBytes(names_);
  for (const std::string* name : names_) {
    bytes += StringBytes(*name);
  }
  return bytes;
}

}  // namespace diffusion
