#include "jade/engine/buffer_table.hpp"

#include <algorithm>
#include <string>

#include "jade/support/error.hpp"

namespace jade {

std::byte* BufferTable::create(ObjectId id, std::size_t size) {
  Shard& s = shard_for(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto [it, inserted] = s.map.try_emplace(id);
  JADE_ASSERT_MSG(inserted, "object buffer created twice");
  it->second.bytes = std::make_unique<std::byte[]>(size);  // zero-filled
  it->second.size = size;
  return it->second.bytes.get();
}

const BufferTable::Entry& BufferTable::entry_for(ObjectId id) const {
  Shard& s = shard_for(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(id);
  if (it == s.map.end())
    throw StaleHandleError("object " + std::to_string(id) +
                           " has no storage: it was released");
  // Erasure (destroy) only happens once the object is quiescent, so a live
  // caller's reference is stable.
  return it->second;
}

std::byte* BufferTable::data(ObjectId id) const {
  return entry_for(id).bytes.get();
}

std::size_t BufferTable::size(ObjectId id) const {
  return entry_for(id).size;
}

void BufferTable::put(ObjectId id, std::span<const std::byte> bytes) {
  const Entry& e = entry_for(id);
  JADE_ASSERT(bytes.size() == e.size);
  std::copy(bytes.begin(), bytes.end(), e.bytes.get());
}

std::vector<std::byte> BufferTable::get(ObjectId id) const {
  const Entry& e = entry_for(id);  // lock released; pointer/size stable
  return {e.bytes.get(), e.bytes.get() + e.size};
}

void BufferTable::destroy(ObjectId id) {
  Shard& s = shard_for(id);
  std::lock_guard<std::mutex> lock(s.mu);
  s.map.erase(id);
}

}  // namespace jade
