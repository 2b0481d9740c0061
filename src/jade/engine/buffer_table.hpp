// BufferTable — sharded storage for shared-object byte buffers.
//
// The ThreadEngine used to keep object buffers in a map guarded by the one
// engine mutex, so a task touching its data (acquire_bytes) or the host
// reading results back (get_bytes) contended with every scheduling
// operation.  Object data has nothing to do with scheduling: this table
// shards objects across independently locked buckets (ids hash across
// shards, so contention only appears when two threads touch objects in the
// same shard at the same instant), and each buffer is a separately owned
// allocation whose address never changes — a pointer handed to a task stays
// valid with no lock held, exactly the contract acquire_bytes needs.
//
// Consistency of the bytes themselves is the serializer's job (conflicting
// accesses are ordered by declaration queues before any pointer is handed
// out); the shard lock only protects the table structure.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "jade/core/object.hpp"

namespace jade {

class BufferTable {
 public:
  /// Creates the (zero-filled) buffer for a new object; returns its stable
  /// address.  `id` must not already have a buffer.
  std::byte* create(ObjectId id, std::size_t size);

  /// Stable data pointer.  Every lookup of an id without a buffer (one
  /// released by destroy()) throws StaleHandleError and changes nothing.
  std::byte* data(ObjectId id) const;

  /// Buffer size in bytes.
  std::size_t size(ObjectId id) const;

  /// Overwrites the buffer from `bytes` (sizes must match).
  void put(ObjectId id, std::span<const std::byte> bytes);

  /// Copies the buffer out.  The copy happens without any lock held: the
  /// pointer is stable and destroy() requires quiescence, so the shard lock
  /// is only needed to find the entry.
  std::vector<std::byte> get(ObjectId id) const;

  /// Frees an object's buffer (no-op when absent).  Caller must guarantee
  /// nobody holds or will request the pointer again — the server teardown
  /// path, after the owning tenant's graph has fully drained.
  void destroy(ObjectId id);

 private:
  struct Entry {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t size = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ObjectId, Entry> map;
  };

  static constexpr std::size_t kShards = 64;  ///< power of two

  Shard& shard_for(ObjectId id) const {
    // Ids are sequential; splash them across shards so neighboring objects
    // (allocated together, used together) do not share a lock.
    std::uint64_t h = id * 0x9E3779B97F4A7C15ull;
    return shards_[(h >> 32) & (kShards - 1)];
  }

  const Entry& entry_for(ObjectId id) const;

  mutable std::array<Shard, kShards> shards_;
};

}  // namespace jade
