// SerialEngine — the reference implementation of Jade's serial semantics.
//
// Every task executes inline at its creation point, which is by definition
// the serial elaboration of the program.  Any other engine must produce
// byte-identical shared-object contents; the determinism property tests
// compare against this engine.
//
// The engine still runs the full serializer machinery (queue insertion,
// enabledness, access checks), both to validate specifications exactly as a
// parallel run would and to assert the serial invariant: at creation time a
// task is always immediately ready.
#pragma once

#include <unordered_map>
#include <vector>

#include "jade/engine/engine.hpp"

namespace jade {

class SerialEngine : public Engine, private SerializerListener {
 public:
  SerialEngine();

  ObjectId allocate(TypeDescriptor type, std::string name,
                    MachineId home) override;
  void put_bytes(ObjectId obj, std::span<const std::byte> data) override;
  std::vector<std::byte> get_bytes(ObjectId obj) override;
  const ObjectInfo& object_info(ObjectId obj) const override;
  void set_object_tenant(ObjectId obj, TenantId tenant) override;
  void release_object(ObjectId obj) override;

  void run(std::function<void(TaskContext&)> root_body) override;

  void spawn(TaskNode* parent, const std::vector<AccessRequest>& requests,
             TaskContext::BodyFn body, std::string name, MachineId placement,
             TenantCtl* tenant) override;
  void with_cont(TaskNode* task,
                 const std::vector<AccessRequest>& requests) override;
  std::byte* acquire_bytes(TaskNode* task, ObjectId obj,
                           std::uint8_t mode) override;
  void charge(TaskNode* task, double units) override;
  int machine_count() const override { return 1; }
  MachineId machine_of(TaskNode*) const override { return 0; }

  /// Exposed for white-box tests.
  Serializer& serializer() { return serializer_; }

 protected:
  /// Serial execution has no clock; events are ordered by a logical counter
  /// (one tick per emitted event), which keeps exported traces deterministic.
  SimTime trace_now() const override {
    return static_cast<SimTime>(logical_time_++);
  }

 private:
  void on_task_ready(TaskNode* /*task*/) override {}
  void on_task_unblocked(TaskNode* task) override;

  void execute(TaskNode* task);
  /// The object's bytes; StaleHandleError once it was released.
  std::vector<std::byte>& buffer(ObjectId obj);

  ObjectTable objects_;
  std::unordered_map<ObjectId, std::vector<std::byte>> buffers_;
  Serializer serializer_;
  mutable std::uint64_t logical_time_ = 0;
};

}  // namespace jade
