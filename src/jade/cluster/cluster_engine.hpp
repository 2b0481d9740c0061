// ClusterEngine — Jade on real processes.
//
// The coordinator (this engine, in the host process) forks N worker
// processes connected by Unix-domain socketpairs and drives them through the
// cluster wire protocol (frame.hpp).  All semantic state is coordinator-side:
// the Serializer orders declarations, the CommuteTokenTable serializes
// commuters, the ThrottleGate paces the root, the ObjectDirectory +
// CoherenceProtocol (over a SocketTransport) book object motion, and the
// FailureDetector turns missing heartbeats into recovery.  Workers execute
// registered task bodies against local byte copies and RPC back for
// anything serializer-relevant.
//
// Data movement is governed by a shipped-version map, not by the directory:
// for every (object, worker) the coordinator records the data version it
// last shipped or received; a dispatch/grant attaches the payload iff that
// version is stale.  The directory still runs the full Section 5 protocol
// (moves, replicas, invalidations) for placement decisions and stats, but
// correctness never depends on its metadata being exact — the version map
// is the physical truth.
//
// Failure semantics: each worker heartbeats the coordinator; the sweep
// (ft/failure_detector.hpp) suspects silent workers, a waitpid confirms
// death, and the victim's running task — if it never spawned or ran a
// with-cont — is rewound (Serializer::abort_attempt) and re-dispatched to a
// survivor, with a pre-forked spare taking over the dead machine id.  A
// non-restartable victim aborts the run with UnrecoverableError.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "jade/cluster/channel.hpp"
#include "jade/cluster/frame.hpp"
#include "jade/cluster/options.hpp"
#include "jade/cluster/registry.hpp"
#include "jade/cluster/socket_transport.hpp"
#include "jade/engine/engine.hpp"
#include "jade/ft/failure_detector.hpp"
#include "jade/sched/governor.hpp"
#include "jade/sched/policies.hpp"
#include "jade/store/coherence.hpp"
#include "jade/store/directory.hpp"

namespace jade::cluster {

class ClusterEngine : public Engine,
                      public RegisteredSpawner,
                      private SerializerListener {
 public:
  explicit ClusterEngine(Options options, SchedPolicy sched = {});
  ~ClusterEngine() override;

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  // --- Engine --------------------------------------------------------------
  ObjectId allocate(TypeDescriptor type, std::string name,
                    MachineId home) override;
  void put_bytes(ObjectId obj, std::span<const std::byte> data) override;
  std::vector<std::byte> get_bytes(ObjectId obj) override;
  const ObjectInfo& object_info(ObjectId obj) const override;
  void set_object_tenant(ObjectId obj, TenantId tenant) override;
  void run(std::function<void(TaskContext&)> root_body) override;
  void spawn(TaskNode* parent, const std::vector<AccessRequest>& requests,
             TaskContext::BodyFn body, std::string name, MachineId placement,
             TenantCtl* tenant) override;
  void with_cont(TaskNode* task,
                 const std::vector<AccessRequest>& requests) override;
  std::byte* acquire_bytes(TaskNode* task, ObjectId obj,
                           std::uint8_t mode) override;
  void charge(TaskNode* task, double units) override;
  int machine_count() const override { return options_.workers; }
  MachineId machine_of(TaskNode* task) const override;
  void enable_tracing(const ObsConfig& config) override;

  // --- RegisteredSpawner ---------------------------------------------------
  void spawn_registered(TaskNode* parent,
                        const std::vector<AccessRequest>& requests, int body,
                        std::vector<std::byte> args, std::string name,
                        MachineId placement) override;

  // --- introspection (tests, benches) --------------------------------------

  /// OS pid of the worker currently serving machine `m` (-1 when dark).
  /// Lets the fault-injection tests SIGKILL a real worker.
  pid_t worker_pid(MachineId m) const;

  /// Pulls `obj`'s bytes from a worker whose copy the version map says is
  /// current and compares them to the canonical buffer; true when they
  /// match (or no worker holds a current copy).  Only legal between runs.
  bool debug_probe(ObjectId obj);

  const ObjectDirectory& directory() const { return directory_; }

 private:
  // --- structures ----------------------------------------------------------
  struct TaskRec {
    int body = -1;
    std::vector<std::byte> args;
    /// Objects whose data version this attempt already bumped
    /// (CoherenceProtocol::first_write_invalidate books through it).
    std::vector<ObjectId> dirtied;
    /// A task is restartable after a crash only while it is a pure leaf:
    /// no child spawned, no with-cont (including payload flushes) executed.
    bool restartable = true;
  };

  struct WorkerSlot {
    MachineId machine = -1;  ///< -1: spare awaiting activation
    pid_t pid = -1;
    std::unique_ptr<Channel> channel;
    bool eof = false;     ///< socket closed; death pending confirmation
    bool dead = false;    ///< confirmed exited
    TaskNode* running = nullptr;
    double busy_since = 0;
  };

  /// One worker- or root-initiated RPC parked on the serializer or on a
  /// commute token.
  struct PendingRpc {
    enum class Kind { kAcquire, kWithCont } kind = Kind::kAcquire;
    enum class Stage { kSerializer, kToken } stage = Stage::kSerializer;
    MachineId worker = -1;  ///< -1: the root thread
    ObjectId obj = kInvalidObject;
    std::uint8_t mode = 0;
    std::vector<AccessRequest> requests;  ///< with-cont only
  };

  // --- SerializerListener (record only; never re-enters the serializer) ----
  void on_task_ready(TaskNode* task) override;
  void on_task_unblocked(TaskNode* task) override;

  // --- lifecycle -----------------------------------------------------------
  void ensure_workers_started();
  void shutdown_workers();
  double wall_now() const;
  void wake_event_loop();

  // --- event loop (run()'s calling thread) ---------------------------------
  void event_loop();
  bool exit_condition_locked() const;
  void handle_frame_locked(int slot, const Frame& f);
  void sweep_locked();

  // --- frame handlers (mu_ held) -------------------------------------------
  void handle_spawn_locked(int slot, const SpawnMsg& msg);
  /// The one spawn routine behind both spawn paths: validates the body
  /// index and placement (ConfigError), creates the child, and records its
  /// registered body.  Serializer errors propagate too.
  TaskNode* create_registered_locked(TaskNode* parent,
                                     const std::vector<AccessRequest>& requests,
                                     int body, std::vector<std::byte> args,
                                     std::string name, MachineId placement);
  void handle_with_cont_locked(int slot, const WithContMsg& msg);
  void handle_acquire_locked(int slot, const AcquireMsg& msg);
  void handle_done_locked(int slot, const DoneMsg& msg);
  void handle_task_error_locked(int slot, const TaskErrorMsg& msg);

  // --- dispatch / completion (mu_ held) ------------------------------------
  void pump_locked();
  void dispatch_locked(TaskNode* task, int slot);
  void finish_task_locked(TaskNode* task);
  void drain_unblock_notices_locked();
  /// Returns every commute token `task` holds / the tokens a with-cont's
  /// no_cm requests retire, granting each to its next queued waiter.
  void release_tokens_locked(TaskNode* task);
  void release_retired_tokens_locked(
      TaskNode* task, const std::vector<AccessRequest>& requests);
  void grant_token_locked(TaskNode* next);

  // --- RPC continuation (mu_ held) -----------------------------------------
  void continue_acquire_locked(TaskNode* task, PendingRpc& rpc);
  void grant_acquire_locked(TaskNode* task, const PendingRpc& rpc);
  void finish_with_cont_locked(TaskNode* task, const PendingRpc& rpc);

  // --- data movement (mu_ held) --------------------------------------------
  bool shipped_current(ObjectId obj, MachineId m) const;
  void set_shipped(ObjectId obj, MachineId m);
  /// Applies a worker's writeback payload to the canonical buffer, bumps
  /// the data version, and marks every other worker's copy stale.
  void apply_writeback_locked(ObjectId obj, std::span<const std::byte> data,
                              MachineId from);
  /// Root-side write acquisition: invalidate replicas, notify, dirty.
  void root_write_locked(ObjectId obj);
  /// Attaches `task`'s rights on `obj` plus, for `granted` rd/wr rights,
  /// the payload when stale on `w`.
  ObjectShip make_ship_locked(TaskNode* task, ObjectId obj, MachineId w,
                              TaskRec& rec, std::uint8_t granted);
  /// Books a read or write grant of `obj` to `w` in the shipped-version map
  /// (a write also invalidates other copies) and fills `payload` iff `w`'s
  /// copy is stale; true when it did.
  bool attach_payload_locked(ObjectId obj, MachineId w, bool writes,
                             TaskRec& rec, std::vector<std::byte>& payload);

  // --- failure handling (mu_ held) -----------------------------------------
  void handle_worker_death_locked(int slot);
  void abort_run_locked(std::exception_ptr error);
  /// Root-side edge of a failing run: rethrows the first error (or an
  /// UnrecoverableError) once the run is aborting.
  void rethrow_if_aborting_locked() const;

  int slot_of_machine(MachineId m) const;
  std::vector<std::uint8_t> machine_up_mask() const;

  // --- configuration & construction-time services --------------------------
  Options options_;
  SchedPolicy sched_;
  Serializer serializer_;
  ObjectTable objects_;
  ObjectDirectory directory_;
  SocketTransport transport_;
  std::unique_ptr<CoherenceProtocol> coherence_;
  CommuteTokenTable tokens_;
  ThrottleGate throttle_;
  std::unique_ptr<FailureDetector> detector_;

  // --- process state -------------------------------------------------------
  bool started_ = false;
  std::vector<WorkerSlot> slots_;  ///< workers then spares
  int self_pipe_[2] = {-1, -1};
  std::chrono::steady_clock::time_point epoch_;

  // --- run state (guarded by mu_) ------------------------------------------
  mutable std::mutex mu_;
  std::condition_variable root_cv_;
  std::deque<TaskNode*> ready_;
  std::vector<TaskNode*> unblock_notices_;
  std::unordered_map<TaskNode*, TaskRec> recs_;
  std::unordered_map<TaskNode*, PendingRpc> pending_;
  /// Data version last shipped to / received from each (object, worker).
  std::unordered_map<ObjectMachineKey, std::uint64_t, ObjectMachineKeyHash>
      shipped_;
  bool root_done_ = false;
  bool root_unblock_noticed_ = false;
  bool aborting_ = false;
  std::exception_ptr first_error_;
  MachineId alloc_rr_ = 0;

  // --- cluster counters (published as cluster.* metrics) -------------------
  std::uint64_t dispatches_ = 0;
  std::uint64_t payload_bytes_shipped_ = 0;
  std::uint64_t writeback_bytes_ = 0;
  std::uint64_t rpc_acquires_ = 0;
  std::uint64_t rpc_with_conts_ = 0;
  std::uint64_t rpc_spawns_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t worker_deaths_ = 0;
  std::uint64_t workers_respawned_ = 0;
};

}  // namespace jade::cluster
