// ThreadEngine — Jade on a shared-memory multiprocessor.
//
// Models the paper's SGI 4D/240S / DASH implementation: the hardware (here,
// the host's cache-coherent memory) provides the shared address space, so
// the runtime "only needs to synchronize the computation" (Section 1).
//
// The execution path is decomposed so that creating, starting, checking and
// completing a task take no engine-wide lock (docs/PERFORMANCE.md spells out
// the hierarchy):
//
//   * The Serializer locks each object's declaration queue separately; its
//     ready notices push straight into the calling thread's deque.  The
//     engine mutex mu_ guards only waiting tasks: unblock delivery, commute
//     tokens, the throttle queue and the first error.
//   * Ready tasks go to per-thread Chase–Lev deques
//     (support/work_steal_deque.hpp): LIFO for the owner, FIFO for idle
//     stealers, and a producer unparks exactly one idle thread.
//   * Object bytes live in a sharded BufferTable (engine/buffer_table.hpp)
//     with stable per-object allocations: data access and host I/O never
//     contend with scheduling.
//   * charge() is two plain writes into the running task and its thread's
//     cell, folded into RuntimeStats at the end of run().
//
// A run uses exactly workers + 1 OS threads, the caller's and the pool's.
// Each runs a native loop that switches into a *carrier* fiber
// (support/fiber.hpp) running the find / execute / idle-park loop; task
// bodies run on the carrier's stack, so a task that never waits costs no
// context switch.  A task that must wait — for an unblock, a commute token
// or the throttle — registers the wait under mu_ and parks: its carrier
// switches out with the task on it, and the native loop goes on with a
// fresh carrier.  The waker pushes the task onto a ready deque; a carrier
// that pops it ends, and its native loop switches into the parked fiber.
// No task ever runs on top of another task's stack.
//
// Throttling (Section 3.3): when too many tasks are outstanding, the
// creator parks in a FIFO until the gate that closed for it clears — with
// the paper's deadlock escape: when every engine thread is idle with
// nothing ready, the oldest suspended creator gives up throttling.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "jade/engine/buffer_table.hpp"
#include "jade/engine/engine.hpp"
#include "jade/sched/governor.hpp"
#include "jade/sched/policies.hpp"
#include "jade/support/fiber.hpp"
#include "jade/support/intrusive_list.hpp"
#include "jade/support/parker.hpp"
#include "jade/support/work_steal_deque.hpp"

namespace jade {

class ThreadEngine : public Engine, private SerializerListener {
 public:
  ThreadEngine(int workers, ThrottleConfig throttle);
  ~ThreadEngine() override;

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
  int machine_count() const override { return workers_requested_; }
  /// The worker the task is (or was last) executing on; 0 for tasks not yet
  /// picked up.  The caller's thread reports 0 too, keeping the result in
  /// [0, machine_count()).
  MachineId machine_of(TaskNode* task) const override {
    return task->assigned_machine >= 0 ? task->assigned_machine : 0;
  }

  void enable_tracing(const ObsConfig& cfg) override;

  /// Exposed for white-box tests.
  Serializer& serializer() { return serializer_; }

  /// Has an engine thread wake the parked creators and commute waiters of
  /// tenants the server cancelled, so they unwind.
  void notify_external() override;

 protected:
  /// Wall seconds since tracing was enabled (there is no virtual clock on
  /// real hardware); traces are therefore not run-to-run deterministic.
  SimTime trace_now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         trace_epoch_)
        .count();
  }

 private:
  /// An executing task's engine state, on its carrier's stack and pointed
  /// to by the task's engine_data while the body runs.
  struct Running;
  enum class Wait : std::uint8_t { kNone, kUnblock, kCommute, kThrottle };
  static Running& running(TaskNode* task);

  /// Everything one engine thread owns; slot 0 is the caller's thread.  The
  /// stat cells are folded into RuntimeStats when run() ends.
  struct ThreadSlot {
    ThreadSlot(int index, MachineId machine) : index(index), machine(machine) {}

    const int index;          ///< dense per-thread index into slots_
    const MachineId machine;  ///< reported machine id, in [0, machine_count)
    WorkStealDeque<TaskNode*> deque;
    Parker parker;

    /// Set around complete_task: the first task the completion enables is
    /// popped locally and needs no wakeup.  Otherwise every step of a
    /// dependence chain wakes a stealer, and two threads ping-pong it.
    std::uint32_t local_grants = 0;
    Fiber* current = nullptr;  ///< the fiber the native loop switched into
    Fiber* next = nullptr;  ///< left by a carrier that ends for a woken task
    Running* parking = nullptr;  ///< left by a task that parks

    double charged = 0;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t parks = 0;
    std::size_t max_queue_depth = 0;
  };

  void on_task_created(TaskNode* task) override;
  void on_task_ready(TaskNode* task) override;
  void on_task_unblocked(TaskNode* task) override;

  /// The calling thread's slot if bound to this engine, else nullptr.  Not
  /// inlined: a parked task may resume on another thread, and must not
  /// reuse a thread-local address computed before the park.
  ThreadSlot* current_slot() const;

  /// An engine thread's native loop: runs carriers and woken tasks' fibers.
  void thread_main(ThreadSlot* slot);
  Fiber* new_carrier();
  /// Executes tasks until the run stops or it pops a woken task; then it
  /// returns, its carrier ends, and the task's fiber takes the thread.
  void carrier_loop();
  void run_root();
  /// Runs one ready task and recycles its node (a failed task's stays until
  /// reset).  Takes mu_ only for throttle waiters, commute tokens, failure.
  void execute(TaskNode* task, ThreadSlot* slot);
  /// Runs `body` as `r`'s task, then hands its commute tokens on; false
  /// when the body failed.
  template <class Body>
  bool run_task(Running& r, Body&& body);
  /// Pops the thread's own deque, then steals; nullptr when nothing found.
  TaskNode* find_task(ThreadSlot* self);
  /// Bounded yield-spin between an empty find_task and parking: true as
  /// soon as work appears (or stop).  A spinning thread is not idle, so
  /// producers skip the futex wake and the core goes back to them.
  bool spin_for_work();
  /// Parks the thread until a producer wakes it; registers as idle first
  /// and re-checks after, so a concurrent producer cannot be missed.  The
  /// last thread to go idle gives the oldest throttled creator up.
  void idle_park(ThreadSlot* slot);
  /// Pushes a ready or woken task onto the calling thread's own deque (LIFO
  /// locality for dependence chains) and wakes a stealer, unless a local
  /// grant says this thread pops it itself.
  void push_ready(TaskNode* task);
  void wake_one();  ///< unparks one idle thread, if any
  /// Every carrier returns at its next loop check; idle threads unpark.
  void stop();
  void stop_if_drained();
  /// A suspended fiber is about to be switched back in; after a failure,
  /// the last one stops the run.
  void unsuspend();

  /// Parks the calling task, waiting for `why`, until wake_locked; returns
  /// with mu_ held again, maybe on another thread.
  void park_locked(std::unique_lock<std::mutex>& lock, Running& r, Wait why);
  /// Readies a parked or parking task, else a no-op (mu_ held).
  void wake_locked(Running& r);
  /// Dequeues and wakes the parked tasks `pick` selects (mu_ held).
  template <class Pick>
  void wake_parked_locked(Pick&& pick);
  void wait_unblocked(Running& r, std::unique_lock<std::mutex>& lock);
  /// True when every throttle gate that closed for creator `r` is clear.
  bool gates_clear(const Running& r) const;
  /// Releases, FIFO, every suspended creator whose gates cleared (mu_ held).
  void maybe_release_throttled_locked();
  /// Records the first failure and wakes every parked task to unwind.
  void record_error(std::exception_ptr err);

  /// The calling thread's binding, set by thread_main and engine-tagged for
  /// nested Runtimes.  Read only through current_slot().
  static thread_local ThreadEngine* tls_engine_;
  static thread_local ThreadSlot* tls_slot_;

  const int workers_requested_;
  ThrottleGate throttle_;  ///< water marks and counters; mutated under mu_

  /// Locked per object queue.  A queue lock is dropped before a listener
  /// runs (on_task_unblocked takes mu_), and mu_ is never held across a
  /// serializer call, so the two never nest.
  Serializer serializer_;

  // --- waiting tasks: guarded by mu_ ---------------------------------------
  std::mutex mu_;
  IntrusiveList<Running> parked_;  ///< oldest first
  /// Commuting-update exclusivity (Section 4.3 extension): a task holds an
  /// object's token from its first commute accessor until completion;
  /// waiters queue FIFO and the releaser hands the token over.
  CommuteTokenTable commute_;
  std::deque<Running*> throttled_;  ///< suspended creators, oldest first
  std::atomic<int> throttle_waiters_{0};  ///< throttled_.size(), unlocked
  /// First exception that escaped a task body; run() rethrows it.
  std::exception_ptr first_error_;
  std::atomic<bool> failed_{false};  ///< first_error_ is set
  std::atomic<int> suspended_{0};  ///< switched-out fibers holding a task
  std::atomic<bool> external_{false};  ///< notify_external is pending

  std::function<void(TaskContext&)> root_body_;  ///< until run_root takes it
  std::atomic<bool> root_done_{false};
  std::vector<std::thread> workers_;
  bool ran_ = false;  ///< the next run() resets the scheduling state

  // --- object domain: independent of scheduling ----------------------------
  mutable std::mutex objects_mu_;  ///< ObjectTable structure only
  ObjectTable objects_;
  BufferTable buffers_;  ///< internally sharded

  std::mutex stacks_mu_;  ///< leaf; taken only to start or end a carrier
  StackPool stacks_;      ///< carriers' and parked tasks' stacks

  // --- dispatch domain: lock-free deques + a small idle-set mutex ----------
  std::vector<std::unique_ptr<ThreadSlot>> slots_;  ///< fixed during a run
  std::atomic<std::int64_t> ready_count_{0};  ///< across all deques
  /// Idle threads, popped by producers for targeted wakes.  idle_mu_ is a
  /// leaf lock, taken with or without mu_.
  std::mutex idle_mu_;
  std::vector<ThreadSlot*> idle_stack_;
  std::atomic<int> idle_count_{0};
  std::atomic<bool> stop_{false};

  std::chrono::steady_clock::time_point trace_epoch_{};
};

}  // namespace jade
