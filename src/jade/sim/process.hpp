// Cooperative simulated processes.
//
// SimEngine must let an *unmodified* task body pause in virtual time in the
// middle of its execution — that is exactly what a `with-cont` that converts
// a deferred right does (Section 4.2).  C++ cannot suspend a plain function,
// so each simulated activity runs as a fiber: a `ucontext` with its own
// stack, switched to and from on the one OS thread that runs the
// simulation.  At most one fiber (or the coordinator) runs at any instant,
// and a park is a plain context switch with no OS thread involved.  The
// result behaves like coroutines with full stacks: deterministic, and host
// parallelism plays no role in the simulated timing.
//
// Stacks come from a StackPool owned by the Simulation: each is a
// guard-paged `mmap` block that a finished process hands back for the next
// one to reuse.  The fiber's saved context lives at the top of its stack
// block, so a Process stays small; the Simulation frees it when it
// finishes, or keeps it until the end if it was aborted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <string>
#include <vector>

#include "jade/support/time.hpp"

namespace jade {

class Simulation;
struct Fiber;

/// The guard-paged fiber stacks of one Simulation.  A stack is taken when
/// a process first runs and given back when it finishes; every block is
/// unmapped when the pool is destroyed.  Not thread-safe: a simulation runs
/// on one thread at a time.
class StackPool {
 public:
  StackPool() = default;
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  Fiber* acquire();
  void release(Fiber* f);

 private:
  std::vector<Fiber*> all_;  ///< every mapped block, for the destructor
  std::vector<Fiber*> free_;
};

/// One cooperative activity.  Created via Simulation::spawn; never run
/// directly.
class Process {
 public:
  enum class State : std::uint8_t {
    kCreated,   ///< fiber not yet started
    kRunning,   ///< owns the simulation (its resumer is switched out)
    kParked,    ///< waiting to be resumed
    kDone,      ///< body returned; stack back in the pool
  };

  Process(Simulation* sim, std::string name, std::function<void()> body);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  State state() const { return state_; }

  /// Number of times this process has been unparked; used to detect stale
  /// resume events (each parked period has exactly one designated waker).
  std::uint64_t epoch() const { return epoch_; }

  /// True once Simulation::abort gave up on this process: pending spawn and
  /// resume events for it become no-ops instead of stale-resume errors.
  bool abandoned() const { return abandoned_; }

 private:
  friend class Simulation;

  /// Switches to this process (starting its fiber on first use) until it
  /// parks or finishes.  Called by the coordinator, or by another process
  /// (Simulation::abort); the caller's context is saved on its own stack.
  void run_until_parked(StackPool& stacks);

  /// Called from inside the process: switches back to whoever resumed it
  /// and returns when resumed again.
  void park();

  /// The fiber's entry: runs the body, then switches out for good.
  static void fiber_main(unsigned hi, unsigned lo);

  Simulation* sim_;
  /// This process's position in Simulation::processes_, for its erasure.
  std::list<Process>::iterator self_;
  std::string name_;
  std::function<void()> body_;
  Fiber* fiber_ = nullptr;  ///< stack block while started and not done
  State state_ = State::kCreated;
  bool abort_requested_ = false;  ///< next unpark unwinds instead of running
  bool abandoned_ = false;        ///< scheduled events for this process no-op
  std::uint64_t epoch_ = 0;
  std::exception_ptr error_;  ///< exception escaping the body, rethrown in run()
};

}  // namespace jade
