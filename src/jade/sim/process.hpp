// Cooperative simulated processes.
//
// SimEngine must let an *unmodified* task body pause in virtual time in the
// middle of its execution — that is exactly what a `with-cont` that converts
// a deferred right does (Section 4.2).  Each simulated activity runs as a
// fiber (support/fiber.hpp) on the one OS thread that runs the simulation,
// so a park is a plain context switch: deterministic coroutines with full
// stacks.  A finished process hands its stack back to the Simulation's
// StackPool; the Simulation frees the Process then, or keeps it until the
// end if it was aborted.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <string>

#include "jade/support/fiber.hpp"
#include "jade/support/time.hpp"

namespace jade {

class Simulation;

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
  /// parks or finishes; called by the coordinator, or by Simulation::abort.
  void run_until_parked(StackPool& stacks);

  /// Called from inside the process: returns when resumed again.
  void park();

  /// The fiber's entry: runs the body and records how it ended.
  static void fiber_main(void* self);

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
