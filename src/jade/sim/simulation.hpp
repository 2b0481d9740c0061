// The discrete-event simulation coordinator.
//
// Owns the virtual clock, the event queue, all processes and the pool of
// their fiber stacks.  Exactly one activity runs at a time: the coordinator
// pops events in (time, sequence) order; an event is either a plain
// callback or a "resume process P" action, which switches to P's fiber
// until P parks again.  Every process runs on the thread that called run(),
// so a simulation occupies one OS thread however many processes it has.
// Because scheduling order is deterministic, an entire simulation is a
// deterministic function of its inputs.
#pragma once

#include <functional>
#include <list>
#include <string>

#include "jade/sim/event_queue.hpp"
#include "jade/sim/process.hpp"
#include "jade/support/time.hpp"

namespace jade {

class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedules a plain event.  Callable from the coordinator or from inside
  /// a process.
  void schedule(SimTime t, std::function<void()> fn);
  void schedule_in(SimTime dt, std::function<void()> fn) {
    schedule(now_ + dt, std::move(fn));
  }

  /// Creates a process whose body starts running at time `at` (default: now).
  /// The body runs on its own fiber stack, taken from the pool when it first
  /// runs and returned when it finishes.  A process whose body returns (or
  /// throws) is destroyed at that final switch-out, so the pointer is valid
  /// only while the process has not finished; an aborted process, which
  /// may still be owed a resume event, lives until the Simulation ends.
  Process* spawn(std::string name, std::function<void()> body);
  Process* spawn_at(SimTime at, std::string name, std::function<void()> body);

  /// From inside a process: blocks until some other activity resumes it.
  /// The caller must have arranged exactly one future resume.
  void park();

  /// Schedules process `p` (currently parked, or parking imminently at this
  /// virtual time) to resume at time `t` (default now).  Exactly one resume
  /// may be pending per parked period.
  void resume(Process* p) { resume_at(p, now_); }
  void resume_at(Process* p, SimTime t);

  /// From inside a process: advances that process's local activity by `dt`
  /// of virtual time (schedules its own resume and parks).
  void advance(SimTime dt);

  /// Kills a process that is not currently running (fault injection): a
  /// parked process unwinds its stack immediately (its park() throws); a
  /// created-but-unstarted process never starts.  Either way the process is
  /// marked abandoned, so events already scheduled for it become no-ops —
  /// including the one pending resume a parked process was owed.
  void abort(Process* p);

  /// The process currently running, or nullptr when called from an event
  /// callback / outside run().
  Process* current() const { return current_; }

  /// Runs until no events remain.  Throws InternalError if processes remain
  /// parked with no pending events (simulated deadlock), and rethrows the
  /// first exception that escaped a process body.
  void run();

  /// Number of processes that are parked (not done); used for deadlock
  /// diagnostics and by tests.
  std::size_t parked_count() const;

  /// Processes held: not yet finished, or aborted (for tests).
  std::size_t live_processes() const { return processes_.size(); }

  /// Total events executed; a cheap progress / cost metric for benches.
  std::uint64_t events_executed() const { return events_executed_; }

  /// True while the destructor is unwinding parked processes; park() turns
  /// into a cooperative stack unwind when set.
  bool tearing_down() const { return tearing_down_; }

 private:
  friend class Process;

  /// Switches to `p` (starting its fiber on first use) until it parks or
  /// finishes, stashing any exception that escaped its body; a finished,
  /// unaborted process is destroyed.
  void run_process(Process* p);

  EventQueue queue_;
  SimTime now_ = 0;
  Process* current_ = nullptr;
  StackPool stacks_;  ///< unmapped after every process is destroyed
  /// Held processes in creation order; each knows its own position.
  std::list<Process> processes_;
  std::uint64_t events_executed_ = 0;
  bool running_ = false;
  bool tearing_down_ = false;
  std::exception_ptr first_error_;
};

}  // namespace jade
