#include "jade/sim/process.hpp"

#include "jade/sim/simulation.hpp"
#include "jade/support/error.hpp"

namespace jade {

namespace {

/// Thrown inside a process to unwind its stack when the simulation tears
/// down, or Simulation::abort kills it, while the process is parked.  Never
/// escapes the fiber.
struct ProcessAborted {};

}  // namespace

Process::Process(Simulation* sim, std::string name,
                 std::function<void()> body)
    : sim_(sim), name_(std::move(name)), body_(std::move(body)) {}

void Process::run_until_parked(StackPool& stacks) {
  JADE_ASSERT(state_ == State::kCreated || state_ == State::kParked);
  if (state_ == State::kCreated) {
    fiber_ = stacks.acquire();
    fiber_start(fiber_, &Process::fiber_main, this);
  }
  if (fiber_resume(fiber_)) {
    stacks.release(fiber_);
    fiber_ = nullptr;
  }
}

void Process::fiber_main(void* self) {
  auto* p = static_cast<Process*>(self);
  ++p->epoch_;
  p->state_ = State::kRunning;
  try {
    p->body_();
  } catch (const ProcessAborted&) {
    // Cooperative teardown: nothing to record.
  } catch (...) {
    p->error_ = std::current_exception();
  }
  p->state_ = State::kDone;
}

void Process::park() {
  state_ = State::kParked;
  fiber_yield(fiber_);
  ++epoch_;
  if (sim_->tearing_down() || abort_requested_) throw ProcessAborted{};
  state_ = State::kRunning;
}

}  // namespace jade
