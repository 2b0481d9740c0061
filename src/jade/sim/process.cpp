#include "jade/sim/process.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cxxabi.h>

#include <cstdlib>
#include <cstring>
#include <new>

#include "jade/sim/simulation.hpp"
#include "jade/support/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define JADE_ASAN_FIBERS 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#define JADE_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif

namespace jade {

namespace {

/// Thrown inside a process to unwind its stack when the simulation tears
/// down, or Simulation::abort kills it, while the process is parked.  Never
/// escapes the fiber.
struct ProcessAborted {};

/// Stack reserved per fiber.  MAP_NORESERVE makes only touched pages cost
/// memory; a megabyte leaves room for the deepest task bodies in sanitizer
/// builds.
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// The C++ runtime keeps the exceptions being handled, and the count of
/// uncaught ones, per OS thread (Itanium C++ ABI 2.2.2).  Fibers share the
/// thread, so every switch swaps in the resumed side's copy: a body that
/// parks inside a catch handler must not see another body's exceptions.
struct EhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
};

EhGlobals swap_eh_globals(const EhGlobals& next) {
  void* g = abi::__cxa_get_globals();
  EhGlobals prev{};
  std::memcpy(&prev, g, sizeof prev);
  std::memcpy(g, &next, sizeof next);
  return prev;
}

}  // namespace

/// Header at the top of each pooled stack block; the stack proper lies
/// below it, above a guard page.
struct Fiber {
  ucontext_t context;             ///< the fiber's registers while switched out
  ucontext_t* resumer = nullptr;  ///< where park() and the final exit go
  void* stack = nullptr;          ///< usable stack: [stack, this)
  std::size_t stack_size = 0;
  EhGlobals eh{};  ///< the fiber's exception state while switched out
#if JADE_ASAN_FIBERS
  void* asan_fake_stack = nullptr;
  const void* resumer_stack = nullptr;
  std::size_t resumer_stack_size = 0;
#endif
#if JADE_TSAN_FIBERS
  void* tsan_fiber = nullptr;
  void* tsan_resumer = nullptr;
#endif
};

namespace {

// Sanitizer bookkeeping around every switch.  ASan must learn which stack
// is live, or exceptions unwinding on a fiber stack trip false
// stack-buffer-overflow reports; TSan must learn which fiber runs.

/// Resumer side, right before switching into `f`.
void switching_in([[maybe_unused]] Fiber* f,
                  [[maybe_unused]] void** resumer_fake_stack) {
#if JADE_ASAN_FIBERS
  __sanitizer_start_switch_fiber(resumer_fake_stack, f->stack, f->stack_size);
#endif
#if JADE_TSAN_FIBERS
  f->tsan_resumer = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
}

/// Resumer side, once `f` has switched back.
void switched_back([[maybe_unused]] void* resumer_fake_stack) {
#if JADE_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
}

/// Fiber side, on first entry and after every resume.
void fiber_arrived([[maybe_unused]] Fiber* f) {
#if JADE_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(f->asan_fake_stack, &f->resumer_stack,
                                  &f->resumer_stack_size);
#endif
}

/// Fiber side, right before switching back to its resumer; `final` on the
/// exit that never returns.
void fiber_leaving([[maybe_unused]] Fiber* f, [[maybe_unused]] bool final) {
#if JADE_ASAN_FIBERS
  __sanitizer_start_switch_fiber(final ? nullptr : &f->asan_fake_stack,
                                 f->resumer_stack, f->resumer_stack_size);
#endif
#if JADE_TSAN_FIBERS
  __tsan_switch_to_fiber(f->tsan_resumer, 0);
#endif
}

}  // namespace

StackPool::~StackPool() {
  const std::size_t page = page_size();
  for (Fiber* f : all_) {
#if JADE_TSAN_FIBERS
    __tsan_destroy_fiber(f->tsan_fiber);
#endif
    munmap(static_cast<char*>(f->stack) - page, kStackBytes + page);
  }
}

Fiber* StackPool::acquire() {
  if (!free_.empty()) {
    Fiber* f = free_.back();
    free_.pop_back();
    return f;
  }
  const std::size_t page = page_size();
  void* block = mmap(nullptr, kStackBytes + page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  // The lowest page faults on overflow instead of corrupting a neighbour.
  if (mprotect(block, page, PROT_NONE) != 0) {
    munmap(block, kStackBytes + page);
    throw std::bad_alloc();
  }
  char* stack = static_cast<char*>(block) + page;
  char* top = stack + kStackBytes;
  auto header = reinterpret_cast<std::uintptr_t>(top - sizeof(Fiber));
  header &= ~std::uintptr_t{alignof(std::max_align_t) - 1};
  auto* f = new (reinterpret_cast<void*>(header)) Fiber{};
  f->stack = stack;
  f->stack_size = static_cast<std::size_t>(reinterpret_cast<char*>(f) - stack);
#if JADE_TSAN_FIBERS
  f->tsan_fiber = __tsan_create_fiber(0);
#endif
  all_.push_back(f);
  return f;
}

void StackPool::release(Fiber* f) {
#if JADE_ASAN_FIBERS
  // The final switch out destroyed the fiber's fake stack and left its
  // entry frames' redzones poisoned; the next process starts clean.
  ASAN_UNPOISON_MEMORY_REGION(f->stack, f->stack_size);
  f->asan_fake_stack = nullptr;
#endif
  free_.push_back(f);
}

Process::Process(Simulation* sim, std::string name,
                 std::function<void()> body)
    : sim_(sim), name_(std::move(name)), body_(std::move(body)) {}

void Process::run_until_parked(StackPool& stacks) {
  JADE_ASSERT(state_ == State::kCreated || state_ == State::kParked);
  if (state_ == State::kCreated) {
    fiber_ = stacks.acquire();
    ucontext_t& ctx = fiber_->context;
    getcontext(&ctx);
    ctx.uc_link = nullptr;
    ctx.uc_stack.ss_sp = fiber_->stack;
    ctx.uc_stack.ss_size = fiber_->stack_size;
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx, reinterpret_cast<void (*)()>(&Process::fiber_main), 2,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
    // makecontext has consumed uc_stack.  Clearing it, as `here` is cleared
    // below, stops ASan's swapcontext interceptor from wiping the target
    // stack's shadow on every switch; StackPool::release does that once.
    ctx.uc_stack = stack_t{};
  }
  Fiber* f = fiber_;
  ucontext_t here{};
  f->resumer = &here;
  const EhGlobals mine = swap_eh_globals(f->eh);
  void* fake_stack = nullptr;
  switching_in(f, &fake_stack);
  swapcontext(&here, &f->context);
  switched_back(fake_stack);
  f->eh = swap_eh_globals(mine);
  if (state_ == State::kDone) {
    stacks.release(f);
    fiber_ = nullptr;
  }
}

void Process::fiber_main(unsigned hi, unsigned lo) {
  auto* p = reinterpret_cast<Process*>((std::uintptr_t{hi} << 32) | lo);
  Fiber* f = p->fiber_;
  fiber_arrived(f);
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
  fiber_leaving(f, /*final=*/true);
  setcontext(f->resumer);
  std::abort();  // setcontext returns only on failure
}

void Process::park() {
  Fiber* f = fiber_;
  state_ = State::kParked;
  fiber_leaving(f, /*final=*/false);
  swapcontext(&f->context, f->resumer);
  fiber_arrived(f);
  ++epoch_;
  if (sim_->tearing_down() || abort_requested_) throw ProcessAborted{};
  state_ = State::kRunning;
}

}  // namespace jade
