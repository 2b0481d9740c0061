#include "jade/support/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cxxabi.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

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

struct Fiber {
  /// The exceptions being handled and the uncaught count, kept per OS thread
  /// (Itanium C++ ABI 2.2.2).  Every switch swaps in the resumed side's
  /// copy, so a body that yields inside a catch handler keeps its own.
  struct EhGlobals {
    void* caught_exceptions;
    unsigned int uncaught_exceptions;
  };

  ucontext_t context;             ///< the fiber's registers while switched out
  ucontext_t* resumer = nullptr;  ///< where a yield and the final exit go
  void* stack = nullptr;          ///< usable stack: [stack, this)
  std::size_t stack_size = 0;
  void (*entry)(void*) = nullptr;
  void* arg = nullptr;
  bool done = false;
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

/// Stack reserved per fiber: only touched pages cost memory (MAP_NORESERVE),
/// and a megabyte holds the deepest task bodies in sanitizer builds.
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

Fiber::EhGlobals swap_eh_globals(const Fiber::EhGlobals& next) {
  void* g = abi::__cxa_get_globals();
  Fiber::EhGlobals prev{};
  std::memcpy(&prev, g, sizeof prev);
  std::memcpy(g, &next, sizeof next);
  return prev;
}

// Sanitizer bookkeeping around every switch: ASan must learn which stack is
// live, TSan which fiber runs.  The resumer is recorded anew on every switch
// in, so a fiber resumed on another thread yields back to the right stack.

/// Fiber side, on first entry and after every resume.
void fiber_arrived([[maybe_unused]] Fiber* f) {
#if JADE_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(f->asan_fake_stack, &f->resumer_stack,
                                  &f->resumer_stack_size);
#endif
}

/// Fiber side, before switching back; `final` on the exit for good.
void fiber_leaving([[maybe_unused]] Fiber* f, [[maybe_unused]] bool final) {
#if JADE_ASAN_FIBERS
  __sanitizer_start_switch_fiber(final ? nullptr : &f->asan_fake_stack,
                                 f->resumer_stack, f->resumer_stack_size);
#endif
#if JADE_TSAN_FIBERS
  __tsan_switch_to_fiber(f->tsan_resumer, 0);
#endif
}

/// Every fiber's first frame; it never returns.
void trampoline(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>((std::uintptr_t{hi} << 32) | lo);
  fiber_arrived(f);
  f->entry(f->arg);
  f->done = true;
  fiber_leaving(f, /*final=*/true);
  setcontext(f->resumer);
  std::abort();  // setcontext returns only on failure
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
  // The final switch destroyed the fake stack but left redzones poisoned.
  ASAN_UNPOISON_MEMORY_REGION(f->stack, f->stack_size);
  f->asan_fake_stack = nullptr;
#endif
#if JADE_TSAN_FIBERS
  // TSan still holds the trampoline's frame, which never returned; reusing
  // the stack many times would overflow that shadow stack.
  __tsan_destroy_fiber(f->tsan_fiber);
  f->tsan_fiber = __tsan_create_fiber(0);
#endif
  free_.push_back(f);
}

void fiber_start(Fiber* f, void (*entry)(void*), void* arg) {
  f->entry = entry;
  f->arg = arg;
  f->done = false;
  ucontext_t& ctx = f->context;
  getcontext(&ctx);
  ctx.uc_link = nullptr;
  ctx.uc_stack.ss_sp = f->stack;
  ctx.uc_stack.ss_size = f->stack_size;
  const auto self = reinterpret_cast<std::uintptr_t>(f);
  makecontext(&ctx, reinterpret_cast<void (*)()>(&trampoline), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
  // makecontext has consumed uc_stack.  Clearing it (as `here` is clear)
  // stops ASan's swapcontext interceptor from wiping the target stack's
  // shadow on every switch; StackPool::release does that once.
  ctx.uc_stack = stack_t{};
}

bool fiber_resume(Fiber* f) {
  ucontext_t here{};
  f->resumer = &here;
  const Fiber::EhGlobals mine = swap_eh_globals(f->eh);
  [[maybe_unused]] void* fake_stack = nullptr;
#if JADE_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&fake_stack, f->stack, f->stack_size);
#endif
#if JADE_TSAN_FIBERS
  f->tsan_resumer = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
  swapcontext(&here, &f->context);
#if JADE_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  f->eh = swap_eh_globals(mine);
  return f->done;
}

void fiber_yield(Fiber* f) {
  fiber_leaving(f, /*final=*/false);
  swapcontext(&f->context, f->resumer);
  fiber_arrived(f);
}

}  // namespace jade
