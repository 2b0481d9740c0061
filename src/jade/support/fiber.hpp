// Fibers: stackful execution contexts switched in user space.
//
// SimEngine runs every simulated process on a fiber (sim/process.hpp), and
// ThreadEngine runs each engine thread's scheduling loop on a *carrier*
// fiber, so a task that waits sets its stack aside and frees the OS thread
// (engine/thread_engine.hpp).  A fiber is a `ucontext` on a guard-paged
// `mmap` stack from a StackPool, and runs — once switched into from an
// ordinary context, its *resumer* — until it yields or its entry function
// returns; either way control goes back to that resumer.  A yielded fiber
// may be resumed by another resumer, on another OS thread: every switch
// carries the C++ exception state and the ASan/TSan annotations along.
// Thread-local variables do not move with it: code that may yield must
// re-read them afterwards through a function the compiler cannot inline
// (GCC caches thread-local addresses within a function).
#pragma once

#include <vector>

namespace jade {

/// Header at the top of a pooled stack block; opaque outside fiber.cpp.
struct Fiber;

/// Guard-paged fiber stacks, taken for a fiber's start and given back once
/// it has finished; unmapped when the pool is destroyed.  Not thread-safe:
/// a pool shared by threads is locked by its owner.
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

/// Makes `f` call `entry(arg)`, which must not throw, when first resumed;
/// the fiber finishes when `entry` returns.
void fiber_start(Fiber* f, void (*entry)(void*), void* arg);

/// Switches into `f` until it yields or finishes; true when it finished
/// (its stack may go back to the pool).
bool fiber_resume(Fiber* f);

/// Called on `f`: switches back to its resumer; returns when resumed again.
void fiber_yield(Fiber* f);

}  // namespace jade
