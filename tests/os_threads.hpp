// The number of OS threads in this process, read from /proc/self/task.
#pragma once

#include <atomic>
#include <filesystem>
#include <thread>

namespace jade {

inline int os_threads() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

/// os_threads() with no engine running, the baseline an engine's threads
/// add to.  A thread is started and joined first: a sanitizer runtime
/// starts its own background thread along with the process's first one.
inline int os_threads_at_rest() {
  std::thread([] {}).join();
  return os_threads();
}

/// Largest OS-thread count sampled, from any thread (task bodies).
class ThreadHighWater {
 public:
  void sample() {
    const int n = os_threads();
    int seen = max_.load(std::memory_order_relaxed);
    while (n > seen && !max_.compare_exchange_weak(seen, n)) {
    }
  }
  int max() const { return max_.load(); }

 private:
  std::atomic<int> max_{0};
};

}  // namespace jade
