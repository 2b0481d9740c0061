// Shared pieces of the jadebench workloads: clocks, sample statistics, the
// in-memory span log of the traced run, cross-process body stamps, and the
// result printer.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// the library's public API (withonly, cluster::spawn, accessors, task body
// entry and exit, Runtime::run, open_session, submit, close).  They stay in
// memory and are written out once, at exit.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace jadebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< smoke-test sizes
  std::string spans_path;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  int cores = 1;
};

/// Nearest-rank percentile, p in (0, 1].  0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Samples strictly above the nearest-rank percentile position.
std::size_t samples_beyond(std::size_t n, double p);

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name;  ///< static string
  std::uint64_t id;  ///< task, program or session the span belongs to
  std::int64_t start_ns;
  std::int64_t end_ns;
  int tid;  ///< recording thread (or -1 - worker slot for cluster workers)
};

/// Process-wide span log with one buffer per recording thread, so recording
/// takes no lock.  Recording is a no-op until enable().
class SpanLog {
 public:
  void enable() { on_.store(true, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  void record(const char* name, std::uint64_t id, std::int64_t start_ns,
              std::int64_t end_ns, int tid_override = 0);

  /// Every span recorded so far, by all threads.  Call only while no
  /// thread is recording.
  std::vector<Span> collect() const;

  /// Chrome trace-event JSON (load in https://ui.perfetto.dev).
  void write(const std::string& path) const;

 private:
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;  ///< guards buffers_ (registration and collect)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

SpanLog& spans();

/// Durations (ns) of every span called `name`.
std::vector<double> durations_ns(const std::vector<Span>& all,
                                 const char* name);

/// body.start - spawn.start per task id present in both: from the call that
/// creates the task to its body's entry.  (A stolen task often starts before
/// its creator's call returns, so the wait is not measured from the return.)
std::vector<double> dispatch_waits_ns(const std::vector<Span>& all);

/// Per-task body timestamps that any process can write: a MAP_SHARED region
/// mapped before the cluster engine forks its workers, so stamps taken in a
/// worker process are visible to the coordinator after Runtime::run returns.
class SharedStamps {
 public:
  struct Slot {
    std::atomic<std::int64_t> body_start;
    std::atomic<std::int64_t> acquire_start;
    std::atomic<std::int64_t> acquire_end;
    std::atomic<std::int64_t> body_end;
    std::atomic<std::int32_t> pid;
  };

  explicit SharedStamps(std::size_t slots);
  ~SharedStamps();
  SharedStamps(const SharedStamps&) = delete;
  SharedStamps& operator=(const SharedStamps&) = delete;

  Slot& operator[](std::size_t i) { return slots_[i]; }
  void clear();

 private:
  Slot* slots_ = nullptr;
  std::size_t count_ = 0;
};

// --- results -----------------------------------------------------------------

/// What one workload run produced.  `metrics` holds end-to-end values for
/// an untraced run and per-layer values for a traced one; names missing
/// from a per-layer map are layers the workload does not call (printed 0).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Sample counts behind percentile metrics, by metric name.
  std::map<std::string, std::uint64_t> samples;
  /// Further figures for the stamp line (unscaled timings, probe times).
  std::map<std::string, double> notes;
};

/// Prints the stamp line and then, as the last line of stdout, the result
/// object {"correct", "attempted", "failed", "metrics"}.
void print_result(const Options& opt, const Result& r);

/// Peak resident set of this process plus its largest reaped child, MB.
double peak_rss_mb();

int hardware_cores();

/// Host speed probe for the workloads pinned to one CPU (call it there).
/// Times two fixed pieces of work that belong to the benchmark (no library
/// code runs in them) and returns the geometric mean of their medians over
/// three passes: integer and memory work on a few hundred KiB, and thread
/// hand-offs through pipes, the two things the one-CPU workloads spend
/// their time on.  On a shared host the speed one CPU gives a process
/// drifts by tens of percent over minutes, hand-offs more than arithmetic;
/// a timing taken beside a probe and scaled by kProbeRefS / probe reads in
/// the seconds of a host on which the probe takes kProbeRefS, and most of
/// the drift cancels.
double probe_s();

/// The probe's time on the reference host (one vCPU of a 4-vCPU x86
/// virtual machine, when the benchmark was defined).
inline constexpr double kProbeRefS = 1e-3;

/// `seconds` measured beside a probe that took `probe`, in reference-host
/// seconds.
inline double to_ref_s(double seconds, double probe) {
  return seconds * kProbeRefS / probe;
}

/// While alive, restricts the calling thread, and every thread and process
/// it creates meanwhile, to the first CPU the thread may run on; restores
/// the thread's CPU set when destroyed.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace jadebench
