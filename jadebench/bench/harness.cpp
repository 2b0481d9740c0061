#include "harness.hpp"

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#ifndef JADEBENCH_BUILD_TYPE
#define JADEBENCH_BUILD_TYPE "unknown"
#endif

namespace jadebench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The catalogue BENCHMARK.json lists, in the same order.
constexpr MetricDef kEndToEnd[] = {
    {"tasks_per_s", "1/s"},      {"makespan_vs", "vs"},
    {"sessions_per_s", "1/s"},   {"session_p50_s", "s"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    // An end-to-end figure, reported here because its run-to-run spread on
    // a shared host is wider than any bound a change could be held to.
    {"session_p99_s", "s"},
    {"engine.spawn_ns", "ns"},
    {"engine.dispatch_wait_ns_p50", "ns"},
    {"engine.dispatch_wait_ns_p99", "ns"},
    {"core.acquire_ns", "ns"},
    {"engine.body_ns", "ns"},
    {"engine.drain_s", "s"},
    {"engine.spawn_share", "fraction"},
    {"engine.tasks_stolen", "count"},
    {"engine.steal_ratio", "fraction"},
    {"engine.worker_parks", "count"},
    {"engine.throttle_suspensions", "count"},
    {"net.messages", "count"},
    {"net.payload_bytes", "B"},
    {"store.object_moves", "count"},
    {"store.object_copies", "count"},
    {"store.invalidations", "count"},
    {"types.scalars_converted", "count"},
    {"comm.replicas_reused", "count"},
    {"comm.bytes_avoided", "B"},
    {"sim.machine_util", "fraction"},
    {"sim.run_ns_per_task", "ns"},
    {"cluster.spawn_ns", "ns"},
    {"types.encode_ns", "ns"},
    {"cluster.messages_per_task", "count"},
    {"cluster.payload_bytes_per_task", "B"},
    {"cluster.drain_s", "s"},
    {"cluster.fork_s", "s"},
    {"cluster.upload_s", "s"},
    {"server.open_ns_p99", "ns"},
    {"server.submit_ns", "ns"},
    {"server.close_ns", "ns"},
    {"server.internal_latency_p50_s", "s"},
    {"server.internal_latency_p99_s", "s"},
    {"server.queued", "count"},
    {"server.rejected", "count"},
    {"gen.late_s_p99", "s"},
    {"apps.serial_s", "s"},
    {"trace.overhead_frac", "fraction"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0.0);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::atomic<int> g_next_tid{0};

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// --- spans -------------------------------------------------------------------

SpanLog::Buffer& SpanLog::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    owned->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(mu_);
    buf = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buf;
}

void SpanLog::record(const char* name, std::uint64_t id, std::int64_t start_ns,
                     std::int64_t end_ns, int tid_override) {
  if (!on()) return;
  Buffer& b = local();
  b.spans.push_back(
      {name, id, start_ns, end_ns, tid_override != 0 ? tid_override : b.tid});
}

std::vector<Span> SpanLog::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

void SpanLog::write(const std::string& path) const {
  const std::vector<Span> all = collect();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "jadebench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::int64_t t0 = 0;
  for (const Span& s : all)
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  out << "{\"traceEvents\":[\n";
  char line[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}%s\n",
                  s.name, s.tid, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  i + 1 < all.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

SpanLog& spans() {
  static SpanLog* log = new SpanLog();  // outlives every recording thread
  return *log;
}

std::vector<double> durations_ns(const std::vector<Span>& all,
                                 const char* name) {
  std::vector<double> out;
  for (const Span& s : all)
    if (std::string_view(s.name) == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

std::vector<double> dispatch_waits_ns(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::int64_t> spawn_start;
  for (const Span& s : all)
    if (std::string_view(s.name) == "spawn") spawn_start[s.id] = s.start_ns;
  std::vector<double> out;
  for (const Span& s : all) {
    if (std::string_view(s.name) != "body") continue;
    auto it = spawn_start.find(s.id);
    if (it == spawn_start.end()) continue;
    out.push_back(static_cast<double>(s.start_ns - it->second));
  }
  return out;
}

SharedStamps::SharedStamps(std::size_t slots) : count_(slots) {
  void* p = ::mmap(nullptr, sizeof(Slot) * std::max<std::size_t>(1, slots),
                   PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("jadebench: mmap failed");
  slots_ = static_cast<Slot*>(p);  // zero-filled: every atomic starts at 0
}

SharedStamps::~SharedStamps() {
  ::munmap(slots_, sizeof(Slot) * std::max<std::size_t>(1, count_));
}

void SharedStamps::clear() {
  for (std::size_t i = 0; i < count_; ++i) {
    slots_[i].body_start.store(0, std::memory_order_relaxed);
    slots_[i].acquire_start.store(0, std::memory_order_relaxed);
    slots_[i].acquire_end.store(0, std::memory_order_relaxed);
    slots_[i].body_end.store(0, std::memory_order_relaxed);
    slots_[i].pid.store(0, std::memory_order_relaxed);
  }
}

// --- results -----------------------------------------------------------------

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

int hardware_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// Integer and memory work: a chase around a 128 KiB ring, each step
/// updating a 256 KiB table.
double probe_compute_s() {
  constexpr std::uint32_t kRing = 1u << 15;
  constexpr std::uint32_t kTable = 1u << 15;
  struct State {
    std::vector<std::uint32_t> next;
    std::vector<std::uint64_t> table;
    State() : next(kRing), table(kTable) {
      // Sattolo's shuffle: one cycle through every slot, in a fixed order.
      for (std::uint32_t i = 0; i < kRing; ++i) next[i] = i;
      std::uint64_t x = 0x9E3779B97F4A7C15ull;
      for (std::uint32_t i = kRing - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(next[i], next[static_cast<std::uint32_t>(x % i)]);
      }
    }
  };
  static State st;
  const std::int64_t t0 = now_ns();
  std::uint32_t at = 0;
  std::uint64_t h = 0;
  for (std::uint32_t step = 0; step < 3 * kRing; ++step) {
    at = st.next[at];
    h = (h ^ at) * 0x100000001B3ull;
    std::uint64_t& slot = st.table[h % kTable];
    slot = (slot & 1) != 0 ? slot + h : slot ^ (h >> 3);
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Hand-offs: round trips of one byte between this thread and a helper
/// over two pipes, each a system call and a switch between threads.
double probe_handoff_s() {
  constexpr int kTrips = 300;
  int there[2];
  int back[2];
  if (::pipe(there) != 0) throw std::runtime_error("jadebench: pipe failed");
  if (::pipe(back) != 0) {
    ::close(there[0]);
    ::close(there[1]);
    throw std::runtime_error("jadebench: pipe failed");
  }
  std::thread echo([&] {
    char c;
    for (int i = 0; i < kTrips; ++i)
      if (::read(there[0], &c, 1) != 1 || ::write(back[1], &c, 1) != 1) break;
  });
  const std::int64_t t0 = now_ns();
  char c = 0;
  for (int i = 0; i < kTrips; ++i)
    if (::write(there[1], &c, 1) != 1 || ::read(back[0], &c, 1) != 1) break;
  const std::int64_t t1 = now_ns();
  ::close(there[1]);  // ends the helper if a trip failed
  echo.join();
  ::close(there[0]);
  ::close(back[0]);
  ::close(back[1]);
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace

double probe_s() {
  std::vector<double> compute;
  std::vector<double> handoff;
  for (int pass = 0; pass < 3; ++pass) {
    compute.push_back(probe_compute_s());
    handoff.push_back(probe_handoff_s());
  }
  return std::sqrt(median(std::move(compute)) * median(std::move(handoff)));
}

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

OneCpu::~OneCpu() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

void print_result(const Options& opt, const Result& r) {
  const double failed_frac =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::string stamp = "{\"stamp\": {";
  stamp += "\"workload\": " + json_string(opt.workload);
  stamp += ", \"seed\": " + std::to_string(opt.seed);
  stamp += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  stamp += ", \"seconds\": " + json_number(opt.seconds);
  stamp += ", \"size\": " + json_string(opt.tiny ? "tiny" : "full");
  stamp += ", \"hardware_cores\": " + std::to_string(opt.cores);
  stamp += ", \"build_type\": " + json_string(JADEBENCH_BUILD_TYPE);
  stamp += ", \"git_sha\": " + json_string(opt.git_sha);
  stamp += ", \"source_digest\": " + json_string(opt.source_digest);
  stamp += ", \"failed_frac\": " + json_number(failed_frac);
  stamp += ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : r.samples) {
    stamp += (first ? "" : ", ") + json_string(name) + ": " +
             std::to_string(n);
    first = false;
  }
  stamp += "}";
  for (const auto& [name, v] : r.notes)
    stamp += ", " + json_string(name) + ": " + json_number(v);
  if (opt.trace) stamp += ", \"spans\": " + json_string(opt.spans_path);
  stamp += "}}";
  std::printf("%s\n", stamp.c_str());

  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  first = true;
  auto emit = [&](const MetricDef& m) {
    auto it = r.metrics.find(m.name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    out += (first ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  };
  if (opt.trace)
    for (const MetricDef& m : kPerLayer) emit(m);
  else
    for (const MetricDef& m : kEndToEnd) emit(m);
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace jadebench
