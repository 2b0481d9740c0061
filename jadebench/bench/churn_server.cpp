// churn_server: JadeServer in live mode on ThreadEngine, fed short tenant
// programs by one generator thread.
//
// Each session allocates a private counter and submits a root that creates
// eight microtasks incrementing it; the session is correct when it ends
// kCompleted with the counter at 8.  The microtasks declare rd_wr, not cm:
// on ThreadEngine a commute waiter that finds no idle thread starts a
// compensating worker that never exits, so a resident server running
// commuting sessions stops admitting tasks ("runaway compensating-worker
// growth") after some ten thousand sessions, within one run.
//
// Two phases share one resident server:
//   * open loop — sessions arrive on a seeded Poisson schedule at a fixed
//     rate (about half the closed-loop rate measured on the seed commit)
//     and each is timed from when it was due, so a stall also delays the
//     sessions queued behind it; how late the generator ran is reported;
//   * closed loop — a fixed window of outstanding sessions; the generator
//     opens the next session as soon as the oldest one has been closed.
// Admission, tenant accounting and fair-share quota recomputation dominate;
// the task spine is a small share.
//
// The server and the generator share one CPU, as in cholesky_cluster: spread
// over vCPUs, session latency mostly times the hypervisor's wake-ups.
#include <deque>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "jade/server/server.hpp"
#include "workloads.hpp"

namespace jadebench {

namespace {

using jade::AccessDecl;
using jade::SharedRef;
using jade::TaskContext;
using jade::server::JadeServer;
using jade::server::ServerConfig;
using jade::server::Session;
using jade::server::SessionState;

constexpr int kTasksPerSession = 8;
/// Open-loop arrival rate, sessions/s: about half the closed-loop rate of
/// the seed commit (about 50 000 sessions/s on one CPU of a 4-vCPU x86
/// virtual machine).
constexpr double kOpenLoopRate = 25000;
/// Sessions per second of closed loop a run asks for: each server serves
/// this rate times its closed-loop seconds as a fixed count, so the server's
/// memory, which grows with every session served, peaks at the same size
/// however fast the host runs that day.
constexpr double kClosedLoopRate = 50000;
/// Closed-loop outstanding sessions, also the admission limit on active
/// sessions.
constexpr std::size_t kWindow = 64;
/// Host speed probes taken before each server starts.
constexpr int kServerProbes = 5;
/// Spans for one session in this many (the traced phase).
constexpr std::uint64_t kSampleEvery = 8;

ServerConfig server_config(jade::RuntimeConfig runtime) {
  ServerConfig cfg;
  cfg.runtime = std::move(runtime);
  cfg.admission.max_active_sessions = kWindow;
  cfg.admission.max_queued_sessions = 4096;
  // Every active session's fair share stays above what it creates.
  cfg.quota_pool = kWindow * 2 * kTasksPerSession;
  return cfg;
}

struct Live {
  std::shared_ptr<Session> session;
  SharedRef<std::int64_t> counter;
  std::shared_ptr<std::atomic<std::int64_t>> done;  ///< last task's exit
  std::int64_t due_ns = 0;
  std::uint64_t id = 0;
};

/// The tenant program.  The microtasks run in creation order (rd_wr on one
/// counter), so the last one's exit is the session's completion.
TaskContext::BodyFn tenant_program(SharedRef<std::int64_t> counter,
                                   std::shared_ptr<std::atomic<std::int64_t>> done,
                                   std::uint64_t session, bool traced) {
  return [counter, done, session, traced](TaskContext& ctx) {
    for (int k = 0; k < kTasksPerSession; ++k) {
      const std::uint64_t id = session * kTasksPerSession + static_cast<std::uint64_t>(k);
      const bool last = k + 1 == kTasksPerSession;
      const std::int64_t s0 = traced ? now_ns() : 0;
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(counter); },
                   [counter, done, id, last, traced](TaskContext& t) {
                     const std::int64_t b0 = traced ? now_ns() : 0;
                     auto v = t.read_write(counter);
                     const std::int64_t a1 = traced ? now_ns() : 0;
                     v[0] += 1;
                     const std::int64_t b1 = now_ns();
                     if (last) done->store(b1, std::memory_order_release);
                     if (traced) {
                       spans().record("acquire", id, b0, a1);
                       spans().record("body", id, b0, b1);
                     }
                   });
      if (traced) spans().record("spawn", id, s0, now_ns());
    }
  };
}

struct Phase {
  std::vector<double> latency_s;   ///< from due time (open loop); +inf if failed
  std::vector<double> internal_s;  ///< submit to quiescence, server-measured
  std::vector<double> late_s;      ///< generator lateness (open loop)
  std::uint64_t sessions = 0;
  std::uint64_t tasks = 0;
  double wall_s = 0;
  std::int64_t last_submit_ns = 0;
  std::int64_t last_done_ns = 0;
};

class Generator {
 public:
  /// `next_id` numbers sessions across every server of the run.
  Generator(JadeServer& srv, Result& r, std::uint64_t& next_id)
      : srv_(srv), r_(r), next_id_(next_id) {}

  /// Opens a session and submits the tenant program.  A session admission
  /// refuses comes back without a Session; reap() counts it as failed.
  Live send(std::int64_t due_ns) {
    Live l;
    l.id = next_id_++;
    l.due_ns = due_ns;
    l.done = std::make_shared<std::atomic<std::int64_t>>(0);
    const bool traced = spans().on() && l.id % kSampleEvery == 0;
    const std::int64_t o0 = traced ? now_ns() : 0;
    l.session = srv_.open_session(std::to_string(l.id));
    if (traced) spans().record("open", l.id, o0, now_ns());
    ++r_.attempted;
    if (l.session == nullptr) return l;
    l.counter = l.session->alloc<std::int64_t>(1, "counter");
    const std::int64_t s0 = traced ? now_ns() : 0;
    l.session->submit(tenant_program(l.counter, l.done, l.id, traced));
    if (traced) spans().record("submit", l.id, s0, now_ns());
    return l;
  }

  /// Waits for, verifies and closes one session.
  void reap(Live& l, Phase& p) {
    ++p.sessions;
    const double inf = std::numeric_limits<double>::infinity();
    if (l.session == nullptr) {  // refused: misses every latency limit
      ++r_.failed;
      p.latency_s.push_back(inf);
      return;
    }
    const SessionState st = l.session->wait();
    const bool ok = st == SessionState::kCompleted &&
                    l.session->get(l.counter)[0] == kTasksPerSession;
    if (!ok) {
      ++r_.failed;
      p.latency_s.push_back(inf);
    } else {
      const std::int64_t done = l.done->load(std::memory_order_acquire);
      p.latency_s.push_back(static_cast<double>(done - l.due_ns) * 1e-9);
      p.last_done_ns = std::max(p.last_done_ns, done);
    }
    const auto stats = l.session->stats();
    p.internal_s.push_back(stats.latency_seconds);
    p.tasks += stats.tasks_created;
    const bool traced = spans().on() && l.id % kSampleEvery == 0;
    const std::int64_t c0 = traced ? now_ns() : 0;
    l.session->close();
    if (traced) spans().record("close", l.id, c0, now_ns());
  }

 private:
  JadeServer& srv_;
  Result& r_;
  std::uint64_t& next_id_;
};

/// Refused sessions (no Session) are done at once.
bool session_done(const Live& l) {
  return l.session == nullptr || jade::server::session_terminal(l.session->state());
}

Phase open_loop(Generator& gen, double seconds, std::mt19937_64& rng) {
  Phase p;
  std::exponential_distribution<double> gap(kOpenLoopRate);
  std::deque<Live> outstanding;
  const std::int64_t t0 = now_ns();
  const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  double due = static_cast<double>(t0);
  for (;;) {
    due += gap(rng) * 1e9;
    const auto due_ns = static_cast<std::int64_t>(due);
    if (due_ns >= end) break;
    // Close finished sessions (they free admission slots), then sleep until
    // the session is due.  (Spinning instead takes the CPU the server needs.)
    for (;;) {
      while (!outstanding.empty() && session_done(outstanding.front())) {
        gen.reap(outstanding.front(), p);
        outstanding.pop_front();
      }
      const std::int64_t wait_ns = due_ns - now_ns();
      if (wait_ns <= 0) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
    }
    p.late_s.push_back(static_cast<double>(now_ns() - due_ns) * 1e-9);
    outstanding.push_back(gen.send(due_ns));
    p.last_submit_ns = now_ns();
  }
  for (Live& l : outstanding) gen.reap(l, p);
  p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return p;
}

Phase closed_loop(Generator& gen, std::uint64_t sessions) {
  Phase p;
  std::deque<Live> outstanding;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t sent = 0; sent < sessions; ++sent) {
    if (outstanding.size() >= kWindow) {
      gen.reap(outstanding.front(), p);
      outstanding.pop_front();
    }
    outstanding.push_back(gen.send(now_ns()));
    p.last_submit_ns = now_ns();
  }
  for (Live& l : outstanding) gen.reap(l, p);
  p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return p;
}

/// A window of sessions on the simulated platform in batch mode; the
/// stats carry their virtual makespan.
jade::RuntimeStats sim_window(std::uint64_t sessions, Result& r) {
  JadeServer srv(server_config(sim_config()));
  std::vector<Live> live;
  for (std::uint64_t i = 0; i < sessions; ++i) {
    Live l;
    l.session = srv.open_session(std::to_string(i));
    if (l.session == nullptr) {
      ++r.attempted;
      ++r.failed;
      continue;
    }
    l.counter = l.session->alloc<std::int64_t>(1, "counter");
    l.done = std::make_shared<std::atomic<std::int64_t>>(0);
    l.session->submit(tenant_program(l.counter, l.done, i, false));
    live.push_back(std::move(l));
  }
  srv.drain();
  for (Live& l : live) {
    ++r.attempted;
    if (l.session->wait() != SessionState::kCompleted ||
        l.session->get(l.counter)[0] != kTasksPerSession) {
      ++r.failed;
    }
    l.session->close();
  }
  return srv.runtime().stats();
}

/// The serial reference: one window of tenant programs on SerialEngine.
double serial_reference(Result& r) {
  jade::Runtime rt;  // SerialEngine
  std::vector<SharedRef<std::int64_t>> counters;
  for (std::size_t i = 0; i < kWindow; ++i) counters.push_back(rt.alloc<std::int64_t>(1));
  auto done = std::make_shared<std::atomic<std::int64_t>>(0);
  const double t0 = now_s();
  rt.run([&](TaskContext& ctx) {
    for (std::size_t i = 0; i < kWindow; ++i)
      tenant_program(counters[i], done, i, false)(ctx);
  });
  const double secs = now_s() - t0;
  ++r.attempted;
  for (const auto& c : counters)
    if (rt.get(c)[0] != kTasksPerSession) {
      ++r.failed;
      break;
    }
  return secs;
}

/// Closed- and open-loop figures pooled over the servers of one phase.
struct Served {
  Phase open;                       ///< every server's open loop, appended
  std::vector<double> open_p50;     ///< open-loop median latency per server
  std::vector<double> open_p99;     ///< open-loop p99 latency per server
  /// Closed-loop sessions/s and tasks/s per server, reference-host seconds.
  std::vector<double> closed_rate;
  std::vector<double> closed_tasks_rate;
  std::vector<double> unscaled_closed_rate;
  std::vector<double> unscaled_setups;
  std::vector<double> probes;  ///< per server, the median of its probes
  std::vector<double> closed_drain_s;   ///< last submit to last completion
  std::vector<double> closed_ns_per_task;
  std::uint64_t sessions = 0;  ///< every session of the phase
  std::uint64_t tasks = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  StatsSum stats;
};

/// Runs `seconds` spread over kSetupReps resident servers in turn, each
/// constructed afresh (timed into `setups`), warmed up, then driven open
/// loop and closed loop for half of its share each.  A ThreadEngine
/// instance tends to keep one dispatch regime for its life, and a server's
/// memory grows with every session it has served, so several servers per
/// run keep the run's medians steady.  Set-up and the closed-loop rates
/// are scaled to reference-host seconds by the median of kServerProbes
/// probes taken before the server starts (its idle threads would disturb
/// probes taken later; one probe per server left the rates noisier than
/// unscaled ones); open-loop latency is not scaled, as it answers to a
/// schedule in real time.
Served serve(const jade::RuntimeConfig& rt_cfg, double seconds, std::mt19937_64& rng,
             Result& r, std::vector<double>& setups) {
  static std::uint64_t next_id = 0;
  Served out;
  const double share = seconds / kSetupReps;
  for (int i = 0; i < kSetupReps; ++i) {
    std::vector<double> probes;
    for (int k = 0; k < kServerProbes; ++k) probes.push_back(probe_s());
    const double probe = median(probes);
    const double t0 = now_s();
    JadeServer srv(server_config(rt_cfg));
    const double setup_s = now_s() - t0;
    setups.push_back(to_ref_s(setup_s, probe));
    out.unscaled_setups.push_back(setup_s);
    Generator gen(srv, r, next_id);
    closed_loop(gen, 512);  // warm-up: threads started, first sessions served
    auto& reg = srv.metrics();
    const std::uint64_t queued0 = reg.counter("server.sessions_queued").value();
    const std::uint64_t rejected0 = reg.counter("server.sessions_rejected").value();
    const Phase open = open_loop(gen, share / 2, rng);
    const Phase closed = closed_loop(
        gen, std::max<std::uint64_t>(
                 kWindow, static_cast<std::uint64_t>(kClosedLoopRate * share / 2)));
    const double closed_ref_s = to_ref_s(closed.wall_s, probe);
    out.queued += reg.counter("server.sessions_queued").value() - queued0;
    out.rejected += reg.counter("server.sessions_rejected").value() - rejected0;
    srv.stop();  // folds the engine's per-worker counters into stats()
    out.stats.add(srv.runtime().stats());

    out.open_p50.push_back(median(open.latency_s));
    out.open_p99.push_back(percentile(open.latency_s, 0.99));
    auto& o = out.open;
    o.latency_s.insert(o.latency_s.end(), open.latency_s.begin(), open.latency_s.end());
    o.internal_s.insert(o.internal_s.end(), open.internal_s.begin(), open.internal_s.end());
    o.late_s.insert(o.late_s.end(), open.late_s.begin(), open.late_s.end());
    out.closed_rate.push_back(static_cast<double>(closed.sessions) / closed_ref_s);
    out.closed_tasks_rate.push_back(static_cast<double>(closed.tasks) / closed_ref_s);
    out.unscaled_closed_rate.push_back(static_cast<double>(closed.sessions) /
                                       closed.wall_s);
    out.probes.push_back(probe);
    out.closed_drain_s.push_back(
        static_cast<double>(closed.last_done_ns - closed.last_submit_ns) * 1e-9);
    out.closed_ns_per_task.push_back(closed.wall_s * 1e9 /
                                     static_cast<double>(closed.tasks));
    out.sessions += open.sessions + closed.sessions;
    out.tasks += open.tasks + closed.tasks;
  }
  if (r.failed != 0) r.correct = false;
  return out;
}

}  // namespace

Result run_churn_server(const Options& opt) {
  Result r;
  const OneCpu pin;
  std::mt19937_64 rng(opt.seed);
  jade::RuntimeConfig rt_cfg;
  rt_cfg.engine = jade::EngineKind::kThread;
  rt_cfg.threads = opt.cores;

  const double serial_s = serial_reference(r);
  const jade::RuntimeStats sim_stats = sim_window(opt.tiny ? 8 : kWindow, r);
  std::vector<double> setups;

  if (!opt.trace) {
    const Served s = serve(rt_cfg, opt.seconds, rng, r, setups);
    r.metrics["sessions_per_s"] = median(s.closed_rate);
    r.metrics["tasks_per_s"] = median(s.closed_tasks_rate);
    // Sub-millisecond sessions feel every time the host deschedules the
    // generator or the server's threads, and that varies from server to
    // server; the median over the run's servers of each server's own
    // percentile keeps the figures steady from run to run.
    r.metrics["session_p50_s"] = median(s.open_p50);
    r.samples["session_p50_s"] = s.open.latency_s.size();
    r.samples["servers"] = s.open_p50.size();
    r.metrics["makespan_vs"] = sim_stats.finish_time;
    r.metrics["setup_s"] = median(setups);
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    r.notes["probe_s"] = median(s.probes);
    r.notes["unscaled_sessions_per_s"] = median(s.unscaled_closed_rate);
    r.notes["unscaled_setup_s"] = median(s.unscaled_setups);
    return r;
  }

  const Served plain = serve(rt_cfg, opt.seconds / 2, rng, r, setups);
  spans().enable();
  Served s = serve(rt_cfg, opt.seconds / 2, rng, r, setups);
  const std::vector<Span> all = spans().collect();
  s.stats.programs = static_cast<double>(s.sessions);  // engine counters per session
  put_spine_layers(all, s.stats, r);
  const double tasks_per_session =
      static_cast<double>(s.tasks) / static_cast<double>(s.sessions);
  r.metrics["engine.spawn_share"] = r.metrics["engine.spawn_ns"] * tasks_per_session *
                                    1e-9 / median(s.open.internal_s);
  r.metrics["engine.drain_s"] = median(s.closed_drain_s);
  r.metrics["sim.run_ns_per_task"] = median(s.closed_ns_per_task);
  const std::vector<double> opens = durations_ns(all, "open");
  r.metrics["server.open_ns_p99"] = percentile(opens, 0.99);
  r.samples["server.open_ns_p99"] = opens.size();
  r.metrics["server.submit_ns"] = mean(durations_ns(all, "submit"));
  r.metrics["server.close_ns"] = mean(durations_ns(all, "close"));
  r.metrics["server.internal_latency_p50_s"] = median(s.open.internal_s);
  r.metrics["server.internal_latency_p99_s"] = percentile(s.open.internal_s, 0.99);
  r.metrics["server.queued"] = static_cast<double>(s.queued);
  r.metrics["server.rejected"] = static_cast<double>(s.rejected);
  r.metrics["gen.late_s_p99"] = percentile(s.open.late_s, 0.99);
  r.samples["gen.late_s_p99"] = s.open.late_s.size();
  r.metrics["apps.serial_s"] = serial_s;
  r.metrics["sim.machine_util"] = machine_util(sim_stats);
  r.metrics["session_p99_s"] = median(plain.open_p99);
  r.samples["session_p99_s"] = plain.open.latency_s.size();
  r.samples["servers"] = plain.open_p99.size();
  r.samples["session_p99_s.beyond"] =
      samples_beyond(plain.open.latency_s.size() / plain.open_p99.size(), 0.99);
  r.metrics["trace.overhead_frac"] =
      overhead_frac(median(plain.closed_tasks_rate), median(s.closed_tasks_rate));
  return r;
}

}  // namespace jadebench
