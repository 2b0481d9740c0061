// ThreadEngine's wait paths.  A task that waits — for an unblock, a commute
// token or the throttle — parks its fiber and frees its OS thread, so a run
// uses exactly workers + 1 OS threads (the caller's and the pool's) however
// many tasks wait at once, and a resident server keeps a constant thread
// count however many sessions it serves.  A parked task may resume on
// another thread; everything it reaches through the engine afterwards
// (charge, commute tokens, machine_of, its trace span) must follow it.
#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string_view>
#include <thread>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/server/server.hpp"
#include "os_threads.hpp"

namespace jade {
namespace {

/// The calling OS thread.  Not pthread_self(): glibc declares
/// pthread_self() const, so the compiler may reuse a value it read before
/// the task parked and moved threads.
__attribute__((noinline)) long os_thread_id() { return syscall(SYS_gettid); }

// Every task starts at once (its right is deferred) and parks in its
// with-cont until all earlier tasks are done: at the peak nearly all 2 000
// wait together, on the same five threads.
TEST(ThreadWait, DeferredConversionChainRunsOnWorkersPlusOneThreads) {
  constexpr int kTasks = 2000;
  constexpr int kWorkers = 4;
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = kWorkers;
  Runtime rt(std::move(cfg));
  auto x = rt.alloc<std::uint64_t>(1, "x");
  ThreadHighWater threads;
  const int before = os_threads_at_rest();
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < kTasks; ++i) {
      ctx.withonly([&](AccessDecl& d) { d.df_rd_wr(x); },
                   [x, i, &threads](TaskContext& t) {
                     threads.sample();
                     t.with_cont([&](AccessDecl& d) { d.rd_wr(x); });
                     auto v = t.read_write(x);
                     v[0] = v[0] * 3 + static_cast<std::uint64_t>(i);
                     threads.sample();
                   });
    }
  });
  std::uint64_t want = 0;
  for (int i = 0; i < kTasks; ++i)
    want = want * 3 + static_cast<std::uint64_t>(i);
  EXPECT_EQ(rt.get(x)[0], want);
  EXPECT_EQ(threads.max(), before + kWorkers);
}

// Forced migration.  With two workers busy — S spins for the whole run and
// H holds the commute token on `acc` — the caller's thread runs A, which
// parks waiting for that token.  A's witness W then runs on A's old thread
// and keeps it busy until A is back, so when H completes and hands the
// token over, A can only resume on H's thread.  After the switch, A's
// charge, a second commute token, machine_of and its trace span must all
// follow it there.
TEST(ThreadWait, ParkedTaskResumesOnAnotherThread) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 2;
  cfg.obs.trace = true;
  Runtime rt(std::move(cfg));
  auto acc = rt.alloc<std::uint64_t>(1, "acc");
  auto acc2 = rt.alloc<std::uint64_t>(1, "acc2");
  std::atomic<bool> s_started{false}, h_has_token{false}, a_parked{false},
      a_resumed{false};
  long h_thread = 0, a_before = 0, a_after = 0;
  MachineId h_machine = -1, a_machine_before = -1, a_machine_after = -1;
  std::uint64_t a_id = 0;
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([](AccessDecl&) {},
                 [&](TaskContext&) {
                   s_started = true;
                   while (!a_resumed) std::this_thread::yield();
                 });
    while (!s_started) std::this_thread::yield();
    ctx.withonly([&](AccessDecl& d) { d.cm(acc); },
                 [&](TaskContext& t) {
                   t.commute(acc)[0] += 1;
                   h_thread = os_thread_id();
                   h_machine = t.machine();
                   h_has_token = true;
                   while (!a_parked) std::this_thread::yield();
                 });
    while (!h_has_token) std::this_thread::yield();
    ctx.withonly(
        [&](AccessDecl& d) {
          d.cm(acc);
          d.cm(acc2);
        },
        [&](TaskContext& t) {
          a_id = t.node()->id();
          a_before = os_thread_id();
          a_machine_before = t.machine();
          t.charge(1.0);
          t.withonly([](AccessDecl&) {},
                     [&](TaskContext&) {
                       if (os_thread_id() != a_before) return;
                       a_parked = true;
                       while (!a_resumed) std::this_thread::yield();
                     });
          t.commute(acc)[0] += 10;  // parks until H hands the token over
          a_after = os_thread_id();
          a_machine_after = t.machine();
          t.charge(2.0);
          t.commute(acc2)[0] += 100;
          a_resumed = true;
        });
    // The root's thread is free only from here on: it runs A.
  });
  EXPECT_EQ(a_machine_before, 0);  // the caller's thread reports machine 0
  EXPECT_EQ(a_after, h_thread);
  EXPECT_NE(a_after, a_before);
  EXPECT_EQ(a_machine_after, h_machine);
  EXPECT_EQ(rt.get(acc)[0], 11u);
  EXPECT_EQ(rt.get(acc2)[0], 100u);
  EXPECT_DOUBLE_EQ(rt.stats().total_charged_work, 3.0);
  // A's span opens and closes on the lane it began on.
  int begins = 0, ends = 0;
  for (const obs::TraceEvent& e : rt.trace_events()) {
    if (e.id != a_id || std::string_view(e.name) != "task") continue;
    EXPECT_EQ(e.machine, a_machine_before);
    begins += e.kind == obs::EventKind::kSpanBegin;
    ends += e.kind == obs::EventKind::kSpanEnd;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

// The throttle at its tightest: with both water marks at 0, nearly every
// creation closes the gate, and the creator parks until the task it made
// has started.  Each suspension sets the creator's stack aside; none may
// cost a thread.  Such a wait always clears on its own, so the run ends
// with the paper's escape forced: the root holds acc's commute token, P
// waits for it and B queues behind P, so the backlog cannot drain until
// the root gives up throttling and ends its body.
TEST(ThreadWait, TightThrottleRunsOnWorkersPlusOneThreads) {
  constexpr int kTasks = 50000;
  constexpr int kWorkers = 4;
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = kWorkers;
  cfg.sched.throttle.enabled = true;
  cfg.sched.throttle.high_water = 0;
  cfg.sched.throttle.low_water = 0;
  Runtime rt(std::move(cfg));
  auto acc = rt.alloc<std::uint64_t>(1, "acc");
  auto w = rt.alloc<std::uint64_t>(1, "w");
  std::atomic<int> ran{0};
  ThreadHighWater threads;
  const int before = os_threads_at_rest();
  rt.run([&](TaskContext& ctx) {
    ctx.commute(acc)[0] = 1;  // held until the root's body ends
    for (int i = 0; i < kTasks; ++i)
      ctx.withonly([](AccessDecl&) {},
                   [&](TaskContext&) {
                     threads.sample();
                     ran.fetch_add(1, std::memory_order_relaxed);
                   });
    ctx.withonly(  // P
        [&](AccessDecl& d) {
          d.cm(acc);
          d.rd_wr(w);
        },
        [&](TaskContext& t) {
          t.commute(acc)[0] += 1;
          t.read_write(w)[0] += 1;
          threads.sample();
        });
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(w); },  // B
                 [&](TaskContext& t) {
                   t.read_write(w)[0] += 1;
                   threads.sample();
                 });
  });
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(rt.get(acc)[0], 2u);
  EXPECT_EQ(rt.get(w)[0], 2u);
  EXPECT_GE(rt.stats().throttle_suspensions, 1u);
  EXPECT_GE(rt.stats().throttle_giveups, 1u);
  EXPECT_EQ(threads.max(), before + kWorkers);
}

// A resident server serving commuting sessions: every session's eight
// tasks queue for one commute token, so most of them park.  The server
// must serve them all on the threads it started with.
TEST(ThreadWait, ResidentServerServesCommutingSessionsOnConstantThreads) {
  constexpr int kSessions = 20000;
  constexpr std::size_t kWindow = 64;
  constexpr int kChildren = 8;
  constexpr int kCheckEvery = 1000;
  server::ServerConfig cfg;
  cfg.runtime.engine = EngineKind::kThread;
  cfg.runtime.threads = 3;
  cfg.admission.max_active_sessions = kWindow;
  server::JadeServer srv(cfg);
  struct Open {
    std::shared_ptr<server::Session> session;
    SharedRef<std::uint64_t> counter;
  };
  int failed = 0;
  const auto open = [&srv] {
    Open o{srv.open_session("s"), {}};
    o.counter = o.session->alloc<std::uint64_t>(1, "n");
    o.session->submit([c = o.counter](TaskContext& ctx) {
      for (int k = 0; k < kChildren; ++k)
        ctx.withonly([&](AccessDecl& d) { d.cm(c); },
                     [c](TaskContext& t) { t.commute(c)[0] += 1; });
    });
    return o;
  };
  const auto finish = [&failed](const Open& o) {
    if (o.session->wait() != server::SessionState::kCompleted ||
        o.session->get(o.counter)[0] != kChildren) {
      ++failed;
    }
    o.session->close();
  };
  // The engine's threads are all up once a first session has run.
  finish(open());
  const int threads_at_start = os_threads();
  std::deque<Open> live;
  for (int n = 2; n <= kSessions; ++n) {
    if (live.size() == kWindow) {
      finish(live.front());
      live.pop_front();
    }
    live.push_back(open());
    if (n % kCheckEvery == 0) {
      EXPECT_EQ(os_threads(), threads_at_start) << n;
    }
  }
  while (!live.empty()) {
    finish(live.front());
    live.pop_front();
  }
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(srv.metrics().counter("server.sessions_failed").value(), 0u);
  EXPECT_EQ(os_threads(), threads_at_start);
}

}  // namespace
}  // namespace jade
