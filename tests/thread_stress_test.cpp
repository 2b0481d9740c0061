// ThreadEngine-specific concurrency tests: the sharded buffer table, the
// determinism contract under real parallelism (results must equal the
// SerialEngine's bit-for-bit, also with many tasks creating children into
// shared queues at once), the throttle deadlock-escape, and
// compensating-worker growth: when every pool thread is blocked, and its
// absence when commuters merely queue behind a running token holder; and
// the creator never touching a task that completed and was recycled before
// its spawn returned.
//
// The scheduling tests are built so the interesting path is *forced*, not
// raced into: the throttle test constructs a graph whose backlog cannot
// drain until the creator gives up, and the compensating test blocks the
// only pool worker on a child that no existing thread can run.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/engine/buffer_table.hpp"
#include "jade/engine/thread_engine.hpp"

namespace jade {
namespace {

TEST(BufferTable, CreatePutGetRoundtrip) {
  BufferTable bt;
  std::byte* p = bt.create(7, 16);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(bt.size(7), 16u);
  EXPECT_EQ(bt.data(7), p);
  // New buffers are zero-filled.
  for (std::byte b : bt.get(7)) EXPECT_EQ(b, std::byte{0});
  std::vector<std::byte> v(16);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<std::byte>(i * 3 + 1);
  bt.put(7, v);
  EXPECT_EQ(bt.get(7), v);
}

TEST(BufferTable, PointersStayStableAcrossManyCreates) {
  // acquire_bytes hands out raw pointers that tasks hold with no lock; any
  // rehash/move of the backing storage would invalidate them.
  BufferTable bt;
  constexpr ObjectId kObjects = 1000;
  std::vector<std::byte*> ptrs;
  for (ObjectId id = 0; id < kObjects; ++id) ptrs.push_back(bt.create(id, 8));
  for (ObjectId id = 0; id < kObjects; ++id) {
    EXPECT_EQ(bt.data(id), ptrs[id]);
    EXPECT_EQ(bt.size(id), 8u);
  }
}

// Chains of read-write tasks interleaved with commuting accumulations: the
// per-object chains are order-determined by the serial elaboration, and the
// commute sum is order-free, so every engine and worker count must produce
// the SerialEngine's exact result.
TEST(ThreadStress, ChainsAndCommutersMatchSerialExactly) {
  constexpr int kTasks = 400;
  constexpr int kObjects = 8;
  auto run = [&](EngineKind kind, int threads) {
    RuntimeConfig cfg;
    cfg.engine = kind;
    cfg.threads = threads;
    Runtime rt(std::move(cfg));
    std::vector<SharedRef<std::uint64_t>> objs;
    for (int i = 0; i < kObjects; ++i)
      objs.push_back(rt.alloc<std::uint64_t>(1));
    auto acc = rt.alloc<std::uint64_t>(1, "acc");
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < kTasks; ++i) {
        auto o = objs[static_cast<std::size_t>(i % kObjects)];
        ctx.withonly(
            [&](AccessDecl& d) {
              d.rd_wr(o);
              d.cm(acc);
            },
            [o, acc, i](TaskContext& t) {
              auto h = t.read_write(o);
              h[0] = h[0] * 3 + static_cast<std::uint64_t>(i);
              t.commute(acc)[0] += h[0];
            });
      }
    });
    std::vector<std::uint64_t> out;
    for (auto& o : objs) out.push_back(rt.get(o)[0]);
    out.push_back(rt.get(acc)[0]);
    return out;
  };
  const auto serial = run(EngineKind::kSerial, 1);
  for (int workers : {1, 2, 8})
    EXPECT_EQ(run(EngineKind::kThread, workers), serial)
        << "workers=" << workers;
}

// Concurrent creators: sixteen parents run at once on eight workers, each
// linking children into the same shared queues while others retire and
// convert records there.  Every parent reads two shared objects, owns one,
// and holds a deferred write on a shared accumulator; its children declare
// two objects each.  The parent then converts the accumulator (waiting for
// earlier parents), reads its own object (waiting for its children) and
// retires one shared read early, which lets the root's later writer of that
// object in.  Every seed must give the SerialEngine's bytes.
TEST(ThreadStress, ConcurrentCreatorsMatchSerial) {
  static constexpr int kParents = 16;
  static constexpr int kChildren = 12;
  using Word = std::uint64_t;
  auto run = [&](EngineKind kind, std::uint64_t seed) {
    RuntimeConfig cfg;
    cfg.engine = kind;
    cfg.threads = 8;
    Runtime rt(std::move(cfg));
    std::mt19937_64 rng(seed);
    const Word init[2] = {rng() % 100, rng() % 100};
    std::array<SharedRef<Word>, 2> shared = {
        rt.alloc_init<Word>(std::span<const Word>(&init[0], 1), "s0"),
        rt.alloc_init<Word>(std::span<const Word>(&init[1], 1), "s1")};
    auto acc = rt.alloc<Word>(kParents + 1, "acc");
    std::vector<SharedRef<Word>> own;
    for (int p = 0; p < kParents; ++p) {
      const Word v = rng() % 100;
      own.push_back(rt.alloc_init<Word>(std::span<const Word>(&v, 1)));
    }
    std::vector<Word> inc(kParents * kChildren);
    for (Word& v : inc) v = rng() % 1000;
    rt.run([&](TaskContext& ctx) {
      for (int p = 0; p < kParents; ++p) {
        const SharedRef<Word> mine = own[static_cast<std::size_t>(p)];
        const Word* incs = &inc[static_cast<std::size_t>(p * kChildren)];
        ctx.withonly(
            [&](AccessDecl& d) {
              d.rd(shared[0]);
              d.rd(shared[1]);
              d.rd_wr(mine);
              d.df_wr(acc);
            },
            [shared, mine, acc, incs, p](TaskContext& t) {
              for (int j = 0; j < kChildren; ++j) {
                const SharedRef<Word> s =
                    shared[static_cast<std::size_t>(j % 2)];
                const Word k = incs[j];
                t.withonly(
                    [&](AccessDecl& d) {
                      d.rd(s);
                      d.rd_wr(mine);
                    },
                    [s, mine, k](TaskContext& c) {
                      auto m = c.read_write(mine);
                      m[0] = m[0] * 3 + c.read(s)[0] + k;
                    });
              }
              t.with_cont([&](AccessDecl& d) { d.wr(acc); });
              auto m = t.read_write(mine);
              m[0] = m[0] * 7 + 1;
              t.with_cont([&](AccessDecl& d) { d.no_rd(shared[0]); });
              m[0] += t.read(shared[1])[0];
              auto a = t.write(acc);
              a[0] = m[0];
              a[static_cast<std::size_t>(p) + 1] = m[0];
            });
      }
      for (const SharedRef<Word>& s : shared) {
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(s); },
                     [s](TaskContext& t) { t.read_write(s)[0] *= 2; });
      }
    });
    std::vector<Word> out;
    for (const SharedRef<Word>& s : shared) out.push_back(rt.get(s)[0]);
    for (Word v : rt.get(acc)) out.push_back(v);
    for (const SharedRef<Word>& o : own) out.push_back(rt.get(o)[0]);
    return out;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    EXPECT_EQ(run(EngineKind::kThread, seed), run(EngineKind::kSerial, seed))
        << "seed=" << seed;
}

// Throttle give-up (the Section 3.3 deadlock escape): the root takes the
// accumulator's commute token, then creates children that all need it.  The
// first child starts and sleeps on the root's token; the rest queue behind
// the first child's write chain.  The backlog therefore CANNOT drain while
// the root sleeps in the throttle — every other thread ends up asleep with
// nothing ready, and the only legal exit is the creator giving up
// throttling and finishing its body (which releases the token).
TEST(ThreadStress, ThrottledCreatorGivesUpInsteadOfDeadlocking) {
  constexpr int kKids = 12;
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 2;
  cfg.sched.throttle.enabled = true;
  cfg.sched.throttle.high_water = 4;
  cfg.sched.throttle.low_water = 2;
  Runtime rt(std::move(cfg));
  auto acc = rt.alloc<std::uint64_t>(1, "acc");
  auto w = rt.alloc<std::uint64_t>(1, "w");
  rt.run([&](TaskContext& ctx) {
    // Legal root access: no created task holds a declaration on acc yet.
    // This takes the engine-level commute token, held until the body ends.
    ctx.commute(acc)[0] = 1;
    for (int i = 0; i < kKids; ++i) {
      ctx.withonly(
          [&](AccessDecl& d) {
            d.cm(acc);
            d.rd_wr(w);
          },
          [acc, w](TaskContext& t) {
            t.commute(acc)[0] += 1;
            t.read_write(w)[0] += 1;
          });
    }
  });
  EXPECT_EQ(rt.get(acc)[0], 1u + kKids);
  EXPECT_EQ(rt.get(w)[0], static_cast<std::uint64_t>(kKids));
  EXPECT_GE(rt.stats().throttle_suspensions, 1u);
  EXPECT_GE(rt.stats().throttle_giveups, 1u);
}

// Compensating workers: with a one-worker pool, that worker's task blocks on
// a child it created — a child no existing thread can run (the root is busy
// in its own body, the worker is the blocker).  The engine must grow the
// pool by a compensating worker rather than deadlock; inlining the child on
// the blocked worker's stack is not an option the engine may take (see
// ensure_spare_worker in the engine).
TEST(ThreadStress, BlockedWorkerSpawnsCompensatingWorker) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 1;
  Runtime rt(std::move(cfg));
  auto w = rt.alloc<std::uint64_t>(1, "w");
  std::atomic<bool> done{false};
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(w); },
                 [w, &done](TaskContext& t) {
                   // Child's record enqueues ahead of ours; accessing w now
                   // must block until the child retires it.
                   t.withonly([&](AccessDecl& d) { d.rd_wr(w); },
                              [w, &done](TaskContext& c) {
                                c.read_write(w)[0] = 42;
                                done.store(true, std::memory_order_release);
                              });
                   t.read_write(w)[0] += 1;
                 });
    // Keep the root thread out of the task-stealing pool until the child
    // ran: only a compensating worker can execute it.
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  EXPECT_EQ(rt.get(w)[0], 43u);
  EXPECT_GE(rt.stats().compensating_workers, 1u);
}

// Commute contention: every task commutes on one accumulator and holds its
// token for a few microseconds, so ready commuters pile up behind whichever
// task holds it.  The holder is running, not blocked — it returns the token
// unaided — so a waiter needs no compensating worker.  Starting one per
// waiter would grow the pool toward the number of ready commuters, past
// the engine's slot limit at ~10k tasks.
TEST(ThreadStress, CommuteContentionKeepsThreadsBounded) {
  constexpr int kTasks = 2000;
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 3;
  const int threads = cfg.threads;
  Runtime rt(std::move(cfg));
  auto acc = rt.alloc<std::uint64_t>(1, "acc");
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < kTasks; ++i) {
      ctx.withonly([&](AccessDecl& d) { d.cm(acc); },
                   [acc, i](TaskContext& t) {
                     auto h = t.commute(acc);
                     const auto until = std::chrono::steady_clock::now() +
                                        std::chrono::microseconds(5);
                     while (std::chrono::steady_clock::now() < until) {
                     }
                     h[0] += static_cast<std::uint64_t>(i) + 1;
                   });
    }
  });
  EXPECT_EQ(rt.get(acc)[0],
            static_cast<std::uint64_t>(kTasks) * (kTasks + 1) / 2);
  EXPECT_LE(rt.stats().compensating_workers,
            static_cast<std::uint64_t>(threads));
}

// Completed tasks go back to the serializer's pool at once, so a task that
// a worker steals, runs and completes before its creator's spawn has
// returned may already be a recycled node by then.  Nothing may read it
// after create_task: the tracer takes the id and name while the task cannot
// yet be enabled.  The timing is not forced (a throttled creator would
// grow compensating workers without bound), but TSan needs no overlap: a
// read after the deque push is unordered with the worker's release and is
// reported whenever the task completes.  Elsewhere it reads a blank node.
TEST(ThreadStress, TracedSpawnNeverReadsARecycledTask) {
  constexpr int kTasks = 50000;
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 4;
  cfg.obs.trace = true;
  Runtime rt(std::move(cfg));
  std::vector<std::atomic<bool>> ran(kTasks);
  int done_before_return = 0;
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < kTasks; ++i) {
      ctx.withonly([](AccessDecl&) {},
                   [&ran, i](TaskContext&) {
                     ran[static_cast<std::size_t>(i)].store(
                         true, std::memory_order_relaxed);
                   });
      if (ran[static_cast<std::size_t>(i)].load(std::memory_order_relaxed))
        ++done_before_return;
    }
  });
  RecordProperty("done_before_spawn_returned", done_before_return);
  std::vector<bool> created(kTasks + 1, false);
  for (const obs::TraceEvent& e : rt.trace_events()) {
    if (std::string_view(e.name) != "task.created") continue;
    ASSERT_GE(e.id, 1u);
    ASSERT_LE(e.id, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(e.detail, "task#" + std::to_string(e.id));
    created[e.id] = true;
  }
  for (int i = 1; i <= kTasks; ++i) ASSERT_TRUE(created[i]) << i;
  // Every node came back to the pool.
  auto& engine = dynamic_cast<ThreadEngine&>(rt.engine());
  EXPECT_EQ(engine.serializer().live_tasks(), 0u);
}

}  // namespace
}  // namespace jade
