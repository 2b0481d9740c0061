// SimEngine-specific tests: virtual time, object motion (move/copy/
// invalidate), heterogeneous conversion, locality, latency hiding, speed
// scaling — the mechanisms of the paper's Sections 3.3 and 5.
#include <gtest/gtest.h>

#include <algorithm>

#include "jade/core/runtime.hpp"
#include "jade/engine/sim_engine.hpp"
#include "jade/mach/presets.hpp"
#include "os_threads.hpp"

namespace jade {
namespace {

RuntimeConfig sim_config(ClusterConfig cluster, SchedPolicy sched = {}) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = std::move(cluster);
  cfg.sched = sched;
  return cfg;
}

TEST(SimEngineTime, ChargeAdvancesVirtualClockByMachineSpeed) {
  auto cluster = presets::ideal(1);
  cluster.machines[0].ops_per_second = 1e6;
  cluster.task_dispatch_overhead = 0;
  cluster.task_create_overhead = 0;
  Runtime rt(sim_config(cluster));
  auto v = rt.alloc<int>(1);
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.wr(v); },
                 [v](TaskContext& t) {
                   t.charge(2e6);  // 2 seconds at 1e6 ops/s
                   t.write(v)[0] = 1;
                 });
  });
  EXPECT_NEAR(rt.sim_duration(), 2.0, 1e-6);
}

TEST(SimEngineTime, FasterMachineFinishesSooner) {
  auto run_at = [](double ops) {
    auto cluster = presets::ideal(1);
    cluster.machines[0].ops_per_second = ops;
    Runtime rt(sim_config(cluster));
    auto v = rt.alloc<int>(1);
    rt.run([&](TaskContext& ctx) {
      ctx.withonly([&](AccessDecl& d) { d.wr(v); },
                   [v](TaskContext& t) {
                     t.charge(1e7);
                     t.write(v)[0] = 1;
                   });
    });
    return rt.sim_duration();
  };
  EXPECT_GT(run_at(1e6), 2.0 * run_at(1e7));
}

TEST(SimEngineTime, IndependentTasksOverlapAcrossMachines) {
  auto make = [](int machines) {
    auto cluster = presets::ideal(machines);
    cluster.task_dispatch_overhead = 0;
    cluster.task_create_overhead = 0;
    return cluster;
  };
  auto elapsed = [&](int machines) {
    Runtime rt(sim_config(make(machines)));
    std::vector<SharedRef<int>> objs;
    for (int i = 0; i < 8; ++i) objs.push_back(rt.alloc<int>(1));
    rt.run([&](TaskContext& ctx) {
      for (auto o : objs) {
        ctx.withonly([&](AccessDecl& d) { d.wr(o); },
                     [o](TaskContext& t) {
                       t.charge(1e7);  // 1 second each
                       t.write(o)[0] = 1;
                     });
      }
    });
    return rt.sim_duration();
  };
  const double t1 = elapsed(1);
  const double t8 = elapsed(8);
  EXPECT_NEAR(t1, 8.0, 0.2);
  EXPECT_LT(t8, t1 / 4.0);  // near-linear speedup for independent work
}

TEST(SimEngineMotion, WriteMovesObjectReadCopies) {
  auto cluster = presets::ideal(2);
  Runtime rt(sim_config(cluster));
  auto* eng = dynamic_cast<SimEngine*>(&rt.engine());
  ASSERT_NE(eng, nullptr);
  auto v = rt.alloc<double>(64, "v", /*home=*/0);
  // One writer (forced to machine 1) then two readers (one per machine).
  rt.run([&](TaskContext& ctx) {
    ctx.withonly_on(1, [&](AccessDecl& d) { d.rd_wr(v); },
                    [v](TaskContext& t) { t.read_write(v)[0] = 5.0; });
    ctx.withonly_on(0, [&](AccessDecl& d) { d.rd(v); },
                    [v](TaskContext& t) { (void)t.read(v)[0]; });
  });
  // The write moved v to machine 1; the read replicated it back to 0.
  EXPECT_EQ(rt.stats().object_moves, 1u);
  EXPECT_GE(rt.stats().object_copies, 1u);
  EXPECT_TRUE(eng->directory().present(v.id(), 0));
  EXPECT_TRUE(eng->directory().present(v.id(), 1));
  EXPECT_EQ(eng->directory().owner(v.id()), 1);
}

TEST(SimEngineMotion, WriterInvalidatesReplicas) {
  auto cluster = presets::ideal(3);
  Runtime rt(sim_config(cluster));
  auto* eng = dynamic_cast<SimEngine*>(&rt.engine());
  auto v = rt.alloc<double>(16, "v", 0);
  rt.run([&](TaskContext& ctx) {
    // Readers on machines 1 and 2 create replicas.
    for (MachineId m : {1, 2}) {
      ctx.withonly_on(m, [&](AccessDecl& d) { d.rd(v); },
                      [v](TaskContext& t) { (void)t.read(v)[0]; });
    }
    // Then a writer on machine 0 invalidates them.
    ctx.withonly_on(0, [&](AccessDecl& d) { d.rd_wr(v); },
                    [v](TaskContext& t) { t.read_write(v)[0] = 1.0; });
  });
  EXPECT_EQ(rt.stats().invalidations, 2u);
  EXPECT_FALSE(eng->directory().present(v.id(), 1));
  EXPECT_FALSE(eng->directory().present(v.id(), 2));
  EXPECT_TRUE(eng->directory().present(v.id(), 0));
}

TEST(SimEngineMotion, SharedMemoryPlatformMovesNothing) {
  Runtime rt(sim_config(presets::dash(4)));
  auto v = rt.alloc<double>(256, "v");
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < 8; ++i) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                   [v](TaskContext& t) { t.read_write(v)[0] += 1.0; });
    }
  });
  EXPECT_EQ(rt.stats().messages, 0u);
  EXPECT_EQ(rt.stats().object_moves, 0u);
  EXPECT_EQ(rt.stats().object_copies, 0u);
  EXPECT_DOUBLE_EQ(rt.get(v)[0], 8.0);
}

TEST(SimEngineHetero, MixedEndianTransfersConvert) {
  // hetero_workstations alternates little- and big-endian machines; moving
  // doubles between them must run the format conversion.
  Runtime rt(sim_config(presets::hetero_workstations(2)));
  auto v = rt.alloc<double>(32, "v", /*home=*/0);  // on little-endian mips0
  rt.run([&](TaskContext& ctx) {
    ctx.withonly_on(1, [&](AccessDecl& d) { d.rd_wr(v); },
                    [v](TaskContext& t) {
                      auto h = t.read_write(v);
                      for (std::size_t i = 0; i < h.size(); ++i)
                        h[i] = static_cast<double>(i) + 0.25;
                    });
  });
  EXPECT_EQ(rt.stats().scalars_converted, 32u);
  // Values survive the conversion round-trip intact.
  const auto out = rt.get(v);
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) + 0.25);
}

TEST(SimEngineHetero, SameEndianTransfersDoNotConvert) {
  Runtime rt(sim_config(presets::ipsc860(2)));  // homogeneous
  auto v = rt.alloc<double>(32, "v", 0);
  rt.run([&](TaskContext& ctx) {
    ctx.withonly_on(1, [&](AccessDecl& d) { d.rd_wr(v); },
                    [v](TaskContext& t) { t.read_write(v)[0] = 1.0; });
  });
  EXPECT_EQ(rt.stats().scalars_converted, 0u);
  EXPECT_GE(rt.stats().object_moves, 1u);
}

TEST(SimEngineSched, LocalityKeepsTaskNearItsData) {
  auto cluster = presets::ideal(4);
  SchedPolicy sched;
  sched.locality = true;
  Runtime rt(sim_config(cluster, sched));
  auto big = rt.alloc<double>(4096, "big", /*home=*/2);
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(big); },
                 [big](TaskContext& t) {
                   t.read_write(big)[0] = 1.0;
                 });
  });
  // With the root busy on machine 0 and 4 KB of data on machine 2, the
  // locality heuristic sends the task to machine 2 — no object motion.
  EXPECT_EQ(rt.stats().object_moves, 0u);
}

TEST(SimEngineSched, PlacementPinsTask) {
  Runtime rt(sim_config(presets::ideal(4)));
  auto v = rt.alloc<int>(4, "v", 3);
  MachineId observed = -1;
  rt.run([&](TaskContext& ctx) {
    ctx.withonly_on(2, [&](AccessDecl& d) { d.rd_wr(v); },
                    [v, &observed](TaskContext& t) {
                      observed = t.machine();
                      t.read_write(v)[0] = 1;
                    });
  });
  EXPECT_EQ(observed, 2);
  EXPECT_EQ(rt.stats().object_moves, 1u);  // v had to come to machine 2
}

TEST(SimEngineSched, LatencyHidingOverlapsFetchWithExecution) {
  // One slow remote fetch + independent compute tasks: with 2 contexts per
  // machine the fetch overlaps computation; with 1 it still must not
  // serialize other machines.  Compare 2-context vs 1-context finish times
  // on a single-machine-pair cluster.
  auto make_cluster = [] {
    auto c = presets::ideal(2);
    c.ideal.latency = 0.5;  // very slow network
    c.ideal.bytes_per_second = 1e9;
    c.task_dispatch_overhead = 0;
    c.task_create_overhead = 0;
    return c;
  };
  auto elapsed = [&](int contexts) {
    SchedPolicy sched;
    sched.contexts_per_machine = contexts;
    Runtime rt(sim_config(make_cluster(), sched));
    auto remote = rt.alloc<double>(8, "remote", 1);
    auto local0 = rt.alloc<double>(8, "l0", 0);
    auto local1 = rt.alloc<double>(8, "l1", 0);
    rt.run([&](TaskContext& ctx) {
      // Fetch-bound task pinned to machine 0 (data on machine 1).
      ctx.withonly_on(0, [&](AccessDecl& d) { d.rd(remote); },
                      [remote](TaskContext& t) { (void)t.read(remote)[0]; });
      // Compute-bound tasks for machine 0.
      for (auto o : {local0, local1}) {
        ctx.withonly_on(0, [&](AccessDecl& d) { d.rd_wr(o); },
                        [o](TaskContext& t) {
                          t.charge(1e6);  // 0.1 s at 1e7 ops/s
                          t.read_write(o)[0] = 1.0;
                        });
      }
    });
    return rt.sim_duration();
  };
  const double with_hiding = elapsed(2);
  const double without = elapsed(1);
  EXPECT_LT(with_hiding, without);
}

TEST(SimEngineStats, BusySecondsAndMigrationsTracked) {
  Runtime rt(sim_config(presets::ideal(2)));
  std::vector<SharedRef<int>> objs;
  for (int i = 0; i < 6; ++i) objs.push_back(rt.alloc<int>(1));
  rt.run([&](TaskContext& ctx) {
    for (auto o : objs)
      ctx.withonly([&](AccessDecl& d) { d.wr(o); },
                   [o](TaskContext& t) {
                     t.charge(1e6);
                     t.write(o)[0] = 1;
                   });
  });
  ASSERT_EQ(rt.stats().machine_busy_seconds.size(), 2u);
  EXPECT_GT(rt.stats().machine_busy_seconds[0], 0.0);
  EXPECT_GT(rt.stats().machine_busy_seconds[1], 0.0);
  EXPECT_GT(rt.stats().tasks_migrated, 0u);
  EXPECT_GT(rt.sim_duration(), 0.0);
}

TEST(SimEngineDeterminism, IdenticalRunsProduceIdenticalVirtualTimes) {
  auto run_once = [] {
    Runtime rt(sim_config(presets::mica(4)));
    auto v = rt.alloc<double>(128, "v");
    std::vector<SharedRef<double>> parts;
    for (int i = 0; i < 8; ++i) parts.push_back(rt.alloc<double>(64));
    rt.run([&](TaskContext& ctx) {
      for (auto p : parts) {
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(p); },
                     [p](TaskContext& t) {
                       t.charge(5e5);
                       t.read_write(p)[0] += 1.0;
                     });
      }
      ctx.withonly(
          [&](AccessDecl& d) {
            d.rd_wr(v);
            for (auto p : parts) d.rd(p);
          },
          [v, parts](TaskContext& t) {
            double s = 0;
            for (auto p : parts) s += t.read(p)[0];
            t.read_write(v)[0] = s;
          });
    });
    return rt.sim_duration();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(SimEngineConfig, RejectsBadContexts) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::ideal(2);
  cfg.sched.contexts_per_machine = 0;
  EXPECT_THROW(Runtime rt(cfg), ConfigError);
}

TEST(SimEngineFibers, WholeRunOccupiesOneOsThread) {
  // Every task parks mid-body: it fetches objects from other workstations
  // and converts a deferred read with a with-continuation that waits for
  // the other chain's writer.  Parked tasks hold fiber stacks, not threads,
  // so the count taken inside every body equals the count before run().
  Runtime rt(sim_config(presets::hetero_workstations(4)));
  constexpr int kChains = 8;
  constexpr int kLinks = 256;
  std::vector<SharedRef<double>> objs;
  for (int c = 0; c < kChains; ++c) objs.push_back(rt.alloc<double>(4));
  const int before = os_threads();
  int fewest = before;
  int most = 0;
  int ran = 0;
  rt.run([&](TaskContext& ctx) {
    for (int link = 0; link < kLinks; ++link) {
      for (int c = 0; c < kChains; ++c) {
        const auto own = objs[c];
        const auto other = objs[(c + 1) % kChains];
        ctx.withonly(
            [&](AccessDecl& d) {
              d.rd_wr(own);
              d.df_rd(other);
            },
            [&, own, other](TaskContext& t) {
              t.charge(1e3);
              t.with_cont([&](AccessDecl& d) { d.rd(other); });
              t.write(own)[0] += t.read(other)[0] + 1.0;
              const int now = os_threads();
              fewest = std::min(fewest, now);
              most = std::max(most, now);
              ++ran;
            });
      }
    }
  });
  EXPECT_EQ(ran, kChains * kLinks);
  EXPECT_EQ(fewest, before);
  EXPECT_EQ(most, before);
}

}  // namespace
}  // namespace jade
