// Tests of hierarchical concurrency (Section 4.4): nested withonly-do,
// coverage enforcement, and parent/child interleaving rules.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"

namespace jade {
namespace {

RuntimeConfig config_for(EngineKind kind, int machines = 4) {
  RuntimeConfig cfg;
  cfg.engine = kind;
  cfg.threads = machines;
  if (kind == EngineKind::kSim) cfg.cluster = presets::ideal(machines);
  return cfg;
}

class HierarchyTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(HierarchyTest, RecursiveTreeSum) {
  // Recursive pairwise accumulation: each level splits its leaf range and
  // delegates to children, the "fully recursive manner" of Section 4.4.
  // Every level accumulates into the same output via commuting updates,
  // covered down the chain by each parent's cm declaration.
  Runtime rt(config_for(GetParam()));
  constexpr int kLeaves = 8;
  std::vector<SharedRef<double>> leaves;
  for (int i = 0; i < kLeaves; ++i)
    leaves.push_back(rt.alloc<double>(1, "leaf" + std::to_string(i)));
  auto out = rt.alloc<double>(1, "out");

  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < kLeaves; ++i) {
      auto leaf = leaves[i];
      ctx.withonly([&](AccessDecl& d) { d.wr(leaf); },
                   [leaf, i](TaskContext& t) { t.write(leaf)[0] = i + 1; });
    }
    // Recursive splitter: declares rd on its leaf range and cm on out; at
    // size 1 it adds its leaf, otherwise it creates two covered children.
    struct Splitter {
      const std::vector<SharedRef<double>>* leaves;
      SharedRef<double> out;
      void operator()(TaskContext& t, int lo, int hi) const {
        if (hi - lo == 1) {
          t.commute(out)[0] += t.read((*leaves)[lo])[0];
          return;
        }
        const int mid = (lo + hi) / 2;
        for (auto [a, b] : {std::pair{lo, mid}, std::pair{mid, hi}}) {
          auto self = *this;
          t.withonly(
              [&](AccessDecl& d) {
                for (int i = a; i < b; ++i) d.rd((*leaves)[i]);
                d.cm(out);
              },
              [self, a, b](TaskContext& c) { self(c, a, b); });
        }
      }
    };
    Splitter splitter{&leaves, out};
    ctx.withonly(
        [&](AccessDecl& d) {
          for (auto& leaf : leaves) d.rd(leaf);
          d.cm(out);
        },
        [splitter](TaskContext& t) { splitter(t, 0, 8); });
  });
  EXPECT_DOUBLE_EQ(rt.get(out)[0], kLeaves * (kLeaves + 1) / 2.0);
}

TEST_P(HierarchyTest, ChildrenExecuteBeforeParentContinuation) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<std::int64_t>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) {
                   for (int i = 0; i < 3; ++i) {
                     t.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                                [v, i](TaskContext& c) {
                                  auto h = c.read_write(v);
                                  h[0] = h[0] * 10 + (i + 1);
                                });
                   }
                   // Parent's later access observes all three children in
                   // creation order: 0 -> 1 -> 12 -> 123.
                   auto h = t.read_write(v);
                   h[0] = h[0] * 10 + 9;
                 });
  });
  EXPECT_EQ(rt.get(v)[0], 1239);
}

TEST_P(HierarchyTest, GrandchildrenNest) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<std::int64_t>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) {
                   t.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                              [v](TaskContext& c) {
                                c.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                                           [v](TaskContext& g) {
                                             g.read_write(v)[0] += 1;
                                           });
                                auto h = c.read_write(v);
                                h[0] *= 3;
                              });
                   auto h = t.read_write(v);
                   h[0] += 100;
                 });
  });
  // Serial: v=0; grandchild +1 -> 1; child *3 -> 3; parent +100 -> 103.
  EXPECT_EQ(rt.get(v)[0], 103);
}

TEST_P(HierarchyTest, SiblingSubtreesOnDisjointDataRunIndependently) {
  Runtime rt(config_for(GetParam()));
  auto a = rt.alloc<double>(1, "a");
  auto b = rt.alloc<double>(1, "b");
  rt.run([&](TaskContext& ctx) {
    auto subtree = [](SharedRef<double> obj, double seed) {
      return [obj, seed](TaskContext& t) {
        for (int i = 0; i < 4; ++i) {
          t.withonly([&](AccessDecl& d) { d.rd_wr(obj); },
                     [obj, seed](TaskContext& c) {
                       c.read_write(obj)[0] += seed;
                     });
        }
      };
    };
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(a); }, subtree(a, 1.5));
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(b); }, subtree(b, 2.5));
  });
  EXPECT_DOUBLE_EQ(rt.get(a)[0], 6.0);
  EXPECT_DOUBLE_EQ(rt.get(b)[0], 10.0);
}

TEST_P(HierarchyTest, ParentCompletesWhileChildrenOutstanding) {
  // A parent that spawns children and returns immediately: the runtime must
  // keep the children's effects ordered before later root tasks.
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<std::int64_t>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) {
                   for (int i = 0; i < 5; ++i) {
                     t.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                                [v](TaskContext& c) {
                                  c.read_write(v)[0] += 1;
                                });
                   }
                   // parent returns without touching v again
                 });
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) { t.read_write(v)[0] *= 10; });
  });
  EXPECT_EQ(rt.get(v)[0], 50);
}

TEST_P(HierarchyTest, ChildInheritsDeferredCoverage) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<double>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.df_rd_wr(v); },
                 [v](TaskContext& t) {
                   // The parent never converts; the child does the work.
                   t.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                              [v](TaskContext& c) {
                                c.read_write(v)[0] = 4.25;
                              });
                 });
  });
  EXPECT_DOUBLE_EQ(rt.get(v)[0], 4.25);
}

TEST_P(HierarchyTest, CoverageViolationInGrandchild) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<double>(1, "v");
  EXPECT_THROW(
      rt.run([&](TaskContext& ctx) {
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                     [v](TaskContext& t) {
                       t.withonly([&](AccessDecl& d) { d.rd(v); },
                                  [v](TaskContext& c) {
                                    // grandchild escalates rd -> wr: error
                                    c.withonly(
                                        [&](AccessDecl& d) { d.wr(v); },
                                        [](TaskContext&) {});
                                  });
                     });
      }),
      HierarchyViolationError);
}

TEST_P(HierarchyTest, AccessBeforeAndAfterCreatingChildren) {
  // The access check skips the queue while no child of the task has linked
  // a record ahead of the task's own on that object.  A child on y leaves
  // x's check unaffected; a child on x makes the next access to x wait for
  // it, and the parent must see the child's write.
  Runtime rt(config_for(GetParam()));
  auto x = rt.alloc<std::int64_t>(1, "x");
  auto y = rt.alloc<std::int64_t>(1, "y");
  std::atomic<std::int64_t> seen{-1};
  rt.run([&](TaskContext& ctx) {
    ctx.withonly(
        [&](AccessDecl& d) {
          d.rd_wr(x);
          d.rd_wr(y);
        },
        [x, y, &seen](TaskContext& t) {
          t.read_write(x)[0] = 1;
          t.withonly([&](AccessDecl& d) { d.rd_wr(y); },
                     [y](TaskContext& c) { c.read_write(y)[0] += 10; });
          t.read_write(x)[0] += 1;  // x is not shadowed: no wait
          t.withonly([&](AccessDecl& d) { d.rd_wr(x); },
                     [x](TaskContext& c) { c.read_write(x)[0] *= 10; });
          const std::int64_t v = t.read(x)[0];  // waits for the child
          seen.store(v, std::memory_order_relaxed);
          t.read_write(x)[0] = v + 5;
        });
  });
  EXPECT_EQ(seen.load(), 20);
  EXPECT_EQ(rt.get(x)[0], 25);
  EXPECT_EQ(rt.get(y)[0], 10);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, HierarchyTest,
                         ::testing::Values(EngineKind::kSerial,
                                           EngineKind::kThread,
                                           EngineKind::kSim),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineKind::kSerial: return "Serial";
                             case EngineKind::kThread: return "Thread";
                             case EngineKind::kSim: return "Sim";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace jade
