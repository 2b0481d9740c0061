// Stress and property tests for the discrete-event kernel: heavy process
// churn (fiber stacks handed back to the pool and reused), randomized timer
// programs checked against a host-side model, producer/consumer chains
// through park/resume, Simulation::abort, and what a fiber must keep across
// a park (deep stacks, exceptions being handled).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "jade/sim/simulation.hpp"
#include "jade/support/rng.hpp"

namespace jade {
namespace {

TEST(SimStress, ThousandsOfShortLivedProcesses) {
  // One process per "task", like SimEngine under a large program; finished
  // processes hand their stacks back for the next ones to reuse.
  Simulation sim;
  int completed = 0;
  for (int i = 0; i < 5000; ++i) {
    sim.spawn_at(i * 1e-6, "p" + std::to_string(i), [&sim, &completed] {
      sim.advance(5e-6);
      ++completed;
    });
  }
  sim.run();
  EXPECT_EQ(completed, 5000);
  EXPECT_NEAR(sim.now(), 5000 * 1e-6 + 4e-6, 1e-9);
}

TEST(SimStress, RandomTimerProgramMatchesModel) {
  // Processes advance by random delays; the wake sequence must equal the
  // host-computed sorted (time, spawn-order) sequence.
  for (std::uint64_t seed : {1ull, 9ull, 77ull}) {
    Rng rng(seed);
    const int procs = 40;
    const int hops = 8;
    // Model: absolute wake times per process.
    std::vector<std::vector<double>> wakes(procs);
    for (int p = 0; p < procs; ++p) {
      double t = 0;
      for (int h = 0; h < hops; ++h) {
        t += 1e-3 * static_cast<double>(1 + rng.next_below(1000));
        wakes[p].push_back(t);
      }
    }
    std::vector<std::pair<double, int>> expected;
    for (int p = 0; p < procs; ++p)
      for (double t : wakes[p]) expected.push_back({t, p});
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    Simulation sim;
    std::vector<std::pair<double, int>> observed;
    for (int p = 0; p < procs; ++p) {
      sim.spawn("p" + std::to_string(p), [&sim, &observed, &wakes, p] {
        double prev = 0;
        for (double t : wakes[p]) {
          sim.advance(t - prev);
          prev = t;
          observed.push_back({sim.now(), p});
        }
      });
    }
    sim.run();
    ASSERT_EQ(observed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(observed[i].first, expected[i].first) << i;
      // Ties: identical wake times fire in schedule order, which for equal
      // times equals spawn order here.
      if (observed[i].first != expected[i].first) break;
    }
  }
}

TEST(SimStress, PingPongParkResumeChain) {
  // Two processes hand control back and forth 500 times through the
  // park/resume protocol (the same mechanism SimEngine tasks block with).
  Simulation sim;
  int pongs = 0;
  const int rounds = 500;
  Process* ping = nullptr;
  Process* pong = nullptr;
  pong = sim.spawn("pong", [&] {
    for (int r = 0; r < rounds; ++r) {
      sim.park();  // wait for ping
      ++pongs;
      sim.resume(ping);
    }
  });
  ping = sim.spawn("ping", [&] {
    for (int r = 0; r < rounds; ++r) {
      sim.resume(pong);  // pong spawned first and is parked
      sim.park();        // wait for the reply
    }
  });
  sim.run();
  EXPECT_EQ(pongs, rounds);
}

TEST(SimStress, InterleavedEventsAndProcesses) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(0.5, [&] { order.push_back(-1); });
  sim.schedule(1.5, [&] { order.push_back(-2); });
  sim.spawn("p", [&] {
    order.push_back(1);
    sim.advance(1.0);
    order.push_back(2);
    sim.advance(1.0);
    order.push_back(3);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, -1, 2, -2, 3}));
}

TEST(SimStress, DeterministicAcrossRepetitions) {
  auto run_once = [] {
    Simulation sim;
    Rng rng(404);
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      const double delay = 1e-4 * static_cast<double>(rng.next_below(50));
      sim.spawn("p" + std::to_string(i), [&sim, &order, delay, i] {
        sim.advance(delay);
        order.push_back(i);
        sim.advance(delay);
        order.push_back(100 + i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimStress, AbortParkedProcessUnwindsItsStack) {
  // Killed from a plain event and from another process (whose fiber then
  // switches straight to the victim's): either way the victim's RAII
  // destructors run at once on its own stack, and the resume it was owed
  // becomes a no-op instead of a stale-resume error.
  for (bool from_process : {false, true}) {
    Simulation sim;
    struct Guard {
      bool* destroyed;
      ~Guard() { *destroyed = true; }
    };
    bool destroyed = false;
    bool ran_past_park = false;
    Process* victim = sim.spawn("victim", [&] {
      Guard guard{&destroyed};
      sim.advance(10.0);  // owed resume at t = 10
      ran_past_park = true;
    });
    auto kill = [&] {
      ASSERT_EQ(victim->state(), Process::State::kParked);
      sim.abort(victim);
      EXPECT_TRUE(destroyed);
      EXPECT_EQ(victim->state(), Process::State::kDone);
    };
    if (from_process) {
      sim.spawn_at(1.0, "killer", kill);
    } else {
      sim.schedule(1.0, kill);
    }
    sim.run();
    EXPECT_TRUE(destroyed);
    EXPECT_FALSE(ran_past_park);
    EXPECT_TRUE(victim->abandoned());
    EXPECT_EQ(sim.parked_count(), 0u);
    EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // the owed event fired, as a no-op
  }
}

TEST(SimStress, AbortCreatedProcessNeverStarts) {
  Simulation sim;
  bool started = false;
  Process* late = sim.spawn_at(5.0, "late", [&] { started = true; });
  sim.schedule(1.0, [&] { sim.abort(late); });
  sim.run();
  EXPECT_FALSE(started);
  EXPECT_TRUE(late->abandoned());
  EXPECT_EQ(late->state(), Process::State::kCreated);
  EXPECT_EQ(sim.parked_count(), 0u);
}

/// Recurses `depth` frames, parks at the bottom, and on the way back up
/// checks that every frame's locals survived the switches.
bool recurse_and_park(Simulation& sim, int depth, int salt) {
  volatile int frame[8];
  for (auto& v : frame) v = depth * 31 + salt;
  bool intact = true;
  if (depth == 0) {
    sim.advance(1.0);
  } else {
    intact = recurse_and_park(sim, depth - 1, salt);
  }
  for (const auto& v : frame) intact = intact && v == depth * 31 + salt;
  return intact;
}

TEST(SimStress, DeepStacksParkAndResumeIntact) {
  // Two processes park under ~2 000 frames each, interleaved, so both deep
  // stacks are live at once; this guards the fiber stack size.
  Simulation sim;
  bool intact[2] = {false, false};
  for (int i = 0; i < 2; ++i) {
    sim.spawn("deep" + std::to_string(i), [&sim, &intact, i] {
      intact[i] = recurse_and_park(sim, 2000, i);
    });
  }
  sim.run();
  EXPECT_TRUE(intact[0]);
  EXPECT_TRUE(intact[1]);
}

TEST(SimStress, ParkInsideCatchHandlerKeepsItsException) {
  // Each process parks while handling its own exception, and the other one
  // throws and catches in between; a rethrow after the park must still see
  // the process's own exception.
  Simulation sim;
  std::vector<std::string> seen;
  for (int i = 0; i < 2; ++i) {
    sim.spawn("p" + std::to_string(i), [&sim, &seen, i] {
      try {
        try {
          throw std::runtime_error("e" + std::to_string(i));
        } catch (const std::runtime_error&) {
          sim.advance(1.0 + i);
          throw;
        }
      } catch (const std::runtime_error& e) {
        seen.push_back(e.what());
      }
    });
  }
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"e0", "e1"}));
}

}  // namespace
}  // namespace jade
