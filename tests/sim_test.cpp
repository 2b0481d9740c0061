// Tests for the discrete-event kernel: event ordering, virtual time,
// cooperative processes, determinism and deadlock detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "jade/sim/event_queue.hpp"
#include "jade/sim/simulation.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeAndClear) {
  EventQueue q;
  q.schedule(2.5, [] {});
  q.schedule(1.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.5);
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(Simulation, EventsAdvanceClock) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.schedule(1.0, [&] { seen.push_back(sim.now()); });
  sim.schedule(2.0, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation sim;
  sim.schedule(5.0, [&] {
    EXPECT_THROW(sim.schedule(1.0, [] {}), InternalError);
  });
  sim.run();
}

TEST(Simulation, ProcessRunsAndAdvances) {
  Simulation sim;
  std::vector<SimTime> marks;
  sim.spawn("p", [&] {
    marks.push_back(sim.now());
    sim.advance(1.5);
    marks.push_back(sim.now());
    sim.advance(0.5);
    marks.push_back(sim.now());
  });
  sim.run();
  EXPECT_EQ(marks, (std::vector<SimTime>{0.0, 1.5, 2.0}));
}

TEST(Simulation, TwoProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("a", [&] {
    log.push_back("a0");
    sim.advance(2.0);
    log.push_back("a2");
  });
  sim.spawn("b", [&] {
    log.push_back("b0");
    sim.advance(1.0);
    log.push_back("b1");
    sim.advance(2.0);
    log.push_back("b3");
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "b1", "a2", "b3"}));
}

TEST(Simulation, ParkResumeHandshake) {
  Simulation sim;
  std::vector<std::string> log;
  Process* waiter = sim.spawn("waiter", [&] {
    log.push_back("wait");
    sim.park();
    log.push_back("woke at " + std::to_string(static_cast<int>(sim.now())));
  });
  sim.schedule(3.0, [&] { sim.resume(waiter); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"wait", "woke at 3"}));
}

TEST(Simulation, ProcessResumesAnotherProcess) {
  Simulation sim;
  std::vector<std::string> log;
  Process* consumer = sim.spawn("consumer", [&] {
    sim.park();
    log.push_back("consumed");
  });
  sim.spawn("producer", [&] {
    sim.advance(1.0);
    log.push_back("produced");
    sim.resume(consumer);
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"produced", "consumed"}));
}

TEST(Simulation, SpawnFromWithinProcess) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("parent", [&] {
    log.push_back("parent");
    sim.spawn("child", [&] { log.push_back("child"); });
    sim.advance(1.0);
    log.push_back("parent-later");
  });
  sim.run();
  EXPECT_EQ(log,
            (std::vector<std::string>{"parent", "child", "parent-later"}));
}

TEST(Simulation, SpawnAtFutureTime) {
  Simulation sim;
  SimTime started = -1;
  sim.spawn_at(4.0, "late", [&] { started = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(started, 4.0);
}

TEST(Simulation, StalledProcessesDetected) {
  Simulation sim;
  sim.spawn("stuck", [&] { sim.park(); });  // nobody will resume it
  EXPECT_THROW(sim.run(), InternalError);
}

TEST(Simulation, ExceptionInProcessPropagates) {
  Simulation sim;
  sim.spawn("bomb", [&] { throw std::runtime_error("bang"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, ExceptionTeardownUnwindsOtherProcesses) {
  Simulation sim;
  bool cleaned = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  sim.spawn("victim", [&] {
    Sentinel s{&cleaned};
    sim.park();  // never resumed; must unwind at destruction
  });
  sim.spawn("bomb", [&] {
    sim.advance(1.0);
    throw std::runtime_error("bang");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
  // Destructor of sim unwinds the parked process cooperatively.
}

TEST(Simulation, ManyProcessesDeterministicOrder) {
  auto run_once = [] {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.spawn("p" + std::to_string(i), [&sim, &order, i] {
        sim.advance((i % 7) * 0.25);
        order.push_back(i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, EventsExecutedCount) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, AdvanceZeroIsImmediateButYields) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("a", [&] {
    log.push_back("a-pre");
    sim.advance(0.0);
    log.push_back("a-post");
  });
  sim.spawn("b", [&] { log.push_back("b"); });
  sim.run();
  // advance(0) reschedules at the same time, behind b's start event.
  EXPECT_EQ(log, (std::vector<std::string>{"a-pre", "b", "a-post"}));
}

// Finished processes are freed at their final switch-out, so one long
// Simulation's memory follows its live processes, not every process it ran.
// An aborted process may still be owed a resume; it stays to the end.
TEST(Simulation, FinishedProcessesAreFreed) {
  Simulation sim;
  int finished = 0;
  std::size_t peak = 0;
  sim.spawn("spawner", [&] {
    for (int i = 0; i < 100000; ++i) {
      sim.spawn("p", [&] {
        sim.advance(1);
        ++finished;
      });
      if (i % 64 == 63) sim.advance(2);  // lets the batch run to completion
      peak = std::max(peak, sim.live_processes());
    }
  });
  sim.run();
  EXPECT_EQ(finished, 100000);
  EXPECT_LE(peak, 66u);  // the spawner and one batch of 64
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Simulation, AbortedProcessIsKeptUntilTheEnd) {
  Simulation sim;
  Process* victim = sim.spawn("victim", [&] { sim.advance(10); });
  sim.spawn("killer", [&] {
    sim.advance(1);
    sim.abort(victim);  // parked, with its resume at t=10 still queued
  });
  sim.run();
  EXPECT_TRUE(victim->abandoned());
  EXPECT_EQ(sim.live_processes(), 1u);
}

}  // namespace
}  // namespace jade
