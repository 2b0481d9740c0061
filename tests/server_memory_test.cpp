// A resident JadeServer's memory is bounded by its live work, not by every
// session it has served: completed TaskNodes go back to the serializer's
// pool, a closed session's declaration queues are retired, and its
// "tenant.<id>.*" counters fold into the server totals.  A closed session's
// object ids stay recognisable: touching one raises StaleHandleError and
// changes nothing.
#include <gtest/gtest.h>

#include <deque>

#include "jade/engine/serial_engine.hpp"
#include "jade/engine/thread_engine.hpp"
#include "jade/server/server.hpp"

namespace jade {
namespace {

using server::JadeServer;
using server::ServerConfig;
using server::Session;
using server::SessionState;

constexpr std::size_t kWindow = 64;
constexpr int kChildren = 8;
/// Nodes one session holds at most: its program root and its children.
constexpr std::size_t kNodesPerSession = kChildren + 1;

ServerConfig thread_config() {
  ServerConfig cfg;
  cfg.runtime.engine = EngineKind::kThread;
  cfg.runtime.threads = 3;
  cfg.admission.max_active_sessions = kWindow;
  return cfg;
}

struct Open {
  std::shared_ptr<Session> session;
  SharedRef<std::uint64_t> counter;
};

/// Opens a session whose program's kChildren tasks each bump one counter.
Open open_counting(JadeServer& srv) {
  Open o{srv.open_session("s"), {}};
  o.counter = o.session->alloc<std::uint64_t>(1, "n");
  o.session->submit([c = o.counter](TaskContext& ctx) {
    for (int k = 0; k < kChildren; ++k)
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(c); },
                   [c](TaskContext& t) { t.read_write(c)[0] += 1; });
  });
  return o;
}

void finish(const Open& o) {
  ASSERT_EQ(o.session->wait(), SessionState::kCompleted);
  ASSERT_EQ(o.session->get(o.counter)[0], std::uint64_t{kChildren});
  o.session->close();
}

TEST(ServerMemory, HundredThousandSessionsStayBounded) {
  constexpr int kSessions = 100000;
  constexpr int kCheckEvery = 10000;
  // Slack: nodes between completion and release on each engine thread.
  constexpr std::size_t kSlack = 16;
  JadeServer srv(thread_config());
  Serializer& ser = dynamic_cast<ThreadEngine&>(srv.engine()).serializer();
  std::deque<Open> live;
  std::size_t registry_size = 0;
  for (int n = 1; n <= kSessions; ++n) {
    if (live.size() == kWindow) {
      finish(live.front());
      live.pop_front();
    }
    live.push_back(open_counting(srv));
    if (n % kCheckEvery != 0) continue;
    // kWindow sessions are open here, some still running.
    EXPECT_LE(ser.live_tasks(), kWindow * kNodesPerSession + kSlack) << n;
    EXPECT_LE(ser.queue_count(), kWindow + kSlack) << n;
    if (registry_size == 0) registry_size = srv.metrics().size();
    EXPECT_EQ(srv.metrics().size(), registry_size) << n;
  }
  while (!live.empty()) {
    finish(live.front());
    live.pop_front();
  }
  EXPECT_EQ(srv.metrics().counter("server.tasks_created").value(),
            std::uint64_t{kSessions} * kNodesPerSession);
  EXPECT_EQ(srv.metrics().counter("server.tasks_completed").value(),
            std::uint64_t{kSessions} * kNodesPerSession);
}

TEST(ServerMemory, ClosedTenantCountersFoldIntoServerTotals) {
  JadeServer srv(thread_config());
  obs::MetricsRegistry& reg = srv.metrics();
  Open a = open_counting(srv);
  ASSERT_EQ(a.session->wait(), SessionState::kCompleted);
  const std::string prefix = "tenant." + std::to_string(a.session->id()) + ".";
  ASSERT_TRUE(reg.has(prefix + "tasks_created"));
  EXPECT_EQ(reg.counter(prefix + "tasks_created").value(), kNodesPerSession);
  EXPECT_EQ(reg.counter("server.tasks_created").value(), 0u);
  const std::size_t before = reg.size();
  a.session->close();
  for (const char* leaf :
       {"tasks_created", "tasks_completed", "tasks_cancelled", "max_live"})
    EXPECT_FALSE(reg.has(prefix + leaf)) << leaf;
  EXPECT_EQ(reg.size(), before - 4);
  EXPECT_EQ(reg.counter("server.tasks_created").value(), kNodesPerSession);
  EXPECT_EQ(reg.counter("server.tasks_completed").value(), kNodesPerSession);
  EXPECT_EQ(reg.counter("server.tasks_cancelled").value(), 0u);
  EXPECT_GE(reg.counter("server.max_live").value(), 1u);
  // A later session reuses the erased slots and starts from zero.
  Open b = open_counting(srv);
  finish(b);
  EXPECT_EQ(reg.counter("server.tasks_created").value(), 2 * kNodesPerSession);
}

class StaleHandle : public ::testing::TestWithParam<EngineKind> {};

TEST_P(StaleHandle, ClosedSessionObjectFailsTypedAndChangesNothing) {
  ServerConfig cfg;
  cfg.runtime.engine = GetParam();
  cfg.runtime.threads = 2;
  JadeServer srv(cfg);
  Open o = open_counting(srv);
  if (GetParam() != EngineKind::kThread) srv.drain();
  finish(o);
  const ObjectId id = o.counter.id();
  const std::string name = srv.engine().object_info(id).name;
  const std::uint64_t one = 1;
  EXPECT_THROW(o.session->get(o.counter), StaleHandleError);
  EXPECT_THROW(o.session->put(o.counter, std::span<const std::uint64_t>(&one, 1)),
               StaleHandleError);
  // The metadata is untouched and the server keeps serving.
  EXPECT_EQ(srv.engine().object_info(id).name, name);
  EXPECT_EQ(srv.engine().object_info(id).tenant, o.session->id());
  Open next = open_counting(srv);
  if (GetParam() != EngineKind::kThread) srv.drain();
  finish(next);
}

TEST_P(StaleHandle, TaskAccessorOnReleasedObjectFailsTyped) {
  RuntimeConfig cfg;
  cfg.engine = GetParam();
  cfg.threads = 2;
  Runtime rt(cfg);
  auto ref = rt.alloc<std::uint64_t>(1, "gone");
  rt.engine().release_object(ref.id());
  EXPECT_THROW(rt.run([&](TaskContext& ctx) {
                 ctx.withonly([&](AccessDecl& d) { d.rd_wr(ref); },
                              [ref](TaskContext& t) { t.read_write(ref)[0] = 7; });
               }),
               StaleHandleError);
  // The access failed before the serializer booked it.
  Serializer& ser =
      GetParam() == EngineKind::kThread
          ? dynamic_cast<ThreadEngine&>(rt.engine()).serializer()
          : dynamic_cast<SerialEngine&>(rt.engine()).serializer();
  EXPECT_EQ(ser.write_epoch(ref.id()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, StaleHandle,
                         ::testing::Values(EngineKind::kThread,
                                           EngineKind::kSerial),
                         [](const auto& info) {
                           return info.param == EngineKind::kThread
                                      ? "Thread"
                                      : "Serial";
                         });

}  // namespace
}  // namespace jade
