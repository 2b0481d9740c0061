// CoherenceTransport seam tests: SocketTransport carrying the
// CoherenceProtocol's control traffic over real in-process socketpairs —
// loopback channels, no fork — so the sanitizer jobs can cover the
// coordinator's socket path without multi-process machinery.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <vector>

#include "jade/cluster/channel.hpp"
#include "jade/cluster/socket_transport.hpp"
#include "jade/core/stats.hpp"
#include "jade/store/coherence.hpp"
#include "jade/store/directory.hpp"

namespace jade::cluster {
namespace {

/// M loopback links: the "coordinator" end attaches to a SocketTransport,
/// the "worker" end lets the test observe what actually crossed the wire.
class LoopbackFixture : public ::testing::Test {
 protected:
  static constexpr int kMachines = 3;

  void SetUp() override {
    transport_ = std::make_unique<SocketTransport>(
        [this] { return clock_; }, nullptr);
    for (int m = 0; m < kMachines; ++m) {
      int sv[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      coord_.push_back(std::make_unique<Channel>(sv[0]));
      peer_.push_back(std::make_unique<Channel>(sv[1]));
      coord_.back()->set_nonblocking();
      peer_.back()->set_nonblocking();
      transport_->set_channel(m, coord_.back().get());
    }
  }

  /// Pushes queued coordinator frames onto the wire and reads machine `m`'s
  /// side of the link.
  std::vector<Frame> delivered_to(int m) {
    coord_[static_cast<std::size_t>(m)]->flush();
    std::vector<Frame> frames;
    peer_[static_cast<std::size_t>(m)]->drain(frames);
    return frames;
  }

  SimTime clock_ = 0;
  std::unique_ptr<SocketTransport> transport_;
  std::vector<std::unique_ptr<Channel>> coord_;
  std::vector<std::unique_ptr<Channel>> peer_;
};

TEST_F(LoopbackFixture, UnicastDeliversOneCoherenceFrame) {
  clock_ = 1.5;
  const SimTime arrival = transport_->unicast(0, 1, 128, clock_);
  EXPECT_DOUBLE_EQ(arrival, 1.5);  // wall time: arrival is immediate

  const std::vector<Frame> frames = delivered_to(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kCoherence);
  const CoherenceMsg msg = unpack<CoherenceMsg>(frames[0].payload);
  EXPECT_EQ(msg.from, 0);
  EXPECT_EQ(msg.to, 1);
  EXPECT_EQ(msg.bytes, 128u);

  EXPECT_TRUE(delivered_to(0).empty());
  EXPECT_TRUE(delivered_to(2).empty());
  EXPECT_EQ(transport_->control_frames(), 1u);
}

TEST_F(LoopbackFixture, MulticastFansOutToEveryTarget) {
  const std::vector<MachineId> targets = {0, 2};
  transport_->multicast(1, targets, 64, 0.0);
  for (MachineId t : targets) {
    const std::vector<Frame> frames = delivered_to(t);
    ASSERT_EQ(frames.size(), 1u) << "machine " << t;
    const CoherenceMsg msg = unpack<CoherenceMsg>(frames[0].payload);
    EXPECT_EQ(msg.from, 1);
    EXPECT_EQ(msg.to, t);
  }
  EXPECT_TRUE(delivered_to(1).empty());
  EXPECT_EQ(transport_->control_frames(), 2u);
}

TEST_F(LoopbackFixture, DetachedChannelIsSkippedNotCrashed) {
  transport_->set_channel(1, nullptr);  // machine 1 died
  EXPECT_NO_THROW(transport_->unicast(0, 1, 64, 0.0));
  EXPECT_NO_THROW(
      transport_->multicast(0, std::vector<MachineId>{1, 2}, 64, 0.0));
  EXPECT_TRUE(delivered_to(1).empty());
  ASSERT_EQ(delivered_to(2).size(), 1u);
  // Only the reachable target counts as a control frame.
  EXPECT_EQ(transport_->control_frames(), 1u);
}

TEST_F(LoopbackFixture, OutOfRangeTargetIsIgnored) {
  EXPECT_NO_THROW(transport_->unicast(0, 77, 64, 0.0));
  EXPECT_NO_THROW(transport_->unicast(0, -1, 64, 0.0));
  EXPECT_EQ(transport_->control_frames(), 0u);
}

// --- the full protocol over the socket transport ----------------------------

class ProtocolOverSockets : public LoopbackFixture {
 protected:
  void SetUp() override {
    LoopbackFixture::SetUp();
    directory_ = std::make_unique<ObjectDirectory>(kMachines);
    obj_ = objects_.add(TypeDescriptor::array_of<double>(8), "x");
    directory_->add_object(objects_.info(obj_), /*home=*/0);
    protocol_ = std::make_unique<CoherenceProtocol>(
        *transport_, *directory_, objects_,
        std::vector<Endian>(kMachines, Endian::kLittle),
        CoherenceConfig{64, 0.0}, stats_, nullptr);
  }

  ObjectTable objects_;
  std::unique_ptr<ObjectDirectory> directory_;
  RuntimeStats stats_;
  std::unique_ptr<CoherenceProtocol> protocol_;
  ObjectId obj_ = kInvalidObject;
};

TEST_F(ProtocolOverSockets, ReadFetchReplicatesAndNotifiesOverTheWire) {
  protocol_->fetch(1, {{obj_, /*exclusive=*/false, /*blocking=*/true}});
  EXPECT_TRUE(directory_->present(obj_, 1));
  EXPECT_EQ(directory_->owner(obj_), 0);
  // The copy travelled as at least one frame on machine 1's link.
  EXPECT_FALSE(delivered_to(1).empty());
}

TEST_F(ProtocolOverSockets, FirstWriteInvalidatesReplicasOnTheWire) {
  protocol_->fetch(1, {{obj_, false, true}});
  protocol_->fetch(2, {{obj_, false, true}});
  (void)delivered_to(1);
  (void)delivered_to(2);

  const std::uint64_t dv_before = directory_->data_version(obj_);
  std::vector<ObjectId> dirtied;
  protocol_->first_write_invalidate(/*writer=*/0, obj_, dirtied);
  EXPECT_FALSE(directory_->present(obj_, 1));
  EXPECT_FALSE(directory_->present(obj_, 2));
  EXPECT_EQ(directory_->data_version(obj_), dv_before + 1);
  ASSERT_EQ(dirtied.size(), 1u);
  EXPECT_EQ(dirtied[0], obj_);

  // Invalidation control traffic reached the (ex-)replica holders.
  EXPECT_FALSE(delivered_to(1).empty());
  EXPECT_FALSE(delivered_to(2).empty());

  // Same attempt, same object: the version must not bump again.
  protocol_->first_write_invalidate(0, obj_, dirtied);
  EXPECT_EQ(directory_->data_version(obj_), dv_before + 1);
  EXPECT_EQ(dirtied.size(), 1u);
}

TEST_F(ProtocolOverSockets, ExclusiveFetchMovesOwnership) {
  protocol_->fetch(2, {{obj_, /*exclusive=*/true, /*blocking=*/true}});
  EXPECT_EQ(directory_->owner(obj_), 2);
  EXPECT_TRUE(directory_->present(obj_, 2));
  EXPECT_FALSE(delivered_to(2).empty());
}

TEST_F(ProtocolOverSockets, StatsBookRealWireTraffic) {
  protocol_->fetch(1, {{obj_, false, true}});
  std::vector<ObjectId> dirtied;
  protocol_->first_write_invalidate(0, obj_, dirtied);
  EXPECT_GT(stats_.messages, 0u);
  EXPECT_GT(stats_.bytes_sent, 0u);
  EXPECT_GT(stats_.invalidations, 0u);
  EXPECT_GT(transport_->control_frames(), 0u);
}

}  // namespace
}  // namespace jade::cluster
