// Simulated network: delivery, latency profiles, drops, duplication,
// link cuts and shaping through the fault plane, node detach, counters,
// sender authentication.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/network.h"

namespace seemore {
namespace {

class Recorder : public MessageHandler {
 public:
  void OnMessage(PrincipalId from, Payload payload) override {
    messages.emplace_back(from, payload.ToBytes());
  }
  std::vector<std::pair<PrincipalId, Bytes>> messages;
};

/// Records each delivery's payload and virtual arrival time.
class TimedRecorder : public MessageHandler {
 public:
  explicit TimedRecorder(const Simulator* sim) : sim_(sim) {}
  void OnMessage(PrincipalId, Payload payload) override {
    at.push_back(sim_->now());
    messages.push_back(payload.ToBytes());
  }
  std::vector<SimTime> at;
  std::vector<Bytes> messages;

 private:
  const Simulator* sim_;
};

NetworkConfig QuietConfig() {
  NetworkConfig config;
  config.intra_private = {Micros(100), 0};
  config.intra_public = {Micros(100), 0};
  config.cross_cloud = {Micros(200), 0};
  config.client_link = {Micros(300), 0};
  return config;
}

TEST(NetworkTest, DeliversWithZoneLatency) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  Recorder a, b, c;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.AddNode(2, Zone::kPublic, &c, nullptr);

  net.Send(0, 1, Bytes{1});
  net.Send(0, 2, Bytes{2});
  sim.Run();
  ASSERT_EQ(b.messages.size(), 1u);
  ASSERT_EQ(c.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].first, 0);  // true sender reported

  // Latency ordering: intra < cross-cloud (delivery times reflect it).
  Simulator sim2;
  SimNetwork net2(&sim2, QuietConfig());
  Recorder d, e, f;
  net2.AddNode(0, Zone::kPrivate, &d, nullptr);
  net2.AddNode(1, Zone::kPrivate, &e, nullptr);
  net2.AddNode(2, Zone::kPublic, &f, nullptr);
  SimTime intra_time = 0, cross_time = 0;
  net2.Send(0, 1, Bytes{1});
  sim2.Run();
  intra_time = sim2.now();
  net2.Send(0, 2, Bytes{2});
  sim2.Run();
  cross_time = sim2.now() - intra_time;
  EXPECT_LT(intra_time, cross_time);
}

TEST(NetworkTest, DropProbabilityOneDropsEverything) {
  Simulator sim;
  NetworkConfig config = QuietConfig();
  config.drop_probability = 1.0;
  SimNetwork net(&sim, config);
  Recorder a, b;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  for (int i = 0; i < 10; ++i) net.Send(0, 1, Bytes{1});
  sim.Run();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(net.counters().dropped, 10u);
}

TEST(NetworkTest, DuplicationDeliversTwice) {
  Simulator sim;
  NetworkConfig config = QuietConfig();
  config.duplicate_probability = 1.0;
  SimNetwork net(&sim, config);
  Recorder a, b;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.Send(0, 1, Bytes{1});
  sim.Run();
  EXPECT_EQ(b.messages.size(), 2u);
}

TEST(NetworkTest, LinkCutBlocksBothDirections) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  Recorder a, b;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.faults().CutLink(0, 1);
  net.faults().CutLink(1, 0);
  net.Send(0, 1, Bytes{1});
  net.Send(1, 0, Bytes{2});
  sim.Run();
  EXPECT_TRUE(a.messages.empty());
  EXPECT_TRUE(b.messages.empty());
  net.faults().RestoreLink(0, 1);
  net.faults().RestoreLink(1, 0);
  net.Send(0, 1, Bytes{3});
  sim.Run();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(NetworkTest, NodeDownDropsInFlight) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  Recorder a, b;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.Send(0, 1, Bytes{1});
  // Crash the receiver while the message is in flight.
  sim.Schedule(Micros(10), [&] { net.SetNodeUp(1, false); });
  sim.Run();
  EXPECT_TRUE(b.messages.empty());
  net.SetNodeUp(1, true);
  net.Send(0, 1, Bytes{2});
  sim.Run();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(NetworkTest, MulticastSkipsSelf) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  Recorder handlers[3];
  for (int i = 0; i < 3; ++i) {
    net.AddNode(i, Zone::kPrivate, &handlers[i], nullptr);
  }
  net.Multicast(0, {0, 1, 2}, Bytes{7});
  sim.Run();
  EXPECT_TRUE(handlers[0].messages.empty());
  EXPECT_EQ(handlers[1].messages.size(), 1u);
  EXPECT_EQ(handlers[2].messages.size(), 1u);
}

TEST(NetworkTest, CountersSeparateClientTraffic) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  Recorder a, b, c;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.AddNode(kClientIdBase, Zone::kClient, &c, nullptr);
  net.Send(0, 1, Bytes{1, 2});
  net.Send(kClientIdBase, 0, Bytes{3});
  net.Send(0, kClientIdBase, Bytes{4});
  sim.Run();
  EXPECT_EQ(net.counters().messages, 3u);
  EXPECT_EQ(net.counters().replica_to_replica_messages, 1u);
  EXPECT_EQ(net.counters().replica_to_replica_bytes, 2u);
  net.ResetCounters();
  EXPECT_EQ(net.counters().messages, 0u);
  EXPECT_EQ(net.counters().wire_bytes, 0u);
}

TEST(NetworkTest, CountersReportPayloadAndWireBytes) {
  // The transmission-time model charges payload + per-message framing; the
  // counters must expose both so bench JSON matches what was priced.
  Simulator sim;
  NetworkConfig config = QuietConfig();
  config.per_message_overhead_bytes = 64;
  SimNetwork net(&sim, config);
  Recorder a, b, c;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.AddNode(kClientIdBase, Zone::kClient, &c, nullptr);
  net.Send(0, 1, Bytes(100, 0x11));
  net.Send(0, kClientIdBase, Bytes(10, 0x22));
  sim.Run();
  EXPECT_EQ(net.counters().bytes, 110u);
  EXPECT_EQ(net.counters().wire_bytes, 110u + 2 * 64u);
  EXPECT_EQ(net.counters().replica_to_replica_bytes, 100u);
  EXPECT_EQ(net.counters().replica_to_replica_wire_bytes, 100u + 64u);
}

TEST(NetworkTest, BandwidthDelaysLargePayloads) {
  Simulator sim;
  NetworkConfig config = QuietConfig();
  config.bandwidth_bytes_per_sec = 1000 * 1000;  // 1 MB/s: very slow
  SimNetwork net(&sim, config);
  Recorder a, b;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.Send(0, 1, Bytes(100 * 1000, 0xaa));  // 100 KB -> 100 ms transmission
  sim.Run();
  EXPECT_GE(sim.now(), Millis(100));
}

TEST(NetworkTest, SenderCpuDelaysDeparture) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  Recorder a, b;
  NodeCpu cpu(&sim);
  net.AddNode(0, Zone::kPrivate, &a, &cpu);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  // The sender is busy until t=1ms; the message departs then.
  cpu.Submit([&] {
    cpu.Charge(Millis(1));
    net.Send(0, 1, Bytes{1});
  });
  sim.Run();
  EXPECT_GE(sim.now(), Millis(1) + Micros(100));
}

// --- link shaping (FaultPlane::ShapeLink on the simulator) ---------------

TEST(NetworkTest, ShapedLinkArrivesAtLeastDelayLater) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  TimedRecorder a(&sim), b(&sim);
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.Send(0, 1, Bytes{1});
  sim.Run();
  ASSERT_EQ(b.at.size(), 1u);
  const SimTime unshaped = b.at[0];

  net.faults().ShapeLink(0, 1, {Millis(5), Micros(300), 0});
  const SimTime sent = sim.now();
  net.Send(0, 1, Bytes{2});
  net.Send(1, 0, Bytes{3});
  sim.Run();
  ASSERT_EQ(b.at.size(), 2u);
  EXPECT_GE(b.at[1] - sent, unshaped + Millis(5));
  EXPECT_LT(b.at[1] - sent, unshaped + Millis(5) + Micros(300));
  ASSERT_EQ(a.at.size(), 1u);
  EXPECT_EQ(a.at[0] - sent, unshaped) << "shaping is directed";
}

TEST(NetworkTest, ShapedDropPpmMillionDropsEverything) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  Recorder a, b;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.faults().ShapeLink(0, 1, {0, 0, 1000000});
  for (int i = 0; i < 20; ++i) net.Send(0, 1, Bytes{1});
  net.Send(1, 0, Bytes{2});
  sim.Run();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(net.counters().dropped, 20u);
  EXPECT_EQ(a.messages.size(), 1u) << "the reverse link is unshaped";
}

TEST(NetworkTest, JitteredShapedLinkKeepsFifoOrder) {
  // QuietConfig's links add no jitter of their own, so any reordering
  // would come from the shape: 5 ms of jitter over sends 100 us apart
  // would swap most neighbours without the plane's monotone release times.
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  TimedRecorder a(&sim), b(&sim);
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.faults().ShapeLink(0, 1, {Micros(500), Millis(5), 0});
  constexpr int kMessages = 64;
  for (int i = 0; i < kMessages; ++i) {
    sim.Schedule(Micros(100) * i, [&net, i] {
      net.Send(0, 1, Bytes{static_cast<uint8_t>(i)});
    });
  }
  sim.Run();
  ASSERT_EQ(b.messages.size(), static_cast<size_t>(kMessages));
  bool jittered = false;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(b.messages[i], Bytes{static_cast<uint8_t>(i)})
        << "message " << i << " overtaken";
    if (i > 0 && b.at[i] - b.at[i - 1] != Micros(100)) jittered = true;
  }
  EXPECT_TRUE(jittered) << "the shape's jitter never applied";
}

TEST(NetworkTest, AllZeroShapeRemovesShaping) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  TimedRecorder a(&sim), b(&sim);
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.Send(0, 1, Bytes{1});
  sim.Run();
  const SimTime unshaped = b.at.at(0);

  net.faults().ShapeLink(0, 1, {Millis(5), Millis(1), 500000});
  net.faults().ShapeLink(0, 1, {});
  EXPECT_FALSE(net.faults().active());
  for (int i = 0; i < 10; ++i) {
    const SimTime sent = sim.now();
    net.Send(0, 1, Bytes{2});
    sim.Run();
    ASSERT_EQ(b.at.size(), static_cast<size_t>(i + 2));
    EXPECT_EQ(b.at.back() - sent, unshaped);
  }
}

TEST(NetworkTest, ShapingOneLinkLeavesTheSimRngStreamUnchanged) {
  // The default profiles jitter every link from the simulator's RNG. The
  // shape's own delay and jitter come from the fault plane's generator, so
  // the unshaped link 0 -> 2 sees the same draws with or without it.
  const auto run = [](bool shaped, std::vector<SimTime>* shaped_at) {
    Simulator sim(7);
    SimNetwork net(&sim, NetworkConfig{});
    TimedRecorder a(&sim), b(&sim), c(&sim);
    net.AddNode(0, Zone::kPrivate, &a, nullptr);
    net.AddNode(1, Zone::kPrivate, &b, nullptr);
    net.AddNode(2, Zone::kPublic, &c, nullptr);
    if (shaped) net.faults().ShapeLink(0, 1, {Millis(1), Millis(3), 0});
    for (int i = 0; i < 32; ++i) {
      sim.Schedule(Micros(50) * i, [&net, i] {
        net.Send(0, 1, Bytes{static_cast<uint8_t>(i)});
        net.Send(0, 2, Bytes{static_cast<uint8_t>(i)});
      });
    }
    sim.Run();
    *shaped_at = b.at;
    return c.at;
  };
  std::vector<SimTime> plain_01, shaped_01;
  const std::vector<SimTime> plain_02 = run(false, &plain_01);
  const std::vector<SimTime> shaped_02 = run(true, &shaped_01);
  ASSERT_EQ(plain_02.size(), 32u);
  EXPECT_EQ(plain_02, shaped_02);
  EXPECT_NE(plain_01, shaped_01) << "the shape never applied";
}

}  // namespace
}  // namespace seemore
