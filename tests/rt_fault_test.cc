// The runtime fault plane end to end: the CONTROL codec's strict
// encode/decode contract (every truncation and mutation refused with a
// typed error), and real TcpTransports over loopback proving that a
// directed cut drops exactly one direction (the counters show where),
// that a cloud partition heals back to full delivery while a heal leaves
// directed cuts in place, and that link shaping delays frames without ever
// reordering a directed link.
// Ports 19200+ — rt_runtime_test.cc owns 19140-19190.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rt/event_loop.h"
#include "net/fault_plane.h"
#include "rt/frame.h"
#include "rt/tcp_transport.h"
#include "util/time.h"

namespace seemore {
namespace rt {
namespace {

bool RunUntil(EventLoop* loop, const std::function<bool()>& done,
              SimTime budget = Seconds(10)) {
  const SimTime give_up = loop->Now() + budget;
  while (!done() && loop->Now() < give_up) loop->Run(Millis(10));
  return done();
}

struct RecordingHandler final : public MessageHandler {
  void OnMessage(PrincipalId from, Payload payload) override {
    froms.push_back(from);
    messages.push_back(payload.ToBytes());
  }
  std::vector<PrincipalId> froms;
  std::vector<Bytes> messages;
};

Bytes AsBytes(const char* text) {
  const auto* p = reinterpret_cast<const uint8_t*>(text);
  return Bytes(p, p + std::char_traits<char>::length(text));
}

FaultCommand FullyPopulatedCommand() {
  FaultCommand command;
  command.kind = ControlKind::kShapeLink;
  command.from = 3;
  command.to = 0;
  command.replica = 5;
  command.byz_flags = 0xdeadbeef;
  command.mode = 2;
  command.delay_us = 1500;
  command.jitter_us = 250;
  command.drop_ppm = 100000;
  command.value = 7;
  return command;
}

TEST(RtFaultCodec, FaultCommandRoundTripsEveryField) {
  const FaultCommand command = FullyPopulatedCommand();
  const Bytes body = EncodeFaultCommandBody(command);
  const auto decoded = DecodeFaultCommand(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, command.kind);
  EXPECT_EQ(decoded->from, command.from);
  EXPECT_EQ(decoded->to, command.to);
  EXPECT_EQ(decoded->replica, command.replica);
  EXPECT_EQ(decoded->byz_flags, command.byz_flags);
  EXPECT_EQ(decoded->mode, command.mode);
  EXPECT_EQ(decoded->delay_us, command.delay_us);
  EXPECT_EQ(decoded->jitter_us, command.jitter_us);
  EXPECT_EQ(decoded->drop_ppm, command.drop_ppm);
  EXPECT_EQ(decoded->value, command.value);

  // Sentinel defaults (-1 link endpoints) survive the trip too.
  FaultCommand heal;
  heal.kind = ControlKind::kHeal;
  const auto heal_decoded = DecodeFaultCommand(EncodeFaultCommandBody(heal));
  ASSERT_TRUE(heal_decoded.ok());
  EXPECT_EQ(heal_decoded->kind, ControlKind::kHeal);
  EXPECT_EQ(heal_decoded->from, -1);
  EXPECT_EQ(heal_decoded->to, -1);
  EXPECT_EQ(heal_decoded->replica, -1);
}

TEST(RtFaultCodec, EveryTruncationIsRefused) {
  const Bytes body = EncodeFaultCommandBody(FullyPopulatedCommand());
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeFaultCommand(body.data(), len).ok())
        << "accepted a " << len << "-byte prefix of a "
        << body.size() << "-byte command";
  }
  // A trailing byte is just as malformed as a missing one.
  Bytes padded = body;
  padded.push_back(0);
  EXPECT_FALSE(DecodeFaultCommand(padded).ok());
}

TEST(RtFaultCodec, GarbageMagicVersionAndKindRefused) {
  const Bytes body = EncodeFaultCommandBody(FullyPopulatedCommand());

  Bytes bad_magic = body;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeFaultCommand(bad_magic).ok());

  Bytes bad_version = body;
  bad_version[4] ^= 0xff;
  EXPECT_FALSE(DecodeFaultCommand(bad_version).ok());

  // The kind byte follows magic (u32) + version (u8); 0 and anything past
  // kShapeLink are outside the enum and must be refused.
  Bytes bad_kind = body;
  bad_kind[5] = 0;
  EXPECT_FALSE(DecodeFaultCommand(bad_kind).ok());
  bad_kind[5] = 200;
  EXPECT_FALSE(DecodeFaultCommand(bad_kind).ok());

  const Bytes noise = AsBytes("not a control frame at all, honest");
  EXPECT_FALSE(DecodeFaultCommand(noise).ok());
}

TEST(RtFaultPlane, DirectedCutDropsExactlyOneDirection) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19200;
  options.fingerprint = 0xfa017;

  TcpTransport node0(&loop, options);
  TcpTransport node1(&loop, options);
  RecordingHandler handler0;
  RecordingHandler handler1;
  node0.Register(0, Zone::kPrivate, &handler0, /*metered=*/true);
  node1.Register(1, Zone::kPublic, &handler1, /*metered=*/true);
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return node0.ConnectedTo(1) && node1.ConnectedTo(0);
  })) << "cluster never became fully connected";

  // Cut 1 -> 0 the way the launcher does: the command lands on both
  // endpoints, so the sender refuses to enqueue and the receiver refuses
  // in-flight stragglers.
  FaultCommand cut;
  cut.kind = ControlKind::kCutLink;
  cut.from = 1;
  cut.to = 0;
  node0.ApplyControl(cut);
  node1.ApplyControl(cut);

  node1.Send(1, 0, Payload(AsBytes("blocked")));
  node0.Send(0, 1, Payload(AsBytes("through")));
  ASSERT_TRUE(RunUntil(&loop, [&] { return !handler1.messages.empty(); }))
      << "the uncut direction must keep delivering";
  // Give any erroneously-sent frame ample time to arrive.
  RunUntil(&loop, [] { return false; }, Millis(200));

  EXPECT_EQ(handler1.messages[0], AsBytes("through"));
  EXPECT_TRUE(handler0.messages.empty()) << "cut direction delivered";
  EXPECT_EQ(node1.counters().fault_dropped_tx, 1u);
  EXPECT_EQ(node0.counters().fault_dropped_tx, 0u);
  EXPECT_EQ(node0.counters().fault_dropped_rx, 0u)
      << "nothing was in flight when the cut landed";

  // Restore and the direction comes back.
  FaultCommand restore;
  restore.kind = ControlKind::kRestoreLink;
  restore.from = 1;
  restore.to = 0;
  node0.ApplyControl(restore);
  node1.ApplyControl(restore);
  node1.Send(1, 0, Payload(AsBytes("again")));
  ASSERT_TRUE(RunUntil(&loop, [&] { return !handler0.messages.empty(); }));
  EXPECT_EQ(handler0.messages[0], AsBytes("again"));
}

TEST(RtFaultPlane, PartitionCutsCrossCloudAndHealRestores) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19210;
  options.fingerprint = 0xfa018;
  options.trusted_count = 1;  // replica 0 private, replica 1 public

  TcpTransport node0(&loop, options);
  TcpTransport node1(&loop, options);
  RecordingHandler handler0;
  RecordingHandler handler1;
  node0.Register(0, Zone::kPrivate, &handler0, true);
  node1.Register(1, Zone::kPublic, &handler1, true);
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return node0.ConnectedTo(1) && node1.ConnectedTo(0);
  }));

  FaultCommand partition;
  partition.kind = ControlKind::kPartition;
  node0.ApplyControl(partition);
  node1.ApplyControl(partition);

  node0.Send(0, 1, Payload(AsBytes("into the void")));
  node1.Send(1, 0, Payload(AsBytes("also the void")));
  RunUntil(&loop, [] { return false; }, Millis(200));
  EXPECT_TRUE(handler0.messages.empty());
  EXPECT_TRUE(handler1.messages.empty());
  EXPECT_EQ(node0.counters().fault_dropped_tx, 1u);
  EXPECT_EQ(node1.counters().fault_dropped_tx, 1u);

  FaultCommand heal;
  heal.kind = ControlKind::kHeal;
  node0.ApplyControl(heal);
  node1.ApplyControl(heal);

  node0.Send(0, 1, Payload(AsBytes("back")));
  node1.Send(1, 0, Payload(AsBytes("online")));
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return !handler0.messages.empty() && !handler1.messages.empty();
  })) << "heal must restore delivery in both directions";
  EXPECT_EQ(handler0.messages[0], AsBytes("online"));
  EXPECT_EQ(handler1.messages[0], AsBytes("back"));
}

TEST(RtFaultPlane, HealLiftsOnlyThePartition) {
  // partition, then cut-link 3 -> 0, then heal: the heal lifts the
  // partition and nothing else (the simulator's rule too), so 3 -> 0 still
  // drops while every other cross-cloud pair delivers.
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 4;
  options.base_port = 19230;
  options.fingerprint = 0xfa01a;
  options.trusted_count = 2;  // replicas 0, 1 private; 2, 3 public

  std::vector<std::unique_ptr<TcpTransport>> nodes;
  std::vector<RecordingHandler> handlers(4);
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<TcpTransport>(&loop, options));
    nodes[i]->Register(i, i < 2 ? Zone::kPrivate : Zone::kPublic,
                       &handlers[i], true);
  }
  ASSERT_TRUE(RunUntil(&loop, [&] {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j && !nodes[i]->ConnectedTo(j)) return false;
      }
    }
    return true;
  }));

  FaultCommand partition;
  partition.kind = ControlKind::kPartition;
  FaultCommand cut;
  cut.kind = ControlKind::kCutLink;
  cut.from = 3;
  cut.to = 0;
  FaultCommand heal;
  heal.kind = ControlKind::kHeal;
  for (const FaultCommand& command : {partition, cut, heal}) {
    for (auto& node : nodes) node->ApplyControl(command);
  }

  for (int a = 0; a < 2; ++a) {
    for (int b = 2; b < 4; ++b) {
      nodes[a]->Send(a, b, Payload(AsBytes("down")));
      nodes[b]->Send(b, a, Payload(AsBytes("up")));
    }
  }
  // Everything but 3 -> 0: replica 0 hears only from 2.
  const std::vector<size_t> expected = {1, 2, 2, 2};
  ASSERT_TRUE(RunUntil(&loop, [&] {
    for (int i = 0; i < 4; ++i) {
      if (handlers[i].messages.size() < expected[i]) return false;
    }
    return true;
  })) << "heal must restore every cross-cloud pair but the cut one";
  RunUntil(&loop, [] { return false; }, Millis(200));
  EXPECT_EQ(handlers[0].froms, std::vector<PrincipalId>{2});
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(handlers[i].messages.size(), expected[i]) << "replica " << i;
  }
  EXPECT_EQ(nodes[3]->counters().fault_dropped_tx, 1u);
}

TEST(RtFaultPlane, ShapedLinkDelaysWithoutReordering) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19220;
  options.fingerprint = 0xfa019;

  TcpTransport node0(&loop, options);
  TcpTransport node1(&loop, options);
  RecordingHandler handler0;
  RecordingHandler handler1;
  node0.Register(0, Zone::kPrivate, &handler0, true);
  node1.Register(1, Zone::kPublic, &handler1, true);
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return node0.ConnectedTo(1) && node1.ConnectedTo(0);
  }));

  // Heavy jitter relative to the base delay: without the per-link FIFO
  // clamp (monotone release times), back-to-back frames would routinely
  // swap places.
  FaultCommand shape;
  shape.kind = ControlKind::kShapeLink;
  shape.from = 1;
  shape.to = 0;
  shape.delay_us = 2000;
  shape.jitter_us = 5000;
  node1.ApplyControl(shape);

  constexpr int kFrames = 24;
  std::vector<Bytes> sent;
  for (int i = 0; i < kFrames; ++i) {
    sent.push_back(AsBytes(("frame-" + std::to_string(i)).c_str()));
    node1.Send(1, 0, Payload(sent.back()));
  }
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return handler0.messages.size() == static_cast<size_t>(kFrames);
  })) << "only " << handler0.messages.size() << " of " << kFrames
      << " shaped frames arrived";

  EXPECT_EQ(handler0.messages, sent)
      << "shaping must preserve per-link FIFO order";
  EXPECT_GE(node1.counters().fault_delayed, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(node1.counters().fault_dropped_tx, 0u);
}

TEST(RtFaultPlane, FilterPrimitivesAreDirectedAndHealable) {
  // The plane itself, no sockets: directionality, partition coverage by
  // trusted prefix, and Heal() reporting whether anything was cleared.
  FaultPlane plane(42);
  EXPECT_FALSE(plane.active());
  EXPECT_FALSE(plane.Heal()) << "healing a clean plane clears nothing";

  plane.CutLink(4, 0);
  EXPECT_TRUE(plane.active());
  EXPECT_TRUE(plane.ShouldDropOutbound(4, 0));
  EXPECT_TRUE(plane.ShouldDropInbound(4, 0));
  EXPECT_FALSE(plane.ShouldDropOutbound(0, 4)) << "cuts are directed";
  EXPECT_FALSE(plane.ShouldDropInbound(0, 4));
  plane.RestoreLink(4, 0);
  EXPECT_FALSE(plane.ShouldDropOutbound(4, 0));

  // s=2, n=4: every pair spanning {0,1} x {2,3} is cut both ways;
  // intra-cloud pairs are untouched.
  plane.PartitionClouds(/*trusted_count=*/2, /*num_replicas=*/4);
  for (int trusted = 0; trusted < 2; ++trusted) {
    for (int pub = 2; pub < 4; ++pub) {
      EXPECT_TRUE(plane.IsCut(trusted, pub));
      EXPECT_TRUE(plane.IsCut(pub, trusted));
    }
  }
  EXPECT_FALSE(plane.IsCut(0, 1));
  EXPECT_FALSE(plane.IsCut(2, 3));
  EXPECT_TRUE(plane.Heal());
  EXPECT_FALSE(plane.active());

  // Shaped holds are monotone per link: a later frame never releases
  // before an earlier one, whatever the jitter draws.
  FaultPlane::Shape shape;
  shape.delay = Micros(500);
  shape.jitter = Micros(2000);
  plane.ShapeLink(1, 0, shape);
  SimTime now = 0;
  SimTime last_release = 0;
  for (int i = 0; i < 64; ++i) {
    const SimTime hold = plane.HoldFor(1, 0, now);
    EXPECT_GE(hold, 0);
    const SimTime release = now + hold;
    EXPECT_GE(release, last_release) << "frame " << i << " overtook";
    last_release = release;
  }
  // The other direction is unshaped.
  EXPECT_EQ(plane.HoldFor(0, 1, now), 0);
}

}  // namespace
}  // namespace rt
}  // namespace seemore
