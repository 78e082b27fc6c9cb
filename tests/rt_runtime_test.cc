// The rt backend in-process: EventLoop timer semantics, and real TCP
// loopback between TcpTransports sharing one loop — connection
// establishment with HELLO, duplex exchange, client dialing, one shared
// connection per process and replica with the tag rule enforced at both
// ends, co-located local delivery, node-down drop accounting, and adopting
// a listener bound before its transport existed. Each test uses its own
// base port so listeners never collide across tests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/keystore.h"
#include "rt/event_loop.h"
#include "rt/tcp_transport.h"
#include "scenario/spec.h"
#include "util/time.h"

namespace seemore {
namespace rt {
namespace {

/// Drive the loop in small slices until `done` or the (real-time) budget
/// runs out. Never hangs a test run.
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

/// A blocking loopback socket connected to `port`, for speaking the wire
/// protocol by hand; -1 on failure.
int DialRaw(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 &&
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendRaw(int fd, const Bytes& bytes) {
  return send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// True once the other end has closed `fd` (whatever it sent first is
/// drained and ignored).
bool PeerClosed(int fd) {
  uint8_t buffer[256];
  while (true) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) continue;
    return n == 0;
  }
}

/// (sender, text) pairs a handler received, sorted.
std::vector<std::pair<PrincipalId, std::string>> Received(
    const RecordingHandler& handler) {
  std::vector<std::pair<PrincipalId, std::string>> out;
  for (size_t i = 0; i < handler.froms.size(); ++i) {
    out.emplace_back(handler.froms[i],
                     std::string(handler.messages[i].begin(),
                                 handler.messages[i].end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RtEventLoop, TimersFireInDeadlineOrderAndCancel) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  std::vector<int> fired;
  loop.ScheduleAfter(Millis(30), [&] { fired.push_back(3); });
  loop.ScheduleAfter(Millis(10), [&] { fired.push_back(1); });
  const EventId cancelled =
      loop.ScheduleAfter(Millis(20), [&] { fired.push_back(2); });
  EXPECT_TRUE(loop.CancelEvent(cancelled));
  EXPECT_FALSE(loop.CancelEvent(cancelled)) << "double-cancel reports false";

  ASSERT_TRUE(RunUntil(&loop, [&] { return fired.size() == 2; }));
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(RtEventLoop, ZeroDelayTimerFiresAndClockAdvances) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  const SimTime before = loop.Now();
  bool fired = false;
  loop.ScheduleAfter(0, [&] { fired = true; });
  ASSERT_TRUE(RunUntil(&loop, [&] { return fired; }, Seconds(2)));
  EXPECT_GT(loop.Now(), before) << "monotonic clock must advance";
}

TEST(RtEventLoop, TimerCallbackCanReschedule) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 3) loop.ScheduleAfter(Millis(1), tick);
  };
  loop.ScheduleAfter(Millis(1), tick);
  ASSERT_TRUE(RunUntil(&loop, [&] { return ticks == 3; }, Seconds(2)));
}

TEST(RtTransport, DuplexExchangeOverRealSockets) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19140;
  options.fingerprint = 0xabcdef;

  // Two transports in one process = two "nodes" talking over loopback TCP.
  TcpTransport node0(&loop, options);
  TcpTransport node1(&loop, options);
  RecordingHandler handler0;
  RecordingHandler handler1;
  node0.Register(0, Zone::kPrivate, &handler0, /*metered=*/true);
  node1.Register(1, Zone::kPrivate, &handler1, /*metered=*/true);
  ASSERT_TRUE(node0.status().ok());
  ASSERT_TRUE(node1.status().ok());

  // Replica 1 dials replica 0; both sides HELLO.
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return node0.ConnectedTo(1) && node1.ConnectedTo(0);
  })) << "cluster never became fully connected";

  node1.Send(1, 0, Payload(AsBytes("ping")));
  node0.Send(0, 1, Payload(AsBytes("pong")));
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return !handler0.messages.empty() && !handler1.messages.empty();
  }));

  EXPECT_EQ(handler0.froms, (std::vector<PrincipalId>{1}));
  EXPECT_EQ(handler0.messages[0], AsBytes("ping"));
  EXPECT_EQ(handler1.froms, (std::vector<PrincipalId>{0}));
  EXPECT_EQ(handler1.messages[0], AsBytes("pong"));

  EXPECT_EQ(node1.counters().messages_sent, 1u);
  EXPECT_EQ(node0.counters().messages_received, 1u);
  EXPECT_EQ(node0.counters().dropped_no_connection, 0u);
}

TEST(RtTransport, ClientDialsEveryReplicaAndIsIdentified) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19150;
  options.fingerprint = 7;

  TcpTransport node0(&loop, options);
  TcpTransport node1(&loop, options);
  TcpTransport clients(&loop, options);  // the launcher-side transport
  RecordingHandler handler0;
  RecordingHandler handler1;
  RecordingHandler client_handler;
  node0.Register(0, Zone::kPrivate, &handler0, true);
  node1.Register(1, Zone::kPrivate, &handler1, true);
  const PrincipalId client = kClientIdBase;
  clients.Register(client, Zone::kClient, &client_handler, /*metered=*/false);

  ASSERT_TRUE(RunUntil(&loop, [&] {
    return clients.ConnectedTo(0) && clients.ConnectedTo(1);
  })) << "client never reached both replicas";

  clients.Send(client, 0, Payload(AsBytes("request")));
  ASSERT_TRUE(RunUntil(&loop, [&] { return !handler0.messages.empty(); }));
  // Pairwise authentication: the replica learns the true client id from
  // the HELLO, not from anything inside the payload.
  EXPECT_EQ(handler0.froms, (std::vector<PrincipalId>{client}));

  node0.Send(0, client, Payload(AsBytes("reply")));
  ASSERT_TRUE(
      RunUntil(&loop, [&] { return !client_handler.messages.empty(); }));
  EXPECT_EQ(client_handler.froms, (std::vector<PrincipalId>{0}));
  EXPECT_EQ(client_handler.messages[0], AsBytes("reply"));
}

TEST(RtTransport, CoLocatedClientsShareOneConnectionPerReplica) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19260;
  options.fingerprint = 5;

  TcpTransport node0(&loop, options);
  TcpTransport node1(&loop, options);
  RecordingHandler handler0, handler1;
  node0.Register(0, Zone::kPrivate, &handler0, true);
  node1.Register(1, Zone::kPrivate, &handler1, true);

  // The launcher's shape: the controller registers first (it HELLOs the
  // shared connections), then two clients that ride them with tags.
  TcpTransport launcher(&loop, options);
  RecordingHandler controller, client_a, client_b;
  const PrincipalId a = kClientIdBase;
  const PrincipalId b = kClientIdBase + 1;
  launcher.Register(kFaultControllerId, Zone::kClient, &controller, false);
  launcher.Register(a, Zone::kClient, &client_a, false);
  launcher.Register(b, Zone::kClient, &client_b, false);
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return launcher.ConnectedTo(0) && launcher.ConnectedTo(1) &&
           node1.ConnectedTo(0);
  }));
  EXPECT_EQ(launcher.counters().connections_dialed, 2u)
      << "one connection per replica, not one per principal";
  EXPECT_EQ(node0.counters().connections_accepted, 2u);  // replica 1 + us
  EXPECT_EQ(node1.counters().connections_accepted, 1u);

  launcher.Send(a, 0, Payload(AsBytes("a0")));
  launcher.Send(b, 0, Payload(AsBytes("b0")));
  launcher.Send(kFaultControllerId, 0, Payload(AsBytes("c0")));
  launcher.Multicast(a, {0, 1}, Payload(AsBytes("a*")));
  launcher.Send(b, 1, Payload(AsBytes("b1")));
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return handler0.messages.size() == 4 && handler1.messages.size() == 2;
  }));
  // Each replica tells the co-located principals apart.
  using Got = std::vector<std::pair<PrincipalId, std::string>>;
  EXPECT_EQ(Received(handler0),
            (Got{{a, "a*"}, {a, "a0"}, {b, "b0"}, {kFaultControllerId, "c0"}}));
  EXPECT_EQ(Received(handler1), (Got{{a, "a*"}, {b, "b1"}}));

  // Replies reach only the principal they name.
  node0.Send(0, a, Payload(AsBytes("r0a")));
  node0.Send(0, b, Payload(AsBytes("r0b")));
  node1.Send(1, b, Payload(AsBytes("r1b")));
  node1.Send(1, a, Payload(AsBytes("r1a")));
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return client_a.messages.size() == 2 && client_b.messages.size() == 2;
  }));
  RunUntil(&loop, [] { return false; }, Millis(50));
  EXPECT_EQ(Received(client_a), (Got{{0, "r0a"}, {1, "r1a"}}));
  EXPECT_EQ(Received(client_b), (Got{{0, "r0b"}, {1, "r1b"}}));
  EXPECT_TRUE(controller.messages.empty());
  for (const TcpTransport* t : {&node0, &node1, &launcher}) {
    EXPECT_EQ(t->counters().frame_errors, 0u);
    EXPECT_EQ(t->counters().dropped_no_connection, 0u);
  }
}

TEST(RtTransport, TagRuleIsEnforcedAtTheReplica) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19270;
  options.fingerprint = 13;
  TcpTransport node0(&loop, options);
  RecordingHandler handler0;
  node0.Register(0, Zone::kPrivate, &handler0, true);

  // A client process: a tag naming a non-replica principal is its source.
  const int client = DialRaw(19270);
  ASSERT_GE(client, 0);
  ASSERT_TRUE(SendRaw(client, EncodeHello(Hello{kClientIdBase, 13})));
  ASSERT_TRUE(SendRaw(client, EncodeFrame(AsBytes("fine"), kClientIdBase + 1)));
  ASSERT_TRUE(RunUntil(&loop, [&] { return handler0.messages.size() == 1; }));
  EXPECT_EQ(handler0.froms, (std::vector<PrincipalId>{kClientIdBase + 1}));

  // ... but one naming a replica would let it speak as that replica.
  ASSERT_TRUE(SendRaw(client, EncodeFrame(AsBytes("spoof"), 1)));
  ASSERT_TRUE(RunUntil(&loop, [&] { return PeerClosed(client); }))
      << "the connection survived a tag naming a replica";
  EXPECT_EQ(node0.counters().frame_errors, 1u);
  close(client);

  // Replica <-> replica connections carry no tags at all.
  const int replica = DialRaw(19270);
  ASSERT_GE(replica, 0);
  ASSERT_TRUE(SendRaw(replica, EncodeHello(Hello{1, 13})));
  ASSERT_TRUE(RunUntil(&loop, [&] { return node0.ConnectedTo(1); }));
  ASSERT_TRUE(SendRaw(replica, EncodeFrame(AsBytes("tagged"), kClientIdBase)));
  ASSERT_TRUE(RunUntil(&loop, [&] { return PeerClosed(replica); }))
      << "the connection survived a tag on a replica link";
  EXPECT_EQ(node0.counters().frame_errors, 2u);
  EXPECT_FALSE(node0.ConnectedTo(1));
  close(replica);

  EXPECT_EQ(handler0.messages.size(), 1u) << "a refused frame was delivered";
}

TEST(RtTransport, TagNamingNoLocalPrincipalIsRefused) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 1;
  options.base_port = 19280;
  options.fingerprint = 17;
  // A hand-driven replica 0: its listener, and the launcher-side transport
  // dialing it.
  Result<int> listener = BindLoopbackListener(19280);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  TcpTransport launcher(&loop, options);
  RecordingHandler client;
  launcher.Register(kClientIdBase, Zone::kClient, &client, false);
  int replica = -1;
  ASSERT_TRUE(RunUntil(&loop, [&] {
    if (replica < 0) {
      replica = accept4(*listener, nullptr, nullptr, SOCK_CLOEXEC);
    }
    return replica >= 0;
  }));
  ASSERT_TRUE(SendRaw(replica, EncodeHello(Hello{0, 17})));
  ASSERT_TRUE(RunUntil(&loop, [&] { return launcher.ConnectedTo(0); }));

  ASSERT_TRUE(SendRaw(replica, EncodeFrame(AsBytes("to whom?"),
                                           kClientIdBase + 5)));
  ASSERT_TRUE(RunUntil(&loop, [&] { return PeerClosed(replica); }))
      << "the connection survived a tag naming no local principal";
  EXPECT_EQ(launcher.counters().frame_errors, 1u);
  EXPECT_TRUE(client.messages.empty());
  close(replica);
  close(*listener);
}

TEST(RtTransport, CoLocatedPrincipalsDeliverLocallyAndRespectNodeDown) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19160;

  // Both replicas on ONE transport: Send short-circuits through the loop
  // without sockets, same delivery contract.
  TcpTransport transport(&loop, options);
  RecordingHandler handler0;
  RecordingHandler handler1;
  transport.Register(0, Zone::kPrivate, &handler0, true);
  transport.Register(1, Zone::kPrivate, &handler1, true);

  transport.Send(0, 1, Payload(AsBytes("hi")));
  ASSERT_TRUE(RunUntil(&loop, [&] { return !handler1.messages.empty(); },
                       Seconds(2)));
  EXPECT_EQ(handler1.froms, (std::vector<PrincipalId>{0}));

  // A down node's messages vanish (crashed machine's NIC) and are counted.
  transport.SetNodeUp(1, false);
  const uint64_t drops_before = transport.counters().dropped_node_down;
  transport.Send(0, 1, Payload(AsBytes("lost")));
  loop.Run(Millis(50));
  EXPECT_EQ(handler1.messages.size(), 1u);
  EXPECT_GT(transport.counters().dropped_node_down, drops_before);

  transport.SetNodeUp(1, true);
  transport.Send(0, 1, Payload(AsBytes("back")));
  ASSERT_TRUE(RunUntil(&loop, [&] { return handler1.messages.size() == 2; },
                       Seconds(2)));
  EXPECT_EQ(handler1.messages[1], AsBytes("back"));

  // Multicast skips the sender itself.
  transport.Multicast(0, {0, 1}, Payload(AsBytes("mcast")));
  ASSERT_TRUE(RunUntil(&loop, [&] { return handler1.messages.size() == 3; },
                       Seconds(2)));
  EXPECT_TRUE(handler0.messages.empty());
}

TEST(RtTransport, SendWithoutConnectionDropsSilently) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 3;
  options.base_port = 19170;

  TcpTransport node0(&loop, options);
  RecordingHandler handler0;
  node0.Register(0, Zone::kPrivate, &handler0, true);

  // Replica 2 never comes up; Send must not block, fail, or crash.
  node0.Send(0, 2, Payload(AsBytes("into the void")));
  loop.Run(Millis(20));
  EXPECT_EQ(node0.counters().dropped_no_connection, 1u);
}

TEST(RtTransport, MulticastEncodesOnceAndFansOutSharedFrames) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 3;
  options.base_port = 19180;
  options.fingerprint = 3;

  TcpTransport node0(&loop, options);
  TcpTransport node1(&loop, options);
  TcpTransport node2(&loop, options);
  RecordingHandler handler0, handler1, handler2;
  node0.Register(0, Zone::kPrivate, &handler0, true);
  node1.Register(1, Zone::kPrivate, &handler1, true);
  node2.Register(2, Zone::kPrivate, &handler2, true);

  ASSERT_TRUE(RunUntil(&loop, [&] {
    return node2.ConnectedTo(0) && node2.ConnectedTo(1);
  })) << "replica 2 never reached its peers";

  node2.Multicast(2, {0, 1, 2}, Payload(AsBytes("broadcast")));
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return !handler0.messages.empty() && !handler1.messages.empty();
  }));
  EXPECT_EQ(handler0.messages[0], AsBytes("broadcast"));
  EXPECT_EQ(handler1.messages[0], AsBytes("broadcast"));
  EXPECT_TRUE(handler2.messages.empty());  // skips the sender

  // Encode-once fan-out: ONE FrameBuffer built, one enqueue per remote.
  EXPECT_EQ(node2.counters().multicast_encodes, 1u);
  EXPECT_EQ(node2.counters().multicast_enqueues, 2u);
  EXPECT_EQ(node2.counters().messages_sent, 2u);
  // The flush went through the vectored path, HELLOs included.
  EXPECT_GE(node2.counters().writev_syscalls, 1u);
  EXPECT_GE(node2.counters().frames_sent, 4u);  // 2 HELLOs + 2 multicasts
  // Receive side handed the bodies out as zero-copy views.
  EXPECT_GE(node0.counters().rx.frames_aliased, 1u);
  EXPECT_EQ(node0.counters().rx.frames_copied, 0u);
}

TEST(RtTransport, BackpressureChargesAndDropsPerPeerQueue) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 3;
  options.base_port = 19190;
  options.fingerprint = 9;
  // Cap below one big frame: HELLOs (25 wire bytes) fit, the payload
  // below cannot, so the drop is deterministic — no socket timing.
  options.max_queued_bytes = 64;

  TcpTransport node0(&loop, options);
  TcpTransport node1(&loop, options);
  TcpTransport node2(&loop, options);
  RecordingHandler handler0, handler1, handler2;
  node0.Register(0, Zone::kPrivate, &handler0, true);
  node1.Register(1, Zone::kPrivate, &handler1, true);
  node2.Register(2, Zone::kPrivate, &handler2, true);
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return node2.ConnectedTo(0) && node2.ConnectedTo(1);
  }));

  // A multicast frame shared by both peer queues still charges EACH queue
  // its full wire size: both enqueues exceed the cap, both drop.
  const uint64_t drops_before = node2.counters().dropped_backpressure;
  node2.Multicast(2, {0, 1}, Payload(Bytes(200, 0xcd)));
  EXPECT_EQ(node2.counters().dropped_backpressure, drops_before + 2);

  // Small frames still flow afterwards: the drop never wedged the queue.
  node2.Send(2, 0, Payload(AsBytes("small")));
  ASSERT_TRUE(RunUntil(&loop, [&] { return !handler0.messages.empty(); }));
  EXPECT_EQ(handler0.messages[0], AsBytes("small"));
}

TEST(RtTransport, DialBeforeAdoptionCompletesAndDeliversHello) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19240;
  options.fingerprint = 11;

  // Replica 0's listener exists before replica 0 does, as when a launcher
  // binds it before spawning the node.
  Result<int> listener = BindLoopbackListener(19240);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  // Replica 1 dials 0 at once: the kernel completes the connect into the
  // listen backlog, and the HELLO leaves with nobody accepting yet.
  TcpTransport node1(&loop, options);
  RecordingHandler handler1;
  node1.Register(1, Zone::kPrivate, &handler1, true);
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return node1.counters().connections_dialed == 1 &&
           node1.counters().frames_sent == 1;
  })) << "the dial did not complete against the bare listener";

  TcpTransportOptions adopting = options;
  adopting.listen_fd = *listener;
  TcpTransport node0(&loop, adopting);
  std::vector<std::pair<PrincipalId, PrincipalId>> links;
  node0.SetLinkUpHandler(
      [&](PrincipalId local, PrincipalId peer) { links.emplace_back(local, peer); });
  RecordingHandler handler0;
  node0.Register(0, Zone::kPrivate, &handler0, true);
  ASSERT_TRUE(node0.status().ok()) << node0.status().ToString();

  ASSERT_TRUE(RunUntil(&loop, [&] {
    return node0.ConnectedTo(1) && node1.ConnectedTo(0);
  })) << "the early dial was never accepted";
  // The HELLO that waited in the backlog identified replica 1.
  EXPECT_EQ(links, (std::vector<std::pair<PrincipalId, PrincipalId>>{{0, 1}}));

  node1.Send(1, 0, Payload(AsBytes("early")));
  ASSERT_TRUE(RunUntil(&loop, [&] { return !handler0.messages.empty(); }));
  EXPECT_EQ(handler0.froms, (std::vector<PrincipalId>{1}));
  EXPECT_EQ(handler0.messages[0], AsBytes("early"));
  EXPECT_EQ(node0.counters().connections_accepted, 1u);
  EXPECT_EQ(node1.counters().connection_failures, 0u) << "no dial refused";
  EXPECT_EQ(node0.counters().connection_failures, 0u);
}

TEST(RtTransport, AdoptedListenerMustListenOnTheReplicaPort) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());

  // Bound to replica 1's port, handed to replica 0: refused, not served.
  Result<int> listener = BindLoopbackListener(19251);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = 19250;
  options.listen_fd = *listener;
  TcpTransport node0(&loop, options);
  RecordingHandler handler0;
  node0.Register(0, Zone::kPrivate, &handler0, true);
  EXPECT_EQ(node0.status().code(), StatusCode::kInvalidArgument)
      << node0.status().ToString();
}

TEST(RtTransport, PortBlockMustFitTheTcpPortRange) {
  EXPECT_TRUE(CheckPortBlock(1, 6).ok());
  EXPECT_TRUE(CheckPortBlock(65530, 6).ok()) << "ports 65530..65535";
  EXPECT_FALSE(CheckPortBlock(65531, 6).ok()) << "replica 5 would wrap";
  EXPECT_FALSE(CheckPortBlock(0, 6).ok());
  EXPECT_FALSE(CheckPortBlock(-1, 6).ok());
  EXPECT_FALSE(CheckPortBlock(70000, 1).ok());

  // A transport handed a block that wraps refuses to start.
  EventLoop loop;
  TcpTransportOptions options;
  options.num_replicas = 4;
  options.base_port = 65533;
  TcpTransport transport(&loop, options);
  EXPECT_EQ(transport.status().code(), StatusCode::kInvalidArgument);
}

TEST(RtScenario, BackendFieldRoundTripsThroughJson) {
  using scenario::BackendKind;
  EXPECT_STREQ(scenario::BackendKindToken(BackendKind::kSim), "sim");
  EXPECT_STREQ(scenario::BackendKindToken(BackendKind::kTcp), "tcp");
  const auto parsed = scenario::BackendKindFromToken("tcp");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, BackendKind::kTcp);
  EXPECT_FALSE(scenario::BackendKindFromToken("udp").ok());

  scenario::ScenarioSpec spec;
  EXPECT_EQ(spec.backend, BackendKind::kSim) << "sim is the default";
  spec.backend = BackendKind::kTcp;
  const auto decoded = scenario::ScenarioSpec::FromJsonText(spec.ToJsonText());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->backend, BackendKind::kTcp);
}

}  // namespace
}  // namespace rt
}  // namespace seemore
