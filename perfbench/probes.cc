// Layer probes: the median host time of each layer's public functions on
// the message shapes the workload puts through it (request size, requests
// per proposal, mode), using whatever SHA-256 / CRC32C kernel is active.

#include <algorithm>
#include <functional>

#include "bench.h"
#include "consensus/batch.h"
#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "harness/runner.h"
#include "rt/event_loop.h"
#include "rt/frame.h"
#include "rt/tcp_transport.h"
#include "smr/command.h"
#include "smr/kv_store.h"
#include "storage/file_store.h"
#include "storage/medium.h"
#include "wire/messages.h"

namespace seemore {
namespace perfbench {
namespace {

/// Keeps `value` alive in the optimizer's eyes.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Median over rounds of the mean ns per call within a round: per-call
/// timer reads would swamp the nanosecond-scale calls.
double MedianNs(int per_round, const std::function<void()>& call) {
  constexpr int kRounds = 31;
  call();  // warm caches and lazy state
  std::vector<double> rounds;
  rounds.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    const int64_t start = NowNs();
    for (int i = 0; i < per_round; ++i) call();
    rounds.push_back(static_cast<double>(NowNs() - start) / per_round);
  }
  std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2, rounds.end());
  return rounds[kRounds / 2];
}

struct EchoHandler final : MessageHandler {
  void OnMessage(PrincipalId from, Payload payload) override {
    transport->Send(self, from, std::move(payload));
  }
  Transport* transport = nullptr;
  PrincipalId self = 0;
};

struct ArrivalHandler final : MessageHandler {
  void OnMessage(PrincipalId, Payload) override {
    arrived = true;
    loop->Stop();
  }
  rt::EventLoop* loop = nullptr;
  bool arrived = false;
};

/// Median round trip of one `message`-sized frame between two TcpTransports
/// on one in-process EventLoop (µs); -1 when the pair never connected.
double LoopbackRttUs(const Bytes& message) {
  rt::EventLoop loop;
  if (!loop.init_status().ok()) return -1;
  rt::TcpTransportOptions options;
  options.num_replicas = 2;
  options.base_port = FreshPortBlock(2);
  options.fingerprint = 0x7065726662656e63ULL;
  if (options.base_port == 0) return -1;
  rt::TcpTransport echo_side(&loop, options);
  rt::TcpTransport ping_side(&loop, options);
  EchoHandler echo;
  echo.transport = &echo_side;
  ArrivalHandler arrival;
  arrival.loop = &loop;
  echo_side.Register(0, Zone::kPrivate, &echo, /*metered=*/false);
  ping_side.Register(1, Zone::kPrivate, &arrival, /*metered=*/false);
  const SimTime give_up = loop.Now() + Seconds(5);
  while (!(echo_side.ConnectedTo(1) && ping_side.ConnectedTo(0))) {
    if (loop.Now() > give_up) return -1;
    loop.Run(Millis(5));
  }

  constexpr int kTrips = 2001;
  std::vector<double> trips;
  trips.reserve(kTrips);
  for (int i = 0; i < kTrips; ++i) {
    arrival.arrived = false;
    // A fresh buffer per trip, as every real request is one.
    Payload payload{Bytes(message)};
    const int64_t start = NowNs();
    ping_side.Send(1, 0, std::move(payload));
    while (!arrival.arrived) {
      loop.Run(Seconds(1));
      if (!arrival.arrived && loop.Now() > give_up + Seconds(30)) return -1;
    }
    trips.push_back(static_cast<double>(NowNs() - start) / 1000.0);
  }
  std::nth_element(trips.begin(), trips.begin() + kTrips / 2, trips.end());
  return trips[kTrips / 2];
}

}  // namespace

std::vector<std::pair<std::string, double>> RunProbes(const ProbeShape& shape,
                                                      SpanRecorder* spans) {
  ScopedSpan all(spans, "probes");
  std::vector<std::pair<std::string, double>> probes;
  const auto probe = [&](const char* name, int per_round,
                         const std::function<void()>& call) {
    ScopedSpan span(spans, std::string("probe.") + name);
    probes.emplace_back(name, MedianNs(per_round, call));
  };

  // The workload's request and the proposal that carries a batch of them.
  const KeyStore keystore(0x5eed);
  const Signer client_signer(kClientIdBase, keystore);
  const Signer primary_signer(0, keystore);
  Request request;
  request.client = kClientIdBase;
  request.timestamp = 1;
  request.op = EchoWorkload(shape.request_kb, 0)(0);
  request.Sign(client_signer);
  Batch batch;
  for (int i = 0; i < std::max(1, shape.batch_requests); ++i) {
    Request copy = request;
    copy.timestamp = static_cast<uint64_t>(i) + 1;
    copy.Sign(client_signer);
    batch.requests.push_back(std::move(copy));
  }
  const Bytes batch_bytes = batch.Encode();
  SmPrepareMsg prepare;
  prepare.mode = static_cast<uint8_t>(shape.mode);
  prepare.seq = 1;
  prepare.digest = Digest::Of(batch_bytes);
  prepare.batch = batch_bytes;
  const Bytes header = prepare.Header();
  prepare.sig = primary_signer.Sign(header);
  const Bytes message = prepare.ToMessage();
  const Payload message_payload{Bytes(message)};

  probe("crypto.digest_ns", 64, [&] { Keep(Digest::Of(batch_bytes)); });
  probe("crypto.sign_ns", 256, [&] { Keep(primary_signer.Sign(header)); });
  probe("crypto.verify_ns", 256, [&] {
    const bool ok = keystore.Verify(0, header, prepare.sig);
    Keep(ok);
  });
  probe("wire.encode_ns", 64, [&] { Keep(prepare.ToMessage()); });
  probe("wire.decode_ns", 64, [&] {
    Decoder dec(message);
    dec.GetU8();
    Keep(SmPrepareMsg::DecodeFrom(dec));
  });
  probe("rt.frame_encode_ns", 256,
        [&] { Keep(rt::FrameBuffer::Wrap(message_payload)); });
  {
    KvStateMachine machine;
    probe("smr.execute_ns", 256, [&] { Keep(machine.Execute(request.op)); });
  }
  {
    // A WAL commit record per call on the in-memory medium the simulator
    // gives each replica, synced after every record.
    storage::MemMedium medium;
    DurabilityOptions durability;
    durability.enabled = true;
    durability.fsync_interval = 1;
    storage::FileDurableStore store(&medium, durability, CostModel{});
    if (store.OpenFresh().ok()) {
      uint64_t seq = 0;
      probe("storage.append_ns", 32,
            [&] { store.AppendCommit(++seq, batch); });
    } else {
      probes.emplace_back("storage.append_ns", -1);
    }
  }
  {
    ScopedSpan span(spans, "probe.rt.loopback_rtt_us");
    probes.emplace_back("rt.loopback_rtt_us",
                        LoopbackRttUs(request.ToMessage()));
  }
  return probes;
}

}  // namespace perfbench
}  // namespace seemore
