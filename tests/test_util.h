// Shared helpers for protocol integration tests: canned cluster specs,
// convenience runners, and completion predicates.

#ifndef SEEMORE_TESTS_TEST_UTIL_H_
#define SEEMORE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/runner.h"
#include "scenario/builder.h"

namespace seemore {
namespace testing {

/// Fast, deterministic network for tests (small latency, some jitter so
/// message reordering happens).
inline NetworkConfig TestNet() {
  NetworkConfig net;
  net.intra_private = {Micros(80), Micros(20)};
  net.intra_public = {Micros(80), Micros(20)};
  net.cross_cloud = {Micros(120), Micros(30)};
  net.client_link = {Micros(120), Micros(30)};
  return net;
}

/// The consensus tuning the protocol tests were written against (batch 16,
/// pipeline 8, checkpoint every 16 seqs, 20 ms view-change timeout) on the
/// test network; the protocol and topology are left to the caller.
inline scenario::ScenarioBuilder TestBuilder(uint64_t seed) {
  scenario::ScenarioBuilder builder;
  builder.Batching(/*batch_max=*/16, /*pipeline_max=*/8)
      .CheckpointPeriod(16)
      .ViewChangeTimeout(Millis(20))
      .Network(TestNet())
      .Seed(seed)
      .RetransmitTimeout(Millis(60));
  return builder;
}

inline scenario::ScenarioSpec SeeMoReSpec(SeeMoReMode mode, int c, int m,
                                          uint64_t seed = 1) {
  // The paper's bench topology (§6.1), with at least one private replica
  // surviving its c crashes.
  const int s = std::max(2 * c, c + 1);
  return TestBuilder(seed).SeeMoRe(mode, c, m).CloudSizes(s, 3 * m + 1).spec();
}

inline scenario::ScenarioSpec CftSpec(int f, uint64_t seed = 1) {
  return TestBuilder(seed).Cft(f).spec();
}

inline scenario::ScenarioSpec BftSpec(int f, uint64_t seed = 1) {
  return TestBuilder(seed).Bft(f).spec();
}

inline scenario::ScenarioSpec SUpRightSpec(int c, int m, uint64_t seed = 1) {
  return TestBuilder(seed)
      .SUpRight(c, m)
      .CloudSizes(2 * c, HybridNetworkSize(m, c) - 2 * c)
      .spec();
}

/// Submit one KV op synchronously: drives the simulator until the reply
/// quorum is reached (or `timeout` passes). Returns the result bytes.
inline Result<Bytes> SubmitAndWait(Cluster& cluster, SimClient* client,
                                   Bytes op, SimTime timeout = Seconds(5)) {
  Bytes result;
  bool done = false;
  client->SubmitOne(std::move(op), [&](const Bytes& r) {
    result = r;
    done = true;
  });
  const SimTime deadline = cluster.sim().now() + timeout;
  while (!done && cluster.sim().now() < deadline) {
    if (!cluster.sim().Step()) break;
    if (cluster.sim().now() > deadline) break;
  }
  if (!done) return Status::Timeout("request did not complete");
  return result;
}

/// Run `clients` closed-loop KV clients (creating any the cluster lacks)
/// for `duration`, stop them, and return their total completions.
inline uint64_t RunBurst(Cluster& cluster, int clients, SimTime duration,
                         uint64_t seed = 7) {
  const OpFactory ops = KvWorkload(seed, 64, 0.5);
  while (cluster.num_clients() < clients) cluster.AddClient();
  for (int i = 0; i < clients; ++i) cluster.client(i)->Start(ops);
  const SimTime start = cluster.sim().now();
  cluster.sim().RunUntil(start);  // a zero-length warmup
  for (int i = 0; i < clients; ++i) cluster.client(i)->ResetStats();
  cluster.sim().RunUntil(start + duration);
  std::vector<SimClient*> burst;
  for (int i = 0; i < clients; ++i) burst.push_back(cluster.client(i));
  return StopAndSummarize(burst, duration).completed;
}

/// The view replica `i` is in, whatever its protocol.
inline uint64_t ViewOf(Cluster& cluster, int i) {
  switch (cluster.config().kind) {
    case ProtocolKind::kSeeMoRe:
      return cluster.seemore(i)->view();
    case ProtocolKind::kCft:
      return cluster.paxos(i)->view();
    case ProtocolKind::kBft:
    case ProtocolKind::kSUpRight:
      return cluster.pbft(i)->view();
  }
  return 0;
}

}  // namespace testing
}  // namespace seemore

#endif  // SEEMORE_TESTS_TEST_UTIL_H_
