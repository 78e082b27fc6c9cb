// Quickstart: describe a SeeMoRe deployment as a declarative ScenarioSpec,
// build the simulated hybrid-cloud cluster from it, write and read a few
// keys, inspect roles and stats.
//
// Topology: the paper's base case (c = m = 1) — a private cloud of 2
// trusted nodes (at most 1 may crash) renting 4 public nodes (at most 1 may
// be Byzantine), N = 3m+2c+1 = 6, running in Lion mode.

#include <cstdio>

#include "scenario/builder.h"
#include "scenario/engine.h"

using namespace seemore;

int main() {
  // 1. Describe the deployment. The same spec could be written as JSON and
  //    run with `seemore_ctl --scenario=...` (see examples/README.md).
  scenario::ScenarioBuilder builder;
  builder.Name("quickstart")
      .SeeMoRe(SeeMoReMode::kLion, /*c=*/1, /*m=*/1)
      .CloudSizes(/*s=*/2, /*p=*/4)
      .Seed(2024);

  // 2. Build the cluster from the validated spec: simulator + network + 6
  //    replicas, each running a replicated key-value store.
  Result<scenario::ScenarioSpec> spec = builder.Build();
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  Cluster cluster(*spec);
  std::printf("cluster: %s\n", cluster.config().ToString().c_str());
  for (int i = 0; i < cluster.n(); ++i) {
    std::printf("  replica %d: %s cloud%s\n", i,
                cluster.config().IsTrusted(i) ? "private" : "public ",
                cluster.seemore(i)->IsPrimary() ? "  <- primary" : "");
  }

  // 3. Attach a client and issue requests. SubmitOne hands the result to a
  //    callback once the mode's reply quorum is reached (for Lion: the
  //    trusted primary's signed reply).
  SimClient* client = cluster.AddClient();

  auto put_done = [](const Bytes& result) {
    std::printf("PUT  -> %s\n",
                ParseKvReply(result).status == KvResult::kOk ? "OK" : "error");
  };
  client->SubmitOne(MakePut("paper", "SeeMoRe (ICDE 2020)"), put_done);
  client->SubmitOne(MakePut("modes", "Lion, Dog, Peacock"), put_done);
  client->SubmitOne(MakeGet("paper"), [](const Bytes& result) {
    KvReply reply = ParseKvReply(result);
    std::printf("GET paper -> \"%s\"\n", reply.value.c_str());
  });

  // 4. Drive the simulation until everything settles.
  cluster.sim().Run();

  // 5. Inspect what happened.
  std::printf("\nafter %0.2f simulated ms:\n", ToMillis(cluster.sim().now()));
  std::printf("  client completed %llu requests, mean latency %.2f ms\n",
              static_cast<unsigned long long>(client->completed()),
              client->latencies().Mean() / 1e6);
  for (int i = 0; i < cluster.n(); ++i) {
    std::printf("  replica %d executed %llu requests (last seq %llu)\n", i,
                static_cast<unsigned long long>(
                    cluster.replica(i)->stats().requests_executed),
                static_cast<unsigned long long>(
                    cluster.seemore(i)->last_executed()));
  }
  Status agreement = cluster.CheckAgreement();
  std::printf("  agreement invariant: %s\n", agreement.ToString().c_str());
  return agreement.ok() ? 0 : 1;
}
