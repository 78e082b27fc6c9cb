// Google-benchmark microbenchmarks for the substrates: crypto primitives,
// wire serialization, the discrete-event simulator, the network layer and
// the tcp runtime's event loop.
// These quantify the real (host) cost of the building blocks, independent of
// the virtual-time cost model.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "consensus/batch.h"
#include "crypto/hmac_sha256.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "rt/event_loop.h"
#include "sim/simulator.h"
#include "smr/command.h"
#include "smr/kv_store.h"

namespace seemore {
namespace {

void BM_Sha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  Bytes data(size, 0xab);
  for (auto _ : state) {
    auto digest = Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(64 * 1024);

void BM_HmacSha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  Bytes key(32, 0x11);
  Bytes data(size, 0xcd);
  for (auto _ : state) {
    auto tag = HmacSha256::Mac(key, data);
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_SignVerify(benchmark::State& state) {
  KeyStore store(7);
  Signer signer(0, store);
  Bytes msg(128, 0x42);
  for (auto _ : state) {
    Signature sig = signer.Sign(msg);
    bool ok = store.Verify(0, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SignVerify);

void BM_ReplySignVerify(benchmark::State& state) {
  // One reply's MAC on each side: the replica signs, the client verifies.
  // Both stream a stack header and then the result in place.
  KeyStore store(7);
  Signer signer(2, store);
  Reply reply;
  reply.mode = 1;
  reply.view = 3;
  reply.replica = 2;
  reply.result = Bytes(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    ++reply.timestamp;
    reply.Sign(signer);
    bool ok = reply.VerifySignature(store);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ReplySignVerify)->Arg(0)->Arg(1024);

void BM_BatchEncodeDecode(benchmark::State& state) {
  const int requests = static_cast<int>(state.range(0));
  KeyStore store(3);
  Signer signer(kClientIdBase, store);
  Batch batch;
  for (int i = 0; i < requests; ++i) {
    Request request;
    request.client = kClientIdBase;
    request.timestamp = static_cast<uint64_t>(i + 1);
    request.op = MakePut("key-" + std::to_string(i), "value");
    request.Sign(signer);
    batch.requests.push_back(std::move(request));
  }
  for (auto _ : state) {
    Bytes encoded = batch.Encode();
    auto decoded = Batch::Decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_BatchEncodeDecode)->Arg(1)->Arg(16)->Arg(256);

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim(1);
    uint64_t counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.Schedule(static_cast<SimTime>(sim.rng().NextBounded(1000000)),
                   [&counter] { ++counter; });
    }
    state.ResumeTiming();
    sim.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEvents);

void BM_EventLoopTimerChurn(benchmark::State& state) {
  // The per-request timer pattern on the tcp runtime (a backup's view
  // timer, a client's retransmit timeout): arm a far deadline, cancel it.
  rt::EventLoop loop;
  uint64_t fired = 0;
  for (auto _ : state) {
    const EventId id =
        loop.ScheduleAfter(Seconds(60), [&fired] { ++fired; });
    bool cancelled = loop.CancelEvent(id);
    benchmark::DoNotOptimize(cancelled);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopTimerChurn);

class CountingHandler : public MessageHandler {
 public:
  void OnMessage(PrincipalId, Payload) override { ++count; }
  uint64_t count = 0;
};

void BM_NetworkDelivery(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim(1);
    NetworkConfig config;
    SimNetwork net(&sim, config);
    CountingHandler handlers[4];
    for (int i = 0; i < 4; ++i) {
      net.AddNode(i, Zone::kPrivate, &handlers[i], nullptr);
    }
    Bytes payload(256, 0x77);
    state.ResumeTiming();
    for (int round = 0; round < 1000; ++round) {
      net.Multicast(0, {1, 2, 3}, payload);
    }
    sim.Run();
    benchmark::DoNotOptimize(handlers[1].count);
  }
  state.SetItemsProcessed(state.iterations() * 3000);
}
BENCHMARK(BM_NetworkDelivery);

void BM_KvExecute(benchmark::State& state) {
  KvStateMachine kv;
  uint64_t i = 0;
  for (auto _ : state) {
    Bytes result = kv.Execute(MakePut("key-" + std::to_string(i % 1000),
                                      "value-" + std::to_string(i)));
    benchmark::DoNotOptimize(result);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvExecute);

}  // namespace
}  // namespace seemore

// BENCHMARK_MAIN, plus a default machine-readable output (BENCH_micro.json)
// when the caller does not pass --benchmark_out themselves — the perf
// trajectory of the substrates is tracked across PRs.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=BENCH_micro.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
