#include "harness/runner.h"

#include <cstdio>

#include "util/rng.h"

namespace seemore {

std::string RunResult::ToString() const {
  char buf[220];
  std::snprintf(buf, sizeof(buf),
                "clients=%-4d thrpt=%7.2f kreq/s  lat(mean/p50/p90/p99)="
                "%6.2f/%6.2f/%6.2f/%6.2f ms  completed=%llu retx=%llu",
                clients, throughput_kreqs, mean_latency_ms, p50_latency_ms,
                p90_latency_ms, p99_latency_ms,
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(retransmissions));
  return buf;
}

Json RunResult::ToJson() const {
  Json j = Json::Object();
  j.Set("clients", clients);
  j.Set("throughput_kreqs", throughput_kreqs);
  j.Set("mean_latency_ms", mean_latency_ms);
  j.Set("p50_latency_ms", p50_latency_ms);
  j.Set("p90_latency_ms", p90_latency_ms);
  j.Set("p99_latency_ms", p99_latency_ms);
  j.Set("completed", completed);
  j.Set("retransmissions", retransmissions);
  j.Set("wall_time_ms", wall_time_ms);
  return j;
}

OpFactory EchoWorkload(uint32_t request_kb, uint32_t reply_kb) {
  const uint32_t request_bytes = request_kb * 1024;
  const uint32_t reply_bytes = reply_kb * 1024;
  return [request_bytes, reply_bytes](uint64_t) {
    return MakeEcho(reply_bytes, request_bytes);
  };
}

OpFactory KvWorkload(uint64_t seed, int key_space, double put_fraction) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng, key_space, put_fraction](uint64_t n) {
    char key[32];
    std::snprintf(key, sizeof(key), "key-%llu",
                  static_cast<unsigned long long>(
                      rng->NextBounded(static_cast<uint64_t>(key_space))));
    if (rng->NextBool(put_fraction)) {
      char value[48];
      std::snprintf(value, sizeof(value), "value-%llu",
                    static_cast<unsigned long long>(n));
      return MakePut(key, value);
    }
    return MakeGet(key);
  };
}

RunResult StopAndSummarize(const std::vector<SimClient*>& clients,
                           SimTime window) {
  RunResult result;
  result.clients = static_cast<int>(clients.size());
  Histogram merged;
  for (SimClient* client : clients) {
    result.completed += client->completed();
    result.retransmissions += client->retransmissions();
    merged.Merge(client->latencies());
    client->Stop();
  }
  if (window > 0) {
    const double seconds =
        static_cast<double>(window) / static_cast<double>(kNanosPerSecond);
    result.throughput_kreqs =
        static_cast<double>(result.completed) / seconds / 1000.0;
  }
  const double to_ms = static_cast<double>(kNanosPerMilli);
  result.mean_latency_ms = merged.Mean() / to_ms;
  result.p50_latency_ms = merged.P50() / to_ms;
  result.p90_latency_ms = merged.P90() / to_ms;
  result.p99_latency_ms = merged.P99() / to_ms;
  return result;
}

void ThroughputTimeline::Record(SimTime when) {
  const size_t bucket = static_cast<size_t>(when / bucket_width);
  if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0);
  buckets[bucket] += 1;
}

double ThroughputTimeline::KreqsAt(size_t i) const {
  if (i >= buckets.size()) return 0.0;
  const double seconds =
      static_cast<double>(bucket_width) / static_cast<double>(kNanosPerSecond);
  return static_cast<double>(buckets[i]) / seconds / 1000.0;
}

}  // namespace seemore
