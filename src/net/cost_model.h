// CPU cost model charged by replicas for message handling and cryptography.
//
// The simulator replaces the paper's c4.2xlarge VMs; these constants are the
// knobs that make one virtual node behave like one such VM. Defaults are
// calibrated so the baseline protocols reach peak throughputs of the same
// order as the paper's Figure 2 (tens of Kreq/s) with the same relative
// ordering. Benchmarks may override any field.

#ifndef SEEMORE_NET_COST_MODEL_H_
#define SEEMORE_NET_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "util/time.h"

namespace seemore {

struct CostModel {
  /// Fixed CPU time to receive + dispatch any message.
  SimTime recv_fixed = Micros(2);
  /// Fixed CPU time to construct + enqueue any outgoing message.
  SimTime send_fixed = Micros(1);
  /// Marginal CPU per KiB of payload handled (serialize/copy).
  SimTime per_kib = Micros(1);
  /// Public-key signature generation (paper's σ_r); priced like a fast
  /// Ed25519 sign on a 3.5 GHz core.
  SimTime sign = Micros(18);
  /// Public-key signature verification.
  SimTime verify = Micros(45);
  /// Pairwise channel MAC (generate or check).
  SimTime mac = Micros(1);
  /// SHA-256 digest per KiB.
  SimTime hash_per_kib = Micros(3);
  /// Fixed digest cost (short messages).
  SimTime hash_fixed = Micros(1);
  /// Executing one state-machine operation.
  SimTime execute = Micros(2);
  /// Flushing the write-ahead log / snapshot store to stable media (one
  /// fsync); the default models a datacenter NVMe flush. Only with a
  /// durable store attached: a commit-record sync is a storage completion
  /// this long after it starts and occupies no CPU, while view-record,
  /// segment-seal and snapshot syncs are charged to the replica's CPU.
  SimTime fsync = Micros(120);
  /// Marginal CPU per KiB serialized into the durable store (buffered
  /// write path, no flush included).
  SimTime storage_write_per_kib = Micros(1);

  SimTime PayloadCost(size_t bytes) const {
    return per_kib * static_cast<SimTime>((bytes + 1023) / 1024);
  }
  SimTime StorageWriteCost(size_t bytes) const {
    return storage_write_per_kib * static_cast<SimTime>((bytes + 1023) / 1024);
  }
  SimTime HashCost(size_t bytes) const {
    return hash_fixed + hash_per_kib * static_cast<SimTime>(bytes / 1024);
  }
};

}  // namespace seemore

#endif  // SEEMORE_NET_COST_MODEL_H_
