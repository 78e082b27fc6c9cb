// The link-fault model of both runtimes (DESIGN.md §12): which directed
// links are cut, which carry extra delay/jitter/loss, and whether the two
// clouds are partitioned.
//
// Every message asks Admit() once before it enters a link: SimNetwork::Send
// in the simulator, TcpTransport::Send and ::Multicast on the tcp backend.
// The answer is drop, or how long to hold the message first. The one other
// link-fault decision is tcp's receive-side cut check (ShouldDropInbound):
// frames can already sit in socket buffers when a cut lands, and the
// receiver refuses them. The simulator checks cuts only at send time.
//
// Links are DIRECTED: cutting 4 -> 0 leaves 0 -> 4 delivering, which is
// the asymmetric one-way loss the paper never stresses. A cloud partition
// cuts every private<->public replica pair in both directions. It is kept
// apart from the directed cuts: Heal() undoes exactly the partition, and a
// directed cut or shape stays until its own restore or all-zero shape.
//
// Shaping (per-link delay/jitter/drop) is deterministic: the jitter and
// drop draws come from the plane's own generator, seeded from the run
// seed, so the simulator's RNG stream is never touched and an unshaped
// link draws nothing. Held messages keep per-link FIFO order: release
// times (now + hold) are monotone per directed link.
//
// Everything here is plain single-threaded state, mutated on the owning
// event loop (the simulator's or the transport's).

#ifndef SEEMORE_NET_FAULT_PLANE_H_
#define SEEMORE_NET_FAULT_PLANE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "crypto/keystore.h"
#include "util/time.h"

namespace seemore {

class FaultPlane {
 public:
  explicit FaultPlane(uint64_t seed = 0)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL) {}

  /// Per-directed-link traffic shaping.
  struct Shape {
    SimTime delay = 0;      // fixed extra latency
    SimTime jitter = 0;     // uniform extra [0, jitter)
    uint32_t drop_ppm = 0;  // drop probability, parts-per-million
  };

  /// --- command side ------------------------------------------------------
  void CutLink(int from, int to);
  void RestoreLink(int from, int to);
  /// Cut every private<->public replica pair in both directions until
  /// Heal() (trusted = id < trusted_count, per the hybrid model §3.1).
  void PartitionClouds(int trusted_count, int num_replicas);
  /// Undo the partition, and only the partition. Returns true when one was
  /// in place (the transport resets dial backoff only on a real heal).
  bool Heal();
  /// All-zero removes the link's shaping.
  void ShapeLink(int from, int to, const Shape& shape);

  /// --- filter side -------------------------------------------------------
  /// Anything to check at all? One branch on the hot path when idle.
  bool active() const {
    return partition_replicas_ > 0 || !cut_.empty() || !shapes_.empty();
  }

  /// The one admission call of both runtimes' send paths: nullopt drops the
  /// message (cut link, or the link's drop_ppm draw); otherwise how long to
  /// hold it before it enters the link (0 = now).
  std::optional<SimTime> Admit(PrincipalId from, PrincipalId to,
                               SimTime now) {
    if (!active()) return SimTime{0};
    if (ShouldDropOutbound(from, to)) return std::nullopt;
    return HoldFor(from, to, now);
  }

  /// Admit's two halves: drop when the directed link is cut or by the
  /// link's drop_ppm draw; then the hold, monotone per directed link.
  bool ShouldDropOutbound(PrincipalId from, PrincipalId to);
  SimTime HoldFor(PrincipalId from, PrincipalId to, SimTime now);
  /// tcp's receive-side check: only cuts apply (probabilistic loss already
  /// happened on the send side; applying it twice would square the rate).
  bool ShouldDropInbound(PrincipalId from, PrincipalId to) const {
    return IsCut(from, to);
  }
  bool IsCut(int from, int to) const;

 private:
  static uint64_t DirectedKey(PrincipalId from, PrincipalId to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }
  uint64_t NextRandom();

  std::unordered_set<uint64_t> cut_;
  std::unordered_map<uint64_t, Shape> shapes_;
  /// Last scheduled release per shaped link, for FIFO under jitter.
  std::unordered_map<uint64_t, SimTime> last_release_;
  /// The partition: replicas [0, trusted) vs [trusted, replicas); 0
  /// replicas = none.
  int partition_trusted_ = 0;
  int partition_replicas_ = 0;
  uint64_t rng_;
};

}  // namespace seemore

#endif  // SEEMORE_NET_FAULT_PLANE_H_
