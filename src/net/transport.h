// Transport / Clock abstraction layer.
//
// Protocol code (consensus, seemore, baselines, smr) talks to the network
// and to time exclusively through these interfaces; it never names a
// concrete backend. The first implementation is the deterministic
// discrete-event pair {SimNetwork, Simulator} (net/network.h,
// sim/simulator.h); the seam exists so a real socket backend, message
// pipelining, or parallel signature verification can slot in without
// touching a single replica (see DESIGN.md §2).

#ifndef SEEMORE_NET_TRANSPORT_H_
#define SEEMORE_NET_TRANSPORT_H_

#include <functional>
#include <vector>

#include "crypto/keystore.h"
#include "util/time.h"
#include "wire/payload.h"
#include "wire/wire.h"

namespace seemore {

/// Where a node lives; decides link latency and trust class.
enum class Zone {
  kPrivate,  // enterprise-owned, crash-only
  kPublic,   // rented, possibly Byzantine
  kClient,
};

/// Receives messages delivered by the transport. The transport authenticates
/// the sender: `from` is always the true origin of the message (pairwise
/// authenticated channels, paper §3.1). The payload is shared immutable
/// storage — a multicast hands every receiver the same buffer — so a
/// handler that wants a mutable view must copy the bytes out.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void OnMessage(PrincipalId from, Payload payload) = 0;
};

/// Read-only virtual (or wall) clock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual SimTime Now() const = 0;
};

/// Clock plus one-shot timers. Timer callbacks run on the owning node's
/// event loop; Cancel is best-effort (returns false if already fired).
class TimerService : public Clock {
 public:
  /// Schedule `fn` to run `delay` from now (delay < 0 is clamped to 0).
  /// The returned id is never 0.
  virtual EventId ScheduleAfter(SimTime delay, std::function<void()> fn) = 0;

  /// Cancel a pending timer. Returns false if it already fired or was
  /// cancelled.
  virtual bool CancelEvent(EventId id) = 0;
};

/// Per-node processing-time account. In the simulator this is the node's
/// single-threaded virtual CPU: charged work delays subsequent message
/// handling and departures. A real backend may account but not delay.
class CpuMeter {
 public:
  virtual ~CpuMeter() = default;

  /// Account `cost` of CPU time to the work currently being processed.
  virtual void Charge(SimTime cost) = 0;

  /// Earliest time new work (or an outgoing message) can leave this node.
  /// Failure detectors subtract Now() from this to ignore their own backlog.
  virtual SimTime AvailableAt() const = 0;

  /// Total busy time accumulated so far (utilization metrics).
  virtual SimTime total_busy() const = 0;
};

/// Point-to-point message transport between registered principals.
///
/// Guarantees mirrored from the paper's model (§3.1): channels are pairwise
/// authenticated (delivery reports the true sender; identities cannot be
/// forged), but messages may be dropped, delayed, duplicated or reordered.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Attach `handler` as node `id` in `zone`. `handler` must outlive the
  /// transport. When `metered` is true, the returned meter (owned by the
  /// transport, never null) accounts the node's processing time and message
  /// delivery queues behind it; unmetered nodes (clients, test stubs)
  /// process instantly and get nullptr.
  virtual CpuMeter* Register(PrincipalId id, Zone zone,
                             MessageHandler* handler, bool metered) = 0;

  /// Send `payload` from `from` to `to`. Never blocks; undeliverable
  /// messages are silently dropped (the protocols tolerate loss by design).
  /// Copying a Payload is a refcount bump, so queuing/delivery never copies
  /// the bytes.
  virtual void Send(PrincipalId from, PrincipalId to, Payload payload) = 0;

  /// Send the same payload to every id in `targets` except `from` itself.
  /// Point-to-point delivery semantics, but zero-copy: every receiver
  /// shares the one underlying buffer.
  virtual void Multicast(PrincipalId from,
                         const std::vector<PrincipalId>& targets,
                         const Payload& payload) = 0;

  /// Detach / reattach a node entirely (crash fault injection: models a
  /// crashed machine's NIC). Messages to/from a down node are dropped.
  virtual void SetNodeUp(PrincipalId id, bool up) = 0;
};

}  // namespace seemore

#endif  // SEEMORE_NET_TRANSPORT_H_
