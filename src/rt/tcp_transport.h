// Real Transport over non-blocking TCP on an EventLoop.
//
// One TcpTransport per process serves every principal registered in that
// process (a node process registers its one replica; the launcher process
// registers all clients). Replica r listens on base_port + r; clients have
// no listener. Connection ownership is deterministic: a replica dials every
// replica with a smaller id and accepts from larger ids and clients, so
// each principal pair shares exactly one duplex connection. Every
// established connection opens with a HELLO frame (rt/frame.h) announcing
// the dialer's principal id and the cluster fingerprint — the transport's
// pairwise-authenticated-channel guarantee on localhost.
//
// Loss semantics mirror the Transport contract exactly: Send never blocks;
// a message with no established connection, a crashed local node, or a full
// write queue is silently dropped and counted — the protocols already
// tolerate loss, and a dialer retries its connection with exponential
// backoff, so process kill + respawn looks like the message loss the
// simulator injects.
//
// Wire path (DESIGN.md §12): a send wraps the payload in one refcounted
// FrameBuffer — a multicast enqueues that same buffer on every peer's
// WriteQueue, so fan-out never re-encodes or copies. Enqueues only mark the
// connection flush-pending; the actual flush runs once per io batch
// (EventLoop::Post) as a single sendmsg over the queue's iovec chain.
// Receives land directly in pooled blocks shared by every connection and
// reach handlers as Payload views aliasing the block. TcpCounters keeps
// the syscall/copy ledger that BENCH_realnet surfaces.

#ifndef SEEMORE_RT_TCP_TRANSPORT_H_
#define SEEMORE_RT_TCP_TRANSPORT_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fault_plane.h"
#include "net/transport.h"
#include "rt/event_loop.h"
#include "rt/frame.h"
#include "rt/write_queue.h"
#include "util/json.h"

namespace seemore {
namespace rt {

/// Principal id the launcher's fault controller registers as: above every
/// client id (clients are kClientIdBase + i) so AcceptHello admits it via
/// the client rule, yet recognizable by every node as the one principal
/// whose frames are CONTROL commands, not protocol messages.
inline constexpr PrincipalId kFaultControllerId = kClientIdBase * 2 - 1;

/// Accounting-only CpuMeter: real nodes burn real CPU, so Charge() tracks
/// the cost-model total for report provenance but never delays delivery
/// (the contract net/transport.h reserves for real backends).
class RtCpuMeter final : public CpuMeter {
 public:
  explicit RtCpuMeter(const Clock* clock) : clock_(clock) {}

  void Charge(SimTime cost) override { total_busy_ += cost; }
  SimTime AvailableAt() const override { return clock_->Now(); }
  SimTime total_busy() const override { return total_busy_; }

 private:
  const Clock* clock_;
  SimTime total_busy_ = 0;
};

struct TcpTransportOptions {
  /// Cluster size; replica ids 0..num_replicas-1 map to listener ports.
  int num_replicas = 0;
  uint16_t base_port = 18500;
  /// Cluster-instance fingerprint carried in HELLO (launcher: the seed).
  uint64_t fingerprint = 0;
  /// Dialer retry backoff: initial doubles up to max.
  SimTime reconnect_initial = Millis(25);
  SimTime reconnect_max = Millis(800);
  /// Per-peer write-queue cap: beyond this, new frames are dropped
  /// (backpressure as loss, which the protocols tolerate by design).
  size_t max_queued_bytes = 8u << 20;
  size_t max_frame = kMaxFrameBytes;
  /// Frames from this peer are decoded as FaultCommands and applied to the
  /// fault plane instead of reaching the replica. -1 = no control channel
  /// (the launcher's own transport, tests).
  PrincipalId control_principal = -1;
  /// Private-cloud size (s): kPartition cuts every pair spanning
  /// id < trusted_count and id >= trusted_count.
  int trusted_count = 0;
};

/// Transport counters (report provenance; mirrors SimNetwork's NetCounters
/// in spirit). The syscall/copy block is the wire-path efficiency ledger:
/// frames_sent / writev_syscalls is the flush coalescing factor,
/// multicast_enqueues / multicast_encodes the fan-out reuse, and rx splits
/// received bodies into zero-copy views vs block-straddling copies.
struct TcpCounters {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_received = 0;
  uint64_t dropped_no_connection = 0;
  uint64_t dropped_backpressure = 0;
  uint64_t dropped_node_down = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_dialed = 0;
  uint64_t connection_failures = 0;
  uint64_t frame_errors = 0;
  /// Syscall ledger.
  uint64_t read_syscalls = 0;
  uint64_t writev_syscalls = 0;
  /// Frames fully handed to the kernel (HELLOs included).
  uint64_t frames_sent = 0;
  /// Multicast reuse: encodes is FrameBuffers built for >=1 remote target,
  /// enqueues is how many per-peer queues carried one.
  uint64_t multicast_encodes = 0;
  uint64_t multicast_enqueues = 0;
  /// Fault-plane ledger: frames refused before the socket (cut link or
  /// drop_ppm draw), frames refused after arrival (the other endpoint of a
  /// cut enforcing it on in-flight traffic), frames held by link shaping.
  uint64_t fault_dropped_tx = 0;
  uint64_t fault_dropped_rx = 0;
  uint64_t fault_delayed = 0;
  /// Receive-side copy ledger (filled in by the shared FrameReaders).
  FrameReadStats rx;

  /// The "net" object of a node report; launcher-side merges sum these
  /// field by field.
  Json ToJson() const;
};

class TcpTransport final : public Transport {
 public:
  TcpTransport(EventLoop* loop, TcpTransportOptions options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// First error from listener setup / registration (sockets that fail
  /// later retry or drop per the loss semantics; only setup is fatal).
  const Status& status() const { return status_; }
  const TcpCounters& counters() const { return counters_; }

  /// --- Transport ----------------------------------------------------------
  /// Registering a replica id binds its listener and starts dialing its
  /// lower-id peers immediately; registering a client starts dialing every
  /// replica.
  CpuMeter* Register(PrincipalId id, Zone zone, MessageHandler* handler,
                     bool metered) override;
  void Send(PrincipalId from, PrincipalId to, Payload payload) override;
  void Multicast(PrincipalId from, const std::vector<PrincipalId>& targets,
                 const Payload& payload) override;
  void SetNodeUp(PrincipalId id, bool up) override;

  /// True once a duplex connection to `peer` is established (tests and the
  /// launcher's readiness gate).
  bool ConnectedTo(PrincipalId peer) const;

  /// Accumulated cost-model busy time of a metered local node (0 when
  /// unmetered/unknown) — report provenance.
  SimTime MeterBusy(PrincipalId id) const;

  /// --- fault plane --------------------------------------------------------
  /// Apply one control command: link-level kinds mutate the fault plane
  /// here; anything else (Byzantine flags, mode switches, primary queries)
  /// is forwarded to the control handler the Node installed.
  void ApplyControl(const FaultCommand& command);
  /// Receives the node-level commands ApplyControl does not consume.
  void SetControlHandler(std::function<void(const FaultCommand&)> handler) {
    control_handler_ = std::move(handler);
  }
  /// Floor every dialer's backoff back to reconnect_initial and schedule an
  /// immediate redial round — a heal must not wait out backoff a partition
  /// (or peer death) inflated to the 800ms ceiling.
  void ResetDialBackoff();

 private:
  struct LocalNode {
    MessageHandler* handler = nullptr;
    std::unique_ptr<RtCpuMeter> meter;
    bool up = true;
  };

  struct Connection {
    Connection(size_t max_queued_bytes, size_t max_frame, BlockPool* pool,
               FrameReadStats* stats)
        : reader(max_frame, pool, stats), write_queue(max_queued_bytes) {}

    int fd = -1;
    /// Which local principal owns this connection (a process can host many:
    /// the launcher hosts every client, each with its own connections).
    PrincipalId local = -1;
    /// Hoisted locals_ entry for `local` — the receive drain consults it
    /// per frame, so it must not pay a map lookup per message. Stable:
    /// locals_ is a std::map and entries are never erased.
    LocalNode* owner = nullptr;
    /// Peer identity: the dial target, or the HELLO announcement on an
    /// accepted connection (-1 until the HELLO arrives).
    PrincipalId peer = -1;
    /// Position in connections_ (swap-remove keeps closes O(1)).
    size_t index = 0;
    bool dialed = false;        // we own reconnect for this connection
    bool connecting = false;    // non-blocking connect in flight
    bool hello_received = false;
    /// A flush is parked on the loop's post queue for this connection —
    /// further enqueues in the same io batch ride the same flush.
    bool flush_pending = false;
    FrameReader reader;
    WriteQueue write_queue;
  };

  bool IsLocal(PrincipalId id) const { return locals_.count(id) > 0; }
  bool IsReplicaPrincipal(PrincipalId id) const;
  std::shared_ptr<Connection> NewConnection();
  void StartListener(PrincipalId id);
  void DialPeer(PrincipalId local, PrincipalId peer);
  void ScheduleRedial(PrincipalId local, PrincipalId peer, SimTime delay);
  void OnListenerReadable(PrincipalId local, int listen_fd);
  void OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                         uint32_t events);
  void FinishConnect(const std::shared_ptr<Connection>& conn);
  /// Validate the opening HELLO of `conn`; false means the connection was
  /// closed (bad magic/fingerprint, or a sender that must not dial us).
  bool AcceptHello(const std::shared_ptr<Connection>& conn,
                   const Payload& body);
  void DrainReadable(const std::shared_ptr<Connection>& conn);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  /// Defer one FlushWrites to the end of the current io batch.
  void RequestFlush(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn,
                       const char* why);
  void EnqueueFrame(const std::shared_ptr<Connection>& conn,
                    std::shared_ptr<const FrameBuffer> frame);
  /// Hand a frame the fault plane admitted to the socket: enqueue it now,
  /// or hold it until the absolute `now + hold` and then enqueue it on
  /// whatever connection to the peer exists at release time (a vanished
  /// connection is loss — exactly what a delayed frame on a dead link
  /// would be).
  void Transmit(const std::shared_ptr<Connection>& conn, PrincipalId from,
                PrincipalId to, SimTime now, SimTime hold,
                std::shared_ptr<const FrameBuffer> frame);
  void DeliverLocally(PrincipalId from, PrincipalId to, Payload payload);
  /// The established connection for (local, peer), nullptr when none.
  std::shared_ptr<Connection> ConnectionFor(PrincipalId local,
                                            PrincipalId peer) const;

  EventLoop* loop_;
  const TcpTransportOptions options_;
  Status status_;
  TcpCounters counters_;
  /// Per-peer-per-direction drop/delay filter between queues and sockets.
  FaultPlane faults_;
  std::function<void(const FaultCommand&)> control_handler_;
  /// Receive blocks shared by every connection of this transport.
  BlockPool pool_;
  /// Encode-once memo for fan-out loops that call Send() once per peer
  /// with the same immutable payload (ReplicaBase::SendToMany): the last
  /// wrapped buffer id keeps its frame so repeats skip the CRC pass and
  /// share one buffer across write queues. Id 0 (empty payload) never
  /// memoizes.
  uint64_t memo_payload_id_ = 0;
  std::shared_ptr<const FrameBuffer> memo_frame_;
  bool memo_reused_ = false;

  std::map<PrincipalId, LocalNode> locals_;
  /// Listener fds per local replica id.
  std::map<PrincipalId, int> listeners_;
  /// Established (hello-complete) connections by (local, peer) pair: the
  /// routing table Send consults.
  std::map<std::pair<PrincipalId, PrincipalId>, std::shared_ptr<Connection>>
      peers_;
  /// All live connections (including half-open ones awaiting HELLO);
  /// unordered, swap-removed via Connection::index.
  std::vector<std::shared_ptr<Connection>> connections_;
  /// Dialer state: current backoff per (local, peer).
  std::map<std::pair<PrincipalId, PrincipalId>, SimTime> backoff_;
  /// Connections with frames enqueued this io batch, drained by one posted
  /// callback (flush_scheduled_ guards the post; Connection::flush_pending
  /// guards the per-connection entry).
  std::vector<std::shared_ptr<Connection>> flush_queue_;
  bool flush_scheduled_ = false;
  /// Lifetime token for closures parked in the event loop (redials, local
  /// deliveries, deferred flushes): expired means the transport is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_TCP_TRANSPORT_H_
