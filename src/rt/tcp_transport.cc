#include "rt/tcp_transport.h"

#include <arpa/inet.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

namespace seemore {
namespace rt {
namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

int NewTcpSocket() {
  return socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// Iovec chain length per sendmsg. 64 entries = 32 frames per call, which
/// already amortizes the syscall thoroughly; IOV_MAX (1024 on Linux) is
/// the hard ceiling.
constexpr size_t kFlushIovs = 64 < IOV_MAX ? 64 : IOV_MAX;

}  // namespace

Json TcpCounters::ToJson() const {
  Json json = Json::Object();
  json.Set("messages_sent", messages_sent);
  json.Set("bytes_sent", bytes_sent);
  json.Set("messages_received", messages_received);
  json.Set("bytes_received", bytes_received);
  json.Set("dropped_no_connection", dropped_no_connection);
  json.Set("dropped_backpressure", dropped_backpressure);
  json.Set("dropped_node_down", dropped_node_down);
  json.Set("connections_accepted", connections_accepted);
  json.Set("connections_dialed", connections_dialed);
  json.Set("connection_failures", connection_failures);
  json.Set("frame_errors", frame_errors);
  json.Set("read_syscalls", read_syscalls);
  json.Set("writev_syscalls", writev_syscalls);
  json.Set("frames_sent", frames_sent);
  json.Set("multicast_encodes", multicast_encodes);
  json.Set("multicast_enqueues", multicast_enqueues);
  json.Set("fault_dropped_tx", fault_dropped_tx);
  json.Set("fault_dropped_rx", fault_dropped_rx);
  json.Set("fault_delayed", fault_delayed);
  json.Set("rx_frames_aliased", rx.frames_aliased);
  json.Set("rx_frames_copied", rx.frames_copied);
  json.Set("rx_bytes_aliased", rx.bytes_aliased);
  json.Set("rx_bytes_copied", rx.bytes_copied);
  return json;
}

TcpTransport::TcpTransport(EventLoop* loop, TcpTransportOptions options)
    : loop_(loop),
      options_(std::move(options)),
      faults_(options_.fingerprint) {}

TcpTransport::~TcpTransport() {
  for (const std::shared_ptr<Connection>& conn : connections_) {
    if (conn->fd >= 0) {
      loop_->UnwatchFd(conn->fd);
      close(conn->fd);
      conn->fd = -1;
    }
  }
  for (const auto& [id, fd] : listeners_) {
    loop_->UnwatchFd(fd);
    close(fd);
  }
}

CpuMeter* TcpTransport::Register(PrincipalId id, Zone zone,
                                 MessageHandler* handler, bool metered) {
  (void)zone;  // zones shape the simulator's latency model, not real sockets
  LocalNode& node = locals_[id];
  node.handler = handler;
  node.up = true;
  if (metered) node.meter = std::make_unique<RtCpuMeter>(loop_);

  if (IsReplicaPrincipal(id)) {
    StartListener(id);
    // Deterministic connection ownership: dial every smaller replica id.
    for (PrincipalId peer = 0; peer < id; ++peer) DialPeer(id, peer);
  } else {
    for (PrincipalId peer = 0; peer < options_.num_replicas; ++peer) {
      DialPeer(id, peer);
    }
  }
  return node.meter.get();
}

bool TcpTransport::IsReplicaPrincipal(PrincipalId id) const {
  return id >= 0 && id < options_.num_replicas;
}

std::shared_ptr<TcpTransport::Connection> TcpTransport::NewConnection() {
  auto conn = std::make_shared<Connection>(options_.max_queued_bytes,
                                           options_.max_frame, &pool_,
                                           &counters_.rx);
  conn->index = connections_.size();
  connections_.push_back(conn);
  return conn;
}

void TcpTransport::StartListener(PrincipalId id) {
  const int fd = NewTcpSocket();
  if (fd < 0) {
    if (status_.ok()) status_ = Errno("socket(listen)");
    return;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr =
      LoopbackAddr(static_cast<uint16_t>(options_.base_port + id));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(fd, 64) < 0) {
    if (status_.ok()) status_ = Errno("bind/listen");
    close(fd);
    return;
  }
  listeners_[id] = fd;
  // The owning replica id rides in the closure: accepting stays O(1)
  // instead of searching listeners_ for the fd that woke us.
  const Status watched =
      loop_->WatchFd(fd, EventLoop::kReadable,
                     [this, id, fd](uint32_t) { OnListenerReadable(id, fd); });
  if (!watched.ok() && status_.ok()) status_ = watched;
}

void TcpTransport::OnListenerReadable(PrincipalId local, int listen_fd) {
  // A listener whose owner was never registered locally cannot adopt
  // connections — refuse them instead of creating orphans that would
  // deliver into a null handler.
  const bool local_known = locals_.count(local) > 0;
  while (true) {
    const int fd =
        accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      ++counters_.connection_failures;
      return;
    }
    if (!local_known) {
      ++counters_.connection_failures;
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ++counters_.connections_accepted;
    auto conn = NewConnection();
    conn->fd = fd;
    conn->local = local;
    conn->owner = &locals_[local];
    const Status watched = loop_->WatchFd(
        fd, EventLoop::kReadable,
        [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
    if (!watched.ok()) {
      CloseConnection(conn, "watch failed");
      continue;
    }
    // Announce ourselves; the dialer's HELLO will identify the peer.
    EnqueueFrame(conn, FrameBuffer::Wrap(Payload(
                           EncodeHelloBody(Hello{local, options_.fingerprint}))));
  }
}

void TcpTransport::DialPeer(PrincipalId local, PrincipalId peer) {
  const int fd = NewTcpSocket();
  if (fd < 0) {
    ++counters_.connection_failures;
    ScheduleRedial(local, peer, options_.reconnect_initial);
    return;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr =
      LoopbackAddr(static_cast<uint16_t>(options_.base_port + peer));
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    close(fd);
    ++counters_.connection_failures;
    auto& backoff = backoff_[{local, peer}];
    if (backoff == 0) backoff = options_.reconnect_initial;
    ScheduleRedial(local, peer, backoff);
    backoff = std::min(backoff * 2, options_.reconnect_max);
    return;
  }
  auto conn = NewConnection();
  conn->fd = fd;
  conn->local = local;
  conn->owner = &locals_[local];
  conn->peer = peer;
  conn->dialed = true;
  conn->connecting = (rc < 0);
  const uint32_t interest = conn->connecting
                                ? EventLoop::kWritable
                                : (EventLoop::kReadable | EventLoop::kWritable);
  const Status watched = loop_->WatchFd(
      fd, interest,
      [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
  if (!watched.ok()) {
    CloseConnection(conn, "watch failed");
    return;
  }
  if (!conn->connecting) FinishConnect(conn);
}

void TcpTransport::ScheduleRedial(PrincipalId local, PrincipalId peer,
                                  SimTime delay) {
  std::weak_ptr<bool> alive = alive_;
  loop_->ScheduleAfter(delay, [this, alive, local, peer] {
    if (alive.expired()) return;
    // Still no established connection (nothing beat us to it)?
    if (ConnectionFor(local, peer) != nullptr) return;
    DialPeer(local, peer);
  });
}

void TcpTransport::FinishConnect(const std::shared_ptr<Connection>& conn) {
  conn->connecting = false;
  ++counters_.connections_dialed;
  loop_->ModifyFd(conn->fd, EventLoop::kReadable);
  EnqueueFrame(conn,
               FrameBuffer::Wrap(Payload(EncodeHelloBody(
                   Hello{conn->local, options_.fingerprint}))));
}

void TcpTransport::OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                                     uint32_t events) {
  if (conn->fd < 0) return;
  if (conn->connecting) {
    if (events & (EventLoop::kWritable | EventLoop::kError)) {
      int err = 0;
      socklen_t len = sizeof(err);
      getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        ++counters_.connection_failures;
        CloseConnection(conn, "connect failed");
        return;
      }
      FinishConnect(conn);
    }
    return;
  }
  if (events & EventLoop::kError) {
    CloseConnection(conn, "socket error");
    return;
  }
  if (events & EventLoop::kReadable) {
    DrainReadable(conn);
    if (conn->fd < 0) return;  // closed during the drain
  }
  if (events & EventLoop::kWritable) FlushWrites(conn);
}

bool TcpTransport::AcceptHello(const std::shared_ptr<Connection>& conn,
                               const Payload& body) {
  Result<Hello> hello = DecodeHello(body.data(), body.size());
  if (!hello.ok() || hello->fingerprint != options_.fingerprint) {
    ++counters_.frame_errors;
    CloseConnection(conn, "bad HELLO");
    return false;
  }
  if (conn->dialed) {
    // We dialed a specific replica; anyone else answering is an impostor.
    if (hello->sender != conn->peer) {
      ++counters_.frame_errors;
      CloseConnection(conn, "bad HELLO");
      return false;
    }
  } else {
    // Accepted side: the ownership rule says only higher-id replicas and
    // clients dial us. A HELLO claiming a lower replica id (or our own)
    // contradicts it — either a confused process or someone spoofing a
    // peer whose connection we already own.
    const PrincipalId sender = hello->sender;
    const bool valid_replica =
        IsReplicaPrincipal(sender) && sender > conn->local;
    const bool valid_client = sender >= kClientIdBase;
    if (!valid_replica && !valid_client) {
      ++counters_.frame_errors;
      CloseConnection(conn, "bad HELLO");
      return false;
    }
  }
  conn->hello_received = true;
  conn->peer = hello->sender;
  // Duplex channel established: route sends (local -> peer) here,
  // replacing any stale connection to the same peer. Close the stale
  // one first (which erases its map node), then insert ours.
  const auto key = std::make_pair(conn->local, conn->peer);
  auto existing = peers_.find(key);
  if (existing != peers_.end() && existing->second != conn) {
    CloseConnection(existing->second, "superseded");
  }
  peers_[key] = conn;
  if (conn->dialed) backoff_.erase({conn->local, conn->peer});
  return true;
}

void TcpTransport::DrainReadable(const std::shared_ptr<Connection>& conn) {
  // Hoisted once per drain: the handler lookup must not cost a map find
  // per message.
  LocalNode* const owner = conn->owner;
  while (true) {
    size_t cap = 0;
    uint8_t* head = conn->reader.WriteHead(&cap);
    const ssize_t n = read(conn->fd, head, cap);
    ++counters_.read_syscalls;
    if (n > 0) {
      counters_.bytes_received += static_cast<uint64_t>(n);
      const Status fed = conn->reader.Commit(static_cast<size_t>(n));
      if (!fed.ok()) {
        ++counters_.frame_errors;
        CloseConnection(conn, fed.ToString().c_str());
        return;
      }
      Payload body;
      while (conn->reader.Next(&body)) {
        if (!conn->hello_received) {
          if (!AcceptHello(conn, body)) return;
          continue;
        }
        // Every frame from the control principal is a fault command; one
        // that fails the strict decode kills the connection exactly like a
        // garbage data frame.
        if (conn->peer == options_.control_principal &&
            options_.control_principal >= 0) {
          Result<FaultCommand> command =
              DecodeFaultCommand(body.data(), body.size());
          if (!command.ok()) {
            ++counters_.frame_errors;
            CloseConnection(conn, "bad CONTROL");
            return;
          }
          ApplyControl(*command);
          continue;
        }
        ++counters_.messages_received;
        // A cut directed link is enforced at BOTH ends: frames already in
        // flight when the cut landed are refused here.
        if (faults_.active() &&
            faults_.ShouldDropInbound(conn->peer, conn->local)) {
          ++counters_.fault_dropped_rx;
          continue;
        }
        if (owner == nullptr || !owner->up || owner->handler == nullptr) {
          ++counters_.dropped_node_down;
          continue;
        }
        owner->handler->OnMessage(conn->peer, std::move(body));
        if (conn->fd < 0) return;  // handler-triggered teardown
      }
      // Short read: the kernel buffer is drained, skip the EAGAIN round
      // trip a full-capacity read would need to confirm it.
      if (static_cast<size_t>(n) < cap) return;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EOF (or hard error): a torn mid-frame close is a frame error worth
    // counting; either way the connection is gone.
    if (!conn->reader.OnPeerClose().ok()) ++counters_.frame_errors;
    CloseConnection(conn, "peer closed");
    return;
  }
}

void TcpTransport::FlushWrites(const std::shared_ptr<Connection>& conn) {
  while (!conn->write_queue.empty()) {
    iovec iov[kFlushIovs];
    size_t batch_bytes = 0;
    const size_t niov =
        conn->write_queue.BuildIovecs(iov, kFlushIovs, &batch_bytes);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    // MSG_NOSIGNAL: a peer that vanished (SIGKILLed node) must surface as
    // EPIPE -> CloseConnection, not kill this process with SIGPIPE.
    const ssize_t n = sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn, "write failed");
      return;
    }
    ++counters_.writev_syscalls;
    counters_.bytes_sent += static_cast<uint64_t>(n);
    counters_.frames_sent +=
        conn->write_queue.Advance(static_cast<size_t>(n));
    // Partial acceptance means the socket buffer is full; EPOLLOUT will
    // resume us.
    if (static_cast<size_t>(n) < batch_bytes) break;
  }
  const uint32_t interest =
      conn->write_queue.empty()
          ? EventLoop::kReadable
          : (EventLoop::kReadable | EventLoop::kWritable);
  loop_->ModifyFd(conn->fd, interest);  // no-op syscall-wise when unchanged
}

void TcpTransport::RequestFlush(const std::shared_ptr<Connection>& conn) {
  if (conn->flush_pending || conn->fd < 0 || conn->connecting) return;
  conn->flush_pending = true;
  flush_queue_.push_back(conn);
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  std::weak_ptr<bool> alive = alive_;
  // One posted drain per io batch, one flush per dirty connection: every
  // frame enqueued while handling this batch's events joins its
  // connection's single iovec chain, and the whole batch costs one
  // heap-allocated closure instead of one per connection.
  loop_->Post([this, alive] {
    if (alive.expired()) return;
    flush_scheduled_ = false;
    std::vector<std::shared_ptr<Connection>> batch;
    batch.swap(flush_queue_);
    for (const std::shared_ptr<Connection>& dirty : batch) {
      dirty->flush_pending = false;
      if (dirty->fd < 0 || dirty->connecting) continue;
      FlushWrites(dirty);
    }
  });
}

void TcpTransport::EnqueueFrame(const std::shared_ptr<Connection>& conn,
                                std::shared_ptr<const FrameBuffer> frame) {
  if (!conn->write_queue.Enqueue(std::move(frame))) {
    ++counters_.dropped_backpressure;
    return;
  }
  RequestFlush(conn);
}

void TcpTransport::CloseConnection(const std::shared_ptr<Connection>& conn,
                                   const char* why) {
  (void)why;
  if (conn->fd < 0) return;
  loop_->UnwatchFd(conn->fd);
  close(conn->fd);
  conn->fd = -1;
  conn->write_queue.Clear();
  auto it = peers_.find({conn->local, conn->peer});
  if (it != peers_.end() && it->second == conn) peers_.erase(it);
  // Swap-remove via the back-index: closes stay O(1) however many
  // connections a launcher process carries.
  const size_t index = conn->index;
  if (index < connections_.size() && connections_[index] == conn) {
    connections_[index] = std::move(connections_.back());
    connections_[index]->index = index;
    connections_.pop_back();
  }
  // The dialing side owns re-establishment; the accepting side just waits
  // for the peer to come back.
  if (conn->dialed) {
    auto& backoff = backoff_[{conn->local, conn->peer}];
    if (backoff == 0) backoff = options_.reconnect_initial;
    ScheduleRedial(conn->local, conn->peer, backoff);
    backoff = std::min(backoff * 2, options_.reconnect_max);
  }
}

std::shared_ptr<TcpTransport::Connection> TcpTransport::ConnectionFor(
    PrincipalId local, PrincipalId peer) const {
  auto it = peers_.find({local, peer});
  return it == peers_.end() ? nullptr : it->second;
}

void TcpTransport::Send(PrincipalId from, PrincipalId to, Payload payload) {
  auto local = locals_.find(from);
  if (local == locals_.end() || !local->second.up) {
    ++counters_.dropped_node_down;
    return;
  }
  if (IsLocal(to)) {
    DeliverLocally(from, to, std::move(payload));
    return;
  }
  std::shared_ptr<Connection> conn = ConnectionFor(from, to);
  if (conn == nullptr || !conn->hello_received) {
    ++counters_.dropped_no_connection;
    return;
  }
  const SimTime now = loop_->Now();
  const std::optional<SimTime> hold = faults_.Admit(from, to, now);
  if (!hold.has_value()) {
    ++counters_.fault_dropped_tx;
    return;
  }
  // Fan-out loops (SendToMany) pass the same immutable buffer once per
  // peer: wrap it once and share the frame, like an explicit Multicast.
  std::shared_ptr<const FrameBuffer> frame;
  const uint64_t payload_id = payload.id();
  if (payload_id != 0 && payload_id == memo_payload_id_) {
    frame = memo_frame_;
    if (!memo_reused_) {
      memo_reused_ = true;
      ++counters_.multicast_encodes;
      counters_.multicast_enqueues += 2;  // the memoized send + this one
    } else {
      ++counters_.multicast_enqueues;
    }
  } else {
    frame = FrameBuffer::Wrap(std::move(payload));
    memo_payload_id_ = payload_id;
    memo_frame_ = frame;
    memo_reused_ = false;
  }
  Transmit(conn, from, to, now, *hold, std::move(frame));
}

void TcpTransport::Transmit(const std::shared_ptr<Connection>& conn,
                            PrincipalId from, PrincipalId to, SimTime now,
                            SimTime hold,
                            std::shared_ptr<const FrameBuffer> frame) {
  if (hold == 0) {
    ++counters_.messages_sent;
    EnqueueFrame(conn, std::move(frame));
    return;
  }
  ++counters_.fault_delayed;
  // Absolute deadline: the fault plane's release times are monotone per
  // directed link, and ScheduleAt fires equal deadlines in scheduling
  // order, so shaped frames keep FIFO. The relative form would re-read the
  // clock and smear clamped-equal releases by per-call skew, reordering.
  // A link cut while the frame is held is enforced by the receiver.
  std::weak_ptr<bool> alive = alive_;
  loop_->ScheduleAt(
      now + hold, [this, alive, from, to, frame = std::move(frame)] {
        if (alive.expired()) return;
        std::shared_ptr<Connection> conn = ConnectionFor(from, to);
        if (conn == nullptr || !conn->hello_received) {
          ++counters_.dropped_no_connection;
          return;
        }
        ++counters_.messages_sent;
        EnqueueFrame(conn, frame);
      });
}

void TcpTransport::Multicast(PrincipalId from,
                             const std::vector<PrincipalId>& targets,
                             const Payload& payload) {
  auto local = locals_.find(from);
  if (local == locals_.end() || !local->second.up) {
    for (PrincipalId to : targets) {
      if (to != from) ++counters_.dropped_node_down;
    }
    return;
  }
  // Encode-once fan-out: one FrameBuffer (one CRC pass, zero body copies)
  // shared by every remote target's write queue. Built lazily so an
  // all-local or all-disconnected multicast builds nothing.
  std::shared_ptr<const FrameBuffer> frame;
  const SimTime now = loop_->Now();
  for (PrincipalId to : targets) {
    if (to == from) continue;
    if (IsLocal(to)) {
      DeliverLocally(from, to, payload);
      continue;
    }
    std::shared_ptr<Connection> conn = ConnectionFor(from, to);
    if (conn == nullptr || !conn->hello_received) {
      ++counters_.dropped_no_connection;
      continue;
    }
    const std::optional<SimTime> hold = faults_.Admit(from, to, now);
    if (!hold.has_value()) {
      ++counters_.fault_dropped_tx;
      continue;
    }
    if (frame == nullptr) {
      frame = FrameBuffer::Wrap(payload);
      ++counters_.multicast_encodes;
    }
    ++counters_.multicast_enqueues;
    Transmit(conn, from, to, now, *hold, frame);
  }
}

void TcpTransport::DeliverLocally(PrincipalId from, PrincipalId to,
                                  Payload payload) {
  // Defer past the current dispatch: same-process delivery must not
  // re-enter the sender's handler stack (mirrors the simulator, where
  // delivery is always a scheduled event). Post, not ScheduleAfter(0):
  // no timerfd rearm syscall on this path.
  std::weak_ptr<bool> alive = alive_;
  loop_->Post([this, alive, from, to, payload = std::move(payload)] {
    if (alive.expired()) return;
    auto it = locals_.find(to);
    if (it == locals_.end() || !it->second.up || it->second.handler == nullptr) {
      ++counters_.dropped_node_down;
      return;
    }
    ++counters_.messages_sent;
    ++counters_.messages_received;
    it->second.handler->OnMessage(from, std::move(payload));
  });
}

void TcpTransport::SetNodeUp(PrincipalId id, bool up) {
  auto it = locals_.find(id);
  if (it != locals_.end()) it->second.up = up;
}

SimTime TcpTransport::MeterBusy(PrincipalId id) const {
  auto it = locals_.find(id);
  if (it == locals_.end() || it->second.meter == nullptr) return 0;
  return it->second.meter->total_busy();
}

bool TcpTransport::ConnectedTo(PrincipalId peer) const {
  for (const auto& [key, conn] : peers_) {
    if (key.second == peer && conn->hello_received) return true;
  }
  return false;
}

void TcpTransport::ApplyControl(const FaultCommand& command) {
  switch (command.kind) {
    case ControlKind::kCutLink:
      faults_.CutLink(command.from, command.to);
      return;
    case ControlKind::kRestoreLink:
      faults_.RestoreLink(command.from, command.to);
      ResetDialBackoff();
      return;
    case ControlKind::kPartition:
      faults_.PartitionClouds(options_.trusted_count, options_.num_replicas);
      return;
    case ControlKind::kHeal:
      if (faults_.Heal()) ResetDialBackoff();
      return;
    case ControlKind::kShapeLink: {
      FaultPlane::Shape shape;
      shape.delay = Micros(static_cast<int64_t>(command.delay_us));
      shape.jitter = Micros(static_cast<int64_t>(command.jitter_us));
      shape.drop_ppm = command.drop_ppm;
      faults_.ShapeLink(command.from, command.to, shape);
      return;
    }
    default:
      // Node-level commands (Byzantine flags, mode switches, primary
      // queries) belong to whoever hosts the replica.
      if (control_handler_) control_handler_(command);
      return;
  }
}

void TcpTransport::ResetDialBackoff() {
  for (auto& [key, backoff] : backoff_) {
    backoff = options_.reconnect_initial;
    // ScheduleRedial no-ops at fire time when a connection already exists,
    // so an extra round here only costs churn, never duplicates routes
    // (a superseded connection is closed by AcceptHello).
    ScheduleRedial(key.first, key.second, options_.reconnect_initial);
  }
}

}  // namespace rt
}  // namespace seemore
