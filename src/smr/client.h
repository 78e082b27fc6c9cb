// Simulation client: issues signed requests, collects matching replies
// according to a per-protocol ReplyPolicy, retransmits on timeout, and
// records end-to-end latency. Runs either closed-loop (Start(): issue the
// next request as soon as the previous one completes — the paper's client
// model, §6) or one-shot (SubmitOne(), used by the examples).

#ifndef SEEMORE_SMR_CLIENT_H_
#define SEEMORE_SMR_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "smr/command.h"
#include "util/histogram.h"

namespace seemore {

/// Protocol- and mode-specific client behaviour: where to send requests and
/// when a set of matching replies proves completion.
class ReplyPolicy {
 public:
  virtual ~ReplyPolicy() = default;

  /// Called for every valid reply, letting stateful policies track the
  /// current view / SeeMoRe mode.
  virtual void Observe(const Reply& reply) { (void)reply; }

  /// Targets for the first transmission of a request. The list stays
  /// valid until the next Observe().
  virtual const std::vector<PrincipalId>& InitialTargets() const = 0;

  /// Targets after a client timeout (typically: broadcast).
  virtual const std::vector<PrincipalId>& RetransmitTargets() const = 0;

  /// True once the replicas in `senders` (all of which reported an identical
  /// result for the current timestamp) prove the request completed.
  /// `after_retransmit` selects the relaxed rule some protocols use on the
  /// retry path (paper §5.1/§5.2).
  virtual bool Accepted(const std::vector<PrincipalId>& senders,
                        bool after_retransmit) const = 0;
};

struct ClientOptions {
  PrincipalId id = kClientIdBase;
  SimTime retransmit_timeout = Millis(60);
  /// Exponential backoff cap for retransmissions.
  SimTime max_retransmit_timeout = Millis(500);
};

class SimClient : public MessageHandler {
 public:
  SimClient(Transport* transport, TimerService* timers,
            const KeyStore* keystore, ClientOptions options,
            std::unique_ptr<ReplyPolicy> policy);
  ~SimClient() override;

  SimClient(const SimClient&) = delete;
  SimClient& operator=(const SimClient&) = delete;

  /// Closed-loop mode: issue ops from `factory` back-to-back until Stop().
  using OpFactory = std::function<Bytes(uint64_t n)>;
  void Start(OpFactory factory);
  void Stop();

  /// One-shot mode: enqueue a single operation; `done` fires with the result
  /// when the reply quorum is reached.
  using DoneCallback = std::function<void(const Bytes& result)>;
  void SubmitOne(Bytes op, DoneCallback done);

  void OnMessage(PrincipalId from, Payload payload) override;

  PrincipalId id() const { return options_.id; }
  uint64_t completed() const { return completed_; }
  uint64_t retransmissions() const { return retransmissions_; }
  const Histogram& latencies() const { return latencies_; }
  void ResetStats() {
    latencies_.Clear();
    completed_ = 0;
    retransmissions_ = 0;
  }

  /// Invoked on every completion (for timeline metrics): (completion time,
  /// end-to-end latency).
  std::function<void(SimTime, SimTime)> on_complete;

 private:
  struct PendingOp {
    Bytes op;
    DoneCallback done;  // may be empty in closed-loop mode
  };

  void MaybeIssueNext();
  void Transmit(bool retransmit);
  void ArmTimer();
  void HandleTimeout();
  void Complete(Bytes result);

  Transport* transport_;
  TimerService* timers_;
  const KeyStore* keystore_;
  ClientOptions options_;
  std::unique_ptr<ReplyPolicy> policy_;
  Signer signer_;

  bool running_ = false;
  OpFactory factory_;
  std::deque<PendingOp> queue_;

  bool in_flight_ = false;
  bool retransmitted_ = false;
  Request current_;
  DoneCallback current_done_;
  SimTime sent_at_ = 0;
  SimTime current_timeout_ = 0;
  EventId timer_ = 0;
  uint64_t next_timestamp_ = 1;
  uint64_t issued_ = 0;

  /// A valid reply for the current timestamp.
  struct TalliedReply {
    Digest digest;  // of `result`; replies group by it
    PrincipalId sender = 0;
    Bytes result;
  };
  /// Replies for the current timestamp, one per (result digest, sender).
  /// Cleared per request; its capacity (and senders_') is reused.
  std::vector<TalliedReply> tally_;
  /// The senders of the newest reply's group, ascending: what
  /// ReplyPolicy::Accepted judges.
  std::vector<PrincipalId> senders_;

  Histogram latencies_;
  uint64_t completed_ = 0;
  uint64_t retransmissions_ = 0;
};

}  // namespace seemore

#endif  // SEEMORE_SMR_CLIENT_H_
