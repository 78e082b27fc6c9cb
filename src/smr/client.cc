#include "smr/client.h"

#include <algorithm>

#include "util/logging.h"

namespace seemore {

SimClient::SimClient(Transport* transport, TimerService* timers,
                     const KeyStore* keystore, ClientOptions options,
                     std::unique_ptr<ReplyPolicy> policy)
    : transport_(transport),
      timers_(timers),
      keystore_(keystore),
      options_(options),
      policy_(std::move(policy)),
      signer_(options_.id, *keystore) {
  transport_->Register(options_.id, Zone::kClient, this, /*metered=*/false);
}

SimClient::~SimClient() = default;

void SimClient::Start(OpFactory factory) {
  running_ = true;
  factory_ = std::move(factory);
  MaybeIssueNext();
}

void SimClient::Stop() {
  running_ = false;
  factory_ = nullptr;
}

void SimClient::SubmitOne(Bytes op, DoneCallback done) {
  queue_.push_back(PendingOp{std::move(op), std::move(done)});
  MaybeIssueNext();
}

void SimClient::MaybeIssueNext() {
  if (in_flight_) return;

  Bytes op;
  DoneCallback done;
  if (!queue_.empty()) {
    op = std::move(queue_.front().op);
    done = std::move(queue_.front().done);
    queue_.pop_front();
  } else if (running_ && factory_) {
    op = factory_(issued_);
  } else {
    return;
  }

  current_ = Request{};
  current_.client = options_.id;
  current_.timestamp = next_timestamp_++;
  current_.op = std::move(op);
  current_.Sign(signer_);
  current_done_ = std::move(done);
  in_flight_ = true;
  retransmitted_ = false;
  tally_.clear();
  ++issued_;
  sent_at_ = timers_->Now();
  current_timeout_ = options_.retransmit_timeout;
  Transmit(/*retransmit=*/false);
  ArmTimer();
}

void SimClient::Transmit(bool retransmit) {
  const std::vector<PrincipalId>& targets =
      retransmit ? policy_->RetransmitTargets() : policy_->InitialTargets();
  // Encode once; every target shares the one payload buffer.
  const Payload message(current_.ToMessage());
  for (PrincipalId target : targets) {
    transport_->Send(options_.id, target, message);
  }
}

void SimClient::ArmTimer() {
  timer_ = timers_->ScheduleAfter(current_timeout_, [this] { HandleTimeout(); });
}

void SimClient::HandleTimeout() {
  timer_ = 0;
  if (!in_flight_) return;
  retransmitted_ = true;
  ++retransmissions_;
  // Exponential backoff so a dead cluster does not flood the simulator.
  current_timeout_ *= 2;
  if (current_timeout_ > options_.max_retransmit_timeout) {
    current_timeout_ = options_.max_retransmit_timeout;
  }
  Transmit(/*retransmit=*/true);
  ArmTimer();
}

void SimClient::OnMessage(PrincipalId from, Payload payload) {
  Decoder dec = MakeDecoder(payload);
  if (dec.GetU8() != kMsgReply) return;
  Result<Reply> reply_or = Reply::DecodeFrom(dec);
  if (!reply_or.ok() || !dec.AtEnd()) return;
  Reply& reply = reply_or.value();

  // The network layer authenticates `from`; a Byzantine replica can lie in
  // the body, so the signature must cover the replica id it claims.
  if (reply.replica != from) return;
  if (!reply.VerifySignature(*keystore_)) return;

  policy_->Observe(reply);

  if (!in_flight_ || reply.timestamp != current_.timestamp) return;

  // One entry per (result digest, sender): replies with conflicting
  // results form separate groups, and a repeat from a sender counts once.
  const Digest digest = Digest::Of(reply.result);
  senders_.clear();
  bool repeat = false;
  for (const TalliedReply& entry : tally_) {
    if (entry.digest != digest) continue;
    repeat = repeat || entry.sender == from;
    senders_.push_back(entry.sender);
  }
  if (!repeat) {
    tally_.push_back(TalliedReply{digest, from, std::move(reply.result)});
    senders_.push_back(from);
  }
  std::sort(senders_.begin(), senders_.end());
  if (!policy_->Accepted(senders_, retransmitted_)) return;

  // The lowest-id sender's result completes the request.
  for (TalliedReply& entry : tally_) {
    if (entry.digest == digest && entry.sender == senders_.front()) {
      Complete(std::move(entry.result));
      return;
    }
  }
}

void SimClient::Complete(Bytes result) {
  if (timer_ != 0) {
    timers_->CancelEvent(timer_);
    timer_ = 0;
  }
  in_flight_ = false;
  const SimTime latency = timers_->Now() - sent_at_;
  latencies_.Record(latency);
  ++completed_;
  if (on_complete) on_complete(timers_->Now(), latency);
  if (current_done_) {
    DoneCallback done = std::move(current_done_);
    current_done_ = nullptr;
    done(result);
  }
  tally_.clear();
  MaybeIssueNext();
}

}  // namespace seemore
