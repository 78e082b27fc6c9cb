#include "harness/policies.h"

namespace seemore {

// ---------------------------------------------------------------------------
// CFT
// ---------------------------------------------------------------------------

void CftReplyPolicy::Observe(const Reply& reply) {
  view_ = std::max(view_, reply.view);
}

const std::vector<PrincipalId>& CftReplyPolicy::InitialTargets() const {
  // BFT-SMaRt clients multicast to the receiving network (all 2f+1).
  return all_;
}

const std::vector<PrincipalId>& CftReplyPolicy::RetransmitTargets() const {
  return all_;
}

bool CftReplyPolicy::Accepted(const std::vector<PrincipalId>& senders,
                              bool after_retransmit) const {
  (void)after_retransmit;
  return !senders.empty();  // nobody lies in the crash model
}

// ---------------------------------------------------------------------------
// BFT (PBFT)
// ---------------------------------------------------------------------------

void BftReplyPolicy::Observe(const Reply& reply) {
  view_ = std::max(view_, reply.view);
}

const std::vector<PrincipalId>& BftReplyPolicy::InitialTargets() const {
  // Receiving network: all 3f+1 replicas (Table 1).
  return all_;
}

const std::vector<PrincipalId>& BftReplyPolicy::RetransmitTargets() const {
  return all_;
}

bool BftReplyPolicy::Accepted(const std::vector<PrincipalId>& senders,
                              bool after_retransmit) const {
  (void)after_retransmit;
  return static_cast<int>(senders.size()) >= config_.f + 1;
}

// ---------------------------------------------------------------------------
// S-UpRight
// ---------------------------------------------------------------------------

void SUpRightReplyPolicy::Observe(const Reply& reply) {
  view_ = std::max(view_, reply.view);
}

const std::vector<PrincipalId>& SUpRightReplyPolicy::InitialTargets() const {
  // Receiving network: all 3m+2c+1 replicas (Table 1).
  return all_;
}

const std::vector<PrincipalId>& SUpRightReplyPolicy::RetransmitTargets() const {
  return all_;
}

bool SUpRightReplyPolicy::Accepted(const std::vector<PrincipalId>& senders,
                                   bool after_retransmit) const {
  (void)after_retransmit;
  return static_cast<int>(senders.size()) >= config_.m + 1;
}

// ---------------------------------------------------------------------------
// SeeMoRe
// ---------------------------------------------------------------------------

SeeMoReReplyPolicy::SeeMoReReplyPolicy(const ClusterConfig& config)
    : config_(config), all_(config.AllReplicas()), mode_(config.initial_mode) {
  Retarget();
}

void SeeMoReReplyPolicy::Observe(const Reply& reply) {
  // Track the newest (view, mode) the cluster reports. Byzantine replicas
  // can inflate these, costing at worst one retransmission round before an
  // honest reply corrects the estimate.
  if (reply.view > view_) {
    view_ = reply.view;
    const SeeMoReMode m = static_cast<SeeMoReMode>(reply.mode);
    if (m == SeeMoReMode::kLion || m == SeeMoReMode::kDog ||
        m == SeeMoReMode::kPeacock) {
      mode_ = m;
    }
    Retarget();
  }
}

void SeeMoReReplyPolicy::Retarget() {
  // Receiving networks per Table 1: Lion all 3m+2c+1 nodes; Dog the trusted
  // primary + the 3m+1 proxies; Peacock the 3m+1 proxies (the primary is
  // one of them).
  switch (mode_) {
    case SeeMoReMode::kLion:
      initial_ = all_;
      return;
    case SeeMoReMode::kDog:
      initial_ = config_.ProxySet(view_);
      initial_.push_back(config_.TrustedPrimary(view_));
      return;
    case SeeMoReMode::kPeacock:
      initial_ = config_.ProxySet(view_);
      return;
  }
  initial_ = all_;
}

const std::vector<PrincipalId>& SeeMoReReplyPolicy::InitialTargets() const {
  return initial_;
}

const std::vector<PrincipalId>& SeeMoReReplyPolicy::RetransmitTargets() const {
  return all_;
}

bool SeeMoReReplyPolicy::Accepted(const std::vector<PrincipalId>& senders,
                                  bool after_retransmit) const {
  int trusted = 0;
  int untrusted = 0;
  for (PrincipalId sender : senders) {
    if (config_.IsTrusted(sender)) {
      ++trusted;
    } else {
      ++untrusted;
    }
  }
  switch (mode_) {
    case SeeMoReMode::kLion:
      // Normal case: the signed reply comes from the trusted primary.
      // Retransmission: any private reply, or m+1 matching public replies.
      return trusted >= 1 || untrusted >= config_.m + 1;
    case SeeMoReMode::kDog:
      if (after_retransmit) return untrusted >= config_.m + 1;
      return untrusted >= 2 * config_.m + 1;
    case SeeMoReMode::kPeacock:
      return untrusted >= config_.m + 1;
  }
  return false;
}

std::unique_ptr<ReplyPolicy> MakeReplyPolicy(const ClusterConfig& config) {
  switch (config.kind) {
    case ProtocolKind::kCft:
      return std::make_unique<CftReplyPolicy>(config);
    case ProtocolKind::kBft:
      return std::make_unique<BftReplyPolicy>(config);
    case ProtocolKind::kSUpRight:
      return std::make_unique<SUpRightReplyPolicy>(config);
    case ProtocolKind::kSeeMoRe:
      return std::make_unique<SeeMoReReplyPolicy>(config);
  }
  return nullptr;
}

}  // namespace seemore
