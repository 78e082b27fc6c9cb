// Per-protocol client reply policies (where requests go, how many matching
// replies prove completion). Rules follow §5.1-§5.3 and the baselines'
// standard client behaviour; policies learn the current view (and SeeMoRe
// mode) by observing valid replies.

#ifndef SEEMORE_HARNESS_POLICIES_H_
#define SEEMORE_HARNESS_POLICIES_H_

#include <memory>
#include <vector>

#include "consensus/config.h"
#include "smr/client.h"

namespace seemore {

/// CFT (Paxos): send to the leader; a single reply is trusted (crash model).
class CftReplyPolicy : public ReplyPolicy {
 public:
  explicit CftReplyPolicy(const ClusterConfig& config)
      : config_(config), all_(config.AllReplicas()) {}

  void Observe(const Reply& reply) override;
  const std::vector<PrincipalId>& InitialTargets() const override;
  const std::vector<PrincipalId>& RetransmitTargets() const override;
  bool Accepted(const std::vector<PrincipalId>& senders,
                bool after_retransmit) const override;

 private:
  ClusterConfig config_;
  const std::vector<PrincipalId> all_;  // config_.AllReplicas(), built once
  uint64_t view_ = 0;
};

/// PBFT: send to the primary; f+1 matching replies.
class BftReplyPolicy : public ReplyPolicy {
 public:
  explicit BftReplyPolicy(const ClusterConfig& config)
      : config_(config), all_(config.AllReplicas()) {}

  void Observe(const Reply& reply) override;
  const std::vector<PrincipalId>& InitialTargets() const override;
  const std::vector<PrincipalId>& RetransmitTargets() const override;
  bool Accepted(const std::vector<PrincipalId>& senders,
                bool after_retransmit) const override;

 private:
  ClusterConfig config_;
  const std::vector<PrincipalId> all_;  // config_.AllReplicas(), built once
  uint64_t view_ = 0;
};

/// S-UpRight: send to the primary; m+1 matching replies (the hybrid model's
/// "at least one honest" bound — crash nodes cannot lie).
class SUpRightReplyPolicy : public ReplyPolicy {
 public:
  explicit SUpRightReplyPolicy(const ClusterConfig& config)
      : config_(config), all_(config.AllReplicas()) {}

  void Observe(const Reply& reply) override;
  const std::vector<PrincipalId>& InitialTargets() const override;
  const std::vector<PrincipalId>& RetransmitTargets() const override;
  bool Accepted(const std::vector<PrincipalId>& senders,
                bool after_retransmit) const override;

 private:
  ClusterConfig config_;
  const std::vector<PrincipalId> all_;  // config_.AllReplicas(), built once
  uint64_t view_ = 0;
};

/// SeeMoRe: mode-aware.
///   Lion    — send to the trusted primary; its signed reply completes the
///             request; after a retransmission, any private-cloud reply or
///             m+1 matching public replies (§5.1).
///   Dog     — 2m+1 matching proxy replies; m+1 after retransmission (§5.2).
///   Peacock — m+1 matching proxy replies (§5.3, PBFT rule with m).
class SeeMoReReplyPolicy : public ReplyPolicy {
 public:
  explicit SeeMoReReplyPolicy(const ClusterConfig& config);

  void Observe(const Reply& reply) override;
  const std::vector<PrincipalId>& InitialTargets() const override;
  const std::vector<PrincipalId>& RetransmitTargets() const override;
  bool Accepted(const std::vector<PrincipalId>& senders,
                bool after_retransmit) const override;

  SeeMoReMode mode() const { return mode_; }
  uint64_t view() const { return view_; }

 private:
  /// Rebuild initial_ for the current (mode_, view_).
  void Retarget();

  ClusterConfig config_;
  const std::vector<PrincipalId> all_;  // config_.AllReplicas(), built once
  SeeMoReMode mode_;
  uint64_t view_ = 0;
  /// InitialTargets(), rebuilt only when the view or mode estimate moves.
  std::vector<PrincipalId> initial_;
};

/// Factory used by the cluster builder.
std::unique_ptr<ReplyPolicy> MakeReplyPolicy(const ClusterConfig& config);

}  // namespace seemore

#endif  // SEEMORE_HARNESS_POLICIES_H_
