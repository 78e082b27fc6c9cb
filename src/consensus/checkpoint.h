// Checkpoint messages and transferable checkpoint certificates ξ.
//
// Two certificate shapes exist in the paper:
//   - Lion/Dog (§5.1, §5.2): the trusted primary's single signed
//     <CHECKPOINT, n, d>_σp message IS the certificate.
//   - Peacock / PBFT / S-UpRight: a quorum of matching signed checkpoint
//     messages from the participants (2m+1 proxies / 2f+1 replicas /
//     2m+c+1 replicas respectively).
// CheckpointCert covers both: a set of matching signed messages verified
// against a required count and an authorized-signer predicate.

#ifndef SEEMORE_CONSENSUS_CHECKPOINT_H_
#define SEEMORE_CONSENSUS_CHECKPOINT_H_

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "util/status.h"
#include "wire/wire.h"

namespace seemore {

struct CheckpointMsg {
  uint64_t seq = 0;
  Digest state_digest;
  PrincipalId replica = 0;
  Signature sig;

  /// The signature covers a domain tag, seq, state digest and replica.
  void Sign(const Signer& signer);
  bool Verify(const KeyStore& keystore) const;

  void EncodeTo(Encoder& enc) const;
  static Result<CheckpointMsg> DecodeFrom(Decoder& dec);
};

class CheckpointCert {
 public:
  CheckpointCert() = default;

  /// The genesis certificate: sequence 0, no messages, always valid.
  static CheckpointCert Genesis() { return CheckpointCert(); }

  void Add(CheckpointMsg msg) { msgs_.push_back(std::move(msg)); }

  uint64_t seq() const { return msgs_.empty() ? 0 : msgs_.front().seq; }
  Digest state_digest() const {
    return msgs_.empty() ? Digest() : msgs_.front().state_digest;
  }
  bool IsGenesis() const { return msgs_.empty(); }
  const std::vector<CheckpointMsg>& msgs() const { return msgs_; }

  /// Valid iff: all messages agree on (seq, digest), every signature
  /// verifies, and at least `required` distinct signers satisfy
  /// `authorized`. A genesis cert is always valid.
  bool Verify(const KeyStore& keystore, size_t required,
              const std::function<bool(PrincipalId)>& authorized) const;

  void EncodeTo(Encoder& enc) const;
  static Result<CheckpointCert> DecodeFrom(Decoder& dec);

 private:
  std::vector<CheckpointMsg> msgs_;
};

/// Per-replica checkpoint state shared by every protocol: the period gate,
/// the buffer of snapshots taken but not yet stable, the per-(seq, digest)
/// vote tally, and the stable checkpoint itself (seq, digest, certificate,
/// snapshot). Stability POLICY stays in the protocols (one trusted signer
/// vs. 2m+1 public signers vs. f+1 voters); this class owns the storage,
/// the garbage collection and the floor arithmetic.
class CheckpointTracker {
 public:
  explicit CheckpointTracker(int period) : period_(period) {}

  /// --- cutting checkpoints ---------------------------------------------
  /// Has execution advanced a full period past the previous checkpoint?
  bool Due(uint64_t executed) const {
    return executed >=
           last_checkpoint_seq_ + static_cast<uint64_t>(period_);
  }
  void NoteTaken(uint64_t executed) { last_checkpoint_seq_ = executed; }
  uint64_t last_checkpoint_seq() const { return last_checkpoint_seq_; }
  int period() const { return period_; }

  /// --- snapshots awaiting stability -------------------------------------
  void Buffer(uint64_t seq, const Digest& digest, Bytes snapshot) {
    buffered_[seq] = {digest, std::move(snapshot)};
  }
  struct Buffered {
    uint64_t seq = 0;
    const Digest* digest = nullptr;
    const Bytes* snapshot = nullptr;
  };
  /// Newest buffered snapshot, if any (a crash-model replica may serve it
  /// when it is fresher than the stable one).
  bool LatestBuffered(Buffered* out) const {
    if (buffered_.empty()) return false;
    auto it = buffered_.rbegin();
    out->seq = it->first;
    out->digest = &it->second.first;
    out->snapshot = &it->second.second;
    return true;
  }

  /// --- vote tally --------------------------------------------------------
  /// Record `msg` (last write per signer wins) and return all votes for its
  /// (seq, digest); the caller applies its protocol's stability rule.
  const std::map<PrincipalId, CheckpointMsg>& AddVote(
      const CheckpointMsg& msg) {
    auto& signers = votes_[msg.seq][msg.state_digest];
    signers[msg.replica] = msg;
    return signers;
  }

  /// --- the stable checkpoint --------------------------------------------
  uint64_t stable_seq() const { return stable_seq_; }
  const Digest& stable_digest() const { return stable_digest_; }
  const CheckpointCert& stable_cert() const { return stable_cert_; }
  const Bytes& stable_snapshot() const { return stable_snapshot_; }
  bool has_stable_snapshot() const { return !stable_snapshot_.empty(); }

  /// Advance the stable checkpoint to (seq, digest, cert); callers ensure
  /// seq > stable_seq(). Installs the matching buffered snapshot when one
  /// exists (returns true), otherwise keeps the previous snapshot bytes —
  /// the caller is likely behind and should arrange a state transfer.
  /// Garbage-collects votes and buffered snapshots at or below `seq`.
  bool Advance(uint64_t seq, const Digest& digest, CheckpointCert cert) {
    stable_seq_ = seq;
    stable_digest_ = digest;
    stable_cert_ = std::move(cert);
    bool installed = false;
    auto it = buffered_.find(seq);
    if (it != buffered_.end() && it->second.first == digest) {
      stable_snapshot_ = std::move(it->second.second);
      installed = true;
    }
    for (auto b = buffered_.begin(); b != buffered_.end();) {
      b = b->first <= seq ? buffered_.erase(b) : std::next(b);
    }
    for (auto v = votes_.begin(); v != votes_.end();) {
      v = v->first <= seq ? votes_.erase(v) : std::next(v);
    }
    return installed;
  }

  /// Raise only the stable floor (a crash-model view change adopting the
  /// quorum's max stable seq). Digest/cert/snapshot and the buffers stay —
  /// the replica may still be fetching the matching state.
  void AdvanceFloor(uint64_t seq) {
    stable_seq_ = std::max(stable_seq_, seq);
  }

  /// Install a verified snapshot received by state transfer: the floor only
  /// moves forward, while cert/digest/snapshot are replaced outright.
  void InstallRestored(uint64_t seq, const Digest& digest,
                       CheckpointCert cert, Bytes snapshot) {
    stable_seq_ = std::max(stable_seq_, seq);
    stable_digest_ = digest;
    stable_cert_ = std::move(cert);
    stable_snapshot_ = std::move(snapshot);
    last_checkpoint_seq_ = std::max(last_checkpoint_seq_, seq);
  }

 private:
  const int period_;
  uint64_t last_checkpoint_seq_ = 0;
  uint64_t stable_seq_ = 0;
  Digest stable_digest_;
  CheckpointCert stable_cert_;
  Bytes stable_snapshot_;
  /// seq -> (state digest, snapshot bytes).
  std::map<uint64_t, std::pair<Digest, Bytes>> buffered_;
  /// seq -> digest -> signer -> message (certificate assembly).
  std::map<uint64_t, std::map<Digest, std::map<PrincipalId, CheckpointMsg>>>
      votes_;
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_CHECKPOINT_H_
