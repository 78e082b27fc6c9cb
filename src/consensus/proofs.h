// Signed consensus-message headers and transferable "prepared" certificates.
//
// Every signed protocol message signs a domain-separated header so a
// signature for one message type (or one protocol phase) can never be
// replayed as another. PreparedProof is PBFT's prepared certificate —
// pre-prepare + quorum of matching prepares — carried inside view-change
// messages by PBFT, S-UpRight and SeeMoRe's Peacock mode. It names its batch
// by digest only; a replica that lacks the batch fetches it
// (consensus/checkpointing_replica.h).

#ifndef SEEMORE_CONSENSUS_PROOFS_H_
#define SEEMORE_CONSENSUS_PROOFS_H_

#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "crypto/digest.h"
#include "crypto/keystore.h"

namespace seemore {

/// Domain-separation tags for signed headers.
enum SigDomain : uint8_t {
  kDomainPrePrepare = 0xA1,  // also Lion/Dog PREPARE (primary proposal)
  kDomainPrepare = 0xA2,     // PBFT/Peacock prepare echo; Dog signed accept
  kDomainCommit = 0xA3,
  kDomainViewChange = 0xA4,
  kDomainNewView = 0xA5,
  kDomainInform = 0xA6,
  kDomainModeChange = 0xA7,
};

class HeaderBuf;
HeaderBuf ProposalHeader(SigDomain domain, uint8_t mode, uint64_t view,
                         uint64_t seq, const Digest& digest);
HeaderBuf VoteHeader(SigDomain domain, uint8_t mode, uint64_t view,
                     uint64_t seq, const Digest& digest, PrincipalId voter);

/// A signed header built on the stack. The hot path builds one or more of
/// these per message just to feed Sign/Verify and throw away — a Bytes
/// return would be a heap allocation each time. Byte layout is identical to
/// the old Encoder-built headers (little-endian fixed-width fields).
/// Implicitly converts to Bytes for cold call sites that store the header.
class HeaderBuf {
 public:
  static constexpr size_t kCapacity = 1 + 1 + 8 + 8 + Digest::kSize + 4;

  const uint8_t* data() const { return buf_; }
  size_t size() const { return len_; }
  operator Bytes() const { return Bytes(buf_, buf_ + len_); }

  friend bool operator==(const HeaderBuf& a, const HeaderBuf& b) {
    return a.len_ == b.len_ && std::memcmp(a.buf_, b.buf_, a.len_) == 0;
  }
  friend bool operator!=(const HeaderBuf& a, const HeaderBuf& b) {
    return !(a == b);
  }

 private:
  friend HeaderBuf ProposalHeader(SigDomain, uint8_t, uint64_t, uint64_t,
                                  const Digest&);
  friend HeaderBuf VoteHeader(SigDomain, uint8_t, uint64_t, uint64_t,
                              const Digest&, PrincipalId);
  uint8_t buf_[kCapacity];
  size_t len_ = 0;
};

/// Header signed by a proposal's author: (domain, mode, view, seq, digest).
/// `mode` is the SeeMoRe mode π (0 for baselines) so a message from one mode
/// cannot be replayed into another.
///
/// Header signed by a voter (VoteHeader): ProposalHeader + the voter's id
/// (PBFT's <PREPARE, v, n, d, i>).

/// PBFT "prepared" certificate for one sequence number.
struct PreparedProof {
  uint8_t mode = 0;
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;
  Signature primary_sig;  // over ProposalHeader(kDomainPrePrepare, ...)
  /// (voter id, signature over VoteHeader(kDomainPrepare, ..., voter)),
  /// sorted by voter id when locally built — QuorumTracker's
  /// SignatureView::SortedEntries() produces exactly this, keeping the
  /// encoded certificate bytes canonical. Decoded proofs preserve the
  /// sender's order; Verify() dedups, so duplicates can't inflate quorums.
  std::vector<std::pair<PrincipalId, Signature>> prepares;

  void EncodeTo(Encoder& enc) const;
  /// Exact size EncodeTo appends (Encoder::Reserve hints).
  size_t EncodedSize() const;
  static Result<PreparedProof> DecodeFrom(Decoder& dec);

  /// Checks: `primary_sig` is `primary`'s signature; at least
  /// `prepares_needed` distinct authorized voters signed matching prepare
  /// headers.
  bool Verify(const KeyStore& keystore, PrincipalId primary,
              size_t prepares_needed,
              const std::function<bool(PrincipalId)>& authorized) const;
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_PROOFS_H_
