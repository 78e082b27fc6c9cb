// Vote accounting for one consensus slot phase: dedup, quorum thresholds
// and equivocation flagging, shared by every protocol (SeeMoRe's three
// modes, PBFT, S-UpRight and Paxos) through the SlotCore in instance_log.h.
//
// Byzantine senders may vote for conflicting values. A voter's FIRST value
// is binding: a later vote for a different value in the same tracker (= the
// same slot, view and phase) is rejected, and the voter is flagged as an
// equivocator exactly once so replicas can count the event in their stats.
// This guarantees one faulty node can never contribute to two conflicting
// quorums, and that re-delivered duplicates of the same vote stay idempotent.
//
// Storage is sized for what one slot phase actually sees: at most n voters,
// nearly always agreeing on one value. An idle tracker is a single null
// pointer inside its SlotCore; the first vote allocates a ballot vector kept
// sorted by voter id, one ballot per voter holding its binding value and
// equivocation flag (and, for QuorumTracker, its signature). Counting is a
// scan over at most n ballots, which beats hashing at these sizes, and voter
// order is exactly the canonical order certificates are encoded in, so
// SignatureView::SortedEntries() filters without sorting.

#ifndef SEEMORE_CONSENSUS_QUORUM_TRACKER_H_
#define SEEMORE_CONSENSUS_QUORUM_TRACKER_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/digest.h"
#include "crypto/keystore.h"

namespace seemore {

/// Result of offering one vote to a tracker.
struct VoteOutcome {
  /// The vote was new and now counts toward its value's quorum.
  bool counted = false;
  /// First conflicting vote from a voter already bound to another value.
  /// True at most once per voter per tracker, so callers can bump an
  /// equivocation counter without double-counting the same faulty node.
  bool equivocation = false;
};

namespace internal {

/// One voter's standing in a tracker.
struct Ballot {
  Digest value;  // the voter's first (binding) value
  PrincipalId voter = 0;
  bool equivocated = false;  // caught voting for a conflicting value
};

struct SignedBallot : Ballot {
  Signature sig;  // over the binding vote
};

/// The voter-sorted ballot vector both trackers share. The vector object
/// lives in its own heap block, so a pointer to it (not to its elements)
/// survives Add() and moves of the owning slot; it is allocated on the
/// first vote and freed by Clear().
template <typename B>
class BallotBox {
 public:
  /// Room for every voter of the default clusters (c = m = 1 SeeMoRe has
  /// n = 6, PBFT f = 1 has n = 4) without a regrow.
  static constexpr size_t kInitialBallots = 8;

  /// Record `ballot` unless its voter is already bound; a conflicting
  /// value flags the voter instead (once).
  VoteOutcome Add(const B& ballot) {
    if (ballots_ == nullptr) {
      ballots_ = std::make_unique<std::vector<B>>();
      ballots_->reserve(kInitialBallots);
    }
    auto it = Seat(*ballots_, ballot.voter);
    VoteOutcome outcome;
    if (it != ballots_->end() && it->voter == ballot.voter) {
      if (it->value != ballot.value && !it->equivocated) {
        it->equivocated = true;  // the first value stays binding
        outcome.equivocation = true;
      }
      return outcome;
    }
    ballots_->insert(it, ballot);
    outcome.counted = true;
    return outcome;
  }

  size_t Count(const Digest& value) const {
    if (ballots_ == nullptr) return 0;
    return static_cast<size_t>(
        std::count_if(ballots_->begin(), ballots_->end(),
                      [&](const B& ballot) { return ballot.value == value; }));
  }

  const B* FindVoter(PrincipalId voter) const {
    if (ballots_ == nullptr) return nullptr;
    auto it = Seat(*ballots_, voter);
    return it != ballots_->end() && it->voter == voter ? &*it : nullptr;
  }

  size_t equivocators() const {
    if (ballots_ == nullptr) return 0;
    return static_cast<size_t>(
        std::count_if(ballots_->begin(), ballots_->end(),
                      [](const B& ballot) { return ballot.equivocated; }));
  }

  const std::vector<B>* ballots() const { return ballots_.get(); }
  void Clear() { ballots_.reset(); }

 private:
  /// Where `voter`'s ballot is, or would be inserted, in voter order.
  template <typename Vec>
  static auto Seat(Vec& ballots, PrincipalId voter) {
    return std::lower_bound(
        ballots.begin(), ballots.end(), voter,
        [](const B& ballot, PrincipalId id) { return ballot.voter < id; });
  }

  std::unique_ptr<std::vector<B>> ballots_;  // null until the first vote
};

}  // namespace internal

/// Counts distinct voters per candidate value (unsigned votes: Lion plain
/// accepts, Paxos ACKs, INFORM tallies at passive nodes).
class VoteTracker {
 public:
  VoteOutcome Add(const Digest& value, PrincipalId voter) {
    return box_.Add(internal::Ballot{value, voter});
  }

  size_t Count(const Digest& value) const { return box_.Count(value); }
  bool Reached(const Digest& value, size_t quorum) const {
    return Count(value) >= quorum;
  }
  bool HasVoted(const Digest& value, PrincipalId voter) const {
    const internal::Ballot* ballot = box_.FindVoter(voter);
    return ballot != nullptr && ballot->value == value;
  }
  /// Distinct voters caught voting for conflicting values.
  size_t equivocators() const { return box_.equivocators(); }

  void Clear() { box_.Clear(); }

 private:
  internal::BallotBox<internal::Ballot> box_;
};

/// VoteTracker that also remembers each vote's signature, so a reached
/// quorum can be assembled into a transferable certificate (PBFT/Peacock
/// prepared proofs carried by view-change messages).
class QuorumTracker {
 public:
  /// Read-only view of the signatures collected for one value — no copying
  /// of signature storage. The view stays valid across further Add() calls
  /// (the ballots live in their own heap block, which neither Add() nor a
  /// move of the owning slot relocates) until the tracker is cleared or
  /// destroyed.
  class SignatureView {
   public:
    SignatureView() = default;

    bool empty() const { return size() == 0; }
    size_t size() const;
    size_t count(PrincipalId voter) const;

    /// The (voter, signature) entries sorted by voter id — the canonical
    /// order certificates are encoded in (wire bytes must never depend on
    /// storage layout).
    std::vector<std::pair<PrincipalId, Signature>> SortedEntries() const;

   private:
    friend class QuorumTracker;
    SignatureView(const std::vector<internal::SignedBallot>* ballots,
                  const Digest& value)
        : ballots_(ballots), value_(value) {}
    const std::vector<internal::SignedBallot>* ballots_ = nullptr;
    Digest value_;
  };

  VoteOutcome Add(const Digest& value, PrincipalId voter,
                  const Signature& sig) {
    return box_.Add(internal::SignedBallot{{value, voter}, sig});
  }

  size_t Count(const Digest& value) const { return box_.Count(value); }
  bool Reached(const Digest& value, size_t quorum) const {
    return Count(value) >= quorum;
  }
  /// View of the signatures for `value` (empty view when nobody voted for
  /// it). See SignatureView for lifetime rules.
  SignatureView SignaturesFor(const Digest& value) const {
    return Count(value) == 0 ? SignatureView()
                             : SignatureView(box_.ballots(), value);
  }
  size_t equivocators() const { return box_.equivocators(); }

  void Clear() { box_.Clear(); }

 private:
  internal::BallotBox<internal::SignedBallot> box_;
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_QUORUM_TRACKER_H_
