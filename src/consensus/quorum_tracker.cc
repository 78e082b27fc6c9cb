#include "consensus/quorum_tracker.h"

namespace seemore {

size_t QuorumTracker::SignatureView::size() const {
  if (ballots_ == nullptr) return 0;
  size_t n = 0;
  for (const internal::SignedBallot& ballot : *ballots_) {
    if (ballot.value == value_) ++n;
  }
  return n;
}

size_t QuorumTracker::SignatureView::count(PrincipalId voter) const {
  if (ballots_ == nullptr) return 0;
  for (const internal::SignedBallot& ballot : *ballots_) {
    if (ballot.voter == voter) return ballot.value == value_ ? 1 : 0;
  }
  return 0;
}

std::vector<std::pair<PrincipalId, Signature>>
QuorumTracker::SignatureView::SortedEntries() const {
  std::vector<std::pair<PrincipalId, Signature>> out;
  if (ballots_ == nullptr) return out;
  // Ballots are kept in voter order, so filtering preserves the canonical
  // certificate order.
  for (const internal::SignedBallot& ballot : *ballots_) {
    if (ballot.value == value_) out.emplace_back(ballot.voter, ballot.sig);
  }
  return out;
}

}  // namespace seemore
