#include "scenario/verdict.h"

#include <cstdio>

namespace seemore {
namespace scenario {
namespace {

/// Read position in the digests one replica shows, in ascending seq order.
struct Cursor {
  const ReplicaOutcome* outcome;
  size_t next = 0;

  const ExecutedDigestLog* log() const { return outcome->digest_log; }
  bool done() const {
    return next >= (log() != nullptr ? log()->size()
                                     : outcome->digest_samples.size());
  }
  uint64_t seq() const {
    return log() != nullptr ? log()->floor() + next
                            : outcome->digest_samples[next].first;
  }
  const Digest& digest() const {
    return log() != nullptr ? log()->at(seq())
                            : outcome->digest_samples[next].second;
  }
};

/// One merge pass over every honest replica's digests in seq order.
Status CheckAgreement(const std::vector<ReplicaOutcome>& outcomes) {
  std::vector<Cursor> cursors;
  for (const ReplicaOutcome& outcome : outcomes) {
    if (!outcome.byzantine) cursors.push_back({&outcome});
  }
  for (;;) {
    const Cursor* lowest = nullptr;
    for (const Cursor& c : cursors) {
      if (!c.done() && (lowest == nullptr || c.seq() < lowest->seq())) {
        lowest = &c;
      }
    }
    if (lowest == nullptr) return Status::Ok();
    const uint64_t seq = lowest->seq();
    const Digest& expected = lowest->digest();  // stable storage
    const int expected_id = lowest->outcome->id;
    for (Cursor& c : cursors) {
      if (c.done() || c.seq() != seq) continue;
      if (c.digest() != expected) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "replicas %d and %d disagree at seq %llu", expected_id,
                      c.outcome->id,
                      static_cast<unsigned long long>(seq));
        return Status::Internal(buf);
      }
      ++c.next;
    }
  }
}

Status CheckConvergence(const std::vector<ReplicaOutcome>& outcomes) {
  const ReplicaOutcome* first = nullptr;
  for (const ReplicaOutcome& outcome : outcomes) {
    if (outcome.end != ReplicaEnd::kRan || outcome.byzantine) continue;
    if (first == nullptr) first = &outcome;
    char buf[128];
    if (outcome.last_executed != first->last_executed) {
      std::snprintf(buf, sizeof(buf), "replica %d executed %llu, expected %llu",
                    outcome.id,
                    static_cast<unsigned long long>(outcome.last_executed),
                    static_cast<unsigned long long>(first->last_executed));
      return Status::Internal(buf);
    }
    if (outcome.state_digest != first->state_digest) {
      std::snprintf(buf, sizeof(buf), "replica %d state digest diverged",
                    outcome.id);
      return Status::Internal(buf);
    }
  }
  return Status::Ok();
}

}  // namespace

void Verdict::AppendJson(Json& report) const {
  if (!survival.ok()) report.Set("survival", survival.ToString());
  if (!schedule.ok()) report.Set("schedule", schedule.ToString());
  report.Set("agreement", agreement.ToString());
  report.Set("convergence_checked", convergence_checked);
  report.Set("convergence", convergence.ToString());
  report.Set("ok", ok());
}

Verdict CheckVerdict(const std::vector<ReplicaOutcome>& outcomes,
                     bool check_convergence) {
  Verdict verdict;
  std::string deaths;
  for (const ReplicaOutcome& outcome : outcomes) {
    if (outcome.end != ReplicaEnd::kDied) continue;
    if (!deaths.empty()) deaths += "; ";
    deaths += "replica " + std::to_string(outcome.id) + " died on its own (" +
              outcome.death + ")";
  }
  if (!deaths.empty()) verdict.survival = Status::Internal(deaths);
  verdict.agreement = CheckAgreement(outcomes);
  verdict.convergence_checked = check_convergence;
  if (check_convergence) verdict.convergence = CheckConvergence(outcomes);
  return verdict;
}

}  // namespace scenario
}  // namespace seemore
