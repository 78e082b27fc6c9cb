// The one verdict checker of both runtimes (DESIGN.md §12): each runtime
// describes how every replica ended as a ReplicaOutcome, and CheckVerdict
// turns those into the run's safety verdict.

#ifndef SEEMORE_SCENARIO_VERDICT_H_
#define SEEMORE_SCENARIO_VERDICT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "consensus/execution.h"
#include "crypto/digest.h"
#include "util/json.h"
#include "util/status.h"

namespace seemore {
namespace scenario {

enum class ReplicaEnd {
  kRan,     // alive at the end of the run
  kKilled,  // crashed by the schedule (or an embedder) and not brought back
  kDied,    // stopped without being told to: abort, hang, no report
};

struct ReplicaOutcome {
  int id = 0;
  ReplicaEnd end = ReplicaEnd::kRan;
  /// kDied only: how, e.g. "killed by signal 6".
  std::string death;
  /// Made Byzantine by the schedule at any point: its digests may lie, so
  /// it is left out of agreement and convergence.
  bool byzantine = false;
  uint64_t last_executed = 0;
  Digest state_digest;
  /// The executed digests the replica can show: either its whole log, by
  /// reference (it must outlive the check) ...
  const ExecutedDigestLog* digest_log = nullptr;
  /// ... or (seq, digest) samples in ascending seq order.
  std::vector<std::pair<uint64_t, Digest>> digest_samples;
};

/// The safety verdict of one run.
struct Verdict {
  /// Every replica the schedule did not kill ran to the end.
  Status survival;
  /// Every schedule event was applied before the run ended (a tcp
  /// crash-primary waits on the nodes' answers; the sim's never fails).
  Status schedule;
  /// Honest replicas executed the same batch at every seq two of them show.
  Status agreement;
  bool convergence_checked = false;
  /// Honest replicas alive at the end reached the same frontier and state.
  Status convergence;

  bool ok() const {
    return survival.ok() && schedule.ok() && agreement.ok() &&
           (!convergence_checked || convergence.ok());
  }
  /// Appends the verdict fields to a report object ("survival" and
  /// "schedule" only when they failed: neither can in a simulated run).
  void AppendJson(Json& report) const;
};

/// Judge a run. Each shown digest is compared once, against the first
/// honest replica showing that seq.
Verdict CheckVerdict(const std::vector<ReplicaOutcome>& outcomes,
                     bool check_convergence);

}  // namespace scenario
}  // namespace seemore

#endif  // SEEMORE_SCENARIO_VERDICT_H_
