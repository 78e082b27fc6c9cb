// A batch of client requests ordered as one consensus instance (the "µ" of
// one sequence number). Batching follows BFT-SMaRt practice: the primary
// folds requests that arrive while earlier instances are in flight into the
// next instance. batch_max = 1 degenerates to the paper's one-request-per-
// sequence-number presentation.

#ifndef SEEMORE_CONSENSUS_BATCH_H_
#define SEEMORE_CONSENSUS_BATCH_H_

#include <vector>

#include "crypto/digest.h"
#include "smr/command.h"
#include "util/status.h"

namespace seemore {

struct Batch {
  std::vector<Request> requests;

  bool empty() const { return requests.empty(); }
  size_t size() const { return requests.size(); }

  Bytes Encode() const;
  /// Append the canonical encoding (same bytes as Encode()) to `enc` —
  /// batch-carrying messages prefix it with EncodedSize() and encode in
  /// place instead of materializing a temporary.
  void EncodeTo(Encoder& enc) const;
  /// Exact size of the canonical encoding.
  size_t EncodedSize() const;
  static Result<Batch> Decode(const Bytes& bytes);
  static Result<Batch> DecodeFrom(Decoder& dec);

  /// D(µ) of the batch: digest over the canonical encoding.
  Digest ComputeDigest() const;

  /// A batch containing the special no-op command µ∅ used by view changes
  /// to fill sequence-number holes (paper §5.1 step 3).
  static Batch Noop();
  /// D(µ∅), which every replica knows without holding or fetching a batch.
  static const Digest& NoopDigest();
  bool IsNoop() const { return requests.empty(); }
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_BATCH_H_
