// Per-connection outbound frame queue for the real transport.
//
// The queue holds refcounted FrameBuffers (never byte copies — a multicast
// enqueues the *same* FrameBuffer on every peer's queue) and flushes them
// as an iovec chain through one writev/sendmsg call: up to max_iov
// (IOV_MAX-bounded) entries per syscall, two per frame (inline header +
// body). A partial write leaves a byte cursor that may sit anywhere —
// inside the front frame's header or body — and the next BuildIovecs
// resumes exactly there.
//
// Backpressure accounting is per-queue, not per-allocation: a frame shared
// by five peers charges each peer its full wire size, because that is the
// number of bytes this connection still owes the kernel
// (tests/rt_wire_test.cc pins down both the cursor arithmetic at every
// split boundary and the shared-frame accounting).

#ifndef SEEMORE_RT_WRITE_QUEUE_H_
#define SEEMORE_RT_WRITE_QUEUE_H_

#include <cstddef>
#include <deque>
#include <memory>

#include "rt/frame.h"

struct iovec;  // <sys/uio.h>; forward-declared to keep this header light

namespace seemore {
namespace rt {

class WriteQueue {
 public:
  explicit WriteQueue(size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Queue a frame for transmission. False means the queue is at its
  /// backpressure cap and the frame was NOT queued (the transport counts
  /// it as a drop — the same "slow link loses messages" behaviour the
  /// simulator models).
  bool Enqueue(std::shared_ptr<const FrameBuffer> frame);

  /// Fill `iov` with up to `max_iov` entries describing the unsent bytes,
  /// starting at the partial-write cursor. Returns the entry count;
  /// `*total` receives the byte sum of the entries.
  size_t BuildIovecs(iovec* iov, size_t max_iov, size_t* total) const;

  /// Advance the cursor past `n` bytes the kernel accepted, releasing
  /// fully-sent frames. Returns how many frames completed.
  size_t Advance(size_t n);

  bool empty() const { return frames_.empty(); }
  size_t queued_bytes() const { return queued_bytes_; }
  size_t max_bytes() const { return max_bytes_; }
  void Clear();

 private:
  const size_t max_bytes_;
  std::deque<std::shared_ptr<const FrameBuffer>> frames_;
  /// Bytes of frames_.front() already accepted by the kernel. May point
  /// into the header (< its header_size()) or the body.
  size_t head_offset_ = 0;
  /// Full wire size of every queued frame (the front frame counts whole
  /// until it completes): the cap guards queued *frames*, so a mid-frame
  /// partial write must not let it breathe early.
  size_t queued_bytes_ = 0;
};

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_WRITE_QUEUE_H_
