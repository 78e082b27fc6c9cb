#include "rt/write_queue.h"

#include <sys/uio.h>

namespace seemore {
namespace rt {

bool WriteQueue::Enqueue(std::shared_ptr<const FrameBuffer> frame) {
  const size_t wire = frame->size();
  if (queued_bytes_ + wire > max_bytes_) return false;
  queued_bytes_ += wire;
  frames_.push_back(std::move(frame));
  return true;
}

size_t WriteQueue::BuildIovecs(iovec* iov, size_t max_iov,
                               size_t* total) const {
  size_t n = 0;
  size_t bytes = 0;
  size_t offset = head_offset_;
  for (const auto& frame : frames_) {
    if (n == max_iov) break;
    // Header slice (offset may start inside it — partial write cursor).
    const size_t header = frame->header_size();
    if (offset < header) {
      iov[n].iov_base =
          const_cast<uint8_t*>(frame->header()) + offset;
      iov[n].iov_len = header - offset;
      bytes += iov[n].iov_len;
      ++n;
      offset = 0;
    } else {
      offset -= header;
    }
    // Body slice (skipped entirely for empty bodies).
    const size_t body_len = frame->body().size();
    if (offset < body_len) {
      if (n == max_iov) break;
      iov[n].iov_base =
          const_cast<uint8_t*>(frame->body().data()) + offset;
      iov[n].iov_len = body_len - offset;
      bytes += iov[n].iov_len;
      ++n;
    }
    offset = 0;  // only the front frame has a cursor
  }
  *total = bytes;
  return n;
}

size_t WriteQueue::Advance(size_t n) {
  size_t completed = 0;
  head_offset_ += n;
  while (!frames_.empty() && head_offset_ >= frames_.front()->size()) {
    const size_t wire = frames_.front()->size();
    head_offset_ -= wire;
    queued_bytes_ -= wire;
    frames_.pop_front();
    ++completed;
  }
  return completed;
}

void WriteQueue::Clear() {
  frames_.clear();
  head_offset_ = 0;
  queued_bytes_ = 0;
}

}  // namespace rt
}  // namespace seemore
