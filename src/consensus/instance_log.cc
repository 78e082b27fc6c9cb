#include "consensus/instance_log.h"

#include <algorithm>

#include "util/logging.h"

namespace seemore {

namespace {

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

void SlotCore::Reset(uint64_t owner_seq) {
  *this = SlotCore{};
  seq = owner_seq;
}

InstanceLog::InstanceLog(uint64_t window) {
  // Cap the window the ring may grow to: a huge agreement window (e.g. a
  // bench disabling checkpoints via checkpoint_period = 1 << 20) must not
  // cost gigabytes per replica — especially now that RunMany keeps several
  // clusters alive concurrently. Seqs in the window but beyond the cap take
  // the overflow map (a FlatHashMap), which is exactly the lagging-replica
  // cold path it already serves; behaviour is identical, only host-side
  // locality changes.
  constexpr uint64_t kMaxRingSlots = uint64_t{1} << 14;
  cap_ = NextPow2(std::min(window + 1, kMaxRingSlots));
  ring_.resize(std::min(kInitialRingSlots, cap_));
  mask_ = ring_.size() - 1;
}

uint64_t InstanceLog::RingScanEnd() const {
  return std::min(ring_max_, stable_ + ring_.size());
}

void InstanceLog::SetFlags(SlotCore& slot, bool has_batch, bool committed) {
  uncommitted_ -= Uncommitted(slot);
  slot.has_batch_ = has_batch;
  slot.committed_ = committed;
  uncommitted_ += Uncommitted(slot);
}

void InstanceLog::Grow(uint64_t span) {
  // Every live ring seq lies in (stable_, stable_ + old size], so it keeps
  // a distinct index under the wider mask.
  std::vector<SlotCore> grown(std::min(NextPow2(span), cap_));
  const uint64_t mask = grown.size() - 1;
  for (SlotCore& slot : ring_) {
    if (slot.seq != 0) grown[slot.seq & mask] = std::move(slot);
  }
  ring_ = std::move(grown);
  mask_ = mask;
}

SlotCore& InstanceLog::RingSlot(uint64_t seq) {
  const uint64_t span = seq - stable_;
  if (span > ring_.size()) Grow(span);
  peak_span_ = std::max(peak_span_, span);
  return ring_[seq & mask_];
}

void InstanceLog::Uncount(const SlotCore& slot) {
  uncommitted_ -= Uncommitted(slot);
  --occupied_;
}

void InstanceLog::Free(SlotCore& slot) {
  Uncount(slot);
  slot.Reset(0);
}

SlotCore& InstanceLog::Slot(uint64_t seq) {
  if (InWindow(seq)) {
    SlotCore& slot = RingSlot(seq);
    if (slot.seq == seq) return slot;
    // Distinct in-window seqs map to distinct indices and Reclaim() frees
    // everything at or below the floor, so a mismatch means the slot is
    // free — and free slots are kept pristine.
    SEEMORE_CHECK(slot.seq == 0) << "instance-log ring collision";
    slot.seq = seq;
    ++occupied_;
    ring_max_ = std::max(ring_max_, seq);
    return slot;
  }
  auto [it, inserted] = overflow_.try_emplace(seq);
  if (inserted) {
    it->second.seq = seq;
    ++occupied_;
  }
  return it->second;
}

SlotCore& InstanceLog::ResetSlot(uint64_t seq) {
  SlotCore& slot = Slot(seq);
  uncommitted_ -= Uncommitted(slot);
  slot.Reset(seq);
  return slot;
}

SlotCore* InstanceLog::Find(uint64_t seq) {
  if (InWindow(seq)) {
    if (seq - stable_ > ring_.size()) return nullptr;
    SlotCore& slot = ring_[seq & mask_];
    return slot.seq == seq ? &slot : nullptr;
  }
  auto it = overflow_.find(seq);
  return it == overflow_.end() ? nullptr : &it->second;
}

const SlotCore* InstanceLog::Find(uint64_t seq) const {
  return const_cast<InstanceLog*>(this)->Find(seq);
}

void InstanceLog::Erase(uint64_t seq) {
  if (InWindow(seq)) {
    if (SlotCore* slot = Find(seq)) Free(*slot);
    return;
  }
  auto it = overflow_.find(seq);
  if (it == overflow_.end()) return;
  Uncount(it->second);
  overflow_.erase(it);
}

void InstanceLog::Reclaim(uint64_t stable_seq) {
  // Free ring slots in (stable_, stable_seq]; a floor jump past the whole
  // ring (state transfer) visits each ring index at most once.
  const uint64_t hi = std::min(stable_seq, RingScanEnd());
  for (uint64_t seq = stable_ + 1; seq <= hi; ++seq) {
    SlotCore& slot = ring_[seq & mask_];
    if (slot.seq == seq) Free(slot);
  }
  for (auto it = overflow_.begin(); it != overflow_.end();) {
    if (it->first <= stable_seq) {
      Uncount(it->second);
      it = overflow_.erase(it);
    } else {
      ++it;
    }
  }
  if (stable_seq <= stable_) return;
  stable_ = stable_seq;
  // Side-map entries that fell into the new window move onto the ring.
  for (auto it = overflow_.begin(); it != overflow_.end();) {
    if (!InWindow(it->first)) {
      ++it;
      continue;
    }
    SlotCore& slot = RingSlot(it->first);
    SEEMORE_CHECK(slot.seq == 0) << "instance-log migration collision";
    slot = std::move(it->second);
    ring_max_ = std::max(ring_max_, slot.seq);
    it = overflow_.erase(it);
  }
}

void InstanceLog::EraseUncommitted() {
  const uint64_t hi = RingScanEnd();
  for (uint64_t seq = stable_ + 1; seq <= hi; ++seq) {
    SlotCore& slot = ring_[seq & mask_];
    if (slot.seq == seq && !slot.committed_) Free(slot);
  }
  for (auto it = overflow_.begin(); it != overflow_.end();) {
    if (!it->second.committed_) {
      Uncount(it->second);
      it = overflow_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace seemore
