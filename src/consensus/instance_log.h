// The per-replica consensus slot log shared by every protocol: a
// sequence-indexed ring of SlotCore instances holding one in-flight
// instance's batch, phase flags and vote trackers.
//
// Storage mirrors the simulator's event-slab design (DESIGN.md §6), sized
// by demand: live sequence numbers inside the agreement window (stable
// checkpoint + window) occupy a power-of-two ring addressed by `seq & mask`
// — distinct seqs within one ring length above the floor can never collide
// — and each slot carries its owning seq as a generation tag, so a lookup of
// a reclaimed or never-claimed seq misses instead of aliasing stale state.
// The ring starts small and doubles only when a claimed seq lies beyond it,
// up to the window cap, so a replica pays for the sequences it holds, not
// for the window it may hold. Sequence numbers outside the window (a lagging
// replica installing a far-ahead certificate, or far-future bookkeeping like
// Paxos' commit-raced-ahead markers) spill into a small unordered side map;
// the one consumer that needs ordered traversal (ForEachAscending,
// view-change set assembly) sorts the side map's keys at read time.
// Reclaim(stable) frees every slot <= stable and migrates side-map entries
// that fell into the new window onto the ring.
//
// Slot references stay valid until the next Slot()/ResetSlot() of another
// seq (which may grow the ring) or the next Reclaim()/Erase*.

#ifndef SEEMORE_CONSENSUS_INSTANCE_LOG_H_
#define SEEMORE_CONSENSUS_INSTANCE_LOG_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/flat_hash_map.h"

#include "consensus/batch.h"
#include "consensus/config.h"
#include "consensus/quorum_tracker.h"
#include "crypto/keystore.h"

namespace seemore {

/// Phase state of one consensus instance (the union of what SeeMoRe's three
/// modes, PBFT/S-UpRight and Paxos track per sequence number). Protocols use
/// the subset their phases need; unused trackers stay empty.
struct SlotCore {
  /// Owning sequence number (the ring's generation tag); 0 = free slot.
  uint64_t seq = 0;
  uint64_t view = 0;

  Batch batch;
  Digest digest;
  Signature primary_sig;  // over the proposal (prepare/pre-prepare) header
  /// Lion: the primary's signed commit (view-change C-set evidence).
  Signature commit_sig;

  /// Unsigned votes: Lion accepts counted by the trusted primary, Paxos ACKs
  /// counted by the leader.
  VoteTracker plain_votes;
  /// Signed first-phase echoes: Dog accepts, Peacock/PBFT prepares.
  QuorumTracker accept_votes;
  /// Signed commit votes (Dog/Peacock/PBFT).
  QuorumTracker commit_votes;
  /// INFORMs received by SeeMoRe passive nodes.
  VoteTracker inform_votes;

  /// SeeMoRe: mode under which the proposal was signed (signature domain).
  SeeMoReMode mode = SeeMoReMode::kLion;
  bool accept_sent = false;
  bool prepared = false;     // Peacock/PBFT
  bool commit_sent = false;  // commit vote sent / Paxos COMMIT broadcast
  bool commit_seen = false;  // Paxos: COMMIT raced ahead of the ACCEPT
  bool has_commit_sig = false;

  /// The two flags behind the pacing count; set them through
  /// InstanceLog::SetHasBatch/SetCommitted so the count stays exact.
  bool has_batch() const { return has_batch_; }
  bool committed() const { return committed_; }

 private:
  friend class InstanceLog;
  /// Reset to a fresh slot owning `owner_seq` (0 frees the slot).
  void Reset(uint64_t owner_seq);

  bool has_batch_ = false;
  bool committed_ = false;
};

// The ring multiplies this size by the span a replica holds; trackers stay
// one pointer each until voted on.
static_assert(sizeof(SlotCore) <= 256, "SlotCore must stay compact");

class InstanceLog {
 public:
  /// `window` is the protocol's agreement window (seqs above the stable
  /// checkpoint a primary may propose); it caps the ring.
  explicit InstanceLog(uint64_t window);

  /// Get-or-create (std::map operator[] semantics, any seq).
  SlotCore& Slot(uint64_t seq);
  /// Get-or-create, then reset to a fresh slot. View-change installs use
  /// this so stale votes never count toward the new view.
  SlotCore& ResetSlot(uint64_t seq);

  SlotCore* Find(uint64_t seq);
  const SlotCore* Find(uint64_t seq) const;

  /// Flag writes for a live slot of this log. Each keeps UncommittedSlots()
  /// exact in O(1).
  void SetHasBatch(SlotCore& slot, bool has_batch) {
    SetFlags(slot, has_batch, slot.committed_);
  }
  void SetCommitted(SlotCore& slot, bool committed) {
    SetFlags(slot, slot.has_batch_, committed);
  }

  void Erase(uint64_t seq);
  /// Free every slot <= stable_seq (checkpoint GC) and adopt it as the new
  /// reclamation floor. Lower-than-current floors still erase matching
  /// stragglers but never move the floor backwards.
  void Reclaim(uint64_t stable_seq);
  /// Free every uncommitted slot (EnterView: superseded by the NEW-VIEW).
  void EraseUncommitted();

  /// Reclamation floor (highest Reclaim() argument seen).
  uint64_t stable() const { return stable_; }
  /// Live slots (ring + side map) — the occupancy the property tests bound.
  size_t occupied() const { return occupied_; }
  /// The window cap: seqs in (stable, stable + slab_capacity()] live on the
  /// ring, everything else in the side map. Fixed at construction.
  size_t slab_capacity() const { return cap_; }
  /// Slots the ring holds now: at most kInitialRingSlots at construction,
  /// doubled on demand up to slab_capacity(), never shrunk.
  size_t ring_size() const { return ring_.size(); }
  /// Largest span (seq - floor) a ring claim has needed; the ring is never
  /// larger than the next power of two of it (or its initial size).
  uint64_t peak_span() const { return peak_span_; }
  /// Slots proposed but not yet committed (primary pipeline pacing input):
  /// live slots with has_batch() && !committed(), kept as a running count.
  int UncommittedSlots() const { return static_cast<int>(uncommitted_); }

  static constexpr uint64_t kInitialRingSlots = 64;

  /// Visit live slots in ascending seq order (view-change set assembly).
  /// The overflow map is unordered, so its keys are collected and sorted
  /// here — a cold-path cost paid only when overflow is non-empty.
  template <typename F>
  void ForEachAscending(F&& fn) const {
    std::vector<uint64_t> cold;
    cold.reserve(overflow_.size());
    for (const auto& kv : overflow_) cold.push_back(kv.first);
    std::sort(cold.begin(), cold.end());
    size_t ci = 0;
    for (; ci < cold.size() && cold[ci] <= stable_; ++ci) {
      fn(cold[ci], overflow_.find(cold[ci])->second);
    }
    const uint64_t hi = RingScanEnd();
    for (uint64_t seq = stable_ + 1; seq <= hi; ++seq) {
      const SlotCore& slot = ring_[seq & mask_];
      if (slot.seq == seq) fn(seq, slot);
    }
    for (; ci < cold.size(); ++ci) {
      fn(cold[ci], overflow_.find(cold[ci])->second);
    }
  }

 private:
  bool InWindow(uint64_t seq) const {
    return seq > stable_ && seq <= stable_ + cap_;
  }
  uint64_t RingScanEnd() const;
  static bool Uncommitted(const SlotCore& slot) {
    return slot.has_batch_ && !slot.committed_;
  }
  void SetFlags(SlotCore& slot, bool has_batch, bool committed);
  /// Ring slot for in-window `seq`, growing the ring first if needed.
  SlotCore& RingSlot(uint64_t seq);
  void Grow(uint64_t span);
  /// Drop a live slot from the counts (callers then free or erase it).
  void Uncount(const SlotCore& slot);
  void Free(SlotCore& slot);

  uint64_t stable_ = 0;
  uint64_t cap_ = 0;        // window cap (power of two)
  uint64_t ring_max_ = 0;   // highest seq ever placed on the ring
  uint64_t peak_span_ = 0;  // largest seq - stable_ claimed on the ring
  size_t occupied_ = 0;
  size_t uncommitted_ = 0;      // live slots with has_batch && !committed
  uint64_t mask_ = 0;           // ring_.size() - 1 (power of two)
  std::vector<SlotCore> ring_;  // seqs in (stable_, stable_ + size]
  FlatHashMap<uint64_t, SlotCore> overflow_;  // everything else (cold path)
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_INSTANCE_LOG_H_
