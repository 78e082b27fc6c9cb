// The instance log against a std::map model, and its footprint guard.
//
// The property test drives seeded random sequences of Slot, ResetSlot,
// Find, Erase, Reclaim (including floor jumps past the whole ring, as a
// state transfer makes) and EraseUncommitted, mixed with has_batch /
// committed flips and votes, over seqs below the floor, inside the window
// and beyond it. After every step the log must agree with the model on the
// uncommitted count, occupancy, Find results, ascending iteration order and
// every slot's vote trackers.
//
// The footprint guard pins what makes the log demand-sized: compact slots,
// a small initial ring, and rings that grow no further than the spans the
// replicas actually held in the Figure 4 failover run.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "consensus/instance_log.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "util/rng.h"

namespace seemore {
namespace {

constexpr int kValues = 3;
constexpr PrincipalId kVoters = 7;

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

Digest Value(int i) { return Digest::Of("value-" + std::to_string(i)); }

Signature SigOf(PrincipalId voter, int value) {
  std::array<uint8_t, Signature::kSize> bytes{};
  bytes[0] = static_cast<uint8_t>(voter);
  bytes[1] = static_cast<uint8_t>(value);
  return Signature(bytes);
}

struct ModelBallot {
  int value = 0;
  bool equivocated = false;
};
using ModelTracker = std::map<PrincipalId, ModelBallot>;

struct ModelSlot {
  bool has_batch = false;
  bool committed = false;
  ModelTracker plain;   // mirrors SlotCore::plain_votes (VoteTracker)
  ModelTracker accept;  // mirrors SlotCore::accept_votes (QuorumTracker)
};

/// Apply one vote to the model; returns the outcome the tracker must give.
VoteOutcome ModelVote(ModelTracker& tracker, PrincipalId voter, int value) {
  VoteOutcome expected;
  auto [it, inserted] = tracker.try_emplace(voter, ModelBallot{value, false});
  if (inserted) {
    expected.counted = true;
  } else if (it->second.value != value && !it->second.equivocated) {
    it->second.equivocated = true;
    expected.equivocation = true;
  }
  return expected;
}

size_t ModelCount(const ModelTracker& tracker, int value) {
  size_t n = 0;
  for (const auto& [voter, ballot] : tracker) n += ballot.value == value;
  return n;
}

size_t ModelEquivocators(const ModelTracker& tracker) {
  size_t n = 0;
  for (const auto& [voter, ballot] : tracker) n += ballot.equivocated;
  return n;
}

class LogHarness {
 public:
  LogHarness(uint64_t window, uint64_t seed)
      : log_(window), rng_(seed), cap_(log_.slab_capacity()) {}

  void Step() {
    const uint64_t op = rng_.NextBounded(100);
    if (op < 30) {
      const uint64_t seq = PickSeq();
      log_.Slot(seq);
      model_.try_emplace(seq);
    } else if (op < 35) {
      const uint64_t seq = PickSeq();
      log_.ResetSlot(seq);
      model_[seq] = ModelSlot{};
    } else if (op < 45) {
      const uint64_t seq = PickSeq();
      const SlotCore* found = log_.Find(seq);
      ASSERT_EQ(found != nullptr, model_.count(seq) == 1) << "seq " << seq;
    } else if (op < 50) {
      const uint64_t seq = PickSeq();
      log_.Erase(seq);
      model_.erase(seq);
    } else if (op < 55) {
      const uint64_t floor = PickFloor();
      log_.Reclaim(floor);
      model_.erase(model_.begin(), model_.upper_bound(floor));
      stable_ = std::max(stable_, floor);
    } else if (op < 57) {
      log_.EraseUncommitted();
      for (auto it = model_.begin(); it != model_.end();) {
        it = it->second.committed ? std::next(it) : model_.erase(it);
      }
    } else if (op < 75) {
      FlipFlags();
    } else {
      Vote();
    }
  }

  /// The full comparison against the model, run after every step.
  void Check() {
    size_t uncommitted = 0;
    for (const auto& [seq, model] : model_) {
      uncommitted += model.has_batch && !model.committed;
      const SlotCore* slot = log_.Find(seq);
      ASSERT_NE(slot, nullptr) << "live seq " << seq << " missing";
      ASSERT_EQ(slot->seq, seq);
      ASSERT_EQ(slot->has_batch(), model.has_batch) << "seq " << seq;
      ASSERT_EQ(slot->committed(), model.committed) << "seq " << seq;
      CheckTrackers(*slot, model);
    }
    ASSERT_EQ(log_.UncommittedSlots(), static_cast<int>(uncommitted));
    ASSERT_EQ(log_.occupied(), model_.size());
    ASSERT_EQ(log_.stable(), stable_);

    std::vector<uint64_t> seen;
    log_.ForEachAscending(
        [&](uint64_t seq, const SlotCore&) { seen.push_back(seq); });
    std::vector<uint64_t> expected;
    for (const auto& kv : model_) expected.push_back(kv.first);
    ASSERT_EQ(seen, expected);

    // Misses stay misses, wherever the seq falls.
    for (int i = 0; i < 4; ++i) {
      const uint64_t seq = PickSeq();
      if (model_.count(seq) == 0) {
        ASSERT_EQ(log_.Find(seq), nullptr) << seq;
      }
    }

    // Demand-sized: never past the cap, never past the span it needed.
    const uint64_t initial = std::min(InstanceLog::kInitialRingSlots, cap_);
    ASSERT_LE(log_.ring_size(), cap_);
    ASSERT_LE(log_.ring_size(),
              std::max(initial, NextPow2(log_.peak_span())));
  }

 private:
  /// Below the floor, inside the window, just past it, or far beyond.
  uint64_t PickSeq() {
    const uint64_t kind = rng_.NextBounded(10);
    if (kind == 0) return stable_ > 0 ? 1 + rng_.NextBounded(stable_) : 1;
    if (kind < 7) return stable_ + 1 + rng_.NextBounded(Span());
    if (kind < 9) return stable_ + 1 + rng_.NextBounded(cap_);
    return stable_ + cap_ + 1 + rng_.NextBounded(3 * cap_);
  }

  /// Mostly small checkpoint advances, sometimes a jump past the whole
  /// ring (state transfer), sometimes a straggler floor below the current.
  uint64_t PickFloor() {
    const uint64_t kind = rng_.NextBounded(10);
    if (kind == 0) return stable_ > 0 ? rng_.NextBounded(stable_ + 1) : 0;
    if (kind == 1) return stable_ + log_.ring_size() + rng_.NextBounded(cap_);
    return stable_ + rng_.NextBounded(Span());
  }

  /// The span most claims land in: a pipelined primary's in-flight region.
  uint64_t Span() const { return std::min<uint64_t>(cap_, 96); }

  std::pair<uint64_t, ModelSlot*> PickLive() {
    if (model_.empty()) return {0, nullptr};
    auto it = model_.begin();
    std::advance(it, rng_.NextBounded(model_.size()));
    return {it->first, &it->second};
  }

  void FlipFlags() {
    auto [seq, model] = PickLive();
    if (model == nullptr) return;
    SlotCore* slot = log_.Find(seq);
    ASSERT_NE(slot, nullptr);
    const bool value = rng_.NextBool(0.7);
    if (rng_.NextBool(0.5)) {
      log_.SetHasBatch(*slot, value);
      model->has_batch = value;
    } else {
      log_.SetCommitted(*slot, value);
      model->committed = value;
    }
  }

  void Vote() {
    auto [seq, model] = PickLive();
    if (model == nullptr) return;
    SlotCore& slot = log_.Slot(seq);
    const PrincipalId voter =
        static_cast<PrincipalId>(rng_.NextBounded(kVoters));
    const int value = static_cast<int>(rng_.NextBounded(kValues));
    VoteOutcome got;
    VoteOutcome want;
    if (rng_.NextBool(0.5)) {
      got = slot.plain_votes.Add(Value(value), voter);
      want = ModelVote(model->plain, voter, value);
    } else {
      got = slot.accept_votes.Add(Value(value), voter, SigOf(voter, value));
      want = ModelVote(model->accept, voter, value);
    }
    ASSERT_EQ(got.counted, want.counted);
    ASSERT_EQ(got.equivocation, want.equivocation);
  }

  static void CheckTrackers(const SlotCore& slot, const ModelSlot& model) {
    for (int v = 0; v < kValues; ++v) {
      ASSERT_EQ(slot.plain_votes.Count(Value(v)), ModelCount(model.plain, v));
      ASSERT_EQ(slot.accept_votes.Count(Value(v)),
                ModelCount(model.accept, v));
      std::vector<std::pair<PrincipalId, Signature>> want;
      for (const auto& [voter, ballot] : model.accept) {
        if (ballot.value == v) want.emplace_back(voter, SigOf(voter, v));
      }
      // The model map iterates in voter order: the certificate order.
      ASSERT_EQ(slot.accept_votes.SignaturesFor(Value(v)).SortedEntries(),
                want);
    }
    for (const auto& [voter, ballot] : model.plain) {
      ASSERT_TRUE(slot.plain_votes.HasVoted(Value(ballot.value), voter));
    }
    ASSERT_EQ(slot.plain_votes.equivocators(), ModelEquivocators(model.plain));
    ASSERT_EQ(slot.accept_votes.equivocators(),
              ModelEquivocators(model.accept));
  }

  InstanceLog log_;
  Rng rng_;
  const uint64_t cap_;
  uint64_t stable_ = 0;
  std::map<uint64_t, ModelSlot> model_;
};

TEST(InstanceLogPropertyTest, MatchesMapModelUnderRandomOps) {
  // Windows below, at and far above the initial ring size.
  for (uint64_t window : {8u, 100u, 1000u}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("window " + std::to_string(window) + " seed " +
                   std::to_string(seed));
      LogHarness harness(window, seed * 7919 + window);
      for (int step = 0; step < 1500; ++step) {
        harness.Step();
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << step;
        harness.Check();
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << step;
      }
    }
  }
}

TEST(InstanceLogPropertyTest, SignatureViewSurvivesRingGrowth) {
  InstanceLog log(/*window=*/20002);
  SlotCore& slot = log.Slot(3);
  for (PrincipalId voter = 0; voter < 4; ++voter) {
    slot.accept_votes.Add(Value(0), voter, SigOf(voter, 0));
  }
  const QuorumTracker::SignatureView view =
      slot.accept_votes.SignaturesFor(Value(0));
  const size_t ring_before = log.ring_size();
  // Claims far past the ring grow it, moving every live slot.
  log.Slot(5000);
  log.Slot(9000);
  ASSERT_GT(log.ring_size(), ring_before);
  ASSERT_EQ(view.size(), 4u);
  const auto entries = view.SortedEntries();
  for (PrincipalId voter = 0; voter < 4; ++voter) {
    EXPECT_EQ(entries[voter].first, voter);
    EXPECT_EQ(entries[voter].second, SigOf(voter, 0));
  }
  // The moved slot still counts and binds as before.
  SlotCore& moved = *log.Find(3);
  EXPECT_EQ(moved.accept_votes.Count(Value(0)), 4u);
  EXPECT_TRUE(moved.accept_votes.Add(Value(1), 2, SigOf(2, 1)).equivocation);
  EXPECT_EQ(view.size(), 4u);
}

TEST(InstanceLogFootprintTest, SlotCoreIsCompact) {
  EXPECT_LE(sizeof(SlotCore), 256u);
}

TEST(InstanceLogFootprintTest, FreshLogHoldsAtMost64Slots) {
  // The Figure 4 window (checkpoint period 10000): 2 * 10000 + 2.
  InstanceLog log(/*window=*/20002);
  EXPECT_LE(log.ring_size(), 64u);
  EXPECT_EQ(log.occupied(), 0u);
}

TEST(InstanceLogFootprintTest, Fig4RingsTrackTheSpansReplicasHeld) {
  Result<scenario::ScenarioSpec> spec =
      scenario::FindScenario("fig4-primary-crash");
  ASSERT_TRUE(spec.ok());
  struct Ring {
    size_t size = 0;
    size_t cap = 0;
    uint64_t peak_span = 0;
  };
  std::vector<Ring> rings;
  scenario::ScenarioHooks hooks;
  hooks.on_finish = [&](Cluster& cluster) {
    for (int i = 0; i < cluster.n(); ++i) {
      const InstanceLog& log = cluster.seemore(i)->instance_log();
      rings.push_back({log.ring_size(), log.slab_capacity(), log.peak_span()});
    }
  };
  Result<scenario::ScenarioReport> report = scenario::RunScenario(*spec, hooks);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->agreement.ok());
  ASSERT_FALSE(rings.empty());
  for (size_t i = 0; i < rings.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    EXPECT_LE(rings[i].size, NextPow2(rings[i].peak_span));
    // Far below the 16384-slot window cap an eager slab would allocate.
    EXPECT_LT(rings[i].size, rings[i].cap);
  }
}

}  // namespace
}  // namespace seemore
