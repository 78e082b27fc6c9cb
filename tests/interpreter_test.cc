// scenario::ApplyEvent against a recording FaultTarget: which call each
// EventKind makes, the AppliedEvent text both runtimes print, the
// Byzantine exclusion set, and crash-primary answered inline or later.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/engine.h"

namespace seemore {
namespace scenario {
namespace {

/// Records every call as one line; answers are scripted per test.
class RecordingTarget : public FaultTarget {
 public:
  bool Crashed(int replica) const override {
    return crashed.count(replica) > 0;
  }
  void Crash(int replica) override { Log("crash " + Id(replica)); }
  Status Recover(int replica) override {
    Log("recover " + Id(replica));
    return recover_status;
  }
  Result<std::optional<RestartOutcome>> Restart(int replica) override {
    Log("restart " + Id(replica));
    return restart_result;
  }
  void PowerLoss(int replica) override { Log("power-loss " + Id(replica)); }
  Status TamperWal(int replica, storage::WalTamper tamper,
                   uint64_t offset) override {
    Log(std::string(tamper == storage::WalTamper::kTruncate ? "truncate "
                                                            : "corrupt ") +
        Id(replica) + " " + std::to_string(offset));
    return wal_status;
  }
  void SetByzantine(int replica, uint32_t flags) override {
    Log("byz " + Id(replica) + " " + std::to_string(flags));
  }
  Status Switch(SeeMoReMode target) override {
    Log(std::string("switch ") + SeeMoReModeToken(target));
    return switch_status;
  }
  void PartitionClouds() override { Log("partition"); }
  void HealClouds() override { Log("heal"); }
  void SetLinkUp(int from, int to, bool up) override {
    Log(std::string(up ? "restore " : "cut ") + Id(from) + "->" + Id(to));
  }
  void ShapeLink(int from, int to, SimTime delay, SimTime jitter,
                 uint32_t drop_ppm) override {
    Log("shape " + Id(from) + "->" + Id(to) + " " + std::to_string(delay) +
        " " + std::to_string(jitter) + " " + std::to_string(drop_ppm));
  }
  void ResolvePrimary(std::function<void(int)> then) override {
    Log("resolve-primary");
    if (defer_primary) {
      pending = std::move(then);
    } else {
      then(primary);
    }
  }

  std::set<int> crashed;
  Status recover_status;
  Result<std::optional<RestartOutcome>> restart_result =
      std::optional<RestartOutcome>();
  Status wal_status;
  Status switch_status;
  int primary = -1;
  bool defer_primary = false;
  std::function<void(int)> pending;
  std::vector<std::string> calls;

 private:
  static std::string Id(int replica) { return std::to_string(replica); }
  void Log(std::string call) { calls.push_back(std::move(call)); }
};

struct Applied {
  std::string description;
  Status outcome;
  int count = 0;
};

/// Apply `event` and capture what ApplyEvent reported.
Applied Apply(RecordingTarget& target, const ScenarioEvent& event,
              std::set<int>& byzantine) {
  Applied applied;
  ApplyEvent(target, event, byzantine,
             [&applied](std::string description, Status outcome) {
               applied.description = std::move(description);
               applied.outcome = std::move(outcome);
               ++applied.count;
             });
  return applied;
}

ScenarioEvent Event(EventKind kind, int replica = 1) {
  ScenarioEvent event;
  event.at = Millis(25);
  event.kind = kind;
  event.replica = replica;
  return event;
}

TEST(InterpreterTest, EveryKindMakesItsCallAndPrintsTheSpecText) {
  struct Case {
    ScenarioEvent event;
    std::string call;
  };
  ScenarioEvent byz = Event(EventKind::kByzantine, 4);
  byz.byz_flags = kByzWrongVotes;
  ScenarioEvent to_dog = Event(EventKind::kSwitch);
  to_dog.target_mode = SeeMoReMode::kDog;
  ScenarioEvent truncate = Event(EventKind::kTruncateLog, 2);
  truncate.arg = 7;
  ScenarioEvent corrupt = Event(EventKind::kCorruptLog, 2);
  corrupt.arg = 3;
  ScenarioEvent cut = Event(EventKind::kCutLink, 3);
  cut.peer = 0;
  ScenarioEvent restore = Event(EventKind::kRestoreLink, 3);
  restore.peer = 0;
  ScenarioEvent shape = Event(EventKind::kShapeLink, 3);
  shape.peer = 0;
  shape.delay = Micros(200);
  shape.jitter = Micros(50);
  shape.arg = 1000;
  const std::vector<Case> cases = {
      {Event(EventKind::kCrash), "crash 1"},
      {Event(EventKind::kRecover), "recover 1"},
      {byz, "byz 4 " + std::to_string(kByzWrongVotes)},
      {to_dog, "switch dog"},
      {Event(EventKind::kPartitionClouds), "partition"},
      {Event(EventKind::kHealClouds), "heal"},
      {Event(EventKind::kRestart), "restart 1"},
      {Event(EventKind::kPowerLoss), "power-loss 1"},
      {truncate, "truncate 2 7"},
      {corrupt, "corrupt 2 3"},
      {cut, "cut 3->0"},
      {restore, "restore 3->0"},
      {shape, "shape 3->0 " + std::to_string(Micros(200)) + " " +
                  std::to_string(Micros(50)) + " 1000"},
      {Event(EventKind::kCrashPrimary), "resolve-primary"},
  };
  ASSERT_EQ(cases.size(), AllEventKinds().size());
  for (const Case& c : cases) {
    RecordingTarget target;
    target.crashed = {1};
    std::set<int> byzantine;
    const Applied applied = Apply(target, c.event, byzantine);
    EXPECT_EQ(applied.count, 1) << c.call;
    ASSERT_FALSE(target.calls.empty()) << c.call;
    EXPECT_EQ(target.calls.front(), c.call);
    const std::string spec_text = c.event.ToString();
    // The text starts with the spec's own rendering; only an outcome
    // suffix may follow.
    EXPECT_EQ(applied.description.substr(0, spec_text.size()), spec_text);
  }
}

TEST(InterpreterTest, OutcomeSuffixes) {
  std::set<int> byzantine;
  {
    RecordingTarget target;
    target.switch_status = Status::Unavailable("all replicas crashed");
    ScenarioEvent event = Event(EventKind::kSwitch);
    event.target_mode = SeeMoReMode::kPeacock;
    const Applied applied = Apply(target, event, byzantine);
    EXPECT_EQ(applied.description,
              event.ToString() + ": Unavailable: all replicas crashed");
    EXPECT_EQ(applied.outcome.code(), StatusCode::kUnavailable);
  }
  {
    RecordingTarget target;  // replica 1 is alive
    const ScenarioEvent event = Event(EventKind::kRestart);
    const Applied applied = Apply(target, event, byzantine);
    EXPECT_EQ(applied.description,
              event.ToString() + " (skipped: replica not crashed)");
    EXPECT_TRUE(target.calls.empty());
    EXPECT_TRUE(applied.outcome.ok());
  }
  {
    RecordingTarget target;
    target.crashed = {1};
    RestartOutcome restored;
    restored.snapshot_seq = 64;
    restored.replayed_commits = 5;
    restored.truncated_bytes = 12;
    target.restart_result = std::optional<RestartOutcome>(restored);
    const ScenarioEvent event = Event(EventKind::kRestart);
    EXPECT_EQ(Apply(target, event, byzantine).description,
              event.ToString() +
                  " (restored from snapshot 64, replayed 5 commits, "
                  "discarded 12 torn bytes)");
  }
  {
    RecordingTarget target;
    target.crashed = {1};
    target.restart_result = Status::Corruption("bad record");
    const ScenarioEvent event = Event(EventKind::kRestart);
    const Applied applied = Apply(target, event, byzantine);
    EXPECT_EQ(applied.description,
              event.ToString() + " (refused: Corruption: bad record)");
    EXPECT_EQ(applied.outcome.code(), StatusCode::kCorruption);
  }
  {
    // A recover the target could not apply is a runtime skip.
    RecordingTarget target;
    target.recover_status = Status::FailedPrecondition("replica not crashed");
    const ScenarioEvent event = Event(EventKind::kRecover);
    EXPECT_EQ(Apply(target, event, byzantine).description,
              event.ToString() + " (skipped: replica not crashed)");
  }
  {
    RecordingTarget target;
    target.wal_status = Status::FailedPrecondition("no wal");
    ScenarioEvent event = Event(EventKind::kTruncateLog);
    event.arg = 9;
    EXPECT_EQ(Apply(target, event, byzantine).description,
              event.ToString() + " (FailedPrecondition: no wal)");
  }
  {
    // Kinds that cannot fail print the spec text alone: the sim's text and
    // the tcp backend's text are the same string.
    RecordingTarget target;
    const ScenarioEvent event = Event(EventKind::kCrash);
    EXPECT_EQ(Apply(target, event, byzantine).description, event.ToString());
  }
}

TEST(InterpreterTest, ByzantineStaysExcludedAfterByzNone) {
  RecordingTarget target;
  std::set<int> byzantine;
  ScenarioEvent on = Event(EventKind::kByzantine, 5);
  on.byz_flags = kByzEquivocate;
  Apply(target, on, byzantine);
  EXPECT_EQ(byzantine, std::set<int>({5}));

  ScenarioEvent off = on;
  off.byz_flags = kByzNone;
  Apply(target, off, byzantine);
  EXPECT_EQ(target.calls.back(), "byz 5 0");  // the flags are cleared...
  EXPECT_EQ(byzantine, std::set<int>({5}));    // ...the exclusion is not

  // byz=none on a replica that never lied adds nothing.
  ScenarioEvent never = off;
  never.replica = 4;
  Apply(target, never, byzantine);
  EXPECT_EQ(byzantine, std::set<int>({5}));
}

TEST(InterpreterTest, CrashPrimaryCrashesTheResolvedReplica) {
  RecordingTarget target;
  target.primary = 2;
  std::set<int> byzantine;
  const ScenarioEvent event = Event(EventKind::kCrashPrimary);
  const Applied applied = Apply(target, event, byzantine);
  EXPECT_EQ(target.calls,
            std::vector<std::string>({"resolve-primary", "crash 2"}));
  EXPECT_EQ(applied.description, event.ToString() + " (replica 2)");
}

TEST(InterpreterTest, CrashPrimaryWithNoLiveReplicaIsSkipped) {
  RecordingTarget target;
  target.primary = -1;
  std::set<int> byzantine;
  const ScenarioEvent event = Event(EventKind::kCrashPrimary);
  const Applied applied = Apply(target, event, byzantine);
  EXPECT_EQ(target.calls, std::vector<std::string>({"resolve-primary"}));
  EXPECT_EQ(applied.description,
            event.ToString() + " (skipped: no live replica)");
  EXPECT_EQ(applied.count, 1);
}

TEST(InterpreterTest, CrashPrimaryMayBeDecidedAfterTheEventIsGone) {
  RecordingTarget target;
  target.defer_primary = true;
  std::set<int> byzantine;
  std::vector<std::string> done;
  std::string expected;
  {
    const ScenarioEvent event = Event(EventKind::kCrashPrimary);
    expected = event.ToString() + " (replica 3)";
    ApplyEvent(target, event, byzantine,
               [&done](std::string description, Status) {
                 done.push_back(std::move(description));
               });
  }
  EXPECT_TRUE(done.empty());  // nothing recorded before the decision
  ASSERT_TRUE(target.pending);
  target.pending(3);
  EXPECT_EQ(done, std::vector<std::string>({expected}));
  EXPECT_EQ(target.calls.back(), "crash 3");
}

}  // namespace
}  // namespace scenario
}  // namespace seemore
