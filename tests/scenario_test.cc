// The declarative scenario surface: name<->enum mappings (exhaustive round
// trips), ScenarioSpec validation (including the schedule checks seemore_ctl
// historically skipped), the JSON codec (lossless round trip, unknown-field
// rejection), the builder, and the canonical-scenario registry.

#include <gtest/gtest.h>

#include "consensus/replica_base.h"
#include "scenario/builder.h"
#include "scenario/names.h"
#include "scenario/registry.h"
#include "scenario/spec.h"

namespace seemore {
namespace scenario {
namespace {

TEST(NamesTest, ProtocolKindRoundTripsExhaustively) {
  for (ProtocolKind kind : AllProtocolKinds()) {
    Result<ProtocolKind> back = ProtocolKindFromToken(ProtocolKindToken(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(ProtocolKindFromToken("pbft").ok());
  EXPECT_FALSE(ProtocolKindFromToken("").ok());
}

TEST(NamesTest, SeeMoReModeRoundTripsExhaustively) {
  for (SeeMoReMode mode : AllSeeMoReModes()) {
    Result<SeeMoReMode> back = SeeMoReModeFromToken(SeeMoReModeToken(mode));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, mode);
  }
  EXPECT_FALSE(SeeMoReModeFromToken("Lion").ok());  // tokens are lowercase
}

TEST(NamesTest, ByzFlagsRoundTripExhaustively) {
  // Every subset of the defined bits survives token round trip.
  const auto& bits = AllByzFlagBits();
  for (uint32_t subset = 0; subset < (1u << bits.size()); ++subset) {
    uint32_t flags = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (subset & (1u << i)) flags |= bits[i];
    }
    Result<uint32_t> back = ByzFlagsFromToken(ByzFlagsToken(flags));
    ASSERT_TRUE(back.ok()) << ByzFlagsToken(flags);
    EXPECT_EQ(*back, flags);
  }
  EXPECT_FALSE(ByzFlagsFromToken("wrongvotes+nope").ok());
}

TEST(NamesTest, WorkloadStateMachineEventKindsRoundTrip) {
  for (WorkloadKind kind : AllWorkloadKinds()) {
    Result<WorkloadKind> back = WorkloadKindFromToken(WorkloadKindToken(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  for (StateMachineKind kind : AllStateMachineKinds()) {
    Result<StateMachineKind> back =
        StateMachineKindFromToken(StateMachineKindToken(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  for (EventKind kind : AllEventKinds()) {
    Result<EventKind> back = EventKindFromToken(EventKindToken(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(EventKindFromToken("reboot").ok());
}

TEST(SpecTest, DefaultsValidate) {
  EXPECT_TRUE(ScenarioSpec().Validate().ok());
}

TEST(SpecTest, ResolvesPaperTopologyDefaults) {
  ScenarioSpec spec;
  spec.topology.c = 2;
  spec.topology.m = 3;
  ClusterConfig config = spec.ResolvedConfig();
  EXPECT_EQ(config.s, 4);   // 2c
  EXPECT_EQ(config.p, 10);  // 3m+1
  EXPECT_EQ(config.n(), 14);

  spec.protocol = ProtocolKind::kSUpRight;
  config = spec.ResolvedConfig();
  EXPECT_EQ(config.s, 4);
  EXPECT_EQ(config.p, HybridNetworkSize(3, 2) - 4);
}

TEST(SpecTest, RejectsOutOfRangeScheduleReplica) {
  // The seemore_ctl regression: --crash=99@100 used to index replicas_[99].
  ScenarioBuilder builder;
  builder.SeeMoRe(SeeMoReMode::kLion, 1, 1).CrashAt(Millis(100), 99);
  Result<ScenarioSpec> built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("replica 99"), std::string::npos);

  ScenarioBuilder negative;
  negative.SeeMoRe(SeeMoReMode::kLion, 1, 1).RecoverAt(Millis(10), -1);
  EXPECT_FALSE(negative.Build().ok());
}

TEST(SpecTest, RejectsInvalidScheduleSemantics) {
  // Byzantine behaviour on a trusted SeeMoRe replica.
  ScenarioBuilder trusted_byz;
  trusted_byz.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .ByzantineAt(Millis(10), 0, kByzWrongVotes);
  EXPECT_EQ(trusted_byz.Build().status().code(),
            StatusCode::kInvalidArgument);

  // Mode switches need SeeMoRe.
  ScenarioBuilder cft_switch;
  cft_switch.Cft(1).SwitchAt(Millis(10), SeeMoReMode::kDog);
  EXPECT_EQ(cft_switch.Build().status().code(), StatusCode::kInvalidArgument);

  // Cloud partitions need a hybrid deployment.
  ScenarioBuilder bft_partition;
  bft_partition.Bft(1).PartitionCloudsAt(Millis(10));
  EXPECT_EQ(bft_partition.Build().status().code(),
            StatusCode::kInvalidArgument);

  // Negative event time.
  ScenarioBuilder past;
  past.SeeMoRe(SeeMoReMode::kLion, 1, 1).CrashAt(Millis(-5), 0);
  EXPECT_EQ(past.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(SpecTest, RejectsInvalidRestartSchedules) {
  // A restart replaces a crashed process; restarting a live replica is a
  // schedule bug, caught in TIME order (the crash at 10ms does not license
  // a restart at 5ms).
  ScenarioBuilder no_crash;
  no_crash.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Durability()
      .RestartAt(Millis(5), 0)
      .CrashAt(Millis(10), 0);
  Result<ScenarioSpec> built = no_crash.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("without a preceding crash"),
            std::string::npos);

  // A recover consumes the crash: the replica is live again.
  ScenarioBuilder after_recover;
  after_recover.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Durability()
      .CrashAt(Millis(10), 0)
      .RecoverAt(Millis(20), 0)
      .RestartAt(Millis(30), 0);
  EXPECT_EQ(after_recover.Build().status().code(),
            StatusCode::kInvalidArgument);

  // Out-of-range replica, same typed error as the other event families.
  ScenarioBuilder oob;
  oob.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Durability()
      .CrashAt(Millis(10), 99)
      .RestartAt(Millis(20), 99);
  built = oob.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("replica 99"), std::string::npos);

  // The whole restart/fault-injection family needs durability enabled.
  ScenarioBuilder no_durability;
  no_durability.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .CrashAt(Millis(10), 0)
      .RestartAt(Millis(20), 0);
  built = no_durability.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("durability"), std::string::npos);

  // Log tampering also requires the target to be down...
  ScenarioBuilder live_tamper;
  live_tamper.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Durability()
      .TruncateLogAt(Millis(10), 0, 100);
  EXPECT_EQ(live_tamper.Build().status().code(),
            StatusCode::kInvalidArgument);

  // ...and a non-negative argument.
  ScenarioBuilder negative_arg;
  negative_arg.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Durability()
      .CrashAt(Millis(10), 0)
      .CorruptLogAt(Millis(20), 0, -1);
  EXPECT_EQ(negative_arg.Build().status().code(),
            StatusCode::kInvalidArgument);

  // A power loss is a crash for scheduling purposes: restart after it is
  // legal, and the valid twin of everything above builds fine.
  ScenarioBuilder valid;
  valid.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Durability(/*fsync_interval=*/64)
      .PowerLossAt(Millis(10), 1)
      .TruncateLogAt(Millis(15), 1, 100)
      .RestartAt(Millis(20), 1);
  EXPECT_TRUE(valid.Build().ok()) << valid.Build().status().ToString();
}

TEST(SpecTest, RejectsBadDurabilityKnobs) {
  ScenarioSpec spec;
  spec.durability.enabled = true;
  spec.durability.fsync_interval = 0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

  spec = ScenarioSpec();
  spec.durability.enabled = true;
  spec.durability.segment_bytes = 1024;  // below the 4 KiB floor
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SpecTest, RejectsBadParameters) {
  ScenarioSpec spec;
  spec.net.drop_probability = 1.5;
  EXPECT_FALSE(spec.Validate().ok());

  spec = ScenarioSpec();
  spec.workload.kind = WorkloadKind::kKv;
  spec.workload.keys = 0;
  EXPECT_FALSE(spec.Validate().ok());

  spec = ScenarioSpec();
  spec.plan.measure = 0;
  EXPECT_FALSE(spec.Validate().ok());

  spec = ScenarioSpec();
  spec.plan.sweep_clients = {8, 0};
  EXPECT_FALSE(spec.Validate().ok());
}

/// A spec with every field off its default, to make the round trip earn
/// its keep.
ScenarioSpec FullyLoadedSpec() {
  ScenarioBuilder builder;
  builder.Name("kitchen-sink")
      .Description("every field off-default")
      .SeeMoRe(SeeMoReMode::kDog, 2, 1)
      .CloudSizes(4, 7)
      .Batching(64, 4)
      .CheckpointPeriod(256)
      .ViewChangeTimeout(Millis(25))
      .LionSignAccepts(true)
      .Drop(0.01)
      .Duplicate(0.02)
      .CrossCloudLink(Micros(1500), Micros(150))
      .ClientLink(Micros(200), Micros(50))
      .Seed(987654321)
      .Clients(12)
      .RetransmitTimeout(Millis(80))
      .Kv(64, 0.25)
      .Warmup(Millis(111))
      .Measure(Millis(222))
      .Drain(Millis(333))
      .Timeline(Millis(5))
      .CheckConvergence()
      .Sweep({1, 8, 64})
      .CrashAt(Millis(10), 0)
      .RecoverAt(Millis(20), 0)
      .ByzantineAt(Millis(30), 6, kByzWrongVotes | kByzLieToClients)
      .SwitchAt(Millis(40), SeeMoReMode::kPeacock)
      .CrashPrimaryAt(Millis(50))
      .PartitionCloudsAt(Millis(60))
      .HealCloudsAt(Millis(70))
      .Durability(/*fsync_interval=*/8, /*segment_bytes=*/128 * 1024)
      .CrashAt(Millis(75), 1)
      .TruncateLogAt(Millis(80), 1, 128)
      .CorruptLogAt(Millis(85), 1, 7)
      .RestartAt(Millis(90), 1)
      .PowerLossAt(Millis(95), 6)
      .RestartAt(Millis(98), 6);
  ScenarioSpec spec = builder.spec();
  spec.tuning.reply_cache_retention = 32;
  return spec;
}

TEST(SpecJsonTest, LosslessRoundTrip) {
  const ScenarioSpec spec = FullyLoadedSpec();
  ASSERT_TRUE(spec.Validate().ok());
  const std::string text = spec.ToJsonText();
  Result<ScenarioSpec> back = ScenarioSpec::FromJsonText(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Bit-identical re-serialization is the round-trip criterion: it covers
  // every field, including schedule order.
  EXPECT_EQ(back->ToJsonText(), text);
  EXPECT_TRUE(back->Validate().ok());
  EXPECT_EQ(back->schedule.size(), 13u);
  EXPECT_EQ(back->schedule[3].target_mode, SeeMoReMode::kPeacock);
  EXPECT_EQ(back->plan.sweep_clients, (std::vector<int>{1, 8, 64}));
  EXPECT_TRUE(back->durability.enabled);
  EXPECT_EQ(back->durability.fsync_interval, 8);
  EXPECT_EQ(back->durability.segment_bytes, 128 * 1024);
  EXPECT_EQ(back->tuning.reply_cache_retention, 32u);
  EXPECT_EQ(back->ResolvedConfig().reply_cache_retention, 32u);
  EXPECT_EQ(back->schedule[8].kind, EventKind::kTruncateLog);
  EXPECT_EQ(back->schedule[8].arg, 128);
  EXPECT_EQ(back->schedule[11].kind, EventKind::kPowerLoss);
}

TEST(SpecJsonTest, DefaultsRoundTripAndPartialDocsDecode) {
  const ScenarioSpec defaults;
  Result<ScenarioSpec> back =
      ScenarioSpec::FromJsonText(defaults.ToJsonText());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToJsonText(), defaults.ToJsonText());

  // A minimal hand-written doc: absent fields keep defaults.
  Result<ScenarioSpec> partial = ScenarioSpec::FromJsonText(
      R"({"protocol": "bft", "topology": {"f": 3}, "clients": 4})");
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->protocol, ProtocolKind::kBft);
  EXPECT_EQ(partial->topology.f, 3);
  EXPECT_EQ(partial->clients, 4);
  EXPECT_EQ(partial->tuning.batch_max, ScenarioSpec().tuning.batch_max);
}

TEST(SpecJsonTest, RejectsUnknownFieldsEverywhere) {
  EXPECT_FALSE(ScenarioSpec::FromJsonText(R"({"protocl": "seemore"})").ok());
  EXPECT_FALSE(
      ScenarioSpec::FromJsonText(R"({"topology": {"q": 1}})").ok());
  EXPECT_FALSE(
      ScenarioSpec::FromJsonText(R"({"tuning": {"batchmax": 4}})").ok());
  EXPECT_FALSE(ScenarioSpec::FromJsonText(
                   R"({"network": {"cross_cloud": {"base_ms": 1}}})")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::FromJsonText(
                   R"({"schedule": [{"at_us": 1, "kind": "crash", "x": 2}]})")
                   .ok());
  EXPECT_FALSE(
      ScenarioSpec::FromJsonText(R"({"durability": {"fsync": 1}})").ok());
}

TEST(SpecJsonTest, RejectsSegmentSizesPastUint32) {
  // The WAL takes a 32-bit segment size; a larger one must be refused, not
  // truncated.
  Result<ScenarioSpec> too_big = ScenarioSpec::FromJsonText(
      R"({"durability": {"enabled": true, "segment_bytes": 4294967296}})");
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ScenarioSpec::FromJsonText(
                   R"({"durability": {"segment_bytes": 4294968320}})")
                   .ok());

  Result<ScenarioSpec> largest = ScenarioSpec::FromJsonText(
      R"({"durability": {"enabled": true, "segment_bytes": 4294967295}})");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->durability.segment_bytes, 4294967295u);
  EXPECT_TRUE(largest->Validate().ok());
}

TEST(SpecJsonTest, RejectsMalformedSchedules) {
  // Missing kind.
  EXPECT_FALSE(
      ScenarioSpec::FromJsonText(R"({"schedule": [{"at_us": 1}]})").ok());
  // Unknown kind token.
  EXPECT_FALSE(ScenarioSpec::FromJsonText(
                   R"({"schedule": [{"at_us": 1, "kind": "explode"}]})")
                   .ok());
  // Unknown byzantine behaviour.
  EXPECT_FALSE(
      ScenarioSpec::FromJsonText(
          R"({"schedule": [{"at_us": 1, "kind": "byzantine", "replica": 3,
              "behaviours": "sneaky"}]})")
          .ok());
  // Schedule must be an array of objects.
  EXPECT_FALSE(ScenarioSpec::FromJsonText(R"({"schedule": {}})").ok());
  EXPECT_FALSE(ScenarioSpec::FromJsonText(R"({"schedule": [7]})").ok());
  // Decodes fine but fails Validate(): replica out of range.
  Result<ScenarioSpec> decoded = ScenarioSpec::FromJsonText(
      R"({"schedule": [{"at_us": 1000, "kind": "crash", "replica": 42}]})");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Validate().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, AllEntriesResolveAndValidate) {
  ASSERT_FALSE(Registry().empty());
  for (const RegistryEntry& entry : Registry()) {
    Result<ScenarioSpec> spec = FindScenario(entry.name);
    ASSERT_TRUE(spec.ok()) << entry.name;
    EXPECT_EQ(spec->name, entry.name);
    EXPECT_TRUE(spec->Validate().ok())
        << entry.name << ": " << spec->Validate().ToString();
    // Registry scenarios are files too: they must survive the codec.
    Result<ScenarioSpec> back = ScenarioSpec::FromJsonText(spec->ToJsonText());
    ASSERT_TRUE(back.ok()) << entry.name;
    EXPECT_EQ(back->ToJsonText(), spec->ToJsonText()) << entry.name;
  }
  EXPECT_EQ(FindScenario("no-such-scenario").status().code(),
            StatusCode::kNotFound);
}

TEST(RegistryTest, PaperSystemSpecsMatchSection61Topologies) {
  for (const std::string& system : PaperSystemNames()) {
    Result<ScenarioSpec> spec = PaperSystemSpec(system, 2, 1, 7);
    ASSERT_TRUE(spec.ok()) << system;
    const ClusterConfig config = spec->ResolvedConfig();
    if (system == "CFT") {
      EXPECT_EQ(config.n(), 2 * 3 + 1);
    } else if (system == "BFT") {
      EXPECT_EQ(config.n(), 3 * 3 + 1);
    } else {
      EXPECT_EQ(config.n(), HybridNetworkSize(1, 2));  // 3m+2c+1
    }
  }
  EXPECT_FALSE(PaperSystemSpec("Zebra", 1, 1, 7).ok());
}

}  // namespace
}  // namespace scenario
}  // namespace seemore
