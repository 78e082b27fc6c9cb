#include "scenario/builder.h"

namespace seemore {
namespace scenario {

ScenarioBuilder& ScenarioBuilder::Name(std::string name) {
  spec_.name = std::move(name);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Description(std::string description) {
  spec_.description = std::move(description);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::SeeMoRe(SeeMoReMode mode, int c, int m) {
  spec_.protocol = ProtocolKind::kSeeMoRe;
  spec_.mode = mode;
  spec_.topology.c = c;
  spec_.topology.m = m;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Cft(int f) {
  spec_.protocol = ProtocolKind::kCft;
  spec_.topology.f = f;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Bft(int f) {
  spec_.protocol = ProtocolKind::kBft;
  spec_.topology.f = f;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::SUpRight(int c, int m) {
  spec_.protocol = ProtocolKind::kSUpRight;
  spec_.topology.c = c;
  spec_.topology.m = m;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CloudSizes(int s, int p) {
  spec_.topology.s = s;
  spec_.topology.p = p;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Backend(BackendKind backend) {
  spec_.backend = backend;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Batching(int batch_max, int pipeline_max) {
  spec_.tuning.batch_max = batch_max;
  spec_.tuning.pipeline_max = pipeline_max;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CheckpointPeriod(int period) {
  spec_.tuning.checkpoint_period = period;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::ViewChangeTimeout(SimTime timeout) {
  spec_.tuning.view_change_timeout = timeout;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::LionSignAccepts(bool signed_accepts) {
  spec_.tuning.lion_sign_accepts = signed_accepts;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Network(const NetworkConfig& net) {
  spec_.net = net;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Costs(const CostModel& costs) {
  spec_.costs = costs;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Drop(double probability) {
  spec_.net.drop_probability = probability;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Duplicate(double probability) {
  spec_.net.duplicate_probability = probability;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CrossCloudLink(SimTime base,
                                                 SimTime jitter) {
  spec_.net.cross_cloud = {base, jitter};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::ClientLink(SimTime base, SimTime jitter) {
  spec_.net.client_link = {base, jitter};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Seed(uint64_t seed) {
  spec_.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Clients(int count) {
  spec_.clients = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::RetransmitTimeout(SimTime timeout) {
  spec_.client_retransmit_timeout = timeout;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Echo(uint32_t request_kb, uint32_t reply_kb) {
  spec_.workload.kind = WorkloadKind::kEcho;
  spec_.workload.request_kb = request_kb;
  spec_.workload.reply_kb = reply_kb;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Kv(int keys, double put_fraction) {
  spec_.workload.kind = WorkloadKind::kKv;
  spec_.workload.keys = keys;
  spec_.workload.put_fraction = put_fraction;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Ledger() {
  spec_.state_machine = StateMachineKind::kLedger;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Warmup(SimTime warmup) {
  spec_.plan.warmup = warmup;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Measure(SimTime measure) {
  spec_.plan.measure = measure;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Drain(SimTime drain) {
  spec_.plan.drain = drain;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Timeline(SimTime bucket) {
  spec_.plan.timeline = true;
  spec_.plan.timeline_bucket = bucket;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CheckConvergence() {
  spec_.plan.check_convergence = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Sweep(std::vector<int> client_counts) {
  spec_.plan.sweep_clients = std::move(client_counts);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Durability(int fsync_interval,
                                             uint32_t segment_bytes) {
  spec_.durability.enabled = true;
  spec_.durability.fsync_interval = fsync_interval;
  spec_.durability.segment_bytes = segment_bytes;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CrashAt(SimTime at, int replica) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kCrash;
  event.replica = replica;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::RecoverAt(SimTime at, int replica) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kRecover;
  event.replica = replica;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::ByzantineAt(SimTime at, int replica,
                                              uint32_t byz_flags) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kByzantine;
  event.replica = replica;
  event.byz_flags = byz_flags;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::SwitchAt(SimTime at, SeeMoReMode mode) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kSwitch;
  event.target_mode = mode;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CrashPrimaryAt(SimTime at) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kCrashPrimary;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::PartitionCloudsAt(SimTime at) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kPartitionClouds;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::HealCloudsAt(SimTime at) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kHealClouds;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::RestartAt(SimTime at, int replica) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kRestart;
  event.replica = replica;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::PowerLossAt(SimTime at, int replica) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kPowerLoss;
  event.replica = replica;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::TruncateLogAt(SimTime at, int replica,
                                                int64_t bytes_from_end) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kTruncateLog;
  event.replica = replica;
  event.arg = bytes_from_end;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CorruptLogAt(SimTime at, int replica,
                                               int64_t offset_from_end) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kCorruptLog;
  event.replica = replica;
  event.arg = offset_from_end;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CutLinkAt(SimTime at, int from, int to) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kCutLink;
  event.replica = from;
  event.peer = to;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::RestoreLinkAt(SimTime at, int from, int to) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kRestoreLink;
  event.replica = from;
  event.peer = to;
  spec_.schedule.push_back(event);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::ShapeLinkAt(SimTime at, int from, int to,
                                              SimTime delay, SimTime jitter,
                                              int64_t drop_ppm) {
  ScenarioEvent event;
  event.at = at;
  event.kind = EventKind::kShapeLink;
  event.replica = from;
  event.peer = to;
  event.delay = delay;
  event.jitter = jitter;
  event.arg = drop_ppm;
  spec_.schedule.push_back(event);
  return *this;
}

Result<ScenarioSpec> ScenarioBuilder::Build() const {
  SEEMORE_RETURN_IF_ERROR(spec_.Validate());
  return spec_;
}

}  // namespace scenario
}  // namespace seemore
