#include "scenario/spec.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "consensus/replica_base.h"

namespace seemore {
namespace scenario {
namespace {

/// All defined Byzantine behaviour bits OR'd together.
uint32_t ValidByzMask() {
  uint32_t mask = 0;
  for (uint32_t bit : AllByzFlagBits()) mask |= bit;
  return mask;
}

int64_t ToWholeMicros(SimTime t) { return t / kNanosPerMicro; }

Status ReadTime(JsonObjectReader& reader, const std::string& key,
                SimTime* out) {
  int64_t us = ToWholeMicros(*out);
  SEEMORE_RETURN_IF_ERROR(reader.ReadInt(key, &us));
  *out = Micros(us);
  return Status::Ok();
}

Json LinkToJson(const LinkProfile& link) {
  Json j = Json::Object();
  j.Set("base_us", ToWholeMicros(link.base));
  j.Set("jitter_us", ToWholeMicros(link.jitter));
  return j;
}

Status LinkFromJson(const Json* json, const std::string& where,
                    LinkProfile* out) {
  if (json == nullptr) return Status::Ok();
  JsonObjectReader reader(*json);
  SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "base_us", &out->base));
  SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "jitter_us", &out->jitter));
  return reader.Finish(where);
}

}  // namespace

std::string ScenarioEvent::ToString() const {
  char prefix[48];
  std::snprintf(prefix, sizeof(prefix), "t=%.1fms ", ToMillis(at));
  std::string text(prefix);
  switch (kind) {
    case EventKind::kCrash:
      text += "crash replica " + std::to_string(replica);
      break;
    case EventKind::kRecover:
      text += "recover replica " + std::to_string(replica);
      break;
    case EventKind::kByzantine:
      text += "replica " + std::to_string(replica) + " turns Byzantine (" +
              ByzFlagsToken(byz_flags) + ")";
      break;
    case EventKind::kSwitch:
      text += std::string("switch mode to ") + SeeMoReModeToken(target_mode);
      break;
    case EventKind::kCrashPrimary:
      text += "crash the current primary";
      break;
    case EventKind::kPartitionClouds:
      text += "partition the private cloud from the public cloud";
      break;
    case EventKind::kHealClouds:
      text += "heal the cross-cloud partition";
      break;
    case EventKind::kRestart:
      text += "restart replica " + std::to_string(replica) +
              " from durable storage";
      break;
    case EventKind::kPowerLoss:
      text += "power loss at replica " + std::to_string(replica) +
              " (disk rolls back to its durable state)";
      break;
    case EventKind::kTruncateLog:
      text += "truncate replica " + std::to_string(replica) +
              "'s wal tail by " + std::to_string(arg) + " bytes";
      break;
    case EventKind::kCorruptLog:
      text += "flip a bit " + std::to_string(arg) +
              " bytes before the end of replica " + std::to_string(replica) +
              "'s wal";
      break;
    case EventKind::kCutLink:
      text += "cut the directed link " + std::to_string(replica) + " -> " +
              std::to_string(peer);
      break;
    case EventKind::kRestoreLink:
      text += "restore the directed link " + std::to_string(replica) +
              " -> " + std::to_string(peer);
      break;
    case EventKind::kShapeLink:
      text += "shape the directed link " + std::to_string(replica) + " -> " +
              std::to_string(peer) + " (+" +
              std::to_string(ToWholeMicros(delay)) + "us delay, " +
              std::to_string(ToWholeMicros(jitter)) + "us jitter, " +
              std::to_string(arg) + "ppm drop)";
      break;
  }
  return text;
}

ClusterConfig ScenarioSpec::ResolvedConfig() const {
  ClusterConfig config;
  config.kind = protocol;
  config.c = topology.c;
  config.m = topology.m;
  config.f = topology.f;
  config.s = topology.s >= 0 ? topology.s : 2 * topology.c;
  if (topology.p >= 0) {
    config.p = topology.p;
  } else if (protocol == ProtocolKind::kSUpRight) {
    config.p = HybridNetworkSize(topology.m, topology.c) - config.s;
  } else {
    config.p = 3 * topology.m + 1;
  }
  config.initial_mode = mode;
  config.batch_max = tuning.batch_max;
  config.pipeline_max = tuning.pipeline_max;
  config.checkpoint_period = tuning.checkpoint_period;
  config.view_change_timeout = tuning.view_change_timeout;
  config.lion_sign_accepts = tuning.lion_sign_accepts;
  config.reply_cache_retention = tuning.reply_cache_retention;
  return config;
}

Status ScenarioSpec::Validate() const {
  const ClusterConfig config = ResolvedConfig();
  SEEMORE_RETURN_IF_ERROR(config.Validate());

  if (clients < 0) {
    return Status::InvalidArgument("clients must be >= 0");
  }
  if (seed > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    // JSON integers are int64; a larger seed would not survive the
    // dump-spec -> --scenario round trip.
    return Status::InvalidArgument("seed must fit in 63 bits");
  }
  if (tuning.reply_cache_retention >
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Status::InvalidArgument(
        "tuning.reply_cache_retention must fit in 63 bits");
  }
  if (client_retransmit_timeout <= 0) {
    return Status::InvalidArgument("client_retransmit_timeout must be > 0");
  }
  if (net.drop_probability < 0.0 || net.drop_probability >= 1.0) {
    return Status::InvalidArgument("drop_probability must be in [0, 1)");
  }
  if (net.duplicate_probability < 0.0 || net.duplicate_probability >= 1.0) {
    return Status::InvalidArgument("duplicate_probability must be in [0, 1)");
  }
  if (net.bandwidth_bytes_per_sec <= 0) {
    return Status::InvalidArgument("bandwidth_bytes_per_sec must be > 0");
  }
  if (workload.kind == WorkloadKind::kKv && workload.keys <= 0) {
    return Status::InvalidArgument("kv workload needs keys > 0");
  }
  if (workload.put_fraction < 0.0 || workload.put_fraction > 1.0) {
    return Status::InvalidArgument("put_fraction must be in [0, 1]");
  }
  if (workload.request_kb > 1024 || workload.reply_kb > 1024) {
    return Status::InvalidArgument("echo payloads are capped at 1024 KiB");
  }
  if (plan.warmup < 0 || plan.measure <= 0 || plan.drain < 0) {
    return Status::InvalidArgument(
        "measurement plan needs warmup >= 0, measure > 0, drain >= 0");
  }
  if (plan.timeline && plan.timeline_bucket <= 0) {
    return Status::InvalidArgument("timeline_bucket must be > 0");
  }
  for (int count : plan.sweep_clients) {
    if (count <= 0) {
      return Status::InvalidArgument("sweep_clients entries must be > 0");
    }
  }

  if (durability.fsync_interval < 1) {
    return Status::InvalidArgument("durability.fsync_interval must be >= 1");
  }
  if (durability.segment_bytes < 4096) {
    return Status::InvalidArgument(
        "durability.segment_bytes must be >= 4096");
  }

  const int n = config.n();
  const bool hybrid = protocol == ProtocolKind::kSeeMoRe ||
                      protocol == ProtocolKind::kSUpRight;
  // Restart/tamper events only make sense against a crashed target; track
  // which replicas the schedule has down at each point. A crash-primary
  // crashes a replica only the run can name, so it satisfies the "something
  // is crashed" requirement for any target.
  std::vector<bool> down(static_cast<size_t>(n), false);
  bool crash_primary_seen = false;
  // Events fire in time order (ties keep schedule order — the engine
  // schedules them that way), so the crash tracking walks that order too.
  std::vector<size_t> order(schedule.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return schedule[a].at < schedule[b].at;
  });
  for (const size_t i : order) {
    const ScenarioEvent& event = schedule[i];
    const std::string where = "schedule[" + std::to_string(i) + "]";
    if (event.at < 0) {
      return Status::InvalidArgument(where + ": event time must be >= 0");
    }
    switch (event.kind) {
      case EventKind::kCrash:
      case EventKind::kRecover:
      case EventKind::kByzantine:
      case EventKind::kRestart:
      case EventKind::kPowerLoss:
      case EventKind::kTruncateLog:
      case EventKind::kCorruptLog:
        if (event.replica < 0 || event.replica >= n) {
          return Status::InvalidArgument(
              where + ": replica " + std::to_string(event.replica) +
              " out of range [0, " + std::to_string(n) + ")");
        }
        break;
      case EventKind::kCutLink:
      case EventKind::kRestoreLink:
      case EventKind::kShapeLink:
        if (event.replica < 0 || event.replica >= n) {
          return Status::InvalidArgument(
              where + ": replica " + std::to_string(event.replica) +
              " out of range [0, " + std::to_string(n) + ")");
        }
        if (event.peer < 0 || event.peer >= n) {
          return Status::InvalidArgument(
              where + ": peer " + std::to_string(event.peer) +
              " out of range [0, " + std::to_string(n) + ")");
        }
        if (event.peer == event.replica) {
          return Status::InvalidArgument(
              where + ": a directed link needs two distinct replicas");
        }
        if (event.delay < 0 || event.jitter < 0) {
          return Status::InvalidArgument(
              where + ": delay and jitter must be >= 0");
        }
        if (event.kind == EventKind::kShapeLink &&
            (event.arg < 0 || event.arg > 1000000)) {
          return Status::InvalidArgument(
              where + ": drop ppm (arg) must be in [0, 1000000]");
        }
        break;
      case EventKind::kSwitch:
      case EventKind::kCrashPrimary:
      case EventKind::kPartitionClouds:
      case EventKind::kHealClouds:
        break;
    }
    switch (event.kind) {
      case EventKind::kCrash:
      case EventKind::kPowerLoss:
        down[static_cast<size_t>(event.replica)] = true;
        break;
      case EventKind::kCrashPrimary:
        crash_primary_seen = true;
        break;
      case EventKind::kRecover:
      case EventKind::kRestart:
        if (event.kind == EventKind::kRestart &&
            !down[static_cast<size_t>(event.replica)] &&
            !crash_primary_seen) {
          return Status::InvalidArgument(
              where + ": restart of replica " +
              std::to_string(event.replica) +
              " without a preceding crash or power-loss (a restart replaces "
              "a crashed process)");
        }
        down[static_cast<size_t>(event.replica)] = false;
        break;
      case EventKind::kTruncateLog:
      case EventKind::kCorruptLog:
        if (!down[static_cast<size_t>(event.replica)] &&
            !crash_primary_seen) {
          return Status::InvalidArgument(
              where + ": wal tampering of replica " +
              std::to_string(event.replica) +
              " without a preceding crash or power-loss (the log is only "
              "tamperable while its replica is down)");
        }
        if (event.arg < 0) {
          return Status::InvalidArgument(where + ": arg must be >= 0");
        }
        break;
      default:
        break;
    }
    if ((event.kind == EventKind::kRestart ||
         event.kind == EventKind::kPowerLoss ||
         event.kind == EventKind::kTruncateLog ||
         event.kind == EventKind::kCorruptLog) &&
        !durability.enabled) {
      return Status::InvalidArgument(
          where + ": " + std::string(EventKindToken(event.kind)) +
          " requires durability.enabled");
    }
    if (event.kind == EventKind::kByzantine) {
      if ((event.byz_flags & ~ValidByzMask()) != 0) {
        return Status::InvalidArgument(where +
                                       ": unknown byzantine behaviour bits");
      }
      if (protocol == ProtocolKind::kSeeMoRe &&
          config.IsTrusted(event.replica) && event.byz_flags != kByzNone) {
        return Status::InvalidArgument(
            where + ": replica " + std::to_string(event.replica) +
            " is in the trusted private cloud; the model (§3.1) only admits "
            "Byzantine behaviour in the public cloud");
      }
    }
    if (event.kind == EventKind::kSwitch &&
        protocol != ProtocolKind::kSeeMoRe) {
      return Status::InvalidArgument(
          where + ": mode switches require protocol \"seemore\"");
    }
    if ((event.kind == EventKind::kPartitionClouds ||
         event.kind == EventKind::kHealClouds) &&
        !hybrid) {
      return Status::InvalidArgument(
          where + ": cloud partitions require a hybrid deployment "
                  "(seemore or supright)");
    }
  }
  return Status::Ok();
}

Json ScenarioSpec::ToJson() const {
  Json root = Json::Object();
  root.Set("name", name);
  root.Set("description", description);
  root.Set("backend", BackendKindToken(backend));
  root.Set("protocol", ProtocolKindToken(protocol));
  root.Set("mode", SeeMoReModeToken(mode));
  root.Set("seed", seed);
  root.Set("clients", clients);
  root.Set("client_retransmit_timeout_us",
           ToWholeMicros(client_retransmit_timeout));
  root.Set("state_machine", StateMachineKindToken(state_machine));

  Json topo = Json::Object();
  topo.Set("c", topology.c);
  topo.Set("m", topology.m);
  topo.Set("f", topology.f);
  topo.Set("s", topology.s);
  topo.Set("p", topology.p);
  root.Set("topology", std::move(topo));

  Json tune = Json::Object();
  tune.Set("batch_max", tuning.batch_max);
  tune.Set("pipeline_max", tuning.pipeline_max);
  tune.Set("checkpoint_period", tuning.checkpoint_period);
  tune.Set("view_change_timeout_us", ToWholeMicros(tuning.view_change_timeout));
  tune.Set("lion_sign_accepts", tuning.lion_sign_accepts);
  tune.Set("reply_cache_retention", tuning.reply_cache_retention);
  root.Set("tuning", std::move(tune));

  Json network = Json::Object();
  network.Set("intra_private", LinkToJson(net.intra_private));
  network.Set("intra_public", LinkToJson(net.intra_public));
  network.Set("cross_cloud", LinkToJson(net.cross_cloud));
  network.Set("client_link", LinkToJson(net.client_link));
  network.Set("drop_probability", net.drop_probability);
  network.Set("duplicate_probability", net.duplicate_probability);
  network.Set("bandwidth_bytes_per_sec", net.bandwidth_bytes_per_sec);
  network.Set("per_message_overhead_bytes", net.per_message_overhead_bytes);
  root.Set("network", std::move(network));

  Json cost = Json::Object();
  cost.Set("recv_fixed_us", ToWholeMicros(costs.recv_fixed));
  cost.Set("send_fixed_us", ToWholeMicros(costs.send_fixed));
  cost.Set("per_kib_us", ToWholeMicros(costs.per_kib));
  cost.Set("sign_us", ToWholeMicros(costs.sign));
  cost.Set("verify_us", ToWholeMicros(costs.verify));
  cost.Set("mac_us", ToWholeMicros(costs.mac));
  cost.Set("hash_per_kib_us", ToWholeMicros(costs.hash_per_kib));
  cost.Set("hash_fixed_us", ToWholeMicros(costs.hash_fixed));
  cost.Set("execute_us", ToWholeMicros(costs.execute));
  cost.Set("fsync_us", ToWholeMicros(costs.fsync));
  cost.Set("storage_write_per_kib_us",
           ToWholeMicros(costs.storage_write_per_kib));
  root.Set("costs", std::move(cost));

  Json work = Json::Object();
  work.Set("kind", WorkloadKindToken(workload.kind));
  work.Set("request_kb", static_cast<int64_t>(workload.request_kb));
  work.Set("reply_kb", static_cast<int64_t>(workload.reply_kb));
  work.Set("keys", workload.keys);
  work.Set("put_fraction", workload.put_fraction);
  root.Set("workload", std::move(work));

  Json measurement = Json::Object();
  measurement.Set("warmup_us", ToWholeMicros(plan.warmup));
  measurement.Set("measure_us", ToWholeMicros(plan.measure));
  measurement.Set("drain_us", ToWholeMicros(plan.drain));
  measurement.Set("timeline", plan.timeline);
  measurement.Set("timeline_bucket_us", ToWholeMicros(plan.timeline_bucket));
  measurement.Set("check_convergence", plan.check_convergence);
  Json sweep = Json::Array();
  for (int count : plan.sweep_clients) sweep.Append(count);
  measurement.Set("sweep_clients", std::move(sweep));
  root.Set("measurement", std::move(measurement));

  Json durable = Json::Object();
  durable.Set("enabled", durability.enabled);
  durable.Set("fsync_interval", durability.fsync_interval);
  durable.Set("segment_bytes", static_cast<int64_t>(durability.segment_bytes));
  root.Set("durability", std::move(durable));

  Json events = Json::Array();
  for (const ScenarioEvent& event : schedule) {
    Json e = Json::Object();
    e.Set("at_us", ToWholeMicros(event.at));
    e.Set("kind", EventKindToken(event.kind));
    switch (event.kind) {
      case EventKind::kCrash:
      case EventKind::kRecover:
        e.Set("replica", event.replica);
        break;
      case EventKind::kByzantine:
        e.Set("replica", event.replica);
        e.Set("behaviours", ByzFlagsToken(event.byz_flags));
        break;
      case EventKind::kSwitch:
        e.Set("mode", SeeMoReModeToken(event.target_mode));
        break;
      case EventKind::kCrashPrimary:
      case EventKind::kPartitionClouds:
      case EventKind::kHealClouds:
        break;
      case EventKind::kRestart:
      case EventKind::kPowerLoss:
        e.Set("replica", event.replica);
        break;
      case EventKind::kTruncateLog:
      case EventKind::kCorruptLog:
        e.Set("replica", event.replica);
        e.Set("arg", event.arg);
        break;
      case EventKind::kCutLink:
      case EventKind::kRestoreLink:
        e.Set("replica", event.replica);
        e.Set("peer", event.peer);
        break;
      case EventKind::kShapeLink:
        e.Set("replica", event.replica);
        e.Set("peer", event.peer);
        e.Set("delay_us", ToWholeMicros(event.delay));
        e.Set("jitter_us", ToWholeMicros(event.jitter));
        e.Set("arg", event.arg);
        break;
    }
    events.Append(std::move(e));
  }
  root.Set("schedule", std::move(events));
  return root;
}

Result<ScenarioSpec> ScenarioSpec::FromJson(const Json& json) {
  ScenarioSpec spec;
  JsonObjectReader root(json);
  if (!root.valid()) {
    return Status::InvalidArgument("scenario spec must be a JSON object");
  }

  SEEMORE_RETURN_IF_ERROR(root.ReadString("name", &spec.name));
  SEEMORE_RETURN_IF_ERROR(root.ReadString("description", &spec.description));
  std::string token = BackendKindToken(spec.backend);
  SEEMORE_RETURN_IF_ERROR(root.ReadString("backend", &token));
  SEEMORE_ASSIGN_OR_RETURN(spec.backend, BackendKindFromToken(token));
  token = ProtocolKindToken(spec.protocol);
  SEEMORE_RETURN_IF_ERROR(root.ReadString("protocol", &token));
  SEEMORE_ASSIGN_OR_RETURN(spec.protocol, ProtocolKindFromToken(token));
  token = SeeMoReModeToken(spec.mode);
  SEEMORE_RETURN_IF_ERROR(root.ReadString("mode", &token));
  SEEMORE_ASSIGN_OR_RETURN(spec.mode, SeeMoReModeFromToken(token));
  SEEMORE_RETURN_IF_ERROR(root.ReadUint64("seed", &spec.seed));
  SEEMORE_RETURN_IF_ERROR(root.ReadInt("clients", &spec.clients));
  SEEMORE_RETURN_IF_ERROR(ReadTime(root, "client_retransmit_timeout_us",
                                   &spec.client_retransmit_timeout));
  token = StateMachineKindToken(spec.state_machine);
  SEEMORE_RETURN_IF_ERROR(root.ReadString("state_machine", &token));
  SEEMORE_ASSIGN_OR_RETURN(spec.state_machine,
                           StateMachineKindFromToken(token));

  if (const Json* topo = root.Get("topology")) {
    JsonObjectReader reader(*topo);
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt("c", &spec.topology.c));
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt("m", &spec.topology.m));
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt("f", &spec.topology.f));
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt("s", &spec.topology.s));
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt("p", &spec.topology.p));
    SEEMORE_RETURN_IF_ERROR(reader.Finish("topology"));
  }

  if (const Json* tune = root.Get("tuning")) {
    JsonObjectReader reader(*tune);
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt("batch_max",
                                           &spec.tuning.batch_max));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadInt("pipeline_max", &spec.tuning.pipeline_max));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadInt("checkpoint_period", &spec.tuning.checkpoint_period));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "view_change_timeout_us",
                                     &spec.tuning.view_change_timeout));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadBool("lion_sign_accepts", &spec.tuning.lion_sign_accepts));
    SEEMORE_RETURN_IF_ERROR(reader.ReadUint64(
        "reply_cache_retention", &spec.tuning.reply_cache_retention));
    SEEMORE_RETURN_IF_ERROR(reader.Finish("tuning"));
  }

  if (const Json* network = root.Get("network")) {
    JsonObjectReader reader(*network);
    SEEMORE_RETURN_IF_ERROR(LinkFromJson(reader.Get("intra_private"),
                                         "network.intra_private",
                                         &spec.net.intra_private));
    SEEMORE_RETURN_IF_ERROR(LinkFromJson(reader.Get("intra_public"),
                                         "network.intra_public",
                                         &spec.net.intra_public));
    SEEMORE_RETURN_IF_ERROR(LinkFromJson(
        reader.Get("cross_cloud"), "network.cross_cloud",
        &spec.net.cross_cloud));
    SEEMORE_RETURN_IF_ERROR(LinkFromJson(
        reader.Get("client_link"), "network.client_link",
        &spec.net.client_link));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadDouble("drop_probability", &spec.net.drop_probability));
    SEEMORE_RETURN_IF_ERROR(reader.ReadDouble(
        "duplicate_probability", &spec.net.duplicate_probability));
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt("bandwidth_bytes_per_sec",
                                           &spec.net.bandwidth_bytes_per_sec));
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt(
        "per_message_overhead_bytes", &spec.net.per_message_overhead_bytes));
    SEEMORE_RETURN_IF_ERROR(reader.Finish("network"));
  }

  if (const Json* cost = root.Get("costs")) {
    JsonObjectReader reader(*cost);
    SEEMORE_RETURN_IF_ERROR(
        ReadTime(reader, "recv_fixed_us", &spec.costs.recv_fixed));
    SEEMORE_RETURN_IF_ERROR(
        ReadTime(reader, "send_fixed_us", &spec.costs.send_fixed));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "per_kib_us",
                                     &spec.costs.per_kib));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "sign_us", &spec.costs.sign));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "verify_us", &spec.costs.verify));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "mac_us", &spec.costs.mac));
    SEEMORE_RETURN_IF_ERROR(
        ReadTime(reader, "hash_per_kib_us", &spec.costs.hash_per_kib));
    SEEMORE_RETURN_IF_ERROR(
        ReadTime(reader, "hash_fixed_us", &spec.costs.hash_fixed));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "execute_us",
                                     &spec.costs.execute));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "fsync_us", &spec.costs.fsync));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "storage_write_per_kib_us",
                                     &spec.costs.storage_write_per_kib));
    SEEMORE_RETURN_IF_ERROR(reader.Finish("costs"));
  }

  if (const Json* work = root.Get("workload")) {
    JsonObjectReader reader(*work);
    token = WorkloadKindToken(spec.workload.kind);
    SEEMORE_RETURN_IF_ERROR(reader.ReadString("kind", &token));
    SEEMORE_ASSIGN_OR_RETURN(spec.workload.kind, WorkloadKindFromToken(token));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadUint32("request_kb", &spec.workload.request_kb));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadUint32("reply_kb", &spec.workload.reply_kb));
    SEEMORE_RETURN_IF_ERROR(reader.ReadInt("keys", &spec.workload.keys));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadDouble("put_fraction", &spec.workload.put_fraction));
    SEEMORE_RETURN_IF_ERROR(reader.Finish("workload"));
  }

  if (const Json* measurement = root.Get("measurement")) {
    JsonObjectReader reader(*measurement);
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "warmup_us", &spec.plan.warmup));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "measure_us",
                                     &spec.plan.measure));
    SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "drain_us", &spec.plan.drain));
    SEEMORE_RETURN_IF_ERROR(reader.ReadBool("timeline", &spec.plan.timeline));
    SEEMORE_RETURN_IF_ERROR(
        ReadTime(reader, "timeline_bucket_us", &spec.plan.timeline_bucket));
    SEEMORE_RETURN_IF_ERROR(reader.ReadBool("check_convergence",
                                            &spec.plan.check_convergence));
    if (const Json* sweep = reader.Get("sweep_clients")) {
      if (!sweep->is_array()) {
        return Status::InvalidArgument("sweep_clients must be an array");
      }
      for (const Json& entry : sweep->items()) {
        if (!entry.is_int()) {
          return Status::InvalidArgument(
              "sweep_clients entries must be integers");
        }
        spec.plan.sweep_clients.push_back(static_cast<int>(entry.AsInt()));
      }
    }
    SEEMORE_RETURN_IF_ERROR(reader.Finish("measurement"));
  }

  if (const Json* durable = root.Get("durability")) {
    JsonObjectReader reader(*durable);
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadBool("enabled", &spec.durability.enabled));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadInt("fsync_interval", &spec.durability.fsync_interval));
    SEEMORE_RETURN_IF_ERROR(
        reader.ReadUint32("segment_bytes", &spec.durability.segment_bytes));
    SEEMORE_RETURN_IF_ERROR(reader.Finish("durability"));
  }

  if (const Json* events = root.Get("schedule")) {
    if (!events->is_array()) {
      return Status::InvalidArgument("schedule must be an array");
    }
    for (size_t i = 0; i < events->size(); ++i) {
      const std::string where = "schedule[" + std::to_string(i) + "]";
      JsonObjectReader reader(events->at(i));
      if (!reader.valid()) {
        return Status::InvalidArgument(where + " must be an object");
      }
      ScenarioEvent event;
      SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "at_us", &event.at));
      std::string kind_token;
      SEEMORE_RETURN_IF_ERROR(reader.ReadString("kind", &kind_token));
      if (kind_token.empty()) {
        return Status::InvalidArgument(where + " needs a \"kind\"");
      }
      SEEMORE_ASSIGN_OR_RETURN(event.kind, EventKindFromToken(kind_token));
      SEEMORE_RETURN_IF_ERROR(reader.ReadInt("replica", &event.replica));
      std::string behaviours;
      SEEMORE_RETURN_IF_ERROR(reader.ReadString("behaviours", &behaviours));
      if (!behaviours.empty()) {
        SEEMORE_ASSIGN_OR_RETURN(event.byz_flags,
                                 ByzFlagsFromToken(behaviours));
      }
      std::string mode_token;
      SEEMORE_RETURN_IF_ERROR(reader.ReadString("mode", &mode_token));
      if (!mode_token.empty()) {
        SEEMORE_ASSIGN_OR_RETURN(event.target_mode,
                                 SeeMoReModeFromToken(mode_token));
      }
      SEEMORE_RETURN_IF_ERROR(reader.ReadInt("arg", &event.arg));
      SEEMORE_RETURN_IF_ERROR(reader.ReadInt("peer", &event.peer));
      SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "delay_us", &event.delay));
      SEEMORE_RETURN_IF_ERROR(ReadTime(reader, "jitter_us", &event.jitter));
      SEEMORE_RETURN_IF_ERROR(reader.Finish(where));
      spec.schedule.push_back(event);
    }
  }

  SEEMORE_RETURN_IF_ERROR(root.Finish("scenario spec"));
  return spec;
}

Result<ScenarioSpec> ScenarioSpec::FromJsonText(const std::string& text) {
  SEEMORE_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return FromJson(json);
}

}  // namespace scenario
}  // namespace seemore
