#include "rt/launcher.h"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>

#include "harness/policies.h"
#include "rt/event_loop.h"
#include "rt/posix_medium.h"
#include "rt/tcp_transport.h"
#include "smr/client.h"
#include "util/hex.h"

namespace seemore {
namespace rt {
namespace {

std::string SelfDir() {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? "." : self.parent_path().string();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// How a reaped process ended, or "" when it ended as expected: exit 0, or
/// the signal the launcher itself sent.
std::string UnexpectedExit(int wstatus, int expected_signal) {
  if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) != expected_signal) {
    return "killed by signal " + std::to_string(WTERMSIG(wstatus));
  }
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
    return "exited with status " + std::to_string(WEXITSTATUS(wstatus));
  }
  return "";
}

std::optional<Digest> ParseDigest(const Json* hex) {
  if (hex == nullptr || !hex->is_string()) return std::nullopt;
  Result<std::vector<uint8_t>> bytes = HexDecode(hex->AsString());
  if (!bytes.ok() || bytes->size() != Digest::kSize) return std::nullopt;
  std::array<uint8_t, Digest::kSize> raw;
  std::copy(bytes->begin(), bytes->end(), raw.begin());
  return Digest(raw);
}

/// Fill `outcome`'s frontier, state digest and digest samples from a node's
/// report; false when a required field is missing or malformed.
bool ReadNodeReport(const Json& node, scenario::ReplicaOutcome& outcome) {
  const Json* last = node.Find("last_executed");
  const std::optional<Digest> state = ParseDigest(node.Find("state_digest"));
  if (last == nullptr || !last->is_int() || !state) return false;
  outcome.last_executed = static_cast<uint64_t>(last->AsInt());
  outcome.state_digest = *state;
  const Json* samples = node.Find("digest_samples");
  if (samples == nullptr || !samples->is_array()) return false;
  for (const Json& sample : samples->items()) {
    const Json* seq = sample.Find("seq");
    const std::optional<Digest> digest = ParseDigest(sample.Find("digest"));
    if (seq == nullptr || !seq->is_int() || !digest) return false;
    outcome.digest_samples.emplace_back(static_cast<uint64_t>(seq->AsInt()),
                                        *digest);
  }
  std::sort(outcome.digest_samples.begin(), outcome.digest_samples.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return true;
}

/// One node process slot (indexed by replica id across incarnations).
struct Child {
  int id = 0;
  pid_t pid = -1;
  bool alive = false;
  /// The schedule SIGKILLed the current incarnation.
  bool killed = false;
  /// How some incarnation ended on its own ("" = none did). Sticky: a
  /// respawn does not excuse an earlier abort.
  std::string death;
  std::string data_dir;     // empty when durability is off
  std::string report_path;
};

/// The real-process cluster as the schedule's FaultTarget: process kills
/// and respawns, WAL file surgery, and CONTROL frames for everything a
/// signal cannot express.
class Launcher final : public scenario::FaultTarget, MessageHandler {
 public:
  Launcher(const scenario::ScenarioSpec& spec, const LauncherOptions& options)
      : spec_(spec), options_(options), config_(spec.ResolvedConfig()) {}

  ~Launcher() {
    clients_.clear();  // clients reference transport/loop
    transport_.reset();
    loop_.reset();
    for (Child& child : children_) KillChild(child);
    if (!work_dir_.empty() && !options_.keep_work_dir) {
      std::error_code ignored;
      std::filesystem::remove_all(work_dir_, ignored);
    }
  }

  Result<TcpRunReport> Run();

 private:
  // --- scenario::FaultTarget ----------------------------------------------
  bool Crashed(int replica) const override {
    return !children_[static_cast<size_t>(replica)].alive;
  }
  void Crash(int replica) override { KillChild(Slot(replica)); }
  /// Respawns a fresh process: unlike the sim's, memory is not kept.
  Status Recover(int replica) override {
    if (!Crashed(replica)) {
      return Status::FailedPrecondition("replica not crashed");
    }
    return SpawnChild(Slot(replica));
  }
  /// The respawned process recovers its data dir and reports what it
  /// restored itself.
  Result<std::optional<RestartOutcome>> Restart(int replica) override {
    SEEMORE_RETURN_IF_ERROR(SpawnChild(Slot(replica)));
    return std::optional<RestartOutcome>();
  }
  /// SIGKILL: the data dir keeps whatever reached the filesystem.
  void PowerLoss(int replica) override { KillChild(Slot(replica)); }
  Status TamperWal(int replica, storage::WalTamper tamper,
                   uint64_t offset_from_end) override;
  void SetByzantine(int replica, uint32_t flags) override;
  Status Switch(SeeMoReMode target) override;
  void PartitionClouds() override {
    BroadcastControl(Command(ControlKind::kPartition));
  }
  void HealClouds() override { BroadcastControl(Command(ControlKind::kHeal)); }
  void SetLinkUp(int from, int to, bool up) override {
    BroadcastControl(Command(
        up ? ControlKind::kRestoreLink : ControlKind::kCutLink, from, to));
  }
  void ShapeLink(int from, int to, SimTime delay, SimTime jitter,
                 uint32_t drop_ppm) override;
  void ResolvePrimary(std::function<void(int)> then) override;

  Child& Slot(int replica) { return children_[static_cast<size_t>(replica)]; }
  Status Setup();
  Status SpawnChild(Child& child);
  void KillChild(Child& child);
  Status AwaitCluster();
  void ScheduleRun();
  /// Send one fault command over the control channel to a single node /
  /// every live node. Link-level commands go to every node (harmlessly to
  /// the uninvolved), so a cut is enforced at the sender and the receiver.
  void SendControl(int replica, const FaultCommand& command);
  void BroadcastControl(const FaultCommand& command);
  static FaultCommand Command(ControlKind kind, int from = -1, int to = -1) {
    FaultCommand command;
    command.kind = kind;
    command.from = from;
    command.to = to;
    return command;
  }
  /// CONTROL replies (kPrimaryReply) to the fault-controller principal.
  void OnMessage(PrincipalId from, Payload payload) override;
  void ReapAll();
  /// Read every node's report into report_.nodes and judge the run.
  void CollectReports();
  void Note(const std::string& line) {
    if (options_.verbose) std::fprintf(stderr, "[launcher] %s\n", line.c_str());
  }

  const scenario::ScenarioSpec& spec_;
  const LauncherOptions options_;
  const ClusterConfig config_;

  std::string node_binary_;
  std::string work_dir_;
  std::string spec_path_;
  std::vector<Child> children_;

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<KeyStore> keystore_;
  std::vector<std::unique_ptr<SimClient>> clients_;

  TcpRunReport report_;
  /// Replicas the schedule ever made Byzantine (scenario::ApplyEvent).
  std::set<int> byzantine_;
  /// Per-replica tallies of kPrimaryReply answers to the latest primary
  /// query (empty before the first).
  std::vector<int> primary_votes_;
  SimTime t0_ = 0;
  SimTime measure_start_ = 0;
  SimTime measure_end_ = 0;
};

Status Launcher::Setup() {
  node_binary_ = options_.node_binary.empty() ? SelfDir() + "/seemore_node"
                                              : options_.node_binary;
  if (access(node_binary_.c_str(), X_OK) != 0) {
    return Status::NotFound("node binary not executable: " + node_binary_);
  }
  if (options_.work_dir.empty()) {
    char tmpl[] = "/tmp/seemore-rt-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      return Status::Internal("mkdtemp failed");
    }
    work_dir_ = tmpl;
  } else {
    work_dir_ = options_.work_dir;
    if (mkdir(work_dir_.c_str(), 0755) < 0 && errno != EEXIST) {
      return Status::Internal("cannot create work dir " + work_dir_);
    }
  }
  spec_path_ = work_dir_ + "/spec.json";
  std::ofstream out(spec_path_);
  if (!(out << spec_.ToJsonText())) {
    return Status::Internal("cannot write " + spec_path_);
  }
  return Status::Ok();
}

Status Launcher::SpawnChild(Child& child) {
  std::vector<std::string> args;
  args.push_back(node_binary_);
  args.push_back("--spec=" + spec_path_);
  args.push_back("--id=" + std::to_string(child.id));
  args.push_back("--base-port=" + std::to_string(options_.base_port));
  args.push_back("--report=" + child.report_path);
  if (!child.data_dir.empty()) args.push_back("--data-dir=" + child.data_dir);
  // Orphan protection: the whole run plus a generous margin.
  const SimTime total = spec_.plan.warmup + spec_.plan.measure +
                        spec_.plan.drain + Seconds(120);
  args.push_back("--max-run-ms=" + std::to_string(total / kNanosPerMilli));

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    execv(node_binary_.c_str(), argv.data());
    _exit(127);  // exec failed; nothing sane to do in the child
  }
  child.pid = pid;
  child.alive = true;
  child.killed = false;
  Note("spawned node " + std::to_string(child.id) + " pid " +
       std::to_string(pid));
  return Status::Ok();
}

void Launcher::KillChild(Child& child) {
  if (!child.alive) return;
  kill(child.pid, SIGKILL);
  int wstatus = 0;
  waitpid(child.pid, &wstatus, 0);
  child.alive = false;
  child.killed = true;
  // The process may have ended on its own before the schedule got to it.
  const std::string death = UnexpectedExit(wstatus, SIGKILL);
  if (!death.empty() && child.death.empty()) child.death = death;
}

Status Launcher::AwaitCluster() {
  const SimTime deadline = loop_->Now() + options_.connect_timeout;
  while (true) {
    bool all = true;
    for (int r = 0; r < config_.n(); ++r) {
      if (!transport_->ConnectedTo(r)) {
        all = false;
        break;
      }
    }
    if (all) return Status::Ok();
    if (loop_->Now() >= deadline) {
      return Status::Unavailable("cluster did not come up within timeout");
    }
    loop_->Run(Millis(25));
  }
}

void Launcher::ScheduleRun() {
  t0_ = loop_->Now();
  measure_start_ = t0_ + spec_.plan.warmup;

  loop_->ScheduleAfter(spec_.plan.warmup, [this] {
    for (auto& client : clients_) client->ResetStats();
    measure_start_ = loop_->Now();  // honest real-time window start
  });

  for (const scenario::ScenarioEvent& event : spec_.schedule) {
    const SimTime at = event.at < 0 ? 0 : event.at;
    loop_->ScheduleAfter(at, [this, event] {
      // Stamped when the outcome is known: crash-primary decides late.
      scenario::ApplyEvent(
          *this, event, byzantine_, [this](std::string description, Status) {
            Note(description);
            report_.events.push_back(
                {loop_->Now() - t0_, std::move(description)});
          });
    });
  }

  loop_->ScheduleAfter(spec_.plan.warmup + spec_.plan.measure, [this] {
    measure_end_ = loop_->Now();
    for (auto& client : clients_) client->Stop();
  });

  loop_->ScheduleAfter(spec_.plan.warmup + spec_.plan.measure +
                           spec_.plan.drain,
                       [this] { loop_->Stop(); });
}

void Launcher::SendControl(int replica, const FaultCommand& command) {
  transport_->Send(kFaultControllerId, replica,
                   Payload(EncodeFaultCommandBody(command)));
}

void Launcher::BroadcastControl(const FaultCommand& command) {
  for (const Child& child : children_) {
    if (child.alive) SendControl(child.id, command);
  }
}

void Launcher::OnMessage(PrincipalId from, Payload payload) {
  Result<FaultCommand> command =
      DecodeFaultCommand(payload.data(), payload.size());
  if (!command.ok()) {
    Note("bad control reply from " + std::to_string(from) + ": " +
         command.status().ToString());
    return;
  }
  if (command->kind == ControlKind::kPrimaryReply && command->value > 0 &&
      !primary_votes_.empty()) {
    const int primary = static_cast<int>(command->value) - 1;
    if (primary >= 0 && primary < config_.n()) {
      primary_votes_[static_cast<size_t>(primary)] += 1;
    }
  }
}

Status Launcher::TamperWal(int replica, storage::WalTamper tamper,
                           uint64_t offset_from_end) {
  const Child& child = Slot(replica);
  if (child.alive) {
    return Status::FailedPrecondition("wal tampering target is not crashed");
  }
  if (child.data_dir.empty()) {
    return Status::FailedPrecondition("wal tampering requires durability");
  }
  // The dead process's on-disk WAL, through the medium type it wrote with.
  PosixMedium medium(child.data_dir);
  SEEMORE_RETURN_IF_ERROR(medium.status());
  return storage::TamperWalTail(medium, tamper, offset_from_end);
}

void Launcher::SetByzantine(int replica, uint32_t flags) {
  FaultCommand command = Command(ControlKind::kSetByzantine);
  command.replica = replica;
  command.byz_flags = flags;
  SendControl(replica, command);
}

Status Launcher::Switch(SeeMoReMode target) {
  FaultCommand command = Command(ControlKind::kSwitchMode);
  command.mode = static_cast<uint8_t>(target);
  bool any_alive = false;
  for (const Child& child : children_) {
    if (child.alive) {
      any_alive = true;
    } else if (child.id < 32) {
      command.value |= 1u << child.id;
    }
  }
  if (!any_alive) return Status::Unavailable("all replicas crashed");
  // Each node picks the first live authority from its own view and acts if
  // that is itself. The authority's answer does not come back: Ok means the
  // request went out.
  BroadcastControl(command);
  return Status::Ok();
}

void Launcher::ShapeLink(int from, int to, SimTime delay, SimTime jitter,
                         uint32_t drop_ppm) {
  FaultCommand command = Command(ControlKind::kShapeLink, from, to);
  command.delay_us = static_cast<uint64_t>(delay / kNanosPerMicro);
  command.jitter_us = static_cast<uint64_t>(jitter / kNanosPerMicro);
  command.drop_ppm = drop_ppm;
  BroadcastControl(command);
}

void Launcher::ResolvePrimary(std::function<void(int)> then) {
  // Nobody here knows the view: ask every live node and take the plurality
  // answer once the replies are in.
  primary_votes_.assign(static_cast<size_t>(config_.n()), 0);
  BroadcastControl(Command(ControlKind::kQueryPrimary));
  loop_->ScheduleAfter(Millis(300), [this, then = std::move(then)] {
    int best = -1;
    for (int r = 0; r < config_.n(); ++r) {
      const int votes = primary_votes_[static_cast<size_t>(r)];
      if (votes > 0 &&
          (best < 0 || votes > primary_votes_[static_cast<size_t>(best)])) {
        best = r;
      }
    }
    then(best);
  });
}

void Launcher::ReapAll() {
  for (const Child& child : children_) {
    if (child.alive) kill(child.pid, SIGTERM);
  }
  const int grace_ms =
      static_cast<int>(options_.shutdown_grace / kNanosPerMilli);
  for (int waited = 0; waited < grace_ms; waited += 20) {
    bool any = false;
    for (Child& child : children_) {
      if (!child.alive) continue;
      int wstatus = 0;
      if (waitpid(child.pid, &wstatus, WNOHANG) == child.pid) {
        child.alive = false;
        const std::string death = UnexpectedExit(wstatus, SIGTERM);
        if (!death.empty() && child.death.empty()) child.death = death;
      } else {
        any = true;
      }
    }
    if (!any) return;
    const timespec poll{0, 20 * 1000000L};
    nanosleep(&poll, nullptr);
  }
  for (Child& child : children_) {
    if (child.alive && child.death.empty()) {
      child.death = "still running after the shutdown grace";
    }
    KillChild(child);
  }
}

void Launcher::CollectReports() {
  std::vector<scenario::ReplicaOutcome> outcomes;
  for (const Child& child : children_) {
    scenario::ReplicaOutcome outcome;
    outcome.id = child.id;
    outcome.byzantine = byzantine_.count(child.id) > 0;
    Result<Json> node = Status::NotFound("no report");
    if (Result<std::string> text = ReadTextFile(child.report_path); text.ok()) {
      node = Json::Parse(*text);
    }
    const bool read = node.ok() && ReadNodeReport(*node, outcome);
    if (!child.death.empty()) {
      Note("node " + std::to_string(child.id) + " " + child.death);
      outcome.end = scenario::ReplicaEnd::kDied;
      outcome.death = child.death;
    } else if (child.killed) {
      outcome.end = scenario::ReplicaEnd::kKilled;
    } else if (!read) {
      outcome.end = scenario::ReplicaEnd::kDied;
      outcome.death = node.ok() ? "left a malformed report" : "left no report";
    }
    if (!node.ok()) {
      // perfbench's gate and seemore_ctl read this stub.
      Json stub = Json::Object();
      stub.Set("id", child.id);
      stub.Set("crashed", true);
      node = std::move(stub);
    }
    report_.nodes.push_back(*std::move(node));
    outcomes.push_back(std::move(outcome));
  }
  static_cast<scenario::Verdict&>(report_) =
      scenario::CheckVerdict(outcomes, spec_.plan.check_convergence);
}

Result<TcpRunReport> Launcher::Run() {
  SEEMORE_RETURN_IF_ERROR(Setup());

  // Node processes first: their listeners must exist for the gate below.
  children_.resize(static_cast<size_t>(config_.n()));
  for (int i = 0; i < config_.n(); ++i) {
    Child& child = children_[static_cast<size_t>(i)];
    child.id = i;
    child.report_path = work_dir_ + "/node-" + std::to_string(i) + ".json";
    if (spec_.durability.enabled) {
      child.data_dir = work_dir_ + "/node-" + std::to_string(i) + "-data";
    }
    SEEMORE_RETURN_IF_ERROR(SpawnChild(child));
  }

  loop_ = std::make_unique<EventLoop>();
  SEEMORE_RETURN_IF_ERROR(loop_->init_status());
  TcpTransportOptions transport_options;
  transport_options.num_replicas = config_.n();
  transport_options.base_port = options_.base_port;
  transport_options.fingerprint = spec_.seed;
  transport_ = std::make_unique<TcpTransport>(loop_.get(), transport_options);
  keystore_ = std::make_unique<KeyStore>(RunKeySeed(spec_.seed));

  // The fault controller dials every node like a client; those HELLO'd
  // connections are the control channel the schedule speaks over (and the
  // path kPrimaryReply answers come back on).
  transport_->Register(kFaultControllerId, Zone::kClient, this,
                       /*metered=*/false);

  for (int i = 0; i < spec_.clients; ++i) {
    ClientOptions client_options;
    client_options.id = kClientIdBase + i;
    client_options.retransmit_timeout = spec_.client_retransmit_timeout;
    clients_.push_back(std::make_unique<SimClient>(
        transport_.get(), loop_.get(), keystore_.get(), client_options,
        MakeReplyPolicy(config_)));
  }

  SEEMORE_RETURN_IF_ERROR(AwaitCluster());
  Note("cluster up, starting clients");

  OpFactory workload = scenario::MakeWorkload(spec_);
  for (auto& client : clients_) client->Start(workload);
  ScheduleRun();

  // Hard cap well past the schedule: a hung cluster must not hang the tool.
  loop_->Run(spec_.plan.warmup + spec_.plan.measure + spec_.plan.drain +
             Seconds(30));
  const SimTime run_end = loop_->Now();
  if (measure_end_ == 0) measure_end_ = run_end;  // loop died early

  ReapAll();

  report_.scenario = spec_.name;
  report_.seed = spec_.seed;
  report_.cluster = config_.ToString();

  std::vector<SimClient*> clients;
  for (auto& client : clients_) clients.push_back(client.get());
  report_.result = StopAndSummarize(clients, measure_end_ - measure_start_);
  report_.result.wall_time_ms =
      static_cast<double>(run_end - t0_) / kNanosPerMilli;

  CollectReports();

  // Whole-run transport ledger: our own counters (the client side) plus
  // every node's reported "net" object, summed field by field. Unknown
  // fields from newer/older nodes merge fine — the sum is by key.
  report_.net = transport_->counters().ToJson();
  for (const Json& node : report_.nodes) {
    const Json* node_net = node.Find("net");
    if (node_net == nullptr || !node_net->is_object()) continue;
    for (const auto& [key, value] : node_net->members()) {
      if (!value.is_int()) continue;
      Json* merged_field = report_.net.Find(key);
      if (merged_field == nullptr) {
        report_.net.Set(key, value);
      } else {
        report_.net.Set(key, merged_field->AsInt() + value.AsInt());
      }
    }
  }
  return report_;
}

}  // namespace

Status ValidateForTcp(const scenario::ScenarioSpec& spec) {
  SEEMORE_RETURN_IF_ERROR(spec.Validate());
  if (!spec.plan.sweep_clients.empty()) {
    return Status::InvalidArgument(
        "tcp backend runs one cluster per call (no sweep plan)");
  }
  return Status::Ok();
}

Result<TcpRunReport> RunTcpScenario(const scenario::ScenarioSpec& spec,
                                    const LauncherOptions& options) {
  SEEMORE_RETURN_IF_ERROR(ValidateForTcp(spec));
  Launcher launcher(spec, options);
  return launcher.Run();
}

Json TcpRunReport::ToJson() const {
  Json j = Json::Object();
  j.Set("backend", "tcp");
  SetHeadJson(j);
  Json reps = Json::Array();
  for (const Json& node : nodes) reps.Append(node);
  j.Set("replicas", std::move(reps));
  j.Set("net", net);
  AppendJson(j);
  return j;
}

}  // namespace rt
}  // namespace seemore
