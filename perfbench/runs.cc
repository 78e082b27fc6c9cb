// One call into each runtime through its public entry point, timed and
// counted from outside: rt::RunTcpScenario for real node processes,
// scenario::RunScenario with ScenarioHooks for the simulator. Each call is
// judged by the liveness-aware gate (README.md "Correctness gate").

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <thread>

#include "bench.h"

namespace seemore {
namespace perfbench {
namespace {

double ToSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// Copies everything written to this process's stderr (and inherited by its
/// children) through a pipe, noting when a line containing `needle` first
/// appears. The launcher's verbose log says "cluster up" the moment its
/// readiness gate passes, which splits a tcp run call into setup, run window
/// and teardown without reaching inside the launcher.
class StderrWatch {
 public:
  explicit StderrWatch(const char* needle) : needle_(needle) {
    int fds[2];
    saved_ = dup(STDERR_FILENO);
    if (saved_ < 0 || pipe2(fds, O_CLOEXEC) != 0) return;
    read_fd_ = fds[0];
    dup2(fds[1], STDERR_FILENO);
    close(fds[1]);
    reader_ = std::thread([this] { Pump(); });
  }
  ~StderrWatch() {
    if (saved_ >= 0) dup2(saved_, STDERR_FILENO);
    stop_ = true;
    if (reader_.joinable()) reader_.join();  // the pump writes to saved_
    if (saved_ >= 0) close(saved_);
    if (read_fd_ >= 0) close(read_fd_);
  }
  StderrWatch(const StderrWatch&) = delete;
  StderrWatch& operator=(const StderrWatch&) = delete;

  int64_t seen_ns() const { return seen_ns_.load(); }

 private:
  void Pump() {
    std::string line;
    char buf[4096];
    while (true) {
      pollfd pfd{read_fd_, POLLIN, 0};
      const int ready = poll(&pfd, 1, 50);
      if (ready <= 0) {
        if (stop_) return;
        continue;
      }
      const ssize_t n = read(read_fd_, buf, sizeof(buf));
      if (n <= 0) return;
      const int64_t now = NowNs();
      if (saved_ >= 0) (void)!write(saved_, buf, static_cast<size_t>(n));
      line.append(buf, static_cast<size_t>(n));
      if (seen_ns_.load() == 0 && line.find(needle_) != std::string::npos) {
        seen_ns_ = now;
      }
      if (line.size() > 8192) line.erase(0, line.size() - 256);
    }
  }

  const char* needle_;
  int saved_ = -1;
  int read_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> seen_ns_{0};
  std::thread reader_;
};

/// Every child this process started has been reaped: waitpid reports no
/// children at all (a zombie or a live process would show up here).
bool NoChildrenLeft() {
  int status = 0;
  return waitpid(-1, &status, WNOHANG) < 0 && errno == ECHILD;
}

void Refuse(RunOutcome& out, const std::string& why) {
  if (out.failure.empty()) out.failure = why;
  out.ok = false;
}

}  // namespace

Json SpanRecorder::ToJson() const {
  Json array = Json::Array();
  for (const Span& span : spans_) {
    Json s = Json::Object();
    s.Set("name", span.name);
    s.Set("start_ns", span.start_ns);
    s.Set("end_ns", span.end_ns);
    s.Set("parent", span.parent);
    array.Append(std::move(s));
  }
  return array;
}

CpuSplit CpuSplit::Now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return {ToSeconds(self.ru_utime), ToSeconds(self.ru_stime),
          ToSeconds(children.ru_utime), ToSeconds(children.ru_stime)};
}

Json CpuSplit::ToJson() const {
  Json j = Json::Object();
  j.Set("self_user_s", self_user);
  j.Set("self_sys_s", self_sys);
  j.Set("children_user_s", child_user);
  j.Set("children_sys_s", child_sys);
  return j;
}

bool PortsReleased(uint16_t base, int count) {
  for (int i = 0; i < count; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    // The transport's own listener options: a port in TIME_WAIT is free to
    // listen on again, a port someone still listens on is not.
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(base + i));
    const bool free_port =
        bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        listen(fd, 1) == 0;
    close(fd);
    if (!free_port) return false;
  }
  return true;
}

uint16_t FreshPortBlock(int count) {
  // Listener ports come from below the kernel's ephemeral range: a starting
  // cluster's outgoing connections take ephemeral ports, and one of them
  // could take a node's port just before that node binds it.
  uint32_t ephemeral_low = 32768;
  if (std::FILE* in = std::fopen("/proc/sys/net/ipv4/ip_local_port_range",
                                 "r")) {
    if (std::fscanf(in, "%u", &ephemeral_low) != 1) ephemeral_low = 32768;
    std::fclose(in);
  }
  constexpr uint32_t kLowest = 20000;
  const uint32_t limit = std::max(ephemeral_low, kLowest + 1024);
  // Start somewhere this process alone is likely to use, then walk upward.
  static uint32_t next =
      kLowest + (static_cast<uint32_t>(getpid()) % 128) * 8;
  for (int attempt = 0; attempt < 256; ++attempt) {
    if (next + static_cast<uint32_t>(count) >= limit) next = kLowest;
    const uint16_t base = static_cast<uint16_t>(next);
    next += static_cast<uint32_t>(count) + 2;
    if (PortsReleased(base, count)) return base;
  }
  return 0;
}

RunOutcome RunTcp(const scenario::ScenarioSpec& spec, const TcpEnv& env,
                  SpanRecorder* spans) {
  static int run_counter = 0;
  RunOutcome out;
  const ClusterConfig config = spec.ResolvedConfig();
  const int n = config.n();

  rt::LauncherOptions options;
  options.node_binary = env.node_binary;
  options.base_port = FreshPortBlock(n);
  options.work_dir = env.run_root + "/tcp-" + std::to_string(getpid()) + "-" +
                     std::to_string(run_counter++);
  options.verbose = spans != nullptr;
  // Readiness takes ~50 ms; a cluster that is not up in 5 s is a failed run.
  options.connect_timeout = Seconds(5);
  if (options.base_port == 0) {
    Refuse(out, "no free port block");
    return out;
  }

  ScopedSpan run_span(spans, "tcp.run");
  const CpuSplit cpu_before = CpuSplit::Now();
  const int64_t start = NowNs();
  Result<rt::TcpRunReport> report = Status::Internal("not run");
  int64_t up_ns = 0;
  {
    std::unique_ptr<StderrWatch> watch;
    if (spans != nullptr) watch = std::make_unique<StderrWatch>("cluster up");
    report = rt::RunTcpScenario(spec, options);
    if (watch != nullptr) up_ns = watch->seen_ns();
  }
  const int64_t end = NowNs();
  out.cpu = CpuSplit::Now() - cpu_before;
  out.call_s = static_cast<double>(end - start) / 1e9;

  // Isolation: every node child reaped, its listeners gone, its scratch
  // directory removed — otherwise the next run would inherit the mess.
  out.ok = true;
  if (!NoChildrenLeft()) Refuse(out, "a seemore_node child was not reaped");
  if (!PortsReleased(options.base_port, n)) {
    Refuse(out, "a node port is still bound after the run");
  }
  struct stat st{};
  if (stat(options.work_dir.c_str(), &st) == 0) {
    Refuse(out, "the run's scratch directory was left behind");
  }
  if (!report.ok()) {
    Refuse(out, "launcher: " + report.status().ToString());
    return out;
  }

  const RunResult& result = report->result;
  out.completed = result.completed;
  out.retransmissions = result.retransmissions;
  out.window_s = result.throughput_kreqs > 0
                     ? static_cast<double>(result.completed) /
                           (result.throughput_kreqs * 1000.0)
                     : ToMillis(spec.plan.measure) / 1000.0;
  out.p50_ms = result.p50_latency_ms;
  out.p90_ms = result.p90_latency_ms;
  out.setup_s = out.call_s - result.wall_time_ms / 1000.0;
  out.net = report->net;

  if (spans != nullptr && up_ns > start) {
    const int64_t window_end =
        up_ns + static_cast<int64_t>(result.wall_time_ms * 1e6);
    spans->Add("tcp.setup", start, up_ns);
    spans->Add("tcp.measure", up_ns, window_end);
    spans->Add("tcp.teardown", window_end, end);
  }

  // No faults are scheduled on the tcp workloads, so the view-0 primary
  // stays primary unless a view change happened (counted below).
  const int primary = config.PrimaryOf(spec.mode, 0);
  uint64_t busiest = 0;
  for (const Json& node : report->nodes) {
    out.replicas.Append(node);
    const int id = static_cast<int>(CounterOf(node, "id"));
    const Json* crashed = node.Find("crashed");
    if (crashed != nullptr && crashed->AsBool()) {
      Refuse(out, "node " + std::to_string(id) +
                      " left no report (it died on its own)");
      continue;
    }
    const Json* stats = node.Find("stats");
    if (stats == nullptr) continue;
    const uint64_t executed = CounterOf(*stats, "requests_executed");
    if (executed >= busiest) {
      busiest = executed;
      out.executed = executed;
      out.batches = CounterOf(*stats, "batches_committed");
    }
    const uint64_t handled = CounterOf(*stats, "messages_handled");
    out.messages_handled += handled;
    if (id == primary) out.primary_messages = handled;
    out.view_changes =
        std::max(out.view_changes, CounterOf(*stats, "view_changes_completed"));
    out.equivocations += CounterOf(*stats, "equivocations_detected");
  }

  if (!report->agreement.ok()) {
    Refuse(out, "agreement: " + report->agreement.ToString());
  }
  if (report->convergence_checked && !report->convergence.ok()) {
    Refuse(out, "convergence: " + report->convergence.ToString());
  }
  if (out.equivocations > 0) Refuse(out, "a live replica flagged equivocation");
  if (out.completed == 0) Refuse(out, "the measure window completed nothing");
  return out;
}

namespace {

/// Virtual ms from `crash` to the first 1 ms bucket whose completions reach
/// half the pre-crash rate (measured over [lead_in, crash)); -1 when service
/// never comes back inside the window.
double OutageMs(std::vector<SimTime> completions, SimTime crash,
                SimTime lead_in, SimTime window_end) {
  std::sort(completions.begin(), completions.end());
  uint64_t before = 0;
  for (SimTime when : completions) {
    if (when >= lead_in && when < crash) ++before;
  }
  if (crash <= lead_in || before == 0) return -1;
  const double per_bucket = static_cast<double>(before) /
                            (static_cast<double>(crash - lead_in) / Millis(1));
  auto it = std::lower_bound(completions.begin(), completions.end(), crash);
  for (SimTime bucket = crash; bucket + Millis(1) <= window_end;
       bucket += Millis(1)) {
    uint64_t in_bucket = 0;
    while (it != completions.end() && *it < bucket + Millis(1)) {
      ++in_bucket;
      ++it;
    }
    if (static_cast<double>(in_bucket) >= 0.5 * per_bucket) {
      return ToMillis(bucket - crash);
    }
  }
  return -1;
}

}  // namespace

RunOutcome RunSim(const scenario::ScenarioSpec& spec, SpanRecorder* spans) {
  RunOutcome out;
  const SimTime window_start = spec.plan.warmup;
  const SimTime window_end = spec.plan.warmup + spec.plan.measure;
  std::vector<SimTime> completions;
  int64_t started_ns = 0;
  int64_t finished_ns = 0;
  int primary = -1;
  int measure_span = -1;

  scenario::ScenarioHooks hooks;
  hooks.on_start = [&](Cluster&) {
    started_ns = NowNs();
    if (spans != nullptr) measure_span = spans->Begin("sim.measure");
  };
  hooks.on_complete = [&](SimTime when, SimTime latency) {
    if (when < window_start || when >= window_end) return;
    completions.push_back(when);
    out.latencies.Record(latency);
  };
  hooks.on_finish = [&](Cluster& cluster) {
    finished_ns = NowNs();
    if (measure_span >= 0) spans->End(measure_span);
    out.sim_events = cluster.sim().executed_events();
    for (int i = 0; i < cluster.n() && primary < 0; ++i) {
      if (!cluster.replica(i)->crashed()) {
        primary = cluster.seemore(i)->current_primary();
      }
    }
  };

  ScopedSpan run_span(spans, "sim.run");
  const CpuSplit cpu_before = CpuSplit::Now();
  const int64_t start = NowNs();
  Result<scenario::ScenarioReport> report = scenario::RunScenario(spec, hooks);
  const int64_t end = NowNs();
  out.cpu = CpuSplit::Now() - cpu_before;
  out.call_s = static_cast<double>(end - start) / 1e9;
  if (!report.ok()) {
    Refuse(out, "engine: " + report.status().ToString());
    return out;
  }
  if (spans != nullptr && started_ns > 0) {
    // sim.measure spans on_start..on_finish; set-up and teardown are the
    // rest of the call.
    spans->Add("sim.setup", start, started_ns);
    spans->Add("sim.teardown", finished_ns, end);
  }

  out.ok = true;
  const RunResult& result = report->result;
  out.completed = result.completed;
  out.retransmissions = result.retransmissions;
  out.window_s = ToMillis(spec.plan.measure) / 1000.0;
  out.p50_ms = result.p50_latency_ms;
  out.p90_ms = result.p90_latency_ms;
  out.sim_window_host_s = static_cast<double>(finished_ns - started_ns) / 1e9;
  out.setup_s = out.call_s - out.sim_window_host_s;

  out.net.Set("messages", report->net.messages);
  out.net.Set("bytes", report->net.bytes);
  out.net.Set("wire_bytes", report->net.wire_bytes);
  out.net.Set("replica_to_replica_messages",
              report->net.replica_to_replica_messages);
  out.net.Set("dropped", report->net.dropped);
  out.net.Set("executed_events", out.sim_events);

  uint64_t busiest = 0;
  for (const scenario::ReplicaReport& replica : report->replicas) {
    out.replicas.Append(replica.ToJson());
    if (replica.requests_executed >= busiest) {
      busiest = replica.requests_executed;
      out.executed = replica.requests_executed;
      out.batches = replica.batches_committed;
    }
    out.messages_handled += replica.messages_handled;
    if (replica.id == primary) out.primary_messages = replica.messages_handled;
    out.view_changes =
        std::max(out.view_changes, replica.view_changes_completed);
    if (!replica.crashed) out.equivocations += replica.equivocations_detected;
  }

  if (!report->agreement.ok()) {
    Refuse(out, "agreement: " + report->agreement.ToString());
  }
  if (report->convergence_checked && !report->convergence.ok()) {
    Refuse(out, "convergence: " + report->convergence.ToString());
  }
  if (out.equivocations > 0) Refuse(out, "a live replica flagged equivocation");
  if (out.completed == 0) Refuse(out, "the measure window completed nothing");
  for (const scenario::ScenarioEvent& event : spec.schedule) {
    if (event.kind != scenario::EventKind::kCrashPrimary) continue;
    out.outage_ms = OutageMs(completions, event.at, window_start + Millis(10),
                             window_end);
    if (out.outage_ms < 0) {
      Refuse(out, "service never came back to half the pre-crash rate");
    }
  }
  return out;
}

}  // namespace perfbench
}  // namespace seemore
