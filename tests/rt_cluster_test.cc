// A real cluster end to end: rt::RunTcpScenario spawns the built
// seemore_node processes and runs a short two-client Lion workload over
// loopback TCP. A fault-free run must pass its verdict without a single
// refused dial, each node must hold exactly its own listener (bound by the
// launcher and inherited, the launcher's copy closed), the launcher must
// reach the n replicas over exactly n connections (its clients and fault
// controller share them), and every node must be reaped by the time the
// call returns.

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "rt/launcher.h"
#include "scenario/builder.h"
#include "scenario/registry.h"

namespace seemore {
namespace rt {
namespace {

constexpr uint16_t kBasePort = 19300;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

constexpr unsigned kEstablished = 0x01;
constexpr unsigned kListen = 0x0A;

/// Socket inode -> local port (or, with `remote`, remote port) of every
/// IPv4 socket in TCP state `state`.
std::map<unsigned long, unsigned> SocketsIn(unsigned state, bool remote) {
  std::map<unsigned long, unsigned> sockets;
  std::ifstream in("/proc/net/tcp");
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    unsigned local_port = 0;
    unsigned remote_port = 0;
    unsigned st = 0;
    unsigned long inode = 0;
    if (std::sscanf(line.c_str(),
                    " %*d: %*x:%x %*x:%x %x %*x:%*x %*x:%*x %*x %*u %*u %lu",
                    &local_port, &remote_port, &st, &inode) == 4 &&
        st == state) {
      sockets[inode] = remote ? remote_port : local_port;
    }
  }
  return sockets;
}

/// Ports of the sockets in `sockets` that process `pid` holds open, one
/// entry per socket.
std::multiset<unsigned> PortsHeldBy(
    pid_t pid, const std::map<unsigned long, unsigned>& sockets) {
  std::multiset<unsigned> ports;
  const std::string dir = "/proc/" + std::to_string(pid) + "/fd";
  DIR* fds = opendir(dir.c_str());
  if (fds == nullptr) return ports;
  while (dirent* entry = readdir(fds)) {
    char target[64] = {};
    const std::string link = dir + "/" + entry->d_name;
    if (readlink(link.c_str(), target, sizeof(target) - 1) < 0) continue;
    unsigned long inode = 0;
    if (std::sscanf(target, "socket:[%lu]", &inode) != 1) continue;
    auto it = sockets.find(inode);
    if (it != sockets.end()) ports.insert(it->second);
  }
  closedir(fds);
  return ports;
}

/// Ports of the listening sockets process `pid` holds open.
std::set<unsigned> ListenerPortsOf(pid_t pid) {
  const std::multiset<unsigned> held =
      PortsHeldBy(pid, SocketsIn(kListen, /*remote=*/false));
  return std::set<unsigned>(held.begin(), held.end());
}

/// How many established connections process `pid` holds to the ports
/// base .. base + n - 1.
int ConnectionsTo(pid_t pid, unsigned base, int n) {
  int count = 0;
  for (unsigned port : PortsHeldBy(pid, SocketsIn(kEstablished, true))) {
    if (port >= base && port < base + static_cast<unsigned>(n)) ++count;
  }
  return count;
}

/// Watches this process's seemore_node children while a run is in flight
/// and records, per replica id, the listener ports each one holds. Then
/// records what the launcher itself holds once every node has exec'd: its
/// listeners, and the most connections to replica ports it ever held.
class ListenerProbe {
 public:
  ListenerProbe(int nodes, unsigned base_port)
      : nodes_(nodes), base_port_(base_port) {
    thread_ = std::thread([this] { Watch(); });
  }
  ~ListenerProbe() { Stop(); }
  ListenerProbe(const ListenerProbe&) = delete;
  ListenerProbe& operator=(const ListenerProbe&) = delete;

  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  const std::map<int, std::set<unsigned>>& by_replica() const {
    return by_replica_;
  }
  const std::set<unsigned>& launcher_ports() const { return launcher_ports_; }
  int launcher_replica_connections() const {
    return launcher_replica_connections_;
  }

 private:
  void Watch() {
    const std::string parent = std::to_string(getpid());
    while (!stop_ && static_cast<int>(by_replica_.size()) < nodes_) {
      DIR* proc = opendir("/proc");
      if (proc == nullptr) return;
      while (dirent* entry = readdir(proc)) {
        const pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
        if (pid <= 0) continue;
        const std::string base = std::string("/proc/") + entry->d_name;
        // Field 4 of stat is the parent pid; it follows the ")" that ends
        // the command name.
        const std::string stat = ReadFile(base + "/stat");
        const size_t paren = stat.rfind(')');
        if (paren == std::string::npos) continue;
        char state = 0;
        int ppid = 0;
        if (std::sscanf(stat.c_str() + paren + 1, " %c %d", &state, &ppid) !=
                2 ||
            std::to_string(ppid) != parent ||
            ReadFile(base + "/comm") != "seemore_node\n") {
          continue;
        }
        const std::string cmdline = ReadFile(base + "/cmdline");
        const size_t id_at = cmdline.find("--id=");
        if (id_at == std::string::npos) continue;
        const int id = std::atoi(cmdline.c_str() + id_at + 5);
        if (by_replica_.count(id) == 0) {
          by_replica_[id] = ListenerPortsOf(pid);
        }
      }
      closedir(proc);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // The launcher closes its copy of a listener just after the fork, so
    // the last node may exec a moment before that: keep looking until the
    // launcher holds none or the run is over. Its connections are counted
    // for the rest of the run.
    bool listeners_closed = false;
    while (!stop_) {
      if (!listeners_closed) {
        launcher_ports_ = ListenerPortsOf(getpid());
        listeners_closed = launcher_ports_.empty();
      }
      launcher_replica_connections_ =
          std::max(launcher_replica_connections_,
                   ConnectionsTo(getpid(), base_port_, nodes_));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  const int nodes_;
  const unsigned base_port_;
  int launcher_replica_connections_ = 0;
  std::atomic<bool> stop_{false};
  std::map<int, std::set<unsigned>> by_replica_;
  std::set<unsigned> launcher_ports_;
  std::thread thread_;
};

TEST(RtCluster, FaultFreeLionRunsWithoutRefusedDials) {
  Result<scenario::ScenarioSpec> base =
      scenario::PaperSystemSpec("Lion", 1, 1, 5);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  scenario::ScenarioBuilder builder(*std::move(base));
  builder.Name("rt-cluster-test")
      .Clients(2)
      .Warmup(Millis(50))
      .Measure(Millis(400))
      .Drain(Millis(100))
      .CheckConvergence();
  const scenario::ScenarioSpec spec = builder.spec();
  const int n = spec.ResolvedConfig().n();

  LauncherOptions options;
  options.node_binary = SEEMORE_NODE_PATH;
  options.base_port = kBasePort;
  options.connect_timeout = Seconds(10);

  ListenerProbe probe(n, kBasePort);
  const Result<TcpRunReport> report = RunTcpScenario(spec, options);
  probe.Stop();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(report->ok()) << report->ToJson().Dump(2);
  EXPECT_GT(report->result.completed, 0u);
  const Json* failures = report->net.Find("connection_failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_EQ(failures->AsInt(), 0) << "a dial was refused or failed";
  // Each replica pair dials once, and the launcher once per replica.
  const Json* dialed = report->net.Find("connections_dialed");
  ASSERT_NE(dialed, nullptr);
  EXPECT_EQ(dialed->AsInt(), n * (n - 1) / 2 + n);

  // Every process reports its wakeups and its rusage.
  EXPECT_GT(report->loop_wakeups, 0u);
  EXPECT_GT(report->rusage.user_us + report->rusage.sys_us, 0u);
  const Json launcher = report->ToJson();
  ASSERT_NE(launcher.Find("rusage"), nullptr);
  EXPECT_NE(launcher.Find("rusage")->Find("voluntary_switches"), nullptr);
  ASSERT_EQ(static_cast<int>(report->nodes.size()), n);
  for (const Json& node : report->nodes) {
    const Json* loop = node.Find("loop");
    const Json* usage = node.Find("rusage");
    ASSERT_NE(loop, nullptr) << node.Dump(2);
    ASSERT_NE(usage, nullptr) << node.Dump(2);
    EXPECT_GT(loop->Find("wakeups")->AsInt(), 0);
    EXPECT_GT(usage->Find("user_us")->AsInt() + usage->Find("sys_us")->AsInt(),
              0);
    for (const char* field : {"voluntary_switches", "involuntary_switches"}) {
      EXPECT_NE(usage->Find(field), nullptr) << field;
    }
  }

  // The lifecycle split is ordered and every phase was stamped.
  const TcpLifecycle& life = report->lifecycle;
  EXPECT_GT(life.spawn_ms, 0);
  EXPECT_GE(life.mesh_ready_ms, life.spawn_ms);
  EXPECT_GE(life.clients_ready_ms, life.spawn_ms);
  EXPECT_GT(life.reap_ms, 0);
  EXPECT_LT(life.reap_ms, ToMillis(options.shutdown_grace));

  // Each node held its own listener and no other; the launcher held none.
  ASSERT_EQ(static_cast<int>(probe.by_replica().size()), n)
      << "the probe did not see every node while the run was in flight";
  for (const auto& [id, ports] : probe.by_replica()) {
    EXPECT_EQ(ports, (std::set<unsigned>{kBasePort + static_cast<unsigned>(id)}))
        << "replica " << id;
  }
  EXPECT_TRUE(probe.launcher_ports().empty())
      << "the launcher kept a copy of a node's listener";
  EXPECT_EQ(probe.launcher_replica_connections(), n)
      << "the clients and the fault controller must share one connection "
         "per replica";

  // Every node was reaped before the call returned.
  int status = 0;
  EXPECT_EQ(waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace rt
}  // namespace seemore
