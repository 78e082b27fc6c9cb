// seemore_node: one replica of a real SeeMoRe/PBFT/Paxos/S-UpRight cluster
// as an OS process.
//
// The launcher (seemore_ctl --backend=tcp, or rt::RunTcpScenario directly)
// spawns one of these per replica id with a shared ScenarioSpec file; the
// process serves over real TCP on 127.0.0.1:base_port+id until SIGTERM,
// then writes its per-node report JSON. The launcher binds each node's
// listener before spawning it and passes it down with --listen-fd; without
// that flag the node binds its own. Run by hand for a poke-at-it cluster:
//
//   seemore_node --spec=spec.json --id=0 &
//   seemore_node --spec=spec.json --id=1 &
//   ...

#include <cstdio>

#include "rt/node.h"
#include "util/flags.h"

namespace {

int Main(int argc, char** argv) {
  using seemore::scenario::ScenarioSpec;

  seemore::FlagSet flags(
      "seemore_node: host one replica of a real localhost cluster");
  flags.AddString("spec", "", "path to the ScenarioSpec JSON (required)");
  flags.AddInt("id", 0, "replica id within the spec's topology");
  flags.AddInt("base-port", 18500, "replica r listens on base-port + r");
  flags.AddInt("listen-fd", -1,
               "inherited socket already listening on this replica's port "
               "(-1 = bind one)");
  flags.AddString("report", "",
                  "where the end-of-run report JSON goes (default stdout)");
  flags.AddString("data-dir", "",
                  "durable data directory (enables WAL/snapshot persistence "
                  "when the spec's durability is on; a non-empty directory "
                  "triggers restart recovery)");
  flags.AddInt("max-run-ms", 0, "hard runtime cap, 0 = none");

  const seemore::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fprintf(stdout, "%s", flags.Usage().c_str());
    return 0;
  }
  if (flags.GetString("spec").empty()) {
    std::fprintf(stderr, "--spec is required\n%s", flags.Usage().c_str());
    return 2;
  }

  std::FILE* in = std::fopen(flags.GetString("spec").c_str(), "r");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot read spec: %s\n",
                 flags.GetString("spec").c_str());
    return 2;
  }
  std::string text;
  char buf[64 * 1024];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) text.append(buf, n);
  std::fclose(in);

  seemore::Result<ScenarioSpec> spec = ScenarioSpec::FromJsonText(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "bad spec: %s\n", spec.status().ToString().c_str());
    return 2;
  }

  const seemore::Status ports = seemore::rt::CheckPortBlock(
      flags.GetInt("base-port"), spec->ResolvedConfig().n());
  if (!ports.ok()) {
    std::fprintf(stderr, "%s\n", ports.ToString().c_str());
    return 2;
  }

  seemore::rt::NodeOptions options;
  options.replica_id = static_cast<int>(flags.GetInt("id"));
  options.base_port = static_cast<uint16_t>(flags.GetInt("base-port"));
  options.listen_fd = static_cast<int>(flags.GetInt("listen-fd"));
  options.data_dir = flags.GetString("data-dir");
  options.report_path = flags.GetString("report");
  options.max_run = seemore::Millis(flags.GetInt("max-run-ms"));

  seemore::rt::Node node(std::move(*spec), options);
  seemore::Status status = node.Init();
  if (!status.ok()) {
    std::fprintf(stderr, "node %d init failed: %s\n", options.replica_id,
                 status.ToString().c_str());
    return 1;
  }
  status = node.Serve();
  if (!status.ok()) {
    std::fprintf(stderr, "node %d failed: %s\n", options.replica_id,
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
