// ron_served — put a snapshot on the wire.
//
// Loads any servable snapshot (oracle / labeling -> estimates; directory /
// churn bundle -> locates with a live churn admin channel) and serves
// framed request batches to concurrent clients over TCP:
//
//   ron_oracle build --scenario "metric=clustered,n=4096" --out cloud.ron
//   ron_served cloud.ron --port 7420
//   ron_served dir.ron --port 0 --threads 8      # prints the bound port
//
// stdout carries exactly one line — the bound port — so scripts can capture
// it (`ron_served snap.ron --port 0 | ...`); everything human-readable goes
// to stderr. SIGINT/SIGTERM request a graceful drain (stop accepting,
// flush in-flight responses, exit 0), as does a client kShutdown frame.
// --metrics-out writes the ron.metrics.v1 envelope over every registry
// behind the server (server + engine + overlay) at exit.
//
// Exit codes: 0 clean shutdown, 1 runtime failure (ron::Error), 2 usage
// error (usage printed).
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_util.h"
#include "common/check.h"
#include "served/served_state.h"
#include "served/server.h"

namespace ron {
namespace {

using cli::Args;
using cli::parse_u64;
using cli::UsageError;

int usage(std::ostream& os) {
  os << "usage: ron_served <snapshot.ron> [options]\n"
        "\n"
        "Serves the snapshot's query surface over a framed TCP protocol\n"
        "(see README.md 'Serving over the network').\n"
        "\n"
        "options:\n"
        "  --host ADDR            bind address (IPv4 literal, default "
        "127.0.0.1)\n"
        "  --port P               bind port; 0 picks an ephemeral port\n"
        "                         (default 0; the bound port is printed on\n"
        "                         stdout either way)\n"
        "  --threads N            engine worker threads (default 1)\n"
        "  --cache N              engine result-cache capacity (default 0)\n"
        "  --build-threads N      overlay rebuild threads for directory/\n"
        "                         bundle snapshots; 0 = one per available\n"
        "                         core (default 0)\n"
        "  --backend B            proximity backend for the overlay rebuild\n"
        "                         (auto|dense|sparse, default dense; sparse\n"
        "                         serves million-node directories statically\n"
        "                         — admin churn frames are rejected)\n"
        "  --max-hops N           locate walk abandonment bound\n"
        "  --max-connections N    concurrent client cap (default 64)\n"
        "  --max-frame-bytes N    largest payload a client may send;\n"
        "                         beyond it the connection drops\n"
        "  --max-batch N          largest query batch per frame (kTooLarge\n"
        "                         error frame above it)\n"
        "  --idle-timeout-ms N    close connections idle this long\n"
        "                         (default 0 = never)\n"
        "  --metrics-out FILE     write the ron.metrics.v1 envelope at exit\n"
        "\n"
        "The server answers estimate/locate/churn/stats/info frames; see\n"
        "src/served/protocol.h for the frame grammar.\n";
  return 2;
}

// The signal handler's entire job is one async-signal-safe Server::stop()
// (a write(2) to the self-pipe). Plain pointer: it is set once, before the
// handlers are installed, and never changes while they are live.
Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int run(int argc, char** argv) {
  if (argc >= 2) {
    const std::string first = argv[1];
    if (first == "--help" || first == "help") return usage(std::cout), 0;
  }
  Args args(argc, argv, 1);
  args.expect_known({"host", "port", "threads", "cache", "build-threads",
                     "backend", "max-hops", "max-connections",
                     "max-frame-bytes", "max-batch", "idle-timeout-ms",
                     "metrics-out"});
  args.expect_positionals(1, "one snapshot path");
  const std::string path = args.positional()[0];

  ServedStateOptions state_opts;
  state_opts.engine.num_threads = static_cast<unsigned>(
      parse_u64(args.get("threads", "1"), "--threads"));
  RON_CHECK(state_opts.engine.num_threads >= 1,
            "--threads must be at least 1");
  state_opts.engine.cache_capacity =
      parse_u64(args.get("cache", "0"), "--cache");
  const std::uint64_t build_threads =
      parse_u64(args.get("build-threads", "0"), "--build-threads");
  RON_CHECK(build_threads <= 1024,
            "--build-threads " << build_threads << " exceeds 1024");
  state_opts.build_threads = static_cast<unsigned>(build_threads);
  state_opts.backend = parse_prox_backend(args.get("backend", "dense"));
  if (args.has("max-hops")) {
    state_opts.locate.max_hops =
        parse_u64(args.get("max-hops", ""), "--max-hops");
  }

  ServerOptions server_opts;
  server_opts.host = args.get("host", server_opts.host);
  const std::uint64_t port = parse_u64(args.get("port", "0"), "--port");
  RON_CHECK(port <= 65535, "--port " << port << " exceeds 65535");
  server_opts.port = static_cast<std::uint16_t>(port);
  if (args.has("max-connections")) {
    server_opts.max_connections =
        parse_u64(args.get("max-connections", ""), "--max-connections");
    RON_CHECK(server_opts.max_connections >= 1,
              "--max-connections must be at least 1");
  }
  if (args.has("max-frame-bytes")) {
    server_opts.max_frame_bytes =
        parse_u64(args.get("max-frame-bytes", ""), "--max-frame-bytes");
    RON_CHECK(server_opts.max_frame_bytes >= 16,
              "--max-frame-bytes must cover at least a frame header");
  }
  if (args.has("max-batch")) {
    server_opts.max_batch =
        parse_u64(args.get("max-batch", ""), "--max-batch");
    RON_CHECK(server_opts.max_batch >= 1, "--max-batch must be at least 1");
  }
  server_opts.idle_timeout_ns =
      parse_u64(args.get("idle-timeout-ms", "0"), "--idle-timeout-ms") *
      1'000'000;

  std::cerr << "ron_served: loading " << path << "\n";
  ServedState state = load_served_state(path, state_opts);
  Server server(state, server_opts);
  const std::uint16_t bound = server.start();

  g_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // The port line is the tool's whole stdout contract; flush it before
  // entering the loop so a piped reader is never left waiting.
  std::cout << bound << std::endl;
  std::cerr << "ron_served: listening on " << server_opts.host << ":"
            << bound << " (n=" << state.engine->n()
            << ", estimate=" << (state.can_estimate() ? "yes" : "no")
            << ", locate=" << (state.can_locate() ? "yes" : "no")
            << ", churn=" << (state.can_churn() ? "yes" : "no") << ")\n";

  server.run();

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;

  if (args.has("metrics-out")) {
    const std::string out = args.get("metrics-out", "");
    std::ofstream os(out, std::ios::binary);
    RON_CHECK(os.good(), "cannot open metrics file '" << out << "'");
    os << server.metrics_text(/*prometheus=*/false);
    RON_CHECK(os.good(), "failed writing metrics file '" << out << "'");
  }
  std::cerr << "ron_served: drained, exiting\n";
  return 0;
}

}  // namespace
}  // namespace ron

int main(int argc, char** argv) {
  return ron::cli::tool_main(
      "ron_served", [&] { return ron::run(argc, argv); },
      [](std::ostream& os) { ron::usage(os); });
}
