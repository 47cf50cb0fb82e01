// A runnable query-service daemon: publishes a demo TI instance, binds
// the line protocol, and serves until SIGINT/SIGTERM, then drains
// gracefully and prints the final metrics snapshot.
//
//   $ ./serve_daemon 7432 &
//   $ printf 'QUERY demo social exists x y. Friend(x, y) & Active(x)\nQUIT\n' |
//       nc localhost 7432
//   $ kill -INT %1        # drains in-flight queries, flushes metrics
//
//   $ ./serve_daemon --demo
//
// runs the same lifecycle hands-free: ephemeral port, a scripted client
// conversation (PING / QUERY / its alias PQUERY / METRICS / QUIT), then the
// graceful-shutdown path — handy as a smoke run and as executable
// documentation of the protocol.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "pdb/ti_pdb.h"
#include "server/daemon.h"
#include "server/engine.h"
#include "util/check.h"

namespace pdb = ipdb::pdb;
namespace rel = ipdb::rel;
namespace server = ipdb::server;

namespace {

// A small social graph: enough structure for lifted, compiled, and
// prepared queries to all have something to do.
pdb::TiPdb<double> DemoInstance() {
  rel::Schema schema({{"Friend", 2}, {"Active", 1}});
  auto friends = [](int a, int b) {
    return rel::Fact(0, {rel::Value::Int(a), rel::Value::Int(b)});
  };
  auto active = [](int a) { return rel::Fact(1, {rel::Value::Int(a)}); };
  std::vector<std::pair<rel::Fact, double>> facts;
  for (int hub = 0; hub < 4; ++hub) {
    facts.emplace_back(active(hub), 0.6 + 0.08 * hub);
    for (int spoke = 4; spoke < 10; ++spoke) {
      facts.emplace_back(friends(hub, spoke), 0.15 + 0.05 * ((hub + spoke) % 7));
    }
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, facts);
}

// Minimal loopback client for --demo: one connect, line in / line out.
class DemoClient {
 public:
  explicit DemoClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    IPDB_CHECK(fd_ >= 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    IPDB_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0)
        << "connect to demo daemon failed";
  }
  ~DemoClient() { ::close(fd_); }

  std::string RoundTrip(const std::string& request) {
    std::string line = request + "\n";
    IPDB_CHECK(::send(fd_, line.data(), line.size(), 0) ==
               static_cast<ssize_t>(line.size()));
    std::string response;
    char ch;
    while (::recv(fd_, &ch, 1, 0) == 1 && ch != '\n') response.push_back(ch);
    return response;
  }

 private:
  int fd_;
};

int RunDemo(int port) {
  DemoClient client(port);
  const char* script[] = {
      "PING",
      "QUERY demo social exists x y. Friend(x, y) & Active(x)",
      "PQUERY demo social exists x y. Friend(x, y) & Active(x)",
      "QUERY demo social exists x. Friend(x)",  // arity error -> ERR
      "METRICS",
      "QUIT",
  };
  for (const char* request : script) {
    std::string response = client.RoundTrip(request);
    if (response.size() > 96) response = response.substr(0, 96) + "...";
    std::printf("  > %s\n  < %s\n", request, response.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = argc > 1 && std::strcmp(argv[1], "--demo") == 0;
  int port = (argc > 1 && !demo) ? std::atoi(argv[1]) : (demo ? 0 : 7432);

  server::Engine engine;
  IPDB_CHECK(engine.RegisterInstance("social", DemoInstance()).ok());
  IPDB_CHECK(engine
                 .RegisterTenant("demo",
                                 "budget_ms=2000 max_in_flight=32 "
                                 "cache_max_entries=64")
                 .ok());

  server::DaemonOptions options;
  options.port = port;
  server::Daemon daemon(&engine, options);
  ipdb::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon failed to start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("serving on localhost:%d (tenant 'demo', instance 'social')\n",
              daemon.port());

  if (demo) {
    RunDemo(daemon.port());
  } else {
    // Block until SIGINT/SIGTERM; the latch keeps the process alive so
    // we can drain instead of dying mid-query.
    server::Daemon::InstallSignalHandler();
    while (!server::Daemon::signal_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("signal received, draining...\n");
  }

  // Graceful shutdown: stop the front door first (no new connections),
  // then the engine (drain in-flight, freeze metrics).
  daemon.Stop();
  IPDB_CHECK(engine.Stop().ok());
  std::string metrics = engine.final_metrics_json();
  std::printf("final metrics snapshot (%zu bytes):\n%.*s%s\n", metrics.size(),
              static_cast<int>(metrics.size() > 256 ? 256 : metrics.size()),
              metrics.c_str(), metrics.size() > 256 ? "..." : "");
  return 0;
}
