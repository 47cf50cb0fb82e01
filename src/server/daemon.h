#ifndef IPDB_SERVER_DAEMON_H_
#define IPDB_SERVER_DAEMON_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "server/engine.h"
#include "util/status.h"

namespace ipdb {
namespace server {

/// Daemon knobs. Port 0 binds an ephemeral port (tests); the bound port
/// is readable from port() after Start.
struct DaemonOptions {
  int port = 0;
  /// Loopback-only by default; set false to bind INADDR_ANY.
  bool loopback_only = true;
};

/// A thin TCP line-protocol front door over an Engine — one request per
/// line, one response line per request, so any client (netcat, a bench
/// harness, a test socket) can speak it without a library. Commands:
///
///   PING                                  -> PONG
///   QUERY  <tenant> <instance> <formula>  -> OK <p> <half_width>
///                                            <confidence> <quality>
///                                            <lifted> <degraded>
///                                            <trace-id>
///   PQUERY <tenant> <instance> <formula>  -> an alias of QUERY
///   METRICS                               -> the single-line
///                                            ipdb-metrics-v1 JSON
///   STATS                                 -> the single-line
///                                            ipdb-stats-v1 JSON
///                                            (per-tenant rollups + SLO
///                                            burn-rate states)
///   TRACE <trace-id>                      -> the single-line
///                                            ipdb-trace-tree-v1 JSON
///                                            span tree for a sampled
///                                            request (id from a QUERY
///                                            response)
///   SAVE <instance>                       -> OK (snapshots the named
///                                            instance to the engine's
///                                            durability directory)
///   LOAD <instance>                       -> OK (recovers + registers
///                                            the instance from disk)
///   QUIT                                  -> BYE (connection closes)
///
/// Request lines are capped at kMaxRequestLineBytes: a connection that
/// streams more than that without a newline gets one `ERR` line and is
/// closed instead of buffering without bound.
///
/// Failures answer `ERR <CODE> <message>` with the Status code name
/// (UNAVAILABLE = shed or stopping; INVALID_ARGUMENT = unknown names or
/// a malformed formula) — a bad request never takes the daemon down.
/// The formula is the rest of the line, spaces included.
///
/// Threading: one accept loop thread plus one thread per open
/// connection, all polling a stop flag at ~100ms, so Stop converges
/// without racing blocked reads. The accept loop joins the threads of
/// closed connections before it admits a new one. The daemon does not
/// own the Engine; Stop() quiesces the daemon only (stop the engine
/// afterwards for the full drain).
class Daemon {
 public:
  /// Longest accepted request line (bytes, excluding the newline).
  static constexpr size_t kMaxRequestLineBytes = 64 * 1024;

  /// `engine` must outlive the daemon.
  Daemon(Engine* engine, const DaemonOptions& options = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, listens and spawns the accept loop (kUnavailable when the
  /// socket layer refuses — callers in sandboxed tests skip).
  Status Start();

  /// Stops accepting, shuts down live connections, joins all threads
  /// (idempotent).
  void Stop();

  /// The bound port (0 before a successful Start).
  int port() const { return port_; }

  /// Process-wide SIGINT/SIGTERM latch for daemon mains: installs a
  /// handler that records the signal (async-signal-safe store) instead
  /// of killing the process, so the main loop can drain the engine
  /// before exiting.
  static void InstallSignalHandler();
  static bool signal_requested();

 private:
  /// One accepted connection. Serve sets `finished` under mu_ just
  /// before it closes `fd`: from then on the descriptor number may be
  /// reused, so Stop must not shut it down, and the thread is ready to
  /// be joined.
  struct Connection {
    int fd = -1;
    bool finished = false;  // guarded by mu_
    std::thread thread;
  };

  void AcceptLoop();
  void Serve(Connection* connection);
  /// One request line -> one response line (no trailing newline).
  std::string HandleLine(const std::string& line);

  Engine* engine_;
  DaemonOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  std::mutex mu_;
  std::list<Connection> connections_;  // guarded by mu_
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace server
}  // namespace ipdb

#endif  // IPDB_SERVER_DAEMON_H_
