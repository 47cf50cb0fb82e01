#include "server/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iterator>
#include <sstream>

#include "obs/obs.h"

namespace ipdb {
namespace server {

namespace {

std::atomic<bool> g_signal_requested{false};

void OnSignal(int /*signum*/) {
  g_signal_requested.store(true, std::memory_order_release);
}

const char* QualityName(pqe::AnswerQuality quality) {
  switch (quality) {
    case pqe::AnswerQuality::kExact: return "exact";
    case pqe::AnswerQuality::kInterval: return "interval";
    case pqe::AnswerQuality::kFailed: return "failed";
  }
  return "unknown";
}

/// "ERR CODE message" with newlines flattened (the protocol is
/// line-framed).
std::string ErrorLine(const Status& status) {
  std::string message = status.message();
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  std::string line = "ERR ";
  line += StatusCodeName(status.code());
  if (!message.empty()) {
    line += ' ';
    line += message;
  }
  return line;
}

std::string ResultLine(const QueryResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << "OK " << result.answer.probability << ' ' << result.answer.half_width
      << ' ' << result.answer.confidence << ' '
      << QualityName(result.answer.quality) << ' '
      << (result.answer.lifted ? 1 : 0) << ' ' << (result.degraded ? 1 : 0)
      << ' ' << result.trace_id;
  return out.str();
}

}  // namespace

Daemon::Daemon(Engine* engine, const DaemonOptions& options)
    : engine_(engine), options_(options) {}

Daemon::~Daemon() { Stop(); }

Status Daemon::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return InvalidArgumentError("daemon already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return IPDB_STATUS(StatusCode::kUnavailable)
           << "socket() failed: " << std::strerror(errno);
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      htonl(options_.loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return IPDB_STATUS(StatusCode::kUnavailable)
           << "bind() failed: " << std::strerror(errno);
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return IPDB_STATUS(StatusCode::kUnavailable)
           << "listen() failed: " << std::strerror(errno);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  IPDB_OBS_COUNT("serve.daemon.starts", 1);
  return Status::Ok();
}

void Daemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  {
    // Unblock connection reads so their poll loops observe the flag.
    std::lock_guard<std::mutex> lock(mu_);
    for (const Connection& connection : connections_) {
      if (!connection.finished) ::shutdown(connection.fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) connection.thread.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  IPDB_OBS_COUNT("serve.daemon.stops", 1);
}

void Daemon::InstallSignalHandler() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

bool Daemon::signal_requested() {
  return g_signal_requested.load(std::memory_order_acquire);
}

void Daemon::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Join the threads of closed connections (outside mu_: a finishing
    // Serve takes it), so they do not pile up until Stop.
    std::list<Connection> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        auto next = std::next(it);
        if (it->finished) finished.splice(finished.end(), connections_, it);
        it = next;
      }
    }
    for (Connection& connection : finished) connection.thread.join();
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    connection.thread =
        std::thread([this, &connection] { Serve(&connection); });
    IPDB_OBS_COUNT("serve.daemon.connections", 1);
  }
}

namespace {

/// Sends the whole response, retrying on EINTR; false when the peer is
/// gone (any other error).
bool SendAll(int fd, const std::string& response) {
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t wrote =
        ::send(fd, response.data() + sent, response.size() - sent, 0);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    sent += static_cast<size_t>(wrote);
  }
  return true;
}

}  // namespace

void Daemon::Serve(Connection* connection) {
  const int fd = connection->fd;
  std::string buffer;
  char chunk[4096];
  bool quit = false;
  while (!quit && !stop_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;  // a signal is not a dead peer
      break;
    }
    if (ready == 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or error
    buffer.append(chunk, static_cast<size_t>(n));
    if (buffer.find('\n') == std::string::npos &&
        buffer.size() > kMaxRequestLineBytes) {
      // An unterminated over-long line would buffer without bound;
      // answer once and hang up instead.
      IPDB_OBS_COUNT("serve.daemon.oversized_lines", 1);
      SendAll(fd, "ERR INVALID_ARGUMENT request line exceeds " +
                      std::to_string(kMaxRequestLineBytes) + " bytes\n");
      break;
    }
    size_t newline;
    while (!quit && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::string response = HandleLine(line);
      if (response == "BYE") quit = true;
      response.push_back('\n');
      if (!SendAll(fd, response)) {
        quit = true;
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    connection->finished = true;
  }
  ::close(fd);
}

std::string Daemon::HandleLine(const std::string& line) {
  IPDB_OBS_COUNT("serve.daemon.requests", 1);
  std::istringstream in(line);
  std::string command;
  in >> command;
  if (command.empty()) return "ERR INVALID_ARGUMENT empty request";
  if (command == "PING") return "PONG";
  if (command == "QUIT") return "BYE";
  if (command == "METRICS") return Engine::MetricsJson();
  if (command == "STATS") return engine_->StatsJson();
  if (command == "SAVE" || command == "LOAD") {
    std::string instance;
    in >> instance;
    if (instance.empty()) {
      return "ERR INVALID_ARGUMENT usage: " + command + " <instance>";
    }
    const Status status = command == "SAVE" ? engine_->SaveInstance(instance)
                                            : engine_->LoadInstance(instance);
    if (!status.ok()) return ErrorLine(status);
    return "OK";
  }
  if (command == "TRACE") {
    unsigned long long trace_id = 0;
    if (!(in >> trace_id) || trace_id == 0) {
      return "ERR INVALID_ARGUMENT usage: TRACE <trace-id>";
    }
    StatusOr<std::string> tree =
        engine_->TraceJson(static_cast<uint64_t>(trace_id));
    if (!tree.ok()) return ErrorLine(tree.status());
    return tree.value();
  }
  if (command == "QUERY" || command == "PQUERY") {
    std::string tenant;
    std::string instance;
    in >> tenant >> instance;
    std::string formula;
    std::getline(in, formula);
    const size_t start = formula.find_first_not_of(" \t");
    formula = start == std::string::npos ? "" : formula.substr(start);
    if (tenant.empty() || instance.empty() || formula.empty()) {
      return "ERR INVALID_ARGUMENT usage: " + command +
             " <tenant> <instance> <formula>";
    }
    StatusOr<QueryResult> result = engine_->Query(tenant, instance, formula);
    if (!result.ok()) return ErrorLine(result.status());
    return ResultLine(result.value());
  }
  return "ERR INVALID_ARGUMENT unknown command '" + command + "'";
}

}  // namespace server
}  // namespace ipdb
