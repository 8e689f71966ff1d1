#include "serve/tcp_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "common/strings.h"

namespace mddc {
namespace serve {
namespace {

/// Writes the whole buffer, retrying on short writes and EINTR. A false
/// return means the peer is gone; the caller drops the connection.
bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// One full reply: status line, optional payload lines, '.' terminator.
std::string Reply(const std::string& status_line, const std::string& payload) {
  std::string reply = status_line;
  reply += '\n';
  if (!payload.empty()) {
    reply += payload;
    if (reply.back() != '\n') reply += '\n';
  }
  reply += ".\n";
  return reply;
}

}  // namespace

Status TcpServer::Start(std::uint16_t port) {
  if (listen_fd_ >= 0) {
    return Status::InvariantViolation("TcpServer already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::InvariantViolation(
        StrCat("socket() failed: ", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::InvariantViolation(StrCat("bind() failed: ", error));
  }
  if (::listen(fd, /*backlog=*/16) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::InvariantViolation(StrCat("listen() failed: ", error));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::InvariantViolation(
        StrCat("getsockname() failed: ", error));
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept() and every in-flight recv(), then join.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::map<std::thread::id, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
    finished_.clear();
  }
  for (auto& [id, t] : threads) {
    if (t.joinable()) t.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void TcpServer::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::thread::id id : finished_) {
      auto it = conn_threads_.find(id);
      if (it == conn_threads_.end()) continue;
      done.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_.clear();
  }
  // Each has filed itself as its last act, so the joins are immediate.
  for (std::thread& t : done) t.join();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    ReapFinished();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or unrecoverable): exit the loop
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    // Registered under conn_mu_, which the thread needs to file itself
    // as finished, so the id is in the map before it can be filed.
    std::thread thread([this, fd] { ServeConnection(fd); });
    const std::thread::id id = thread.get_id();
    conn_threads_.emplace(id, std::move(thread));
  }
}

void TcpServer::ServeConnection(int fd) {
  ServerSession session = server_->Connect();
  std::string buffer;
  char chunk[4096];
  bool open = true;
  // Set while discarding the tail of an oversized request line: the ERR
  // reply has already been sent, and everything up to the next newline
  // belongs to the rejected line.
  bool skipping_line = false;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or connection shut down
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (skipping_line) {  // tail of a rejected oversized line
        skipping_line = false;
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.size() > kMaxLineBytes) {
        if (!SendAll(fd, Reply(StrCat("ERR request line exceeds ",
                                      kMaxLineBytes, " bytes"),
                               ""))) {
          open = false;
        }
        continue;
      }
      if (line == ".quit") {
        open = false;
        break;
      }
      std::string reply;
      if (line == ".epoch") {
        reply = Reply(StrCat("OK ", server_->store().epoch()), "");
      } else if (line == ".stats") {
        reply = Reply("OK", session.StatsJson());
      } else {
        auto result = session.Execute(line);
        reply = result.ok()
                    ? Reply(StrCat("OK ", result->rows.size()),
                            result->ToString())
                    : Reply(StrCat("ERR ", result.status().message()), "");
      }
      if (!SendAll(fd, reply)) open = false;
    }
    // A partial line that already exceeds the cap can never become a
    // valid request; reject it now (one ERR) and discard until its
    // newline arrives instead of buffering it without bound.
    if (open && buffer.size() > kMaxLineBytes) {
      if (!skipping_line) {
        skipping_line = true;
        if (!SendAll(fd, Reply(StrCat("ERR request line exceeds ",
                                      kMaxLineBytes, " bytes"),
                               ""))) {
          open = false;
        }
      }
      buffer.clear();
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
    finished_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

}  // namespace serve
}  // namespace mddc
