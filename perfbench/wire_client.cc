#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace perfbench {

using mddc::Status;
using mddc::StrCat;

Status LineClient::Connect(std::uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::InvariantViolation(
        StrCat("socket() failed: ", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int error = errno;
    ::close(fd_);
    fd_ = -1;
    return Status::InvariantViolation(
        StrCat("connect() failed: ", std::strerror(error)));
  }
  return Status::OK();
}

mddc::Result<std::string> LineClient::RoundTrip(const std::string& line) {
  if (fd_ < 0) return Status::InvariantViolation("client is not connected");
  const std::string request = line + "\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::InvariantViolation(
          StrCat("send() failed: ", std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
  // The status line never is ".", so the first "\n.\n" ends the reply.
  char buffer[16384];
  std::size_t scan_from = 0;
  while (true) {
    const std::size_t end = pending_.find("\n.\n", scan_from);
    if (end != std::string::npos) {
      std::string reply = pending_.substr(0, end + 3);
      pending_.erase(0, end + 3);
      return reply;
    }
    scan_from = pending_.size() < 2 ? 0 : pending_.size() - 2;
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::InvariantViolation("connection closed mid-reply");
    }
    pending_.append(buffer, static_cast<std::size_t>(n));
  }
}

void LineClient::Close() {
  if (fd_ < 0) return;
  static const char kQuit[] = ".quit\n";
  ::send(fd_, kQuit, sizeof(kQuit) - 1, MSG_NOSIGNAL);
  ::close(fd_);
  fd_ = -1;
  pending_.clear();
}

}  // namespace perfbench
