#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace perfbench {

/// A blocking client of the serving tier's TCP line protocol
/// (serve/tcp_server.h): one request line out, one reply in, where a
/// reply ends with a line holding a single '.'.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() { Close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects to 127.0.0.1:`port`.
  mddc::Status Connect(std::uint16_t port);

  /// Sends `line` and returns the whole reply, terminator included,
  /// byte for byte as the server sent it.
  mddc::Result<std::string> RoundTrip(const std::string& line);

  /// Sends ".quit" when connected, then closes the socket. Idempotent.
  void Close();

 private:
  int fd_ = -1;
  std::string pending_;  // bytes received past the last reply
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
