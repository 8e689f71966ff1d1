#ifndef MDDC_SERVE_TCP_SERVER_H_
#define MDDC_SERVE_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "serve/mdql_server.h"

namespace mddc {
namespace serve {

/// A line-oriented TCP front-end over MdqlServer: one connection = one
/// ServerSession, one thread. Listens on 127.0.0.1 only (this is a
/// paper-repro serving tier, not a hardened network daemon).
///
/// Protocol — one request per line, every reply terminated by a line
/// holding a single '.':
///
///   client:  SELECT COUNT FROM patients BY Diagnosis."Diagnosis Group"
///   server:  OK 3
///            <rendered table, one line per row>
///            .
///
///   client:  INSERT INTO patients FACT 7 (Residence.City = 'Aalborg')
///   server:  OK 1
///            <acknowledgment table>
///            .
///
///   client:  SELECT FROM            (or any error)
///   server:  ERR <status message>
///            .
///
/// Meta commands: ".epoch" (current store epoch), ".stats" (this
/// session's SessionStats as JSON), ".quit" (server closes the
/// connection).
///
/// Requests longer than kMaxLineBytes are rejected with one ERR reply
/// and the rest of the oversized line is discarded, so a hostile or
/// buggy client cannot grow the per-connection buffer without bound and
/// the connection stays usable for the next statement.
class TcpServer {
 public:
  /// Upper bound on one request line (statement text). Generous for any
  /// real MDQL statement; small enough that a garbage flood cannot
  /// exhaust memory through the line buffer.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  /// `server` must outlive this object.
  explicit TcpServer(MdqlServer* server) : server_(server) {}
  ~TcpServer() { Stop(); }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  /// accept loop.
  Status Start(std::uint16_t port = 0);

  /// The bound port; valid after a successful Start().
  std::uint16_t port() const { return port_; }

  /// Shuts the listener and every open connection down and joins all
  /// threads. Idempotent; also run by the destructor.
  void Stop();

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Joins the threads of connections that have finished.
  void ReapFinished();

  MdqlServer* server_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  // Connection bookkeeping, under conn_mu_. A finished connection
  // removes its fd before closing it (so Stop() never shuts down a
  // reused fd number) and files its thread id for the accept loop to
  // join, so neither container outgrows the open connections.
  std::mutex conn_mu_;
  std::vector<int> conn_fds_;  // open connections, for Stop()
  std::map<std::thread::id, std::thread> conn_threads_;
  std::vector<std::thread::id> finished_;
};

}  // namespace serve
}  // namespace mddc

#endif  // MDDC_SERVE_TCP_SERVER_H_
