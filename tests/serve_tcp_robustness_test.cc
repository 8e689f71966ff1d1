#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "serve/tcp_server.h"
#include "workload/case_study.h"

// Robustness of the TCP front-end (serve/tcp_server.h) against hostile
// or broken clients: malformed statements, oversized request lines,
// deeply nested WHERE clauses, mid-statement disconnects, and meta
// commands racing active writers.
// The invariant throughout: the server replies ERR (never crashes or
// stalls) and the connection — or at least the server — stays
// serviceable for the next well-formed request.

namespace mddc {
namespace serve {
namespace {

int ConnectTo(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendRaw(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool SendLine(int fd, const std::string& line) {
  return SendRaw(fd, line + "\n");
}

/// Reads one full reply (through the '.' terminator line); returns the
/// reply's lines without the terminator.
std::vector<std::string> ReadReply(int fd, std::string* buffer) {
  std::vector<std::string> lines;
  char chunk[4096];
  while (true) {
    std::size_t newline;
    while ((newline = buffer->find('\n')) != std::string::npos) {
      std::string line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      if (line == ".") return lines;
      lines.push_back(std::move(line));
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return lines;  // connection dropped mid-reply
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

class TcpRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cs = BuildCaseStudy();
    ASSERT_TRUE(cs.ok()) << cs.status();
    ASSERT_TRUE(store_.Publish("patients", cs->mo).ok());
    ASSERT_TRUE(tcp_.Start().ok());
    ASSERT_NE(tcp_.port(), 0);
  }

  void TearDown() override { tcp_.Stop(); }

  /// One well-formed query must round-trip OK on `fd` — the
  /// serviceability probe used after every abuse.
  void ExpectServiceable(int fd, std::string* buffer) {
    ASSERT_TRUE(SendLine(fd, "SELECT COUNT FROM patients"));
    const std::vector<std::string> reply = ReadReply(fd, buffer);
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(reply[0], "OK 1") << reply[0];
  }

  MoStore store_;
  MdqlServer server_{&store_};
  TcpServer tcp_{&server_};
};

TEST_F(TcpRobustnessTest, MalformedLinesGetErrAndConnectionSurvives) {
  const int fd = ConnectTo(tcp_.port());
  ASSERT_GE(fd, 0);
  std::string buffer;

  const std::vector<std::string> garbage = {
      "garbage statement",
      "SELECT",
      "SELECT COUNT FROM",
      "INSERT INTO patients FACT",
      "INSERT INTO patients FACT 1 (Name.Name = 'No Such Person')",
      "SELECT COUNT FROM patients WHERE",
      "\x01\x02\x03 binary noise",
      "..",
  };
  for (const std::string& line : garbage) {
    ASSERT_TRUE(SendLine(fd, line)) << line;
    const std::vector<std::string> reply = ReadReply(fd, &buffer);
    ASSERT_FALSE(reply.empty()) << line;
    EXPECT_EQ(reply[0].rfind("ERR ", 0), 0u) << line << " -> " << reply[0];
  }
  ExpectServiceable(fd, &buffer);
  ::close(fd);
}

TEST_F(TcpRobustnessTest, OversizedCompleteLineIsRejected) {
  const int fd = ConnectTo(tcp_.port());
  ASSERT_GE(fd, 0);
  std::string buffer;

  // A complete statement line just past the cap: exactly one ERR, and
  // the connection keeps serving.
  std::string huge = "SELECT COUNT FROM patients WHERE Name.Name = '";
  huge.append(TcpServer::kMaxLineBytes, 'x');
  huge += "'";
  ASSERT_TRUE(SendLine(fd, huge));
  const std::vector<std::string> reply = ReadReply(fd, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0].rfind("ERR ", 0), 0u) << reply[0];
  EXPECT_NE(reply[0].find("exceeds"), std::string::npos) << reply[0];

  ExpectServiceable(fd, &buffer);
  ::close(fd);
}

TEST_F(TcpRobustnessTest, DeeplyNestedWhereGetsErr) {
  const int fd = ConnectTo(tcp_.port());
  ASSERT_GE(fd, 0);
  std::string buffer;

  // 10^4 nested parentheses: ~20 KB, well under the line cap, and deep
  // enough to overflow a connection thread's stack without the parser's
  // nesting bound.
  const std::size_t depth = 10000;
  const std::string nested = "SELECT COUNT FROM patients WHERE " +
                             std::string(depth, '(') +
                             "Name.Name = 'Jane Doe'" +
                             std::string(depth, ')');
  ASSERT_LT(nested.size(), TcpServer::kMaxLineBytes);
  ASSERT_TRUE(SendLine(fd, nested));
  const std::vector<std::string> reply = ReadReply(fd, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0].rfind("ERR ", 0), 0u) << reply[0];
  ExpectServiceable(fd, &buffer);
  ::close(fd);
}

TEST_F(TcpRobustnessTest, OversizedLineWithoutNewlineIsRejectedEarly) {
  const int fd = ConnectTo(tcp_.port());
  ASSERT_GE(fd, 0);
  std::string buffer;

  // Flood past the cap without ever sending a newline: the server must
  // reject (one ERR) instead of buffering without bound...
  const std::string flood(TcpServer::kMaxLineBytes + 4096, 'y');
  ASSERT_TRUE(SendRaw(fd, flood));
  const std::vector<std::string> reply = ReadReply(fd, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0].rfind("ERR ", 0), 0u) << reply[0];

  // ...and once the offending line finally ends, the next statement is
  // served normally.
  ASSERT_TRUE(SendRaw(fd, "more of the same line\n"));
  ExpectServiceable(fd, &buffer);
  ::close(fd);
}

TEST_F(TcpRobustnessTest, MidStatementDisconnectLeavesServerServiceable) {
  // Drop the connection halfway through a statement (no newline sent).
  const int fd = ConnectTo(tcp_.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendRaw(fd, "INSERT INTO patients FACT 912 (Name.Na"));
  ::close(fd);

  // And once more mid-flood of an oversized line.
  const int fd2 = ConnectTo(tcp_.port());
  ASSERT_GE(fd2, 0);
  const std::string flood(TcpServer::kMaxLineBytes * 2, 'z');
  ASSERT_TRUE(SendRaw(fd2, flood));
  ::close(fd2);

  // The server keeps serving fresh connections; the half-sent INSERT
  // was never executed.
  const int fd3 = ConnectTo(tcp_.port());
  ASSERT_GE(fd3, 0);
  std::string buffer;
  ExpectServiceable(fd3, &buffer);
  ASSERT_TRUE(SendLine(fd3, ".epoch"));
  const std::vector<std::string> reply = ReadReply(fd3, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], "OK 1");  // only the Publish; no partial INSERT
  ::close(fd3);
}

TEST_F(TcpRobustnessTest, StatsAndReadsDuringActiveWrites) {
  // One connection hammers INSERTs while another interleaves .stats,
  // .epoch and SELECTs; every reply on both connections must be OK.
  const int writer_fd = ConnectTo(tcp_.port());
  ASSERT_GE(writer_fd, 0);
  std::thread writer([writer_fd] {
    std::string buffer;
    for (int i = 0; i < 20; ++i) {
      const std::string statement =
          "INSERT INTO patients FACT " + std::to_string(7000 + i) +
          " (Name.Name = 'Jane Doe')";
      if (!SendLine(writer_fd, statement)) break;
      const std::vector<std::string> reply = ReadReply(writer_fd, &buffer);
      ASSERT_FALSE(reply.empty());
      EXPECT_EQ(reply[0], "OK 1") << reply[0];
    }
  });

  const int fd = ConnectTo(tcp_.port());
  ASSERT_GE(fd, 0);
  std::string buffer;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(SendLine(fd, ".stats"));
    std::vector<std::string> reply = ReadReply(fd, &buffer);
    ASSERT_GE(reply.size(), 2u);
    EXPECT_EQ(reply[0], "OK");
    EXPECT_NE(reply[1].find("\"queries\""), std::string::npos);

    ASSERT_TRUE(SendLine(fd, ".epoch"));
    reply = ReadReply(fd, &buffer);
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(reply[0].rfind("OK ", 0), 0u) << reply[0];

    ExpectServiceable(fd, &buffer);
  }
  writer.join();
  ::close(writer_fd);
  ::close(fd);
}

TEST_F(TcpRobustnessTest, StopLeavesReusedFdNumbersAlone) {
  // Clients that .quit: the server closes its end of each connection and
  // so releases those fd numbers, while the clients keep theirs open.
  std::vector<int> clients;
  for (int i = 0; i < 3; ++i) {
    const int fd = ConnectTo(tcp_.port());
    ASSERT_GE(fd, 0);
    clients.push_back(fd);
    std::string buffer;
    ExpectServiceable(fd, &buffer);
    ASSERT_TRUE(SendLine(fd, ".quit"));
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "expected EOF";
  }
  // A socketpair takes the lowest free fd numbers: the ones the server
  // just closed. Stop() must not shut them down.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  tcp_.Stop();
  const char out = 'x';
  EXPECT_EQ(::send(pair[0], &out, 1, MSG_NOSIGNAL), 1);
  char in = 0;
  EXPECT_EQ(::recv(pair[1], &in, 1, MSG_DONTWAIT), 1);
  EXPECT_EQ(in, 'x');
  ::close(pair[0]);
  ::close(pair[1]);
  for (int fd : clients) ::close(fd);
}

}  // namespace
}  // namespace serve
}  // namespace mddc
