// tools/transport_posix.h: the TCP half of the refgend front ends. Both
// ends of a connection run with TCP_NODELAY, and a protocol Session served
// over the accepted socket delivers a job's done event before its wait
// reply, with the same result bytes in both. No timing assertions: Nagle's
// delay is ruled out by reading the socket option back, not by a clock.
#include "../../tools/transport_posix.h"

#include <gtest/gtest.h>
#include <netinet/tcp.h>

#include <string>
#include <thread>

#include "api/protocol.h"

namespace symref::tools {
namespace {

using api::Json;

/// A listener on an ephemeral port plus one dialled/accepted pair.
struct Connection {
  int listen_fd = -1;
  int client_fd = -1;
  int server_fd = -1;

  Connection() {
    std::string error;
    int port = 0;
    listen_fd = listen_on(0, &port, &error);
    EXPECT_GE(listen_fd, 0) << error;
    client_fd = dial(std::to_string(port), &error);
    EXPECT_GE(client_fd, 0) << error;
    server_fd = accept_client(listen_fd, /*timeout_ms=*/10000);
    EXPECT_GE(server_fd, 0);
  }
  ~Connection() {
    if (listen_fd >= 0) ::close(listen_fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
};

int nodelay_of(int fd) {
  int value = -1;
  socklen_t length = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &length), 0);
  return value;
}

Json parse_line(const std::string& line) {
  auto parsed = Json::parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? parsed.take() : Json();
}

TEST(Transport, BothEndsRunWithNodelay) {
  Connection connection;
  ASSERT_GE(connection.client_fd, 0);
  ASSERT_GE(connection.server_fd, 0);
  EXPECT_NE(nodelay_of(connection.client_fd), 0);
  EXPECT_NE(nodelay_of(connection.server_fd), 0);
  ::close(connection.client_fd);
  ::close(connection.server_fd);
}

TEST(Transport, DoneEventPrecedesWaitReplyWithSameResult) {
  Connection connection;
  ASSERT_GE(connection.client_fd, 0);
  ASSERT_GE(connection.server_fd, 0);

  api::protocol::ServerCore core;
  // A jthread: an early ASSERT return closes the client first, which ends
  // the session, and then joins.
  std::jthread server([&core, fd = connection.server_fd] {
    api::protocol::Session session(core, std::make_shared<FdTransport>(fd));
    session.serve();
  });

  std::string done_result;  // the done event's result, as encoded
  std::string wait_result;  // the wait reply's result.result, as encoded
  bool done_before_wait = false;
  {
    FdTransport client(connection.client_fd);
    ASSERT_TRUE(client.write_line(
        R"({"id":1,"method":"compile","params":{"netlist":"R1 in out 1k\nC1 out 0 1u\n"}})"));
    ASSERT_TRUE(client.write_line(
        R"({"id":2,"method":"submit","params":{"circuit_id":"c1","request":{"type":"refgen","spec":{"in":"in","out":"out"}}}})"));
    ASSERT_TRUE(client.write_line(R"({"id":3,"method":"wait","params":{"job_id":"j1"}})"));
    std::string line;
    while (client.read_line(&line)) {
      const Json message = parse_line(line);
      if (const Json* event = message.find("event"); event != nullptr) {
        if (event->as_string() != "done") continue;
        ASSERT_NE(message.find("result"), nullptr) << line;
        done_result = message.find("result")->dump();
        EXPECT_NE(line.find(done_result), std::string::npos);
        // The event leaves in the daemon's compact encoding, which
        // refgen --connect relies on to skip it unparsed.
        EXPECT_EQ(line.rfind(R"({"event":"done",)", 0), 0u) << line;
        continue;
      }
      const Json* id = message.find("id");
      if (id == nullptr || !id->is_number() || id->as_int() != 3) continue;
      done_before_wait = !done_result.empty();
      const Json* reply = message.find("result");
      ASSERT_NE(reply, nullptr) << line;
      ASSERT_NE(reply->find("result"), nullptr) << line;
      wait_result = reply->find("result")->dump();
      // Both results appear verbatim in their raw lines, so comparing the
      // re-encoded forms compares the wire bytes.
      EXPECT_NE(line.find(wait_result), std::string::npos);
      break;
    }
  }  // closing the client ends the session's read loop
  server.join();

  EXPECT_TRUE(done_before_wait);
  ASSERT_FALSE(wait_result.empty());
  EXPECT_EQ(done_result, wait_result);
  EXPECT_NE(done_result.find(R"("status":{"code":"ok")"), std::string::npos) << done_result;
}

}  // namespace
}  // namespace symref::tools
