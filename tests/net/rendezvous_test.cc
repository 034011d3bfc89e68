// The fleetd rendezvous exchange (src/net/rendezvous.h), run in one process: the
// seed and its joiners each run RendezvousExchange on their own thread with their
// own local map, talking over loopback control sockets exactly as separate
// fleetd processes do.

#include "src/net/rendezvous.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

namespace p2 {
namespace {

using AddrMap = std::map<std::string, std::string>;

// A loopback UDP port that was free a moment ago: a probe socket binds port 0
// and reports what the kernel picked. Parallel test runs never share a port.
std::string FreeControlAddr() {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
}

struct Outcome {
  bool ok = false;
  AddrMap full;
  std::string error;
};

// Runs the seed (index 0, expecting every process) and one joiner per further
// local map, each on its own thread, and returns their outcomes in order.
std::vector<Outcome> RunProcesses(const std::vector<AddrMap>& locals,
                                  double joiner_timeout) {
  const std::string control = FreeControlAddr();
  std::vector<Outcome> out(locals.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < locals.size(); ++i) {
    RendezvousConfig config;
    config.retry = 0.05;
    if (i == 0) {
      config.listen = control;
      config.expected = static_cast<int>(locals.size());
      config.timeout = 10.0;
    } else {
      config.seed_addr = control;
      config.timeout = joiner_timeout;
    }
    threads.emplace_back([config, &locals, &out, i] {
      out[i].ok = RendezvousExchange(config, locals[i], &out[i].full, &out[i].error);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return out;
}

TEST(RendezvousTest, SeedAndJoinersLearnTheUnionOfTheirMaps) {
  std::vector<AddrMap> locals = {
      {{"n0", "127.0.0.1:7000"}, {"n3", "127.0.0.1:7003"}},
      {{"n1", "127.0.0.1:7001"}},
      {{"n2", "127.0.0.1:7002"}, {"n4", "127.0.0.1:7004"}},
  };
  AddrMap all;
  for (const AddrMap& local : locals) {
    all.insert(local.begin(), local.end());
  }
  std::vector<Outcome> out = RunProcesses(locals, /*joiner_timeout=*/10.0);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].ok) << "process " << i << ": " << out[i].error;
    EXPECT_EQ(out[i].full, all) << "process " << i;
  }
}

TEST(RendezvousTest, OneNameFromTwoProcessesFails) {
  std::vector<AddrMap> locals = {
      {{"n0", "127.0.0.1:7000"}},
      {{"n1", "127.0.0.1:7001"}},
      {{"n1", "127.0.0.1:7002"}},
  };
  // The seed stops at the second registration of n1; the joiners then never get
  // a map and time out on their own.
  std::vector<Outcome> out = RunProcesses(locals, /*joiner_timeout=*/0.5);
  EXPECT_FALSE(out[0].ok);
  EXPECT_EQ(out[0].error, "rendezvous: node 'n1' registered by two processes");
  EXPECT_FALSE(out[1].ok);
  EXPECT_FALSE(out[2].ok);
}

TEST(RendezvousTest, SeedTimesOutWithoutJoiners) {
  RendezvousConfig config;
  config.listen = FreeControlAddr();
  config.expected = 2;
  config.timeout = 0.3;
  AddrMap full;
  std::string error;
  EXPECT_FALSE(RendezvousExchange(config, {{"n0", "127.0.0.1:7000"}}, &full, &error));
  EXPECT_EQ(error, "rendezvous: timeout with 0 of 1 joiners registered");
}

}  // namespace
}  // namespace p2
