// The helpers shared by the UDP driver and the rendezvous exchange: the
// seconds -> ppoll() timeout conversion behind both pump loops' deadline waits,
// and "host:port" parsing with each caller's accepted forms.

#include "src/net/socket_util.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/common/rng.h"

namespace p2 {
namespace {

// The exact value of `seconds` minus `ts`, in ns, reduced to its sign (fma
// rounds once, so the sign is exact): < 0 means `ts` is longer than the wait.
double ExcessSign(double seconds, const timespec& ts) {
  double ns = static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
  return std::fma(seconds, 1e9, -ns);
}

TEST(SocketUtilTest, WaitTimespecTruncatesToWholeNanoseconds) {
  timespec half_ms = WaitTimespec(0.0005);
  EXPECT_EQ(half_ms.tv_sec, 0);
  EXPECT_EQ(half_ms.tv_nsec, 500000);

  timespec t = WaitTimespec(1.25);
  EXPECT_EQ(t.tv_sec, 1);
  EXPECT_EQ(t.tv_nsec, 250000000);

  // The double nearest 0.3 lies just below 3/10 s, so the wait is 1 ns short of
  // 300 ms; rounding the product to nearest would overshoot it.
  timespec below = WaitTimespec(0.3);
  EXPECT_EQ(below.tv_sec, 0);
  EXPECT_EQ(below.tv_nsec, 299999999);

  timespec sub_ns = WaitTimespec(0.4e-9);
  EXPECT_EQ(sub_ns.tv_sec, 0);
  EXPECT_EQ(sub_ns.tv_nsec, 0);
}

TEST(SocketUtilTest, WaitTimespecClampsNonPositiveAndOversizedWaits) {
  for (double wait : {0.0, -0.0, -1e-9, -5.0, -std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    timespec t = WaitTimespec(wait);
    EXPECT_EQ(t.tv_sec, 0) << wait;
    EXPECT_EQ(t.tv_nsec, 0) << wait;
  }
  for (double wait : {kMaxWaitSeconds, kMaxWaitSeconds + 1e-6, 1e12,
                      std::numeric_limits<double>::infinity()}) {
    timespec t = WaitTimespec(wait);
    EXPECT_EQ(t.tv_sec, 3600) << wait;
    EXPECT_EQ(t.tv_nsec, 0) << wait;
  }
  timespec just_under = WaitTimespec(std::nextafter(kMaxWaitSeconds, 0.0));
  EXPECT_EQ(just_under.tv_sec, 3599);
  EXPECT_EQ(just_under.tv_nsec, 999999999);
}

TEST(SocketUtilTest, WaitTimespecNeverRoundsUp) {
  // Each result is the exact wait's floor: not above it, and less than 1 ns
  // below it. Decimal waits are where a rounded product lands on a whole
  // nanosecond, since the double nearest k / 10^d lies just off it; random
  // waits span sub-microsecond to about half an hour.
  std::vector<double> waits;
  for (int d = 1; d <= 9; ++d) {
    for (int k = 1; k < 2000; ++k) {
      waits.push_back(k / std::pow(10.0, d));
    }
  }
  Rng rng(2024);
  for (int i = 0; i < 100000; ++i) {
    int exponent = static_cast<int>(rng.NextBelow(44)) - 32;
    waits.push_back(std::ldexp(rng.NextDouble(), exponent));
  }
  for (double wait : waits) {
    timespec t = WaitTimespec(wait);
    ASSERT_GE(t.tv_nsec, 0);
    ASSERT_LT(t.tv_nsec, 1000000000);
    ASSERT_GE(ExcessSign(wait, t), 0.0) << "rounded up: " << wait;
    timespec next = t;
    ++next.tv_nsec;
    ASSERT_LT(ExcessSign(wait, next), 0.0) << "more than 1 ns short: " << wait;
  }
}

TEST(SocketUtilTest, ParseAddrAcceptsEachCallersForms) {
  sockaddr_in addr;
  ASSERT_TRUE(ParseAddr("127.0.0.1:9000", &addr));
  EXPECT_EQ(ntohs(addr.sin_port), 9000);
  EXPECT_EQ(addr.sin_addr.s_addr, htonl(INADDR_LOOPBACK));

  // A driver destination needs a host and a real port.
  EXPECT_FALSE(ParseAddr(":9000", &addr));
  EXPECT_FALSE(ParseAddr("127.0.0.1:0", &addr));
  EXPECT_FALSE(ParseAddr("127.0.0.1:65536", &addr));
  EXPECT_FALSE(ParseAddr("n3", &addr));
  EXPECT_FALSE(ParseAddr("localhost:9000", &addr));

  // A rendezvous address may omit the host; only a local bind may ask for port 0.
  AddrSyntax control{.empty_host_is_loopback = true};
  ASSERT_TRUE(ParseAddr(":9000", &addr, control));
  EXPECT_EQ(addr.sin_addr.s_addr, htonl(INADDR_LOOPBACK));
  EXPECT_FALSE(ParseAddr(":0", &addr, control));
  AddrSyntax bind{.empty_host_is_loopback = true, .allow_zero_port = true};
  ASSERT_TRUE(ParseAddr(":0", &addr, bind));
  EXPECT_EQ(addr.sin_port, 0);
}

}  // namespace
}  // namespace p2
