// Helpers shared by the two modules that use real sockets, the UDP driver and
// the fleetd rendezvous exchange: "host:port" parsing, the monotonic wall
// clock, and the conversion of a wait into a nanosecond ppoll() timeout.

#ifndef SRC_NET_SOCKET_UTIL_H_
#define SRC_NET_SOCKET_UTIL_H_

#include <netinet/in.h>
#include <time.h>

#include <string>

namespace p2 {

// The "host:port" forms ParseAddr accepts. The default is a dotted IPv4 host
// and a port in 1..65535, as the UDP driver's destinations need.
struct AddrSyntax {
  bool empty_host_is_loopback = false;  // ":9000" means 127.0.0.1:9000
  bool allow_zero_port = false;         // port 0 = kernel-assigned (local binds)
};

// Parses "127.0.0.1:9000" into a sockaddr. Returns false on malformed input.
bool ParseAddr(const std::string& addr, sockaddr_in* out, AddrSyntax syntax = {});

// Monotonic wall-clock seconds (std::chrono::steady_clock).
double SteadySeconds();

// The longest timeout WaitTimespec returns.
constexpr double kMaxWaitSeconds = 3600.0;

// The ppoll() timeout for a wait of `seconds`, truncated toward zero to whole
// nanoseconds and never rounded up: a wake a few ns early costs one more
// zero-timeout pass, while a wait rounded past the due instant costs a whole
// extra wake. A wait <= 0 (or NaN) is a zero timeout; longer waits than
// kMaxWaitSeconds are capped.
timespec WaitTimespec(double seconds);

}  // namespace p2

#endif  // SRC_NET_SOCKET_UTIL_H_
