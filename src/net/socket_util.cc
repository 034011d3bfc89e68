#include "src/net/socket_util.h"

#include <arpa/inet.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace p2 {

bool ParseAddr(const std::string& addr, sockaddr_in* out, AddrSyntax syntax) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    return false;
  }
  std::string host = colon == 0 && syntax.empty_host_is_loopback
                         ? "127.0.0.1"
                         : addr.substr(0, colon);
  int port = std::atoi(addr.c_str() + colon + 1);
  if (port < (syntax.allow_zero_port ? 0 : 1) || port > 65535) {
    return false;
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

timespec WaitTimespec(double seconds) {
  if (!(seconds > 0)) {
    return timespec{0, 0};
  }
  if (seconds >= kMaxWaitSeconds) {
    return timespec{static_cast<time_t>(kMaxWaitSeconds), 0};
  }
  const double whole = std::floor(seconds);
  const double frac = seconds - whole;  // exact (Sterbenz)
  double ns = std::floor(frac * 1e9);
  // The product is rounded to nearest; when that carried it up onto a whole
  // nanosecond, the exact product lies below it (fma's sign is exact).
  if (std::fma(frac, 1e9, -ns) < 0) {
    ns -= 1;
  }
  return timespec{static_cast<time_t>(whole), static_cast<long>(ns)};
}

}  // namespace p2
