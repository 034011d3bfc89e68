#include "src/net/rendezvous.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>

#include "src/common/strings.h"
#include "src/net/socket_util.h"

namespace p2 {

namespace {

constexpr char kMagic[] = "P2RDV1";
constexpr size_t kMaxDatagram = 65000;  // stay under the UDP payload ceiling

// Control addresses may omit the host (":port" means 127.0.0.1); a local bind
// may also ask for port 0 (kernel-assigned ephemeral port).
constexpr AddrSyntax kControlAddr{.empty_host_is_loopback = true};
constexpr AddrSyntax kControlBind{.empty_host_is_loopback = true,
                                  .allow_zero_port = true};

std::string RenderEntries(const std::map<std::string, std::string>& entries) {
  std::string out;
  for (const auto& [name, addr] : entries) {
    out += "\n" + name + " " + addr;
  }
  return out;
}

// Parses the "name host:port" lines after the header into `entries`.
bool ParseEntries(const std::string& body, size_t header_end,
                  std::map<std::string, std::string>* entries) {
  std::istringstream in(body.substr(header_end));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 == line.size()) {
      return false;
    }
    (*entries)[line.substr(0, space)] = line.substr(space + 1);
  }
  return true;
}

// One bound control socket with timed receive.
class ControlSocket {
 public:
  ~ControlSocket() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool Bind(const std::string& listen, std::string* error) {
    sockaddr_in addr;
    if (!ParseAddr(listen.empty() ? ":0" : listen, &addr, kControlBind)) {
      *error = "rendezvous: bad control address: " + listen;
      return false;
    }
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) {
      *error = "rendezvous: socket() failed";
      return false;
    }
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = "rendezvous: bind(" + listen + ") failed";
      return false;
    }
    return true;
  }

  bool SendTo(const std::string& msg, const sockaddr_in& to) {
    return ::sendto(fd_, msg.data(), msg.size(), 0,
                    reinterpret_cast<const sockaddr*>(&to), sizeof(to)) >= 0;
  }

  // Waits up to `wait` seconds for one datagram; false on timeout.
  bool RecvFrom(double wait, std::string* msg, sockaddr_in* from) {
    pollfd pfd{fd_, POLLIN, 0};
    timespec timeout = WaitTimespec(wait);
    if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0) {
      return false;
    }
    char buffer[65536];
    socklen_t len = sizeof(*from);
    ssize_t n = ::recvfrom(fd_, buffer, sizeof(buffer), 0,
                           reinterpret_cast<sockaddr*>(from), &len);
    if (n <= 0) {
      return false;
    }
    msg->assign(buffer, static_cast<size_t>(n));
    return true;
  }

 private:
  int fd_ = -1;
};

// Comparable identity for a registrant (its control-socket source address).
std::pair<uint32_t, uint16_t> SourceKey(const sockaddr_in& from) {
  return {from.sin_addr.s_addr, from.sin_port};
}

bool RunSeed(const RendezvousConfig& config,
             const std::map<std::string, std::string>& local,
             std::map<std::string, std::string>* full, std::string* error) {
  ControlSocket sock;
  if (!sock.Bind(config.listen, error)) {
    return false;
  }
  *full = local;
  std::map<std::pair<uint32_t, uint16_t>, sockaddr_in> registered;
  std::set<std::pair<uint32_t, uint16_t>> acked;
  const size_t joiners = static_cast<size_t>(config.expected - 1);
  const double deadline = SteadySeconds() + config.timeout;
  double next_offer = 0;  // re-offer the MAP to un-acked joiners at this instant
  while (true) {
    bool complete = registered.size() == joiners;
    if (complete && acked.size() == joiners) {
      return true;
    }
    double now = SteadySeconds();
    if (now >= deadline) {
      if (complete) {
        // Every process registered and got the map offered at least once; a
        // straggler ACK lost on the wire should not fail the deployment.
        return true;
      }
      *error = StrFormat("rendezvous: timeout with %zu of %zu joiners registered",
                         registered.size(), joiners);
      return false;
    }
    if (complete && now >= next_offer) {
      std::string map_msg = std::string(kMagic) + " MAP" + RenderEntries(*full);
      if (map_msg.size() > kMaxDatagram) {
        *error = "rendezvous: address map exceeds one datagram";
        return false;
      }
      for (const auto& [key, addr] : registered) {
        if (acked.count(key) == 0) {
          sock.SendTo(map_msg, addr);
        }
      }
      next_offer = now + config.retry;
    }
    std::string msg;
    sockaddr_in from;
    double wait = std::min(deadline, complete ? next_offer : deadline) - now;
    if (!sock.RecvFrom(std::min(wait, config.retry), &msg, &from)) {
      continue;
    }
    if (msg.rfind(std::string(kMagic) + " ACK", 0) == 0) {
      acked.insert(SourceKey(from));
      continue;
    }
    if (msg.rfind(std::string(kMagic) + " REG", 0) == 0) {
      std::map<std::string, std::string> entries;
      if (!ParseEntries(msg, std::strlen(kMagic) + 4, &entries)) {
        continue;  // malformed datagram: ignore, the joiner re-sends
      }
      for (const auto& [name, addr] : entries) {
        auto it = full->find(name);
        if (it != full->end() && it->second != addr &&
            registered.count(SourceKey(from)) == 0) {
          *error = "rendezvous: node '" + name + "' registered by two processes";
          return false;
        }
        (*full)[name] = addr;
      }
      registered[SourceKey(from)] = from;
      next_offer = 0;  // a (re-)registration deserves an immediate map offer
    }
  }
}

bool RunJoiner(const RendezvousConfig& config,
               const std::map<std::string, std::string>& local,
               std::map<std::string, std::string>* full, std::string* error) {
  sockaddr_in seed;
  if (!ParseAddr(config.seed_addr, &seed, kControlAddr)) {
    *error = "rendezvous: bad seed address: " + config.seed_addr;
    return false;
  }
  ControlSocket sock;
  if (!sock.Bind("", error)) {  // ephemeral control port = this process's identity
    return false;
  }
  std::string reg_msg = std::string(kMagic) + " REG" + RenderEntries(local);
  if (reg_msg.size() > kMaxDatagram) {
    *error = "rendezvous: registration exceeds one datagram";
    return false;
  }
  const double deadline = SteadySeconds() + config.timeout;
  double next_reg = 0;
  while (true) {
    double now = SteadySeconds();
    if (now >= deadline) {
      *error = "rendezvous: timeout waiting for the address map from " +
               config.seed_addr;
      return false;
    }
    if (now >= next_reg) {
      sock.SendTo(reg_msg, seed);
      next_reg = now + config.retry;
    }
    std::string msg;
    sockaddr_in from;
    if (!sock.RecvFrom(std::min(next_reg, deadline) - now, &msg, &from)) {
      continue;
    }
    if (msg.rfind(std::string(kMagic) + " MAP", 0) != 0) {
      continue;
    }
    full->clear();
    if (!ParseEntries(msg, std::strlen(kMagic) + 4, full)) {
      continue;  // corrupt map datagram: wait for the re-offer
    }
    sock.SendTo(std::string(kMagic) + " ACK", seed);
    return true;
  }
}

}  // namespace

bool RendezvousExchange(const RendezvousConfig& config,
                        const std::map<std::string, std::string>& local,
                        std::map<std::string, std::string>* full,
                        std::string* error) {
  full->clear();
  const bool is_seed = !config.listen.empty();
  if (is_seed == !config.seed_addr.empty()) {
    *error = "rendezvous: exactly one of listen / seed_addr must be set";
    return false;
  }
  if (is_seed && config.expected < 1) {
    *error = "rendezvous: expected must be >= 1";
    return false;
  }
  return is_seed ? RunSeed(config, local, full, error)
                 : RunJoiner(config, local, full, error);
}

}  // namespace p2
