// UdpDriver: runs engine nodes over real UDP sockets in wall-clock time.
//
// The simulated Network covers everything the paper evaluates, but P2 itself was a
// deployable system over UDP (21 real processes in the paper's testbed). This driver
// is the production transport behind `FleetConfig::backend = kUdp` — it bridges the
// two worlds without changing a line of any OverLog program or engine module:
//
//  * each attached node keeps its logical address (e.g. "n3") and owns a bound,
//    non-blocking UDP socket; a peer map (logical name -> "host:port") routes
//    outbound tuples, seeded by local self-registration and extended across
//    processes by the fleetd rendezvous exchange (docs/DEPLOYMENT.md);
//  * the Network runs in external-only mode: every non-self tuple — including
//    tuples between two nodes of the same process — leaves through a socket, so a
//    single-process deployment exercises the identical transport path;
//  * outbound envelopes bound for the same destination within one pump iteration
//    coalesce into a single batched datagram (wire.h batch frames), cutting
//    syscall and header overhead on gossip-heavy monitors; unbatched datagrams
//    from legacy senders are still accepted;
//  * the Network's virtual clock is pumped against the wall clock by a ppoll()
//    event loop: it sleeps until the next timer's exact deadline (nanosecond
//    timeout, truncated, with the thread's timer slack held at 1 ns) or the next
//    datagram, never busy-waits, and re-anchors wall->virtual per RunFor call, so
//    repeated short slices never accumulate drift — each RunFor(dt) advances
//    virtual time by exactly dt.
//
// The reliable transport, overload limits, and sysChannelStat/metrics surfaces all
// live in Node, above the transport, so the real path inherits retransmit,
// backpressure, and observability unchanged. One driver per process; several
// processes (launched by src/tools/fleetd) form a deployment. Single-threaded: the
// caller owns the pump loop via RunFor (normally through Fleet::RunFor).

#ifndef SRC_NET_UDP_DRIVER_H_
#define SRC_NET_UDP_DRIVER_H_

#include <netinet/in.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/net/fleet.h"
#include "src/net/network.h"
#include "src/net/wire.h"
#include "src/trace/metrics.h"

namespace p2 {

class UdpDriver {
 public:
  // Installs itself as the fleet network's external gateway and switches the
  // network to external-only routing. Constructed by Fleet under backend kUdp;
  // reachable via Fleet::udp().
  explicit UdpDriver(Fleet* fleet);
  ~UdpDriver();

  UdpDriver(const UdpDriver&) = delete;
  UdpDriver& operator=(const UdpDriver&) = delete;

  // Binds a non-blocking UDP socket on FleetConfig::udp_host:`port` (0 =
  // ephemeral) and creates a node addressed `name` (empty name = "host:port").
  // Registers name -> socket address in the peer map. Returns an invalid handle
  // and sets `error` on failure. Normal path: Fleet::AddNode, which derives the
  // node seed first and then calls this.
  NodeHandle CreateNode(const std::string& name, uint16_t port, NodeOptions options,
                        std::string* error);

  // ---- peer map (logical name -> "host:port") ----
  // Remote nodes must be registered before tuples addressed to them can leave;
  // unregistered destinations that do not parse as "host:port" themselves are
  // counted in unroutable_dropped(). fleetd feeds this from the rendezvous MAP.
  void RegisterPeer(const std::string& name, const std::string& socket_addr);
  // Socket address for `name` ("" if unknown).
  std::string SocketAddrOf(const std::string& name) const;
  // name -> socket address for the nodes hosted by THIS driver (the rendezvous
  // REG payload).
  std::map<std::string, std::string> LocalMap() const;

  // Pumps timers and sockets for `wall_seconds` of real time. Virtual time
  // advances by exactly `wall_seconds` (anchored at call entry): the loop runs
  // due timers, flushes outbound batches, then sleeps in ppoll() until the next
  // timer, the deadline, or an arriving datagram. The sleep's timeout is the
  // wall deadline truncated to whole nanoseconds (never rounded up), and the
  // calling thread's timer slack is held at 1 ns for the call and restored on
  // return, so a timer fires tens of microseconds after its instant.
  void RunFor(double wall_seconds);

  // ---- counters ----
  // Datagrams actually received / sent through sockets, and envelopes carried in
  // them: envelopes_sent / datagrams_sent is the batching ratio.
  uint64_t datagrams_received() const { return datagrams_received_; }
  uint64_t datagrams_sent() const { return datagrams_sent_; }
  uint64_t envelopes_received() const { return envelopes_received_; }
  uint64_t envelopes_sent() const { return envelopes_sent_; }
  // Envelopes dropped by the egress-loss injector (drawn per envelope, before
  // framing, so retransmit behavior is batching-independent).
  uint64_t envelopes_dropped() const { return envelopes_dropped_; }
  // Envelopes whose destination neither appears in the peer map nor parses as
  // "host:port" (typically: sends racing ahead of the rendezvous exchange).
  uint64_t unroutable_dropped() const { return unroutable_dropped_; }
  // Malformed batch frames / datagrams rejected on receive.
  uint64_t frame_decode_errors() const { return frame_decode_errors_; }
  double batch_ratio() const {
    return datagrams_sent_ == 0 ? 0.0
                                : static_cast<double>(envelopes_sent_) /
                                      static_cast<double>(datagrams_sent_);
  }
  // How late, in ns, the earliest due timer ran at each pump pass that had one:
  // the pump's own clock error (published as udp_timer_lag_p50_us / _p99_us).
  const Histogram& timer_lag() const { return timer_lag_; }

  // Fault-injection hook: drops this fraction of outgoing envelopes before they
  // reach the socket, from a seeded RNG (deterministic drop pattern per seed).
  // Lets tests exercise the reliable transport over real UDP without tc/netem.
  void SetEgressLossRate(double rate, uint64_t seed = 1);

  // Datagram payload budget for batching (FleetConfig::udp_max_datagram).
  void set_max_datagram(size_t bytes) { max_datagram_ = bytes; }
  size_t max_datagram() const { return max_datagram_; }

 private:
  struct Endpoint {
    int fd = -1;
    Node* node = nullptr;
    std::string name;         // logical node address
    std::string socket_addr;  // "host:port" actually bound
  };
  // Pending outbound batch for one destination socket.
  struct PeerOut {
    sockaddr_in to = {};
    BatchFrameBuilder batch;
  };

  void SendExternal(const std::string& dst, const std::string& bytes);
  void PublishGauges();
  void FlushPeer(PeerOut* out);
  void FlushBatches();
  void DeliverDatagram(Node* node, const char* data, size_t len);

  Fleet* fleet_;
  Network* net_;
  std::vector<Endpoint> endpoints_;
  std::map<std::string, std::string> peers_;  // logical name -> "host:port"
  std::map<std::string, PeerOut> outgoing_;   // "host:port" -> pending batch
  size_t max_datagram_ = 1400;
  uint64_t datagrams_received_ = 0;
  uint64_t datagrams_sent_ = 0;
  uint64_t envelopes_received_ = 0;
  uint64_t envelopes_sent_ = 0;  // counted when their frame reaches the socket
  uint64_t envelopes_dropped_ = 0;
  uint64_t unroutable_dropped_ = 0;
  uint64_t frame_decode_errors_ = 0;
  Histogram timer_lag_;
  double next_gauge_publish_ = 0;
  double egress_loss_ = 0;
  Rng egress_rng_{1};
};

}  // namespace p2

#endif  // SRC_NET_UDP_DRIVER_H_
