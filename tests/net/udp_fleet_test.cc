// Sim-vs-udp parity (docs/DEPLOYMENT.md): one Fleet hosting many nodes over real
// loopback sockets in a single process must converge a Chord overlay to the SAME
// ring as the deterministic simulator — ring structure depends only on the node
// names (chord ids are name hashes), never on which transport carried the tuples.
//
// (The fixture is deliberately NOT named *FleetTest* / *ChordTest*: the CI tsan
// and loss-sweep jobs select suites by substring regex.)

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/chord/chord.h"
#include "src/net/udp_driver.h"
#include "src/trace/metrics.h"

namespace p2 {
namespace {

std::vector<std::string> NodeNames(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    names.push_back("n" + std::to_string(i));
  }
  return names;
}

ChordConfig FastChord() {
  ChordConfig cfg;
  cfg.stabilize_period = 0.2;
  cfg.ping_period = 0.2;
  cfg.finger_period = 0.4;
  cfg.ping_timeout = 0.15;
  cfg.rejoin_check_period = 1.0;
  return cfg;
}

// Installs the overlay on every node (names[0] is the landmark) and returns the
// handles in name order.
std::vector<NodeHandle> BuildChordFleet(Fleet* fleet,
                                        const std::vector<std::string>& names) {
  std::vector<NodeHandle> handles;
  for (const std::string& name : names) {
    handles.push_back(fleet->AddNode(name));
  }
  std::string error;
  for (size_t i = 0; i < handles.size(); ++i) {
    ChordConfig cfg = FastChord();
    if (i != 0) {
      cfg.landmark = names[0];
    }
    EXPECT_TRUE(InstallChord(handles[i].raw(), cfg, &error)) << error;
  }
  return handles;
}

// The ring every correct run must converge to: successor = next node in chord-id
// order (the deterministic column of the parity contract).
std::map<std::string, std::string> ExpectedRing(std::vector<NodeHandle>& handles) {
  std::vector<std::pair<uint64_t, std::string>> ids;
  for (NodeHandle& h : handles) {
    ids.emplace_back(ChordId(h.raw()), h.addr());
  }
  std::sort(ids.begin(), ids.end());
  std::map<std::string, std::string> succ;
  for (size_t i = 0; i < ids.size(); ++i) {
    succ[ids[i].second] = ids[(i + 1) % ids.size()].second;
  }
  return succ;
}

std::map<std::string, std::string> ObservedRing(std::vector<NodeHandle>& handles) {
  std::map<std::string, std::string> succ;
  for (NodeHandle& h : handles) {
    succ[h.addr()] = BestSuccAddr(h.raw());
  }
  return succ;
}

TEST(UdpBackendTest, SingleProcessChordFleetMatchesSimulator) {
  const int kNodes = 8;
  std::vector<std::string> names = NodeNames(kNodes);

  // Real sockets: every inter-node tuple crosses loopback UDP even though all
  // nodes share the process (Network::SetExternalOnly).
  FleetConfig udp_cfg;
  udp_cfg.backend = FleetBackend::kUdp;
  udp_cfg.node_defaults.introspection = false;
  Fleet udp(udp_cfg);
  std::vector<NodeHandle> udp_nodes = BuildChordFleet(&udp, names);
  udp.RunFor(6.0);

  // The deterministic simulator, same overlay.
  FleetConfig sim_cfg;
  sim_cfg.latency = 0.005;
  sim_cfg.jitter = 0.002;
  sim_cfg.node_defaults.introspection = false;
  Fleet sim(sim_cfg);
  std::vector<NodeHandle> sim_nodes = BuildChordFleet(&sim, names);
  sim.RunUntil(30.0);

  std::map<std::string, std::string> expected = ExpectedRing(udp_nodes);
  EXPECT_EQ(ExpectedRing(sim_nodes), expected)
      << "chord ids must not depend on the backend";
  EXPECT_EQ(ObservedRing(sim_nodes), expected) << "simulator did not converge";
  EXPECT_EQ(ObservedRing(udp_nodes), expected) << "udp backend did not converge";

  // All of that traffic really crossed the wire, batched.
  UdpDriver* driver = udp.udp();
  ASSERT_NE(driver, nullptr);
  EXPECT_GT(driver->datagrams_sent(), 0u);
  EXPECT_EQ(driver->datagrams_received(), driver->datagrams_sent())
      << "loopback with no loss injected must deliver everything";
  EXPECT_GT(driver->batch_ratio(), 1.0);
  EXPECT_EQ(driver->frame_decode_errors(), 0u);
  uint64_t shed_reliable = 0;
  for (NodeHandle& h : udp_nodes) {
    shed_reliable += h.Stats().shed_reliable;
  }
  EXPECT_EQ(shed_reliable, 0u);
}

TEST(UdpBackendTest, DriverCountersSurfaceAsNodeMetrics) {
  // The transport publishes its counters into each node's MetricsRegistry
  // periodically during RunFor (ahead of sweeps) and at RunFor exit, so
  // sysStat/metrics exports carry them like any other gauge.
  FleetConfig cfg;
  cfg.backend = FleetBackend::kUdp;
  cfg.node_defaults.introspection = false;
  Fleet fleet(cfg);
  NodeHandle a = fleet.AddNode("a");
  fleet.AddNode("b");
  std::string error;
  ASSERT_TRUE(a.Load("r1 hello@Other(NAddr, E) :- periodic@NAddr(E, 0.05), "
                     "peer@NAddr(Other).\n"
                     "materialize(peer, infinity, 4, keys(1,2)).",
                     &error))
      << error;
  a.Inject(Tuple::Make("peer", {Value::Str("a"), Value::Str("b")}));
  fleet.RunFor(0.5);
  UdpDriver* driver = fleet.udp();
  Gauge* sent = a.raw()->metrics().GetGauge("udp_datagrams_sent");
  EXPECT_GT(sent->value, 0);
  EXPECT_EQ(sent->value, static_cast<int64_t>(driver->datagrams_sent()));
  // The periodic rule's timers give the pump lateness samples; its quantiles
  // surface in microseconds.
  ASSERT_GT(driver->timer_lag().count(), 0u);
  EXPECT_EQ(a.raw()->metrics().GetGauge("udp_timer_lag_p50_us")->value,
            static_cast<int64_t>(driver->timer_lag().ValueAtQuantile(0.5) / 1000));
  EXPECT_EQ(a.raw()->metrics().GetGauge("udp_timer_lag_p99_us")->value,
            static_cast<int64_t>(driver->timer_lag().ValueAtQuantile(0.99) / 1000));
}

}  // namespace
}  // namespace p2
