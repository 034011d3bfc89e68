#include "src/testbed/testbed.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/strings.h"

namespace p2 {

std::string ChordTestbed::AddrOf(int i) { return StrFormat("n%d", i); }

ChordTestbed::ChordTestbed(TestbedConfig config)
    : config_(config), fleet_(config.fleet) {
  for (int i = 0; i < config_.num_nodes; ++i) {
    NodeHandle handle = fleet_.AddNode(AddrOf(i));
    handles_.push_back(handle);
    nodes_.push_back(handle.raw());
    ChordConfig chord = config_.chord;
    chord.landmark = i == 0 ? std::string() : AddrOf(0);
    chord.node_id = 0;  // derived from the node's own seeded RNG
    // Stagger joins so the ring grows incrementally, as in a real deployment;
    // posted onto each node's own scheduler.
    double start = i * config_.join_stagger;
    handle.Post(start, [chord](Node& node) {
      std::string error;
      if (!InstallChord(&node, chord, &error)) {
        fprintf(stderr, "InstallChord(%s) failed: %s\n", node.addr().c_str(),
                error.c_str());
        abort();
      }
    });
  }
}

std::map<std::string, uint64_t> ChordTestbed::Ids() {
  std::map<std::string, uint64_t> ids;
  for (Node* node : nodes_) {
    uint64_t id = ChordId(node);
    if (id != 0) {
      ids[node->addr()] = id;
    }
  }
  return ids;
}

int ChordTestbed::CorrectSuccessorCount() {
  std::map<std::string, uint64_t> ids = Ids();
  if (ids.size() < 2) {
    return static_cast<int>(ids.size());
  }
  // Sort (id, addr) to compute each node's true successor on the ring.
  std::vector<std::pair<uint64_t, std::string>> ring;
  ring.reserve(ids.size());
  for (const auto& [addr, id] : ids) {
    ring.emplace_back(id, addr);
  }
  std::sort(ring.begin(), ring.end());
  int correct = 0;
  for (size_t i = 0; i < ring.size(); ++i) {
    const std::string& addr = ring[i].second;
    const std::string& true_succ = ring[(i + 1) % ring.size()].second;
    Node* node = fleet_.network().GetNode(addr);
    if (node != nullptr && BestSuccAddr(node) == true_succ) {
      ++correct;
    }
  }
  return correct;
}

bool ChordTestbed::RingIsCorrect() {
  return CorrectSuccessorCount() == static_cast<int>(nodes_.size());
}

}  // namespace p2
