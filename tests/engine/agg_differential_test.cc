// Differential test of continuous aggregates: the per-group path against full
// recomputation of the same rules.
//
// Node "a" runs rules whose body reads one table through assignments and filters, so
// the planner keeps them per group. Node "b" runs the same rules with one extra join on
// a static one-row table (`one@N(Z)`), which sends them down the full path; no
// test-only switch is involved. A seeded random sequence of operations drives both
// nodes' body tables identically — inserts, refreshes, replaces that move a row
// between groups, keyed and unkeyed deletes, expiry (many rows at once) and eviction,
// and every insert repeated into a table bounded to zero rows, which evicts each row
// right after it arrives — and after every drain the two nodes must have delivered
// the identical stream of head tuples: name, fields (kind-exact), is_delete and mask,
// in order.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/net/network.h"

namespace p2 {
namespace {

// t(N, K, G, V, Tag): keyed on (N, K), so re-inserting a K with a new G moves the row
// between groups; lifetime 4 s and 6 rows force expiry and eviction. z has t's shape
// and holds no row.
constexpr char kTables[] = R"(
  materialize(t, 4, 6, keys(1, 2)).
  materialize(z, 4, 0, keys(1, 2)).
  materialize(one, infinity, 1, keys(1)).
  materialize(mn, infinity, 1000, keys(1, 2)).
  materialize(mx, infinity, 1000, keys(1, 2)).
  materialize(sm, infinity, 1000, keys(1, 2)).
  materialize(tot, infinity, 1000, keys(1)).
  materialize(mxc, infinity, 1000, keys(1)).
)";

// Every head is watched so the node's watch log records the stream. cnt and av are
// unmaterialized: a vanished count group emits a zero row, a vanished avg nothing.
// mxc aggregates mx, which the mx rule maintains through retractions.
constexpr char kRules[] = R"(
  watch(cnt). watch(mn). watch(mx). watch(av). watch(sm). watch(tot). watch(gk).
  watch(mxc). watch(zc).
  a1 cnt@N(G, count<*>) :- t@N(K, G, V, "in")JOIN.
  a2 mn@N(G, min<W>) :- t@N(K, G, V, Tag), Tag != "skip", W := VJOIN.
  a3 mx@N(G, max<V>) :- t@N(K, G, V, Tag), V != 13JOIN.
  a4 av@N(G, avg<V>) :- t@N(K, G, V, "in")JOIN.
  a5 sm@N(G, sum<V>) :- t@N(K, G, V, Tag), Tag == "in" || Tag == "alt"JOIN.
  a6 tot@N(count<*>) :- t@N(K, G, V, Tag)JOIN.
  a7 gk@N(H, count<*>) :- t@N(K, G, V, Tag), H := G + "/" + TagJOIN.
  a8 mxc@N(count<*>) :- mx@N(G, M)JOIN.
  a9 zc@N(G, count<*>) :- z@N(K, G, V, Tag)JOIN.
)";

std::string Rules(bool reference) {
  std::string out = kRules;
  const std::string join = reference ? ", one@N(Z)" : "";
  for (size_t at = out.find("JOIN"); at != std::string::npos; at = out.find("JOIN")) {
    out.replace(at, 4, join);
  }
  return out;
}

// A value's kind and exact contents (doubles by bit pattern): Value equality would
// hide a min that kept Id(3) where the reference kept Int(3).
std::string Exact(const Value& v) {
  std::string out = std::to_string(static_cast<int>(v.kind())) + ":";
  if (v.kind() == Value::Kind::kDouble) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%a", v.AsDouble());
    return out + buf;
  }
  return out + v.ToString();
}

// One delivered head tuple, with the location field (the node's own address) dropped.
std::string Entry(const Node::WatchEntry& e) {
  std::string out = e.tuple->name() + "(";
  for (size_t i = 1; i < e.tuple->arity(); ++i) {
    out += Exact(e.tuple->field(i)) + " ";
  }
  return out + StrFormat(") delete=%d mask=%llx t=%g", e.is_delete ? 1 : 0,
                         static_cast<unsigned long long>(e.bound_mask), e.time);
}

// Values that compare equal across kinds, doubles that print alike but differ, sums
// whose result depends on the order of addition, a string and a null.
Value PickValue(Rng& rng) {
  switch (rng.NextBelow(14)) {
    case 0: return Value::Int(3);
    case 1: return Value::Id(3);
    case 2: return Value::Double(3.0);
    case 3: return Value::Int(13);
    case 4: return Value::Id(13);
    case 5: return Value::Double(1e16);
    case 6: return Value::Double(-1e16);
    case 7: return Value::Double(1.0);
    case 8: return Value::Double(0.1);
    case 9: return Value::Double(0.2);
    case 10: return Value::Int(-2);
    case 11: return Value::Str("s");
    case 12: return Value::Null();
    default: return Value::Double(0.3);
  }
}

Value PickGroup(Rng& rng) {
  switch (rng.NextBelow(6)) {
    case 0: return Value::Int(7);
    case 1: return Value::Id(7);
    case 2: return Value::Double(7.0);
    case 3: return Value::Double(1.0000001);  // prints as "1", like the next one
    case 4: return Value::Double(1.0000002);
    default: return Value::Str("g");
  }
}

Value PickTag(Rng& rng) {
  static const char* kTags[] = {"in", "in", "alt", "skip", "out"};
  return Value::Str(kTags[rng.NextBelow(5)]);
}

class Pair {
 public:
  explicit Pair(uint64_t seed) : net_(NetworkConfig{0.01, 0.0, 0.0, seed}), rng_(seed) {
    NodeOptions opts;
    opts.introspection = false;
    opts.sweep_interval = 1e9;  // expiry happens only where the engine asks for it
    nodes_[0] = net_.AddNode("a", opts);
    nodes_[1] = net_.AddNode("b", opts);
    for (Node* n : nodes_) {
      std::string error;
      EXPECT_TRUE(n->LoadProgram(kTables, &error)) << error;
      n->catalog().Get("one")->Insert(
          Tuple::Make("one", {Value::Str(n->addr()), Value::Int(1)}), n->Now());
    }
  }

  void LoadRules() {
    for (int i = 0; i < 2; ++i) {
      std::string error;
      EXPECT_TRUE(nodes_[i]->LoadProgram(Rules(/*reference=*/i == 1), &error)) << error;
    }
  }

  // Applies one random operation to both nodes' body tables.
  void Step() {
    const Value k = Value::Int(static_cast<int64_t>(rng_.NextBelow(8)));
    switch (rng_.NextBelow(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // insert, or replace when K is present with other contents
        ValueList rest = {k, PickGroup(rng_), PickValue(rng_), PickTag(rng_)};
        last_ = rest;
        Insert(rest);
        break;
      }
      case 4:  // re-insert the last row (a refresh, or a replace back)
        if (!last_.empty()) {
          Insert(last_);
        }
        break;
      case 5:  // keyed delete
        Delete({k, Value::Null(), Value::Null(), Value::Null()}, {true, false, false, false});
        break;
      case 6:  // unkeyed delete of a whole group
        Delete({Value::Null(), PickGroup(rng_), Value::Null(), Value::Null()},
               {false, true, false, false});
        break;
      case 7:  // a burst at one instant: equal expiries, and eviction past 6 rows
        for (int i = 0; i < 4; ++i) {
          Insert({Value::Int(static_cast<int64_t>(rng_.NextBelow(8))), PickGroup(rng_),
                  PickValue(rng_), PickTag(rng_)});
        }
        break;
      case 8: {  // let time pass, with re-evaluations possibly still queued
        static const double kDt[] = {0.5, 1.0, 2.5, 4.0, 6.0};
        net_.RunFor(kDt[rng_.NextBelow(5)]);
        break;
      }
      default:
        break;  // drain only
    }
  }

  // Drains both nodes and compares what each delivered since the last drain.
  void DrainAndCompare(uint64_t seed, int step) {
    std::vector<std::string> streams[2];
    for (int i = 0; i < 2; ++i) {
      Node* n = nodes_[i];
      n->Drain();
      uint64_t fresh = n->stats().local_deliveries - delivered_[i];
      delivered_[i] = n->stats().local_deliveries;
      const auto& log = n->watch_log();
      ASSERT_LE(fresh, log.size());
      for (size_t j = log.size() - fresh; j < log.size(); ++j) {
        streams[i].push_back(Entry(log[j]));
      }
    }
    ASSERT_EQ(streams[0], streams[1]) << "seed " << seed << " step " << step;
    ASSERT_EQ(nodes_[0]->stats().agg_reevals, nodes_[1]->stats().agg_reevals)
        << "seed " << seed << " step " << step;
    emitted_ += streams[0].size();
  }

  // Rows the rule scanned on each node: on the per-group path only the install-time
  // walk scans (at most the table's 6 rows); the full path scans on every evaluation.
  std::pair<uint64_t, uint64_t> ScanRows(const std::string& rule_id) {
    return {nodes_[0]->metrics().GetRuleMetrics(rule_id)->join_scan_rows,
            nodes_[1]->metrics().GetRuleMetrics(rule_id)->join_scan_rows};
  }

  size_t emitted() const { return emitted_; }
  bool ShouldDrain() { return rng_.NextBelow(3) != 0; }

 private:
  void Insert(const ValueList& rest) {
    for (Node* n : nodes_) {
      ValueList fields = {Value::Str(n->addr())};
      fields.insert(fields.end(), rest.begin(), rest.end());
      n->catalog().Get("z")->Insert(Tuple::Make("z", fields), n->Now());
      n->catalog().Get("t")->Insert(Tuple::Make("t", std::move(fields)), n->Now());
    }
  }

  void Delete(const ValueList& rest, std::vector<bool> bound) {
    for (Node* n : nodes_) {
      ValueList pattern = {Value::Str(n->addr())};
      pattern.insert(pattern.end(), rest.begin(), rest.end());
      std::vector<bool> b = {true};
      b.insert(b.end(), bound.begin(), bound.end());
      n->catalog().Get("t")->DeleteMatching(pattern, b, n->Now());
    }
  }

  Network net_;
  Rng rng_;
  Node* nodes_[2] = {nullptr, nullptr};
  uint64_t delivered_[2] = {0, 0};
  ValueList last_;
  size_t emitted_ = 0;
};

TEST(AggDifferentialTest, PerGroupPathMatchesFullRecomputation) {
  size_t emitted = 0;
  uint64_t scanned_full = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Pair pair(seed);
    // Rows present before the rules load, some of them stale by the first
    // evaluation: the install-time evaluation walks what is there.
    for (int i = 0; i < 3; ++i) {
      pair.Step();
    }
    pair.LoadRules();
    for (int step = 0; step < 60; ++step) {
      pair.Step();
      if (pair.ShouldDrain()) {
        pair.DrainAndCompare(seed, step);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
    pair.DrainAndCompare(seed, 60);
    if (HasFatalFailure()) {
      return;
    }
    emitted += pair.emitted();
    // Each node took the path it was meant to, so the comparison is not full vs full.
    for (const char* rule : {"a1", "a2", "a3", "a4", "a5", "a6", "a7"}) {
      auto [per_group, full] = pair.ScanRows(rule);
      EXPECT_LE(per_group, 6u) << "seed " << seed << " rule " << rule;
      scanned_full += full;
    }
  }
  EXPECT_GT(scanned_full, 10000u);
  EXPECT_GT(emitted, 10000u);  // the streams compared are not trivially empty
}

// Emission order is shared by both paths, so the comparison above cannot see it; pin
// it directly. A replace that moves a group's only row into another group makes one
// group change and one vanish in the same re-evaluation: the changed group goes out
// first even though the vanished group's key sorts before it.
TEST(AggDifferentialTest, ChangedGroupsPrecedeVanishedOnes) {
  for (bool reference : {false, true}) {
    Network net(NetworkConfig{0.01, 0.0, 0.0, 1});
    NodeOptions opts;
    opts.introspection = false;
    Node* n = net.AddNode("a", opts);
    std::string error;
    ASSERT_TRUE(n->LoadProgram(R"(
      materialize(t, infinity, 100, keys(1, 2)).
      materialize(one, infinity, 1, keys(1)).
      materialize(hc, infinity, 100, keys(1, 2)).
      watch(hc). watch(ev).
    )", &error)) << error;
    n->catalog().Get("one")->Insert(Tuple::Make("one", {Value::Str("a"), Value::Int(1)}), 0);
    std::string join = reference ? ", one@N(Z)" : "";
    ASSERT_TRUE(n->LoadProgram("h1 hc@N(G, count<*>) :- t@N(K, G)" + join + ".\n" +
                                   "h2 ev@N(G, count<*>) :- t@N(K, G)" + join + ".",
                               &error))
        << error;
    Table* t = n->catalog().Get("t");
    auto row = [](int k, const char* g) {
      return Tuple::Make("t", {Value::Str("a"), Value::Int(k), Value::Str(g)});
    };
    t->Insert(row(1, "b"), n->Now());
    t->Insert(row(2, "a"), n->Now());
    n->Drain();
    size_t before = n->watch_log().size();
    t->Insert(row(2, "b"), n->Now());  // group "a" vanishes, group "b" grows
    n->Drain();
    std::vector<std::string> stream;
    for (size_t i = before; i < n->watch_log().size(); ++i) {
      stream.push_back(Entry(n->watch_log()[i]));
    }
    const std::vector<std::string> want = {
        "hc(5:b 2:2 ) delete=0 mask=ffffffffffffffff t=0",
        "hc(5:a 0:null ) delete=1 mask=3 t=0",
        "ev(5:b 2:2 ) delete=0 mask=ffffffffffffffff t=0",
        "ev(5:a 2:0 ) delete=0 mask=ffffffffffffffff t=0",
    };
    EXPECT_EQ(stream, want) << (reference ? "full path" : "per-group path");
  }
}

}  // namespace
}  // namespace p2
