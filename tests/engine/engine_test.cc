// End-to-end tests of program loading, planning, strand execution, routing, soft
// state, and deletion across the simulated network.

#include <gtest/gtest.h>

#include "src/net/network.h"

namespace p2 {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : net_(MakeConfig()) {}

  static NetworkConfig MakeConfig() {
    NetworkConfig cfg;
    cfg.latency = 0.01;
    cfg.jitter = 0.0;
    return cfg;
  }

  Node* AddNode(const std::string& addr) {
    NodeOptions opts;
    opts.introspection = false;
    return net_.AddNode(addr, opts);
  }

  void Load(Node* node, const std::string& program, ParamMap params = ParamMap()) {
    std::string error;
    ASSERT_TRUE(node->LoadProgram(program, params, &error)) << error;
  }

  // Counts events named `name` arriving at `node` into `counter`.
  void Count(Node* node, const std::string& name, int* counter) {
    node->SubscribeEvent(name, [counter](const TupleRef&) { ++*counter; });
  }

  Network net_;
};

TEST_F(EngineTest, PeriodicRuleFires) {
  Node* n = AddNode("n1");
  Load(n, "r1 tick@NAddr(E) :- periodic@NAddr(E, 1).");
  int ticks = 0;
  Count(n, "tick", &ticks);
  net_.RunFor(5.5);
  EXPECT_EQ(ticks, 5);
}

TEST_F(EngineTest, EventJoinsTable) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(conf, infinity, 10, keys(1,2)).\n"
       "r1 out@N(K, V) :- probe@N(K), conf@N(K, V).");
  n->InjectEvent(Tuple::Make("conf", {Value::Str("n1"), Value::Int(1), Value::Int(10)}));
  n->InjectEvent(Tuple::Make("conf", {Value::Str("n1"), Value::Int(2), Value::Int(20)}));
  std::vector<TupleRef> outs;
  n->SubscribeEvent("out", [&](const TupleRef& t) { outs.push_back(t); });
  net_.RunFor(0.1);
  n->InjectEvent(Tuple::Make("probe", {Value::Str("n1"), Value::Int(2)}));
  net_.RunFor(0.1);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0]->field(2), Value::Int(20));
}

TEST_F(EngineTest, TuplesRouteAcrossNetwork) {
  Node* a = AddNode("a");
  Node* b = AddNode("b");
  Load(a, "r1 hello@Other(NAddr, X) :- go@NAddr(Other, X).");
  Load(b, "materialize(greetings, infinity, 10, keys(1,2)).\n"
          "r2 greetings@N(From, X) :- hello@N(From, X).");
  a->InjectEvent(
      Tuple::Make("go", {Value::Str("a"), Value::Str("b"), Value::Int(7)}));
  net_.RunFor(1.0);
  std::vector<TupleRef> rows = b->TableContents("greetings");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->field(1), Value::Str("a"));
  EXPECT_EQ(rows[0]->field(2), Value::Int(7));
  EXPECT_GE(a->stats().msgs_sent, 1u);
  EXPECT_GE(b->stats().msgs_received, 1u);
}

// The paper §2 "all routes" example: path-vector routing as two rules.
TEST_F(EngineTest, PathVectorQuickstart) {
  // As in the paper, the naive rule would derive forever on cyclic topologies; a
  // hop-count filter bounds it (the paper bounds it with table size limits).
  const char* kProgram = R"(
    materialize(link, infinity, 20, keys(1, 2)).
    materialize(path, infinity, 40, keys(1, 2, 3)).
    p1 path@A(B, [B], W) :- link@A(B, W).
    p2 path@B(C, [A] + P, W + Y) :- link@A(B, W), path@A(C, P, Y), f_size(P) < 3.
  )";
  Node* a = AddNode("a");
  Node* b = AddNode("b");
  Node* c = AddNode("c");
  for (Node* n : {a, b, c}) {
    Load(n, kProgram);
  }
  // a -- b -- c chain; links are symmetric (paper's interpretation).
  auto link = [&](Node* n, const std::string& from, const std::string& to, int w) {
    n->InjectEvent(Tuple::Make("link", {Value::Str(from), Value::Str(to), Value::Int(w)}));
  };
  link(a, "a", "b", 1);
  link(b, "b", "a", 1);
  link(b, "b", "c", 2);
  link(c, "c", "b", 2);
  net_.RunFor(5.0);
  // c must have derived a path to a: rule p2 at b with link(b,c) and path(b,a).
  bool found = false;
  for (const TupleRef& t : c->TableContents("path")) {
    if (t->field(1) == Value::Str("a") && t->field(3) == Value::Int(3)) {
      found = true;
      // The hop list from c to a reads [b, a].
      const ValueList& hops = t->field(2).AsList();
      ASSERT_EQ(hops.size(), 2u);
      EXPECT_EQ(hops[0], Value::Str("b"));
      EXPECT_EQ(hops[1], Value::Str("a"));
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EngineTest, IdenticalInsertDoesNotRefire) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(s, infinity, 10, keys(1,2)).\n"
       "r1 s@N(X) :- put@N(X).\n"
       "r2 echo@N(X) :- s@N(X).");
  int echoes = 0;
  Count(n, "echo", &echoes);
  auto put = [&] {
    n->InjectEvent(Tuple::Make("put", {Value::Str("n1"), Value::Int(5)}));
  };
  put();
  net_.RunFor(0.1);
  EXPECT_EQ(echoes, 1);
  put();  // identical content: refresh only, no delta
  net_.RunFor(0.1);
  EXPECT_EQ(echoes, 1);
}

TEST_F(EngineTest, DeleteRuleRemovesMatchingRows) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(s, infinity, 10, keys(1,2)).\n"
       "d1 delete s@N(X) :- drop@N(X), s@N(X).");
  for (int i = 0; i < 3; ++i) {
    n->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(i)}));
  }
  net_.RunFor(0.1);
  EXPECT_EQ(n->TableContents("s").size(), 3u);
  n->InjectEvent(Tuple::Make("drop", {Value::Str("n1"), Value::Int(1)}));
  net_.RunFor(0.1);
  std::vector<TupleRef> rows = n->TableContents("s");
  ASSERT_EQ(rows.size(), 2u);
  for (const TupleRef& t : rows) {
    EXPECT_NE(t->field(1), Value::Int(1));
  }
}

TEST_F(EngineTest, DeleteWithWildcardUnboundVars) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(s, infinity, 10, keys(1,2)).\n"
       "d1 delete s@N(X) :- dropAll@N(E).");  // X unbound: wildcard
  for (int i = 0; i < 3; ++i) {
    n->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(i)}));
  }
  net_.RunFor(0.1);
  n->InjectEvent(Tuple::Make("dropAll", {Value::Str("n1"), Value::Id(1)}));
  net_.RunFor(0.1);
  EXPECT_EQ(n->TableContents("s").size(), 0u);
}

TEST_F(EngineTest, RepeatedVariableBindsOnceThenCompares) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(t, infinity, 10, keys(1,2,3)).\n"
       "r1 out@N(X) :- ev@N(X, X).\n"
       "r2 pair@N(Y) :- probe@N(), t@N(Y, Y).");
  std::vector<TupleRef> outs;
  n->SubscribeEvent("out", [&](const TupleRef& t) { outs.push_back(t); });
  n->SubscribeEvent("pair", [&](const TupleRef& t) { outs.push_back(t); });
  n->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(1), Value::Int(2)}));
  n->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(3), Value::Int(3)}));
  n->InjectEvent(Tuple::Make("t", {Value::Str("n1"), Value::Int(4), Value::Int(5)}));
  n->InjectEvent(Tuple::Make("t", {Value::Str("n1"), Value::Int(6), Value::Int(6)}));
  net_.RunFor(0.1);
  n->InjectEvent(Tuple::Make("probe", {Value::Str("n1")}));
  net_.RunFor(0.1);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0]->ToString(), "out(n1, 3)");
  EXPECT_EQ(outs[1]->ToString(), "pair(n1, 6)");
}

TEST_F(EngineTest, UnboundHeadVariableIsNullOrWildcard) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(s, infinity, 10, keys(1,2,3)).\n"
       "watch(out).\n"
       "r1 out@N(X, W) :- ev@N(X).\n"
       "d1 delete s@N(X, W) :- drop@N(X).");
  n->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(7)}));
  for (auto [x, w] : {std::pair{1, "a"}, {1, "b"}, {2, "a"}}) {
    n->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(x), Value::Str(w)}));
  }
  net_.RunFor(0.1);
  // Insert rule: W is a null field whose mask bit is clear.
  ASSERT_EQ(n->watch_log().size(), 1u);
  const Node::WatchEntry& out = n->watch_log()[0];
  EXPECT_EQ(out.tuple->ToString(), "out(n1, 7, null)");
  EXPECT_EQ(out.bound_mask, 0x3u);
  // Delete rule: W matches any value.
  n->InjectEvent(Tuple::Make("drop", {Value::Str("n1"), Value::Int(1)}));
  net_.RunFor(0.1);
  std::vector<TupleRef> rows = n->TableContents("s");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->ToString(), "s(n1, 2, a)");
}

TEST_F(EngineTest, RuleVariableLimit) {
  Node* n = AddNode("n1");
  // 64 variables load and bind, the last slot included.
  std::string args;
  for (int i = 1; i <= 63; ++i) {
    args += (i > 1 ? ", V" : "V") + std::to_string(i);
  }
  Load(n, "big out@N(V63, V1) :- ev@N(" + args + ").");
  std::vector<TupleRef> outs;
  n->SubscribeEvent("out", [&](const TupleRef& t) { outs.push_back(t); });
  ValueList fields = {Value::Str("n1")};
  for (int i = 1; i <= 63; ++i) {
    fields.push_back(Value::Int(i));
  }
  n->InjectEvent(Tuple::Make("ev", std::move(fields)));
  net_.RunFor(0.1);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0]->ToString(), "out(n1, 63, 1)");
  // One more fails to load, with an error naming the rule.
  std::string error;
  EXPECT_FALSE(n->LoadProgram("huge out@N() :- ev@N(" + args + "), V64 := 1.", &error));
  EXPECT_NE(error.find("rule huge has more than 64 variables"), std::string::npos) << error;
}

TEST_F(EngineTest, SoftStateExpires) {
  Node* n = AddNode("n1");
  Load(n, "materialize(s, 3, 10, keys(1,2)).");
  n->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(1)}));
  net_.RunFor(1.0);
  EXPECT_EQ(n->TableContents("s").size(), 1u);
  net_.RunFor(3.0);
  EXPECT_EQ(n->TableContents("s").size(), 0u);
}

TEST_F(EngineTest, DeltaStrandsFireOnTableInsert) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(a, infinity, 10, keys(1,2)).\n"
       "materialize(b, infinity, 10, keys(1,2)).\n"
       "r1 pair@N(X, Y) :- a@N(X), b@N(Y).");
  int pairs = 0;
  Count(n, "pair", &pairs);
  n->InjectEvent(Tuple::Make("a", {Value::Str("n1"), Value::Int(1)}));
  net_.RunFor(0.1);
  EXPECT_EQ(pairs, 0);  // no b rows yet
  n->InjectEvent(Tuple::Make("b", {Value::Str("n1"), Value::Int(2)}));
  net_.RunFor(0.1);
  EXPECT_EQ(pairs, 1);  // b-delta joined the existing a row
  n->InjectEvent(Tuple::Make("a", {Value::Str("n1"), Value::Int(3)}));
  net_.RunFor(0.1);
  EXPECT_EQ(pairs, 2);  // a-delta joined the existing b row
}

TEST_F(EngineTest, SelfJoinAliases) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(e, infinity, 20, keys(1,2,3)).\n"
       "r1 two@N(A, C) :- hop@N(A), e@N(A, B), e@N(B, C).");
  auto edge = [&](int x, int y) {
    n->InjectEvent(Tuple::Make("e", {Value::Str("n1"), Value::Int(x), Value::Int(y)}));
  };
  edge(1, 2);
  edge(2, 3);
  edge(2, 4);
  net_.RunFor(0.1);
  std::vector<TupleRef> results;
  n->SubscribeEvent("two", [&](const TupleRef& t) { results.push_back(t); });
  n->InjectEvent(Tuple::Make("hop", {Value::Str("n1"), Value::Int(1)}));
  net_.RunFor(0.1);
  ASSERT_EQ(results.size(), 2u);  // 1->2->3 and 1->2->4
}

TEST_F(EngineTest, FiltersAndAssignmentsInRules) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(v, infinity, 10, keys(1,2)).\n"
       "r1 big@N(X, Y) :- check@N(), v@N(X), X > 10, Y := X * 2.");
  for (int x : {5, 15, 25}) {
    n->InjectEvent(Tuple::Make("v", {Value::Str("n1"), Value::Int(x)}));
  }
  std::vector<TupleRef> results;
  n->SubscribeEvent("big", [&](const TupleRef& t) { results.push_back(t); });
  net_.RunFor(0.1);
  n->InjectEvent(Tuple::Make("check", {Value::Str("n1")}));
  net_.RunFor(0.1);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0]->field(2), Value::Int(30));
  EXPECT_EQ(results[1]->field(2), Value::Int(50));
}

TEST_F(EngineTest, ProgramsInstallPiecemealWhileRunning) {
  Node* n = AddNode("n1");
  Load(n, "r1 tick@N(E) :- periodic@N(E, 1).");
  int ticks = 0;
  int echoes = 0;
  Count(n, "tick", &ticks);
  net_.RunFor(2.5);
  EXPECT_EQ(ticks, 2);
  // A monitoring rule arrives on-line, mid-execution.
  Load(n, "m1 echo@N(E) :- tick@N(E).");
  Count(n, "echo", &echoes);
  net_.RunFor(2.0);
  EXPECT_EQ(echoes, 2);
}

TEST_F(EngineTest, PlanErrors) {
  Node* n = AddNode("n1");
  std::string error;
  // Two transient events cannot join.
  EXPECT_FALSE(n->LoadProgram("r1 out@N(X) :- ev1@N(X), ev2@N(X).", &error));
  EXPECT_NE(error.find("two transient events"), std::string::npos);
  // Unknown builtin.
  EXPECT_FALSE(n->LoadProgram("r2 out@N(X) :- ev@N(Y), X := f_bogus(Y).", &error));
  // Non-constant periodic period.
  EXPECT_FALSE(n->LoadProgram("r3 out@N(E) :- periodic@N(E, T).", &error));
  // Duplicate rule id.
  ASSERT_TRUE(n->LoadProgram("r4 out@N(X) :- ev@N(X).", &error)) << error;
  EXPECT_FALSE(n->LoadProgram("r4 out2@N(X) :- ev@N(X).", &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  // Unbound body term.
  EXPECT_FALSE(n->LoadProgram("r5 out@N(X) :- ev@N(X), Z > 3.", &error));
  // Deriving periodic is forbidden.
  EXPECT_FALSE(n->LoadProgram("r6 periodic@N(E, 5) :- ev@N(E).", &error));
}

TEST_F(EngineTest, ArityMismatchIsSilentlyIgnored) {
  // Piecemeal monitors matching a different arity must not fire or crash.
  Node* n = AddNode("n1");
  Load(n, "r1 out@N(X) :- ev@N(X).");
  int outs = 0;
  Count(n, "out", &outs);
  n->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(1), Value::Int(2)}));
  net_.RunFor(0.1);
  EXPECT_EQ(outs, 0);
}

TEST_F(EngineTest, DeadLettersCounted) {
  Node* n = AddNode("n1");
  n->InjectEvent(Tuple::Make("nobodyListens", {Value::Str("n1")}));
  net_.RunFor(0.1);
  EXPECT_EQ(n->stats().dead_letters, 1u);
}

TEST_F(EngineTest, MessageLossTolerated) {
  NetworkConfig cfg;
  cfg.latency = 0.01;
  cfg.loss_rate = 1.0;  // everything dropped
  Network lossy(cfg);
  Node* a = lossy.AddNode("a");
  Node* b = lossy.AddNode("b");
  std::string error;
  ASSERT_TRUE(a->LoadProgram("r1 ping@Other(NAddr) :- go@NAddr(Other).", &error));
  (void)b;
  a->InjectEvent(Tuple::Make("go", {Value::Str("a"), Value::Str("b")}));
  lossy.RunFor(1.0);
  EXPECT_EQ(lossy.dropped_msgs(), 1u);
  EXPECT_EQ(b->stats().msgs_received, 0u);
}

TEST_F(EngineTest, LowPriorityMonitorsObserveQuiescentState) {
  // Base system: kick -> a -> b (a two-step derivation cascade). A monitor joining b
  // on the same kick event sees nothing at normal priority (it runs mid-cascade) but
  // fires at low priority (it runs after the cascade drains) — the paper's §6
  // "prioritized execution of debugging rules" semantics.
  const char* kBase =
      "materialize(a, infinity, 10, keys(1,2)).\n"
      "materialize(b, infinity, 10, keys(1,2)).\n"
      "h1 a@N(X) :- kick@N(X).\n"
      "h2 b@N(X) :- a@N(X).";
  const char* kMonitor = "m1 seen@N(X) :- kick@N(X), b@N(X).";

  Node* eager = AddNode("eager");
  Load(eager, kBase);
  std::string error;
  ASSERT_TRUE(eager->LoadProgram(kMonitor, &error)) << error;
  int eager_seen = 0;
  Count(eager, "seen", &eager_seen);
  eager->InjectEvent(Tuple::Make("kick", {Value::Str("eager"), Value::Int(1)}));
  net_.RunFor(0.5);
  EXPECT_EQ(eager_seen, 0) << "normal-priority monitor ran mid-cascade";

  Node* lazy = AddNode("lazy");
  Load(lazy, kBase);
  ASSERT_TRUE(lazy->LoadProgramLowPriority(kMonitor, ParamMap(), &error)) << error;
  int lazy_seen = 0;
  Count(lazy, "seen", &lazy_seen);
  lazy->InjectEvent(Tuple::Make("kick", {Value::Str("lazy"), Value::Int(1)}));
  net_.RunFor(0.5);
  EXPECT_EQ(lazy_seen, 1) << "low-priority monitor must observe the settled state";
}

TEST_F(EngineTest, LowPriorityPeriodicRulesStillFire) {
  Node* n = AddNode("n1");
  std::string error;
  ASSERT_TRUE(n->LoadProgramLowPriority("r1 tick@N(E) :- periodic@N(E, 1).",
                                        ParamMap(), &error))
      << error;
  int ticks = 0;
  Count(n, "tick", &ticks);
  net_.RunFor(3.5);
  EXPECT_EQ(ticks, 3);
  // And unloading a low-priority program stops it like any other.
  ASSERT_TRUE(n->UnloadProgram(n->last_program_id()));
  net_.RunFor(3.0);
  EXPECT_EQ(ticks, 3);
}

TEST_F(EngineTest, UnloadProgramStopsStrandsTimersAndAggregates) {
  Node* n = AddNode("n1");
  // Base program stays; the monitor program comes and goes.
  Load(n, "materialize(s, infinity, 100, keys(1,2)).");
  Load(n,
       "m1 tick@N(E) :- periodic@N(E, 1).\n"
       "m2 echo@N(X) :- s@N(X).\n"
       "m3 cnt@N(count<*>) :- s@N(X).");
  uint64_t monitor_id = n->last_program_id();
  int ticks = 0;
  int echoes = 0;
  int counts = 0;
  Count(n, "tick", &ticks);
  Count(n, "echo", &echoes);
  Count(n, "cnt", &counts);
  n->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(1)}));
  net_.RunFor(2.5);
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(echoes, 1);
  EXPECT_GE(counts, 1);
  int counts_before = counts;

  ASSERT_TRUE(n->UnloadProgram(monitor_id));
  n->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(2)}));
  net_.RunFor(3.0);
  EXPECT_EQ(ticks, 2) << "timer kept firing after unload";
  EXPECT_EQ(echoes, 1) << "delta strand kept firing after unload";
  EXPECT_EQ(counts, counts_before) << "continuous aggregate kept firing after unload";
  // The base table itself still works.
  EXPECT_EQ(n->TableContents("s").size(), 2u);

  // Unknown / double unload are rejected.
  EXPECT_FALSE(n->UnloadProgram(monitor_id));
  EXPECT_FALSE(n->UnloadProgram(9999));

  // The same rule ids can be reloaded (the on-line monitor upgrade path).
  Load(n, "m2 echo@N(X) :- s@N(X).");
  n->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(3)}));
  net_.RunFor(0.5);
  EXPECT_EQ(echoes, 2);
}

TEST_F(EngineTest, NegationPrunesWhenRowExists) {
  Node* n = AddNode("n1");
  Load(n,
       "materialize(blocked, infinity, 10, keys(1,2)).\n"
       "r1 out@N(X) :- req@N(X), not blocked@N(X).");
  int outs = 0;
  Count(n, "out", &outs);
  auto req = [&](int x) {
    n->InjectEvent(Tuple::Make("req", {Value::Str("n1"), Value::Int(x)}));
  };
  req(1);
  net_.RunFor(0.1);
  EXPECT_EQ(outs, 1);  // nothing blocked yet
  n->InjectEvent(Tuple::Make("blocked", {Value::Str("n1"), Value::Int(1)}));
  net_.RunFor(0.1);
  req(1);
  req(2);
  net_.RunFor(0.1);
  EXPECT_EQ(outs, 2);  // req(1) pruned, req(2) passed
}

TEST_F(EngineTest, NegationUnboundVarsAreWildcards) {
  // `not succ@N(SID, SAddr)` with unbound vars = "no successor at all" (Chord's
  // re-join guard).
  Node* n = AddNode("n1");
  Load(n,
       "materialize(succ, 2, 10, keys(1,2)).\n"
       "r1 lonely@N(E) :- check@N(E), not succ@N(SID, SAddr).");
  int lonely = 0;
  Count(n, "lonely", &lonely);
  auto check = [&](int e) {
    n->InjectEvent(Tuple::Make("check", {Value::Str("n1"), Value::Id(e)}));
  };
  check(1);
  net_.RunFor(0.1);
  EXPECT_EQ(lonely, 1);
  n->InjectEvent(
      Tuple::Make("succ", {Value::Str("n1"), Value::Id(5), Value::Str("x")}));
  net_.RunFor(0.1);
  check(2);
  net_.RunFor(0.1);
  EXPECT_EQ(lonely, 1);  // a successor exists
  net_.RunFor(3.0);      // it expires (TTL 2)
  check(3);
  net_.RunFor(0.1);
  EXPECT_EQ(lonely, 2);
}

TEST_F(EngineTest, NegationRequiresMaterializedPredicate) {
  Node* n = AddNode("n1");
  std::string error;
  EXPECT_FALSE(n->LoadProgram("r1 out@N(X) :- req@N(X), not ghost@N(X).", &error));
  EXPECT_NE(error.find("must be materialized"), std::string::npos);
}

TEST_F(EngineTest, NegationRunsAfterJoinsBindVariables) {
  // The negated pattern uses a variable bound by a later-written join; stratified
  // placement must still evaluate it with the binding.
  Node* n = AddNode("n1");
  Load(n,
       "materialize(dead, infinity, 10, keys(1,2)).\n"
       "materialize(route, infinity, 10, keys(1,2)).\n"
       "r1 usable@N(Via) :- probe@N(), not dead@N(Via), route@N(Via).");
  n->InjectEvent(Tuple::Make("route", {Value::Str("n1"), Value::Str("a")}));
  n->InjectEvent(Tuple::Make("route", {Value::Str("n1"), Value::Str("b")}));
  n->InjectEvent(Tuple::Make("dead", {Value::Str("n1"), Value::Str("a")}));
  std::vector<TupleRef> usable;
  n->SubscribeEvent("usable", [&](const TupleRef& t) { usable.push_back(t); });
  net_.RunFor(0.1);
  n->InjectEvent(Tuple::Make("probe", {Value::Str("n1")}));
  net_.RunFor(0.1);
  ASSERT_EQ(usable.size(), 1u);
  EXPECT_EQ(usable[0]->field(1), Value::Str("b"));
}

TEST_F(EngineTest, WatchStatementsLogTuples) {
  Node* n = AddNode("n1");
  Load(n,
       "watch(alert).\n"
       "r1 alert@N(X) :- sensor@N(X), X > 10.");
  std::vector<std::string> printed;
  n->SetWatchSink([&](double, const TupleRef& t) { printed.push_back(t->ToString()); });
  n->InjectEvent(Tuple::Make("sensor", {Value::Str("n1"), Value::Int(5)}));
  n->InjectEvent(Tuple::Make("sensor", {Value::Str("n1"), Value::Int(50)}));
  net_.RunFor(0.1);
  ASSERT_EQ(n->watch_log().size(), 1u);
  EXPECT_EQ(n->watch_log()[0].tuple->field(1), Value::Int(50));
  ASSERT_EQ(printed.size(), 1u);
  EXPECT_EQ(printed[0], "alert(n1, 50)");
}

TEST_F(EngineTest, CrashedNodeStopsProcessing) {
  Node* a = AddNode("a");
  Node* b = AddNode("b");
  Load(a, "r1 ping@Other(NAddr) :- go@NAddr(Other).");
  Load(b,
       "materialize(seen, infinity, 100, keys(1,2)).\n"
       "r2 seen@N(From) :- ping@N(From).\n"
       "r3 tick@N(E) :- periodic@N(E, 1).");
  int ticks = 0;
  Count(b, "tick", &ticks);
  a->InjectEvent(Tuple::Make("go", {Value::Str("a"), Value::Str("b")}));
  net_.RunFor(2.0);
  EXPECT_EQ(b->TableContents("seen").size(), 1u);
  int ticks_before = ticks;
  EXPECT_GT(ticks_before, 0);

  b->Crash();
  a->InjectEvent(Tuple::Make("go", {Value::Str("a"), Value::Str("b")}));
  net_.RunFor(3.0);
  EXPECT_EQ(ticks, ticks_before);  // timers silent while down
  EXPECT_EQ(b->TableContents("seen").size(), 1u);

  b->Revive();
  a->InjectEvent(Tuple::Make("go", {Value::Str("a"), Value::Str("b")}));
  net_.RunFor(2.0);
  EXPECT_GT(ticks, ticks_before);  // timers resumed
}

// A crash drops the node's queued work, including a continuous aggregate's pending
// re-evaluation. Revive must queue it again: otherwise the rule's dirty flag stays
// set, every later change is coalesced into a re-evaluation that never runs, and the
// aggregate freezes.
TEST_F(EngineTest, ReviveRequeuesAggregateReevaluationsTheCrashDropped) {
  struct Outcome {
    std::string row;
    uint64_t reevals = 0;
  };
  auto run = [](bool crash) {
    Network net(MakeConfig());
    NodeOptions opts;
    opts.introspection = false;
    Node* n = net.AddNode("n1", opts);
    std::string error;
    EXPECT_TRUE(n->LoadProgram("materialize(s, infinity, 100, keys(1,2)).\n"
                               "materialize(cnt, infinity, 10, keys(1)).\n"
                               "m1 cnt@N(count<*>) :- s@N(X).",
                               &error))
        << error;
    if (crash) {
      // Before the install-time re-evaluation has drained.
      n->Crash();
      n->Revive();
    }
    for (int i = 1; i <= 3; ++i) {
      n->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(i)}));
    }
    net.RunFor(5.0);
    Outcome out;
    for (const TupleRef& t : n->TableContents("cnt")) {
      out.row += t->ToString();
    }
    out.reevals = n->stats().agg_reevals;
    return out;
  };
  Outcome twin = run(false);
  Outcome crashed = run(true);
  EXPECT_EQ(twin.row, "cnt(n1, 3)");
  EXPECT_EQ(crashed.row, twin.row);
  EXPECT_GT(crashed.reevals, 0u);
}

TEST_F(EngineTest, RemoteDeleteRequests) {
  Node* a = AddNode("a");
  Node* b = AddNode("b");
  Load(a, "d1 delete s@Other(X) :- zap@NAddr(Other, X).");
  Load(b, "materialize(s, infinity, 10, keys(1,2)).");
  b->InjectEvent(Tuple::Make("s", {Value::Str("b"), Value::Int(9)}));
  net_.RunFor(0.1);
  ASSERT_EQ(b->TableContents("s").size(), 1u);
  a->InjectEvent(Tuple::Make("zap", {Value::Str("a"), Value::Str("b"), Value::Int(9)}));
  net_.RunFor(1.0);
  EXPECT_EQ(b->TableContents("s").size(), 0u);
}

}  // namespace
}  // namespace p2
