// Planner tests: rule classification and the structure of compiled strands — trigger
// selection, op ordering, stage numbering, volatile-assignment deferral, delta-strand
// generation, and continuous-aggregate classification.

#include <gtest/gtest.h>

#include "src/net/network.h"
#include "src/planner/planner.h"

namespace p2 {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    NodeOptions opts;
    opts.introspection = false;
    node_ = net_.AddNode("n1", opts);
  }

  // Parses and plans without installing; returns false + error on failure.
  bool Plan(const std::string& source, std::string* error, Node* node = nullptr) {
    if (node == nullptr) {
      node = node_;
    }
    program_ = std::make_unique<Program>();
    if (!ParseProgram(source, ParamMap(), program_.get(), error)) {
      return false;
    }
    for (const TableSpec& spec : program_->materializations) {
      node->catalog().CreateTable(spec);
    }
    plan_ = PlanResult();
    return PlanProgram(*program_, node, &plan_, error);
  }

  void MustPlan(const std::string& source) {
    std::string error;
    ASSERT_TRUE(Plan(source, &error)) << error;
  }

  // Describes a strand's ops as a compact string, e.g. "J(s1) F A J(s2)".
  static std::string Shape(const Strand& strand) {
    std::string out;
    for (const StrandOp& op : strand.ops()) {
      if (!out.empty()) {
        out += ' ';
      }
      switch (op.kind) {
        case StrandOp::Kind::kJoin:
          out += "J(" + op.pred->name + ")";
          break;
        case StrandOp::Kind::kNotExists:
          out += "N(" + op.pred->name + ")";
          break;
        case StrandOp::Kind::kAssign:
          out += "A(" + *op.var + ")";
          break;
        case StrandOp::Kind::kFilter:
          out += "F";
          break;
      }
    }
    return out;
  }

  Network net_;
  Node* node_;
  std::unique_ptr<Program> program_;
  PlanResult plan_;
};

TEST_F(PlannerTest, EventTriggerWithJoinsInBodyOrder) {
  MustPlan(
      "materialize(t1, infinity, 10, keys(1,2)).\n"
      "materialize(t2, infinity, 10, keys(1,2)).\n"
      "r1 out@N(X, Y, Z) :- ev@N(X), t1@N(Y), t2@N(Z).");
  ASSERT_EQ(plan_.strands.size(), 1u);
  const Strand& s = *plan_.strands[0];
  EXPECT_EQ(s.trigger_name(), "ev");
  EXPECT_EQ(Shape(s), "J(t1) J(t2)");
  EXPECT_EQ(s.num_stages(), 2);
  EXPECT_EQ(s.ops()[0].stage, 1);
  EXPECT_EQ(s.ops()[1].stage, 2);
}

TEST_F(PlannerTest, TriggerMayAppearMidBody) {
  // Paper rule l1: node table, lookup event, bestSucc table.
  MustPlan(
      "materialize(node, infinity, 1, keys(1)).\n"
      "materialize(bestSucc, infinity, 1, keys(1)).\n"
      "l1 res@R(K) :- node@N(NID), lookup@N(K, R, E), bestSucc@N(SID, SA), "
      "K in (NID, SID].");
  ASSERT_EQ(plan_.strands.size(), 1u);
  const Strand& s = *plan_.strands[0];
  EXPECT_EQ(s.trigger_name(), "lookup");
  EXPECT_EQ(Shape(s), "J(node) J(bestSucc) F");
}

TEST_F(PlannerTest, FiltersAndAssignsPlacedWhenBound) {
  MustPlan(
      "materialize(t, infinity, 10, keys(1,2)).\n"
      "r1 out@N(D) :- ev@N(K), K > 1, t@N(F), D := K - F, D > 0.");
  const Strand& s = *plan_.strands[0];
  // K>1 ready immediately; D needs the join.
  EXPECT_EQ(Shape(s), "F J(t) A(D) F");
}

TEST_F(PlannerTest, VolatileAssignsDeferredPastJoins) {
  // Paper cs2: each finger must get its own f_rand() request id.
  MustPlan(
      "materialize(f, infinity, 10, keys(1,2)).\n"
      "cs2 conLookup@N(K, FA, R) :- probe@N(K), R := f_rand(), f@N(FA).");
  EXPECT_EQ(Shape(*plan_.strands[0]), "J(f) A(R)");
}

TEST_F(PlannerTest, PureAssignsStayEarly) {
  MustPlan(
      "materialize(f, infinity, 10, keys(1,2)).\n"
      "r1 out@N(K2, FA) :- probe@N(K), K2 := K + 1, f@N(FA).");
  EXPECT_EQ(Shape(*plan_.strands[0]), "A(K2) J(f)");
}

TEST_F(PlannerTest, NegationsRunLast) {
  MustPlan(
      "materialize(t, infinity, 10, keys(1,2)).\n"
      "materialize(dead, infinity, 10, keys(1,2)).\n"
      "r1 out@N(Y) :- ev@N(X), not dead@N(Y), t@N(Y).");
  EXPECT_EQ(Shape(*plan_.strands[0]), "J(t) N(dead)");
}

TEST_F(PlannerTest, AllMaterializedMakesDeltaStrands) {
  MustPlan(
      "materialize(a, infinity, 10, keys(1,2)).\n"
      "materialize(b, infinity, 10, keys(1,2)).\n"
      "r1 out@N(X, Y) :- a@N(X), b@N(Y).");
  ASSERT_EQ(plan_.strands.size(), 2u);
  EXPECT_EQ(plan_.strands[0]->trigger_name(), "a");
  EXPECT_EQ(Shape(*plan_.strands[0]), "J(b)");
  EXPECT_EQ(plan_.strands[1]->trigger_name(), "b");
  EXPECT_EQ(Shape(*plan_.strands[1]), "J(a)");
}

TEST_F(PlannerTest, AllMaterializedAggregateBecomesContinuous) {
  MustPlan(
      "materialize(a, infinity, 10, keys(1,2)).\n"
      "r1 cnt@N(count<*>) :- a@N(X).");
  EXPECT_TRUE(plan_.strands.empty());
  ASSERT_EQ(plan_.agg_rules.size(), 1u);
  EXPECT_EQ(plan_.agg_rules[0]->BodyTableNames(),
            (std::vector<std::string>{"a"}));
}

TEST_F(PlannerTest, EventAggregateStaysAStrand) {
  MustPlan(
      "materialize(a, infinity, 10, keys(1,2)).\n"
      "r1 cnt@N(K, count<*>) :- q@N(K), a@N(X).");
  EXPECT_EQ(plan_.strands.size(), 1u);
  EXPECT_TRUE(plan_.agg_rules.empty());
}

TEST_F(PlannerTest, PeriodicRegistersTimer) {
  MustPlan("r1 tick@N(E) :- periodic@N(E, 2.5).");
  ASSERT_EQ(plan_.periodics.size(), 1u);
  EXPECT_DOUBLE_EQ(plan_.periodics[0].period, 2.5);
  EXPECT_EQ(plan_.periodics[0].strand, plan_.strands[0].get());
}

TEST_F(PlannerTest, SelfJoinGetsTwoDeltaStrands) {
  MustPlan(
      "materialize(e, infinity, 10, keys(1,2,3)).\n"
      "r1 two@N(A, C) :- e@N(A, B), e@N(B, C).");
  // One delta strand per occurrence of the predicate.
  ASSERT_EQ(plan_.strands.size(), 2u);
  EXPECT_EQ(Shape(*plan_.strands[0]), "J(e)");
  EXPECT_EQ(Shape(*plan_.strands[1]), "J(e)");
}

TEST_F(PlannerTest, KeyCoveredJoinsBecomeProbes) {
  MustPlan(
      "materialize(kv, infinity, 100, keys(1, 2)).\n"
      "materialize(other, infinity, 100, keys(1, 2)).\n"
      "r1 out@N(V) :- q@N(K), kv@N(K, V).\n"       // key (N, K) fully bound: probe
      "r2 out2@N(K) :- q2@N(V), kv@N(K, V).\n"     // K unbound: scan
      "r3 out3@N(V, W) :- q3@N(K), kv@N(K, V), other@N(V, W).");
  ASSERT_EQ(plan_.strands.size(), 3u);
  EXPECT_TRUE(plan_.strands[0]->ops()[0].key_lookup);
  EXPECT_FALSE(plan_.strands[1]->ops()[0].key_lookup);
  // r3: both joins probe — the second one's key (N, V) is bound by the first.
  EXPECT_TRUE(plan_.strands[2]->ops()[0].key_lookup);
  EXPECT_TRUE(plan_.strands[2]->ops()[1].key_lookup);
}

TEST_F(PlannerTest, WholeTupleKeyedTablesAlwaysScan) {
  MustPlan(
      "materialize(log, infinity, 100).\n"  // no keys: whole-tuple key
      "r1 out@N(X) :- q@N(X), log@N(X).");
  EXPECT_FALSE(plan_.strands[0]->ops()[0].key_lookup);
}

TEST_F(PlannerTest, PartiallyBoundJoinsSelectSecondaryIndexes) {
  MustPlan(
      "materialize(kv, infinity, 100, keys(1, 2)).\n"
      "materialize(tag, infinity, 100, keys(1, 2)).\n"
      "r1 out@N(K) :- q@N(V), kv@N(K, V).\n"
      "r2 out2@N(K, V) :- q2@N(K), kv@N(K, V), not tag@N(T, V).");
  // r1: the key (N, K) is not covered, but (N, V) is a bound equality prefix.
  const StrandOp& probe = plan_.strands[0]->ops()[0];
  EXPECT_FALSE(probe.key_lookup);
  EXPECT_TRUE(probe.use_index);
  EXPECT_EQ(probe.probe_positions, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(node_->catalog().Get("kv")->NumIndexes(), 1u);
  // r2: kv fully key-bound wins as an O(1) probe; the negated tag anti-joins
  // through a secondary index on its value column.
  const std::vector<StrandOp>& ops2 = plan_.strands[1]->ops();
  EXPECT_TRUE(ops2[0].key_lookup);
  EXPECT_FALSE(ops2[0].use_index);
  ASSERT_EQ(ops2[1].kind, StrandOp::Kind::kNotExists);
  EXPECT_TRUE(ops2[1].use_index);
  EXPECT_EQ(ops2[1].probe_positions, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(node_->catalog().Get("tag")->NumIndexes(), 1u);
}

TEST_F(PlannerTest, RulesProbingSamePositionsShareOneIndex) {
  MustPlan(
      "materialize(kv, infinity, 100, keys(1, 2)).\n"
      "r1 out@N(K) :- q@N(V), kv@N(K, V).\n"
      "r2 out2@N(K) :- q2@N(V), kv@N(K, V).");
  EXPECT_EQ(plan_.strands[0]->ops()[0].index_id, plan_.strands[1]->ops()[0].index_id);
  EXPECT_EQ(node_->catalog().Get("kv")->NumIndexes(), 1u);
}

TEST_F(PlannerTest, LocationOnlyBindingFallsBackToScan) {
  // Only the location arg is computable: a location-only key has no selectivity on
  // a node-local table, so no index is built.
  MustPlan(
      "materialize(kv, infinity, 100, keys(1, 2)).\n"
      "r1 out@N(K, V) :- tick@N(E), kv@N(K, V).");
  const StrandOp& op = plan_.strands[0]->ops()[0];
  EXPECT_FALSE(op.key_lookup);
  EXPECT_FALSE(op.use_index);
  EXPECT_EQ(node_->catalog().Get("kv")->NumIndexes(), 0u);
}

TEST_F(PlannerTest, VolatileArgsExcludedFromProbeKey) {
  // f_now() would have to be evaluated once to build the probe key but per-row to
  // match scan semantics — so position 3 must stay out of the index.
  MustPlan(
      "materialize(ev, infinity, 100, keys(1, 2)).\n"
      "r1 out@N(K) :- q@N(V), ev@N(K, V, f_now()).");
  const StrandOp& op = plan_.strands[0]->ops()[0];
  EXPECT_TRUE(op.use_index);
  EXPECT_EQ(op.probe_positions, (std::vector<size_t>{0, 2}));
}

TEST_F(PlannerTest, IndexSelectionCanBeDisabledPerNode) {
  NodeOptions opts;
  opts.introspection = false;
  opts.use_join_indexes = false;
  Node* scan_node = net_.AddNode("n2", opts);
  std::string error;
  ASSERT_TRUE(Plan(
      "materialize(kv, infinity, 100, keys(1, 2)).\n"
      "r1 out@N(K) :- q@N(V), kv@N(K, V).",
      &error, scan_node))
      << error;
  const StrandOp& op = plan_.strands[0]->ops()[0];
  EXPECT_FALSE(op.use_index);
  EXPECT_EQ(scan_node->catalog().Get("kv")->NumIndexes(), 0u);
}

TEST_F(PlannerTest, Rejections) {
  std::string error;
  EXPECT_FALSE(Plan("r1 out@N(X) :- e1@N(X), e2@N(X).", &error));
  EXPECT_FALSE(Plan("r2 out@N(X) :- periodic@N(E, 1), e1@N(X).", &error));
  EXPECT_FALSE(Plan("r3 out@N(count<*>, min<X>) :- periodic@N(E, 1).", &error));
  EXPECT_FALSE(Plan("materialize(t, infinity, 10, keys(1,2)).\n"
                    "r4 delete t@N(count<*>) :- e@N(X), t@N(X).",
                    &error));
  EXPECT_FALSE(Plan("r5 out@N(X) :- periodic@N(E, 1), periodic@N(E2, 2).", &error));
  // Volatile assignment feeding a join pattern.
  EXPECT_FALSE(Plan("materialize(t, infinity, 10, keys(1,2)).\n"
                    "r6 out@N(R) :- e@N(X), R := f_rand(), t@N(R).",
                    &error));
  EXPECT_NE(error.find("volatile"), std::string::npos);
  // Assigning a variable the trigger already bound.
  EXPECT_FALSE(Plan("r7 out@N(X) :- e@N(X), X := 1.", &error));
  EXPECT_NE(error.find("variable X assigned but already bound"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace p2
