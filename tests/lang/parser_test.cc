#include "src/lang/parser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace p2 {
namespace {

Program MustParse(const std::string& src, ParamMap params = ParamMap()) {
  Program program;
  std::string error;
  EXPECT_TRUE(ParseProgram(src, params, &program, &error)) << error;
  return program;
}

void CollectOccurrences(const Expr& expr, std::vector<std::pair<std::string, int>>* out) {
  if (expr.kind == Expr::Kind::kVar) {
    out->emplace_back(expr.name, expr.slot);
  }
  for (const ExprPtr& c : expr.children) {
    CollectOccurrences(*c, out);
  }
}

// Every variable occurrence in `rule`, assignment targets included, as (name, slot).
std::vector<std::pair<std::string, int>> VarOccurrences(const Rule& rule) {
  std::vector<std::pair<std::string, int>> out;
  for (const HeadArg& arg : rule.head.args) {
    if (arg.expr != nullptr) {
      CollectOccurrences(*arg.expr, &out);
    }
  }
  for (const BodyTerm& term : rule.body) {
    if (term.kind == BodyTerm::Kind::kPredicate) {
      for (const ExprPtr& arg : term.pred.args) {
        CollectOccurrences(*arg, &out);
      }
      continue;
    }
    if (term.kind == BodyTerm::Kind::kAssign) {
      out.emplace_back(term.var, term.slot);
    }
    CollectOccurrences(*term.expr, &out);
  }
  return out;
}

TEST(ParserTest, Materialize) {
  Program p = MustParse("materialize(link, 100, 5, keys(1)).\n"
                        "materialize(path, infinity, infinity, keys(1,2)).");
  ASSERT_EQ(p.materializations.size(), 2u);
  EXPECT_EQ(p.materializations[0].name, "link");
  EXPECT_DOUBLE_EQ(p.materializations[0].lifetime_secs, 100);
  EXPECT_EQ(p.materializations[0].max_size, 5u);
  ASSERT_EQ(p.materializations[0].key_fields.size(), 1u);
  EXPECT_EQ(p.materializations[0].key_fields[0], 0u);  // 1-based in source
  EXPECT_TRUE(std::isinf(p.materializations[1].lifetime_secs));
  EXPECT_EQ(p.materializations[1].max_size, std::numeric_limits<size_t>::max());
}

TEST(ParserTest, MaterializeWithParams) {
  ParamMap params;
  params["tWin"] = Value::Double(120);
  Program p = MustParse("materialize(oscill, tWin, infinity, keys(2,3)).", params);
  EXPECT_DOUBLE_EQ(p.materializations[0].lifetime_secs, 120);
}

TEST(ParserTest, SimpleRuleWithAtForm) {
  Program p = MustParse("rp2 respBestSucc@ReqAddr(NAddr, SAddr) :- "
                        "reqBestSucc@NAddr(ReqAddr), bestSucc@NAddr(SID, SAddr).");
  ASSERT_EQ(p.rules.size(), 1u);
  const Rule& r = p.rules[0];
  EXPECT_EQ(r.id, "rp2");
  EXPECT_EQ(r.head.name, "respBestSucc");
  ASSERT_EQ(r.head.args.size(), 3u);  // loc + 2
  EXPECT_EQ(r.head.args[0].expr->name, "ReqAddr");
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_EQ(r.body[0].pred.name, "reqBestSucc");
  EXPECT_EQ(r.body[0].pred.args.size(), 2u);  // loc + 1
}

TEST(ParserTest, RuleWithoutIdAndWithoutAt) {
  Program p = MustParse("path(B, C, P, W) :- link(A, B, W2), path(A, C, P2, W3).");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_FALSE(p.rules[0].id.empty());  // synthesized
  EXPECT_EQ(p.rules[0].head.args.size(), 4u);  // first arg is the location
}

TEST(ParserTest, BracketedRuleId) {
  Program p = MustParse("[r1] out@N(X) :- in@N(X).");
  EXPECT_EQ(p.rules[0].id, "r1");
}

TEST(ParserTest, DeleteRule) {
  Program p = MustParse("cs10 delete lookupCluster@NAddr(ProbeID, T, Count) :- "
                        "consistency@NAddr(ProbeID, Consistency).");
  EXPECT_TRUE(p.rules[0].is_delete);
  EXPECT_EQ(p.rules[0].head.name, "lookupCluster");
}

TEST(ParserTest, Aggregates) {
  Program p = MustParse(
      "os3 countOscill@NAddr(OscillAddr, count<*>) :- periodic@NAddr(E, 60), "
      "oscill@NAddr(OscillAddr, Time).\n"
      "l2 bestLookupDist@NAddr(K, R, E, min<D>) :- lookup@NAddr(K, R, E), "
      "finger@NAddr(I, FID, FAddr), D := K - FID - 1.\n"
      "m maxCluster@NAddr(P, max<Count>) :- respCluster@NAddr(P, S, Count).");
  EXPECT_EQ(p.rules[0].head.args[2].agg, AggKind::kCount);
  EXPECT_EQ(p.rules[0].head.args[2].expr, nullptr);
  EXPECT_EQ(p.rules[1].head.args[4].agg, AggKind::kMin);
  EXPECT_EQ(p.rules[1].head.args[4].expr->name, "D");
  EXPECT_EQ(p.rules[2].head.args[2].agg, AggKind::kMax);
}

TEST(ParserTest, AssignmentsAndFilters) {
  Program p = MustParse("r1 out@N(T) :- ev@N(X), T := f_now(), X != 3, (X > 1) || (X < 0).");
  ASSERT_EQ(p.rules[0].body.size(), 4u);
  EXPECT_EQ(p.rules[0].body[1].kind, BodyTerm::Kind::kAssign);
  EXPECT_EQ(p.rules[0].body[1].var, "T");
  EXPECT_EQ(p.rules[0].body[2].kind, BodyTerm::Kind::kFilter);
  EXPECT_EQ(p.rules[0].body[3].kind, BodyTerm::Kind::kFilter);
}

TEST(ParserTest, RingIntervalForms) {
  Program p = MustParse(
      "l1 res@R(K) :- lookup@N(K, R, E), node@N(NID), bestSucc@N(SID, SA), "
      "K in (NID, SID].\n"
      "x y@N(K) :- e@N(K), K in [1, 5).");
  const BodyTerm& t1 = p.rules[0].body.back();
  EXPECT_EQ(t1.kind, BodyTerm::Kind::kFilter);
  EXPECT_EQ(t1.expr->kind, Expr::Kind::kInterval);
  EXPECT_TRUE(t1.expr->open_left);
  EXPECT_FALSE(t1.expr->open_right);
  const BodyTerm& t2 = p.rules[1].body.back();
  EXPECT_FALSE(t2.expr->open_left);
  EXPECT_TRUE(t2.expr->open_right);
}

TEST(ParserTest, ParamsResolvedAtParseTime) {
  ParamMap params;
  params["tProbe"] = Value::Double(15);
  params["target"] = Value::Str("cs2");
  Program p = MustParse(
      "r1 a@N(E) :- periodic@N(E, tProbe).\n"
      "r2 b@N(R) :- f@N(R), R == target.",
      params);
  EXPECT_EQ(p.rules[0].body[0].pred.args[2]->constant, Value::Double(15));
}

TEST(ParserTest, UnknownParamFails) {
  Program program;
  std::string error;
  EXPECT_FALSE(ParseProgram("r1 a@N(E) :- periodic@N(E, nosuch).", &program, &error));
  EXPECT_NE(error.find("nosuch"), std::string::npos);
}

TEST(ParserTest, ListLiterals) {
  Program p = MustParse("p1 path@B(C, [B, A] + P) :- link@A(B), path@A(C, P).");
  const HeadArg& arg = p.rules[0].head.args[2];
  EXPECT_EQ(arg.expr->kind, Expr::Kind::kBinary);
  EXPECT_EQ(arg.expr->children[0]->kind, Expr::Kind::kMakeList);
}

TEST(ParserTest, NegatedPredicates) {
  Program p = MustParse("r1 out@N(X) :- ev@N(X), not seen@N(X).");
  ASSERT_EQ(p.rules[0].body.size(), 2u);
  EXPECT_FALSE(p.rules[0].body[0].negated);
  EXPECT_TRUE(p.rules[0].body[1].negated);
  EXPECT_EQ(p.rules[0].body[1].pred.name, "seen");
  // `not` only applies to predicates: a variable comparison still parses as a filter.
  Program q = MustParse("r2 out@N(X) :- ev@N(X, Not), Not > 3.");
  EXPECT_EQ(q.rules[0].body[1].kind, BodyTerm::Kind::kFilter);
}

TEST(ParserTest, SumAggregate) {
  Program p = MustParse("r1 total@N(sum<X>) :- w@N(X).");
  EXPECT_EQ(p.rules[0].head.args[1].agg, AggKind::kSum);
}

TEST(ParserTest, WatchStatement) {
  Program p = MustParse("watch(lookupResults).");
  ASSERT_EQ(p.watches.size(), 1u);
  EXPECT_EQ(p.watches[0], "lookupResults");
}

TEST(ParserTest, HeadArgExpressions) {
  Program p = MustParse("sr1 snap@NAddr(I + 1) :- periodic@NAddr(E, 10), "
                        "currentSnap@NAddr(I).");
  EXPECT_EQ(p.rules[0].head.args[1].expr->kind, Expr::Kind::kBinary);
}

TEST(ParserTest, SyntaxErrorsReported) {
  Program program;
  std::string error;
  EXPECT_FALSE(ParseProgram("r1 head@N(X :- b@N(X).", &program, &error));
  EXPECT_FALSE(ParseProgram("materialize(x, abc, 5, keys(1)).", &program, &error));
  EXPECT_FALSE(ParseProgram("r1 head@N(X) : b@N(X).", &program, &error));
  EXPECT_FALSE(ParseProgram("r1 head@N(count<X) :- b@N(X).", &program, &error));
}

// ruleExec provenance, rule metrics and unloads key on the rule id, so one program
// may not use an id twice. Unnamed rules get an id from their line, so two of them on
// one line collide too.
TEST(ParserTest, RepeatedRuleIdFails) {
  Program program;
  std::string error;
  EXPECT_FALSE(ParseProgram("r1 c@N(X) :- b@N(X).\nr1 d@N(X) :- b@N(X).", &program,
                            &error));
  EXPECT_NE(error.find("line 2: duplicate rule id r1"), std::string::npos) << error;
  EXPECT_FALSE(ParseProgram("c@N(X) :- b@N(X). d@N(X) :- b@N(X).", &program, &error));
  EXPECT_NE(error.find("duplicate rule id rule_l1"), std::string::npos) << error;
  EXPECT_TRUE(ParseProgram("c@N(X) :- b@N(X).\nd@N(X) :- b@N(X).", &program, &error))
      << error;
}

TEST(ParserTest, EveryOccurrenceOfAVariableSharesOneSlot) {
  // X is bound by the trigger, then used in a join, a filter, an assignment's
  // expression and the head.
  Program p = MustParse("r1 out@N(X, Y, Z) :- ev@N(X), t@N(X, Y), X > 0, Z := X + 1.");
  const Rule& r = p.rules[0];
  EXPECT_EQ(r.num_slots, 4u);
  std::map<std::string, std::set<int>> slots;
  size_t x_uses = 0;
  for (const auto& [name, slot] : VarOccurrences(r)) {
    slots[name].insert(slot);
    x_uses += name == "X" ? 1 : 0;
  }
  EXPECT_EQ(x_uses, 5u);
  std::set<int> distinct;
  for (const auto& [name, s] : slots) {
    ASSERT_EQ(s.size(), 1u) << name;
    EXPECT_GE(*s.begin(), 0);
    EXPECT_LT(*s.begin(), 4);
    distinct.insert(*s.begin());
  }
  EXPECT_EQ(distinct.size(), 4u);  // N, X, Y, Z
  const uint64_t x = uint64_t{1} << *slots["X"].begin();
  EXPECT_EQ(r.body[2].expr->reads, x);  // X > 0
  EXPECT_EQ(r.body[3].expr->reads, x);  // X + 1
  EXPECT_EQ(r.body[3].slot, *slots["Z"].begin());
}

TEST(ParserTest, RulesNumberTheirSlotsIndependently) {
  Program p = MustParse("r1 a@N(X, Y) :- ev@N(X, Y).\n"
                        "r2 b@M(Q) :- ev@M(Q, X).");
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.rules[0].num_slots, 3u);
  EXPECT_EQ(p.rules[1].num_slots, 3u);
  // Each rule numbers from 0 in order of first appearance, so X is slot 1 in r1 and
  // slot 2 in r2.
  EXPECT_EQ(p.rules[0].head.args[0].expr->slot, 0);   // N
  EXPECT_EQ(p.rules[1].head.args[0].expr->slot, 0);   // M
  EXPECT_EQ(p.rules[0].body[0].pred.args[1]->slot, 1);
  EXPECT_EQ(p.rules[1].body[0].pred.args[2]->slot, 2);
}

TEST(ParserTest, BooleanAndComparisonPrecedence) {
  Program p = MustParse("r1 o@N() :- e@N(C, S, R), (C > 0) || (S == R), C + 1 < 5 * 2.");
  const Expr& or_expr = *p.rules[0].body[1].expr;
  EXPECT_EQ(or_expr.op, OpKind::kOr);
  const Expr& lt = *p.rules[0].body[2].expr;
  EXPECT_EQ(lt.op, OpKind::kLt);
  EXPECT_EQ(lt.children[0]->op, OpKind::kAdd);
  EXPECT_EQ(lt.children[1]->op, OpKind::kMul);
}

}  // namespace
}  // namespace p2
