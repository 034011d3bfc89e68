#include "src/lang/expr.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/lang/builtins.h"
#include "src/lang/parser.h"

namespace p2 {
namespace {

// Parses one rule.
Rule ParseRule(const std::string& text) {
  Program program;
  std::string error;
  EXPECT_TRUE(ParseProgram(text, &program, &error)) << error;
  EXPECT_EQ(program.rules.size(), 1u);
  return program.rules.empty() ? Rule() : std::move(program.rules[0]);
}

// The slot the parser gave variable `name` in `rule`'s first body predicate.
int SlotOf(const Rule& rule, const std::string& name) {
  for (const ExprPtr& arg : rule.body[0].pred.args) {
    if (arg->kind == Expr::Kind::kVar && arg->name == name) {
      return arg->slot;
    }
  }
  ADD_FAILURE() << name << " is not an argument of " << rule.body[0].pred.ToString();
  return 0;
}

// Evaluates filter expressions by wrapping each in a rule body after the trigger
// ev@N(A, B, C, S); the values given to Bind are bound at the slots that rule gives
// A, B, C and S.
class ExprEvalTest : public ::testing::Test {
 protected:
  void Bind(const std::string& var, Value v) { pending_.emplace_back(var, std::move(v)); }

  Value Eval(const std::string& text) {
    Rule rule = ParseRule("r1 out@N() :- ev@N(A, B, C, S), " + text + ".");
    EXPECT_EQ(rule.body.back().kind, BodyTerm::Kind::kFilter);
    Bindings binds(rule.num_slots);
    for (const auto& [var, value] : pending_) {
      binds.Set(SlotOf(rule, var), value);
    }
    return EvalExpr(*rule.body.back().expr, binds, ctx_);
  }

  std::vector<std::pair<std::string, Value>> pending_;
  Rng rng_{1};
  std::string addr_ = "n1";
  EvalContext ctx_{12.5, &rng_, &addr_};
};

TEST_F(ExprEvalTest, ArithmeticAndPrecedence) {
  EXPECT_EQ(Eval("1 + 2 * 3"), Value::Int(7));
  EXPECT_EQ(Eval("(1 + 2) * 3"), Value::Int(9));
  EXPECT_EQ(Eval("10 % 4"), Value::Int(2));
  EXPECT_EQ(Eval("-3 + 1"), Value::Int(-2));
}

TEST_F(ExprEvalTest, VariablesResolve) {
  Bind("A", Value::Int(5));
  EXPECT_EQ(Eval("A + 1"), Value::Int(6));
}

TEST_F(ExprEvalTest, UnboundVariableIsNullAndFiltersFalse) {
  EXPECT_TRUE(Eval("Z").is_null());
  EXPECT_FALSE(Eval("Z > 1").Truthy());
}

TEST_F(ExprEvalTest, ComparisonsAndLogicals) {
  Bind("A", Value::Int(5));
  EXPECT_TRUE(Eval("A == 5").AsBool());
  EXPECT_TRUE(Eval("A != 4").AsBool());
  EXPECT_TRUE(Eval("(A > 10) || (A > 1)").AsBool());
  EXPECT_FALSE(Eval("(A > 10) && (A > 1)").AsBool());
  EXPECT_TRUE(Eval("!(A > 10)").AsBool());
}

TEST_F(ExprEvalTest, ShortCircuitGuardsNullOperands) {
  // The paper's sb9-style guard: (PAddr == "-") || (PID2 in (PID, NID)) must not
  // fault when the right side has unbound variables.
  Bind("S", Value::Str("-"));
  EXPECT_TRUE(Eval("(S == \"-\") || (Z in (Y, X))").AsBool());
}

TEST_F(ExprEvalTest, BuiltinNow) {
  EXPECT_EQ(Eval("f_now()"), Value::Double(12.5));
  EXPECT_TRUE(Eval("f_now() - 2 < f_now()").AsBool());
}

TEST_F(ExprEvalTest, BuiltinRandProducesIds) {
  Value a = Eval("f_rand()");
  Value b = Eval("f_rand()");
  EXPECT_EQ(a.kind(), Value::Kind::kId);
  EXPECT_FALSE(a == b);
}

TEST_F(ExprEvalTest, BuiltinPow2) {
  EXPECT_EQ(Eval("f_pow2(3)"), Value::Id(8));
  EXPECT_EQ(Eval("f_pow2(63)"), Value::Id(1ULL << 63));
  EXPECT_EQ(Eval("f_pow2(64)"), Value::Id(0));
}

TEST_F(ExprEvalTest, BuiltinMinMaxAbsSizeStr) {
  EXPECT_EQ(Eval("f_min(3, 5)"), Value::Int(3));
  EXPECT_EQ(Eval("f_max(3, 5)"), Value::Int(5));
  EXPECT_EQ(Eval("f_abs(0 - 4)"), Value::Int(4));
  EXPECT_EQ(Eval("f_size([1, 2, 3])"), Value::Int(3));
  EXPECT_EQ(Eval("f_str(42)"), Value::Str("42"));
  EXPECT_EQ(Eval("f_local()"), Value::Str("n1"));
}

TEST_F(ExprEvalTest, UnknownBuiltinIsNull) {
  ValueList args;
  EXPECT_TRUE(CallBuiltin("f_nope", args, ctx_).is_null());
  EXPECT_FALSE(IsKnownBuiltin("f_nope"));
  EXPECT_TRUE(IsKnownBuiltin("f_now"));
}

TEST_F(ExprEvalTest, IntervalOnBoundVars) {
  Bind("A", Value::Id(10));
  Bind("B", Value::Id(5));
  Bind("C", Value::Id(15));
  EXPECT_TRUE(Eval("A in (B, C]").AsBool());
  EXPECT_FALSE(Eval("B in (A, C]").AsBool());
}

TEST(BindingsTest, SetFindTruncate) {
  Rule rule = ParseRule("r1 out@N(X, Y) :- ev@N(X, Y).");
  const int x = SlotOf(rule, "X");
  const int y = SlotOf(rule, "Y");
  Bindings b(rule.num_slots);
  EXPECT_EQ(b.Find(x), nullptr);
  b.Set(x, Value::Int(1));
  b.Set(y, Value::Int(2));
  ASSERT_NE(b.Find(x), nullptr);
  EXPECT_EQ(*b.Find(y), Value::Int(2));
  b.Set(x, Value::Int(9));  // overwrite in place
  EXPECT_EQ(*b.Find(x), Value::Int(9));
  EXPECT_EQ(b.size(), 2u);
  b.TruncateTo(1);
  EXPECT_EQ(b.Find(y), nullptr);
  EXPECT_NE(b.Find(x), nullptr);
  const uint64_t both = rule.head.args[1].expr->reads | rule.head.args[2].expr->reads;
  EXPECT_FALSE(b.HasAll(both));
  b.Set(y, Value::Int(3));  // a backtracked slot binds afresh
  EXPECT_EQ(*b.Find(y), Value::Int(3));
  EXPECT_TRUE(b.HasAll(both));
}

}  // namespace
}  // namespace p2
