#include "src/runtime/value.h"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

namespace p2 {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value::Null().kind(), Value::Kind::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(-5).AsInt(), -5);
  EXPECT_EQ(Value::Id(42).AsId(), 42u);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
  EXPECT_EQ(Value::List({Value::Int(1)}).AsList().size(), 1u);
}

TEST(ValueTest, NumericEqualityAcrossKinds) {
  EXPECT_EQ(Value::Int(3), Value::Id(3));
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_EQ(Value::Id(3), Value::Double(3.0));
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_NE(Value::Int(3), Value::Str("3"));
}

TEST(ValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Id(3).Hash());
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Int(-3).Hash(), Value::Double(-3.0).Hash());
  EXPECT_EQ(Value::Str("x").Hash(), Value::Str("x").Hash());
}

TEST(ValueTest, CompareOrdersNumerics) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Id(~0ULL).Compare(Value::Int(5)), 0);
  // A negative Int is below any Id.
  EXPECT_LT(Value::Int(-1).Compare(Value::Id(0)), 0);
}

TEST(ValueTest, IdArithmeticIsModular) {
  Value max = Value::Id(~0ULL);
  EXPECT_EQ(Value::Add(max, Value::Int(1)).AsId(), 0u);
  EXPECT_EQ(Value::Sub(Value::Id(0), Value::Int(1)).AsId(), ~0ULL);
}

TEST(ValueTest, StringConcatenation) {
  EXPECT_EQ(Value::Add(Value::Str("a"), Value::Int(3)).AsString(), "a3");
  EXPECT_EQ(Value::Add(Value::Int(3), Value::Str("a")).AsString(), "3a");
}

TEST(ValueTest, ListConcatenation) {
  Value a = Value::List({Value::Int(1)});
  Value b = Value::List({Value::Int(2)});
  Value ab = Value::Add(a, b);
  ASSERT_EQ(ab.AsList().size(), 2u);
  EXPECT_EQ(ab.AsList()[1], Value::Int(2));
}

TEST(ValueTest, DivisionSemantics) {
  // Int/Int is a ratio (the paper's consistency metric divides two counts).
  EXPECT_DOUBLE_EQ(Value::Div(Value::Int(1), Value::Int(2)).AsDouble(), 0.5);
  EXPECT_TRUE(Value::Div(Value::Int(1), Value::Int(0)).is_null());
  EXPECT_EQ(Value::Div(Value::Id(7), Value::Id(2)).AsId(), 3u);
  EXPECT_TRUE(Value::Mod(Value::Int(5), Value::Int(0)).is_null());
  EXPECT_EQ(Value::Mod(Value::Int(7), Value::Int(3)).AsInt(), 1);
}

// Int arithmetic wraps modulo 2^64 like the two's-complement hardware it runs on, so
// overflow is defined (no UB under -fsanitize=undefined) and never traps.
TEST(ValueTest, IntArithmeticWrapsOnOverflow) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Value::Add(Value::Int(kMax), Value::Int(1)).AsInt(), kMin);
  EXPECT_EQ(Value::Sub(Value::Int(kMin), Value::Int(1)).AsInt(), kMax);
  EXPECT_EQ(Value::Mul(Value::Int(kMin), Value::Int(-1)).AsInt(), kMin);
  EXPECT_EQ(Value::Neg(Value::Int(kMin)).AsInt(), kMin);
  EXPECT_EQ(Value::Neg(Value::Int(5)).AsInt(), -5);
  EXPECT_EQ(Value::Mul(Value::Int(-3), Value::Int(4)).AsInt(), -12);
}

// INT64_MIN % -1 overflows the quotient and raises SIGFPE on x86; a rule computing
// X % Y over received values must not be crashable by a peer.
TEST(ValueTest, IntModByMinusOneIsZero) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Value::Mod(Value::Int(kMin), Value::Int(-1)).AsInt(), 0);
  EXPECT_EQ(Value::Mod(Value::Int(7), Value::Int(-1)).AsInt(), 0);
  EXPECT_EQ(Value::Mod(Value::Int(-7), Value::Int(3)).AsInt(), -1);
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_FALSE(Value::Str("").Truthy());
  EXPECT_TRUE(Value::Str("-").Truthy());
  EXPECT_TRUE(Value::Double(0.1).Truthy());
}

// --- ring interval membership (the `in` operator) ---

struct IntervalCase {
  uint64_t x, a, b;
  bool open_left, open_right;
  bool expect;
};

class IntervalTest : public ::testing::TestWithParam<IntervalCase> {};

TEST_P(IntervalTest, Membership) {
  const IntervalCase& c = GetParam();
  EXPECT_EQ(Value::InInterval(Value::Id(c.x), Value::Id(c.a), Value::Id(c.b), c.open_left,
                              c.open_right),
            c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ring, IntervalTest,
    ::testing::Values(
        // Plain interval, no wrap.
        IntervalCase{5, 1, 10, true, true, true},
        IntervalCase{1, 1, 10, true, true, false},   // open left endpoint
        IntervalCase{1, 1, 10, false, true, true},   // closed left endpoint
        IntervalCase{10, 1, 10, true, true, false},  // open right endpoint
        IntervalCase{10, 1, 10, true, false, true},  // closed right endpoint
        IntervalCase{11, 1, 10, true, false, false},
        // Wrap-around interval (a > b).
        IntervalCase{~0ULL, 100, 5, true, true, true},
        IntervalCase{2, 100, 5, true, true, true},
        IntervalCase{50, 100, 5, true, true, false},
        // Degenerate (a == b): Chord's (n, n] covers the whole ring incl. n.
        IntervalCase{7, 7, 7, true, false, true},
        IntervalCase{123, 7, 7, true, false, true},
        IntervalCase{7, 7, 7, true, true, false},   // fully open excludes the endpoint
        IntervalCase{123, 7, 7, true, true, true}));

TEST(ValueTest, LinearIntervalForInts) {
  // Non-Id numerics use linear (non-wrapping) semantics.
  EXPECT_TRUE(Value::InInterval(Value::Int(5), Value::Int(1), Value::Int(10), true, true));
  EXPECT_FALSE(
      Value::InInterval(Value::Int(0), Value::Int(1), Value::Int(10), true, true));
  EXPECT_FALSE(
      Value::InInterval(Value::Int(11), Value::Int(10), Value::Int(1), true, true));
}

// Property sweep over random operand pairs: algebraic invariants of Value arithmetic
// and comparison that every rule evaluation depends on.
class ValueAlgebraProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueAlgebraProperty, Invariants) {
  // Deterministic operand pool derived from the seed.
  uint64_t seed = GetParam();
  auto next = [&seed]() {
    seed += 0x9e3779b97f4a7c15ULL;
    uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return z ^ (z >> 27);
  };
  std::vector<Value> pool;
  for (int i = 0; i < 8; ++i) {
    uint64_t r = next();
    switch (r % 4) {
      case 0: pool.push_back(Value::Int(static_cast<int64_t>(r >> 1))); break;
      case 1: pool.push_back(Value::Id(r)); break;
      case 2: pool.push_back(Value::Double(static_cast<double>(r % 100000) / 7)); break;
      case 3: pool.push_back(Value::Int(-static_cast<int64_t>(r % 1000))); break;
    }
  }
  for (const Value& a : pool) {
    // Reflexivity and hash consistency.
    EXPECT_EQ(a, a);
    EXPECT_EQ(a.Hash(), a.Hash());
    for (const Value& b : pool) {
      // Commutativity of + and *.
      EXPECT_EQ(Value::Add(a, b), Value::Add(b, a));
      EXPECT_EQ(Value::Mul(a, b), Value::Mul(b, a));
      // Comparison antisymmetry.
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
      // Equality implies equal hashes.
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash());
      }
      // a - b + b == a for same-kind integral operands (no precision loss).
      if (a.kind() == Value::Kind::kId && b.kind() == Value::Kind::kId) {
        EXPECT_EQ(Value::Add(Value::Sub(a, b), b), a);
      }
      // Degenerate closed interval: for linear (non-Id) operands, x in [b, b] iff
      // x == b; on the ring a closed endpoint always admits b itself.
      if (a.kind() != Value::Kind::kId && b.kind() != Value::Kind::kId) {
        EXPECT_EQ(Value::InInterval(a, b, b, false, false), a == b);
      } else {
        EXPECT_TRUE(Value::InInterval(b, b, b, false, false));
      }
    }
  }
  // Ring-interval partition: for random (x, lo, hi) with distinct values, x is in
  // exactly one of (lo, hi] and (hi, lo].
  for (int i = 0; i < 64; ++i) {
    uint64_t x = next();
    uint64_t lo = next();
    uint64_t hi = next();
    if (x == lo || x == hi || lo == hi) {
      continue;
    }
    bool in_first = Value::InInterval(Value::Id(x), Value::Id(lo), Value::Id(hi), true,
                                      false);
    bool in_second = Value::InInterval(Value::Id(x), Value::Id(hi), Value::Id(lo), true,
                                       false);
    EXPECT_NE(in_first, in_second) << x << " " << lo << " " << hi;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueAlgebraProperty, ::testing::Values(1, 7, 42, 1234));

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Int(-2).ToString(), "-2");
  EXPECT_EQ(Value::Str("x").ToString(), "x");
  EXPECT_EQ(Value::List({Value::Int(1), Value::Str("a")}).ToString(), "[1, a]");
}

}  // namespace
}  // namespace p2
