#include "src/runtime/value.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "src/common/strings.h"

namespace p2 {

namespace {

[[noreturn]] void BadAccess(const char* what) {
  fprintf(stderr, "p2::Value: bad access: %s\n", what);
  abort();
}

// Kinds that participate in unsigned modular arithmetic.
bool IsId(const Value& v) { return v.kind() == Value::Kind::kId; }
bool IsDoubleKind(const Value& v) { return v.kind() == Value::Kind::kDouble; }

// Int arithmetic wraps modulo 2^64 (two's complement), computed in uint64_t so an
// overflowing operand pair is defined behaviour rather than UB.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }

}  // namespace

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.b_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.i_ = i;
  return v;
}

Value Value::Id(uint64_t u) {
  Value v;
  v.kind_ = Kind::kId;
  v.u_ = u;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.kind_ = Kind::kDouble;
  v.d_ = d;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  new (&v.s_) std::string(std::move(s));
  v.kind_ = Kind::kString;
  return v;
}

Value Value::List(ValueList items) {
  Value v;
  // The control block and the vector object recycle through the tuple arena like
  // everything else tuple-shaped; the element buffer already does (ValueList).
  new (&v.l_) std::shared_ptr<const ValueList>(
      std::allocate_shared<const ValueList>(ArenaAllocator<ValueList>(),
                                            std::move(items)));
  v.kind_ = Kind::kList;
  return v;
}

bool Value::AsBool() const {
  if (kind_ != Kind::kBool) {
    BadAccess("AsBool");
  }
  return b_;
}

int64_t Value::AsInt() const {
  if (kind_ != Kind::kInt) {
    BadAccess("AsInt");
  }
  return i_;
}

uint64_t Value::AsId() const {
  if (kind_ != Kind::kId) {
    BadAccess("AsId");
  }
  return u_;
}

double Value::AsDouble() const {
  if (kind_ != Kind::kDouble) {
    BadAccess("AsDouble");
  }
  return d_;
}

const std::string& Value::AsString() const {
  if (kind_ != Kind::kString) {
    BadAccess("AsString");
  }
  return s_;
}

const ValueList& Value::AsList() const {
  if (kind_ != Kind::kList) {
    BadAccess("AsList");
  }
  return *l_;
}

double Value::ToDouble() const {
  switch (kind_) {
    case Kind::kBool:
      return b_ ? 1.0 : 0.0;
    case Kind::kInt:
      return static_cast<double>(i_);
    case Kind::kId:
      return static_cast<double>(u_);
    case Kind::kDouble:
      return d_;
    default:
      BadAccess("ToDouble");
  }
}

uint64_t Value::ToUint() const {
  switch (kind_) {
    case Kind::kBool:
      return b_ ? 1 : 0;
    case Kind::kInt:
      return static_cast<uint64_t>(i_);
    case Kind::kId:
      return u_;
    case Kind::kDouble:
      return static_cast<uint64_t>(d_);
    default:
      BadAccess("ToUint");
  }
}

int64_t Value::ToInt() const {
  switch (kind_) {
    case Kind::kBool:
      return b_ ? 1 : 0;
    case Kind::kInt:
      return i_;
    case Kind::kId:
      return static_cast<int64_t>(u_);
    case Kind::kDouble:
      return static_cast<int64_t>(d_);
    default:
      BadAccess("ToInt");
  }
}

bool Value::Truthy() const {
  switch (kind_) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return b_;
    case Kind::kInt:
      return i_ != 0;
    case Kind::kId:
      return u_ != 0;
    case Kind::kDouble:
      return d_ != 0;
    case Kind::kString:
      return !s_.empty();
    case Kind::kList:
      return !l_->empty();
  }
  return false;
}

bool Value::operator==(const Value& other) const { return Compare(other) == 0; }

int Value::Compare(const Value& other) const {
  // Numeric kinds compare by value across kinds.
  if (is_numeric() && other.is_numeric()) {
    // Prefer exact unsigned comparison when neither side is a double: ids may exceed
    // the 53-bit exactly-representable range of double.
    if (!IsDoubleKind(*this) && !IsDoubleKind(other)) {
      if (kind_ == Kind::kInt && other.kind_ == Kind::kInt) {
        return i_ < other.i_ ? -1 : (i_ > other.i_ ? 1 : 0);
      }
      // Mixed Int/Id or Id/Id: a negative Int is below any Id.
      if (kind_ == Kind::kInt && i_ < 0) {
        return -1;
      }
      if (other.kind_ == Kind::kInt && other.i_ < 0) {
        return 1;
      }
      uint64_t a = ToUint();
      uint64_t b = other.ToUint();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = ToDouble();
    double b = other.ToDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (kind_ != other.kind_) {
    return static_cast<int>(kind_) < static_cast<int>(other.kind_) ? -1 : 1;
  }
  switch (kind_) {
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return b_ == other.b_ ? 0 : (b_ ? 1 : -1);
    case Kind::kString: {
      int c = s_.compare(other.s_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Kind::kList: {
      const ValueList& a = *l_;
      const ValueList& b = *other.l_;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) {
          return c;
        }
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
    default:
      return 0;  // unreachable: numeric kinds handled above
  }
}

Value Value::Add(const Value& a, const Value& b) {
  if (a.kind_ == Kind::kString || b.kind_ == Kind::kString) {
    return Str(a.ToString() + b.ToString());
  }
  if (a.kind_ == Kind::kList && b.kind_ == Kind::kList) {
    ValueList out = a.AsList();
    for (const Value& v : b.AsList()) {
      out.push_back(v);
    }
    return List(std::move(out));
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    return Null();
  }
  if (IsId(a) || IsId(b)) {
    return Id(a.ToUint() + b.ToUint());  // modular 2^64
  }
  if (IsDoubleKind(a) || IsDoubleKind(b)) {
    return Double(a.ToDouble() + b.ToDouble());
  }
  return Int(Wrap(a.ToUint() + b.ToUint()));
}

Value Value::Sub(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Null();
  }
  if (IsId(a) || IsId(b)) {
    return Id(a.ToUint() - b.ToUint());  // modular 2^64
  }
  if (IsDoubleKind(a) || IsDoubleKind(b)) {
    return Double(a.ToDouble() - b.ToDouble());
  }
  return Int(Wrap(a.ToUint() - b.ToUint()));
}

Value Value::Mul(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Null();
  }
  if (IsId(a) || IsId(b)) {
    return Id(a.ToUint() * b.ToUint());
  }
  if (IsDoubleKind(a) || IsDoubleKind(b)) {
    return Double(a.ToDouble() * b.ToDouble());
  }
  return Int(Wrap(a.ToUint() * b.ToUint()));
}

Value Value::Div(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Null();
  }
  // The paper's consistency metric divides two counts and expects a ratio; division is
  // therefore double-valued unless both operands are Ids.
  if (IsId(a) && IsId(b)) {
    if (b.ToUint() == 0) {
      return Null();
    }
    return Id(a.ToUint() / b.ToUint());
  }
  double denom = b.ToDouble();
  if (denom == 0) {
    return Null();
  }
  return Double(a.ToDouble() / denom);
}

Value Value::Mod(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Null();
  }
  if (IsDoubleKind(a) || IsDoubleKind(b)) {
    double m = b.ToDouble();
    if (m == 0) {
      return Null();
    }
    return Double(std::fmod(a.ToDouble(), m));
  }
  if (IsId(a) || IsId(b)) {
    uint64_t m = b.ToUint();
    if (m == 0) {
      return Null();
    }
    return Id(a.ToUint() % m);
  }
  int64_t m = b.ToInt();
  if (m == 0) {
    return Null();
  }
  if (m == -1) {
    return Int(0);  // INT64_MIN % -1 traps in hardware; every X % -1 is 0
  }
  return Int(a.ToInt() % m);
}

Value Value::Neg(const Value& a) {
  switch (a.kind_) {
    case Kind::kInt:
      return Int(Wrap(0 - static_cast<uint64_t>(a.i_)));
    case Kind::kId:
      return Id(~a.u_ + 1);
    case Kind::kDouble:
      return Double(-a.d_);
    default:
      return Null();
  }
}

bool Value::InInterval(const Value& x, const Value& lo, const Value& hi, bool open_left,
                       bool open_right) {
  if (!x.is_numeric() || !lo.is_numeric() || !hi.is_numeric()) {
    return false;
  }
  const bool ring = IsId(x) || IsId(lo) || IsId(hi);
  if (!ring) {
    double v = x.ToDouble();
    double a = lo.ToDouble();
    double b = hi.ToDouble();
    bool low_ok = open_left ? (v > a) : (v >= a);
    bool high_ok = open_right ? (v < b) : (v <= b);
    return low_ok && high_ok;
  }
  uint64_t v = x.ToUint();
  uint64_t a = lo.ToUint();
  uint64_t b = hi.ToUint();
  // Closed endpoints match outright; Chord's `(n, n]` convention then makes an interval
  // with equal endpoints cover the entire ring.
  if (!open_left && v == a) {
    return true;
  }
  if (!open_right && v == b) {
    return true;
  }
  if (v == a || v == b) {
    return false;  // endpoint, but that side is open
  }
  uint64_t da = v - a;  // distance from a, wrapping
  uint64_t db = b - a;  // interval length, wrapping
  if (db == 0) {
    return true;  // a == b, v distinct: full ring
  }
  return da < db;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return b_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(i_);
    case Kind::kId:
      return std::to_string(u_);
    case Kind::kDouble: {
      // Print doubles compactly; times are seconds with microsecond precision.
      std::string s = StrFormat("%.6g", d_);
      return s;
    }
    case Kind::kString:
      return s_;
    case Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < l_->size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += (*l_)[i].ToString();
      }
      out += "]";
      return out;
    }
  }
  return "?";
}

size_t Value::Hash() const {
  auto mix = [](size_t h, size_t v) { return h * 1099511628211ULL ^ v; };
  if (is_numeric() || kind_ == Kind::kBool) {
    // Hash by canonical numeric value so Int(3), Id(3), Double(3.0) collide (they
    // compare equal). Non-double kinds hash their two's-complement 64-bit image; whole
    // doubles hash the same image so equality implies hash equality.
    if (!IsDoubleKind(*this)) {
      return mix(14695981039346656037ULL, std::hash<uint64_t>()(ToUint()));
    }
    double d = ToDouble();
    if (std::trunc(d) == d && d >= -9.2e18 && d < 9.2e18) {
      return mix(14695981039346656037ULL,
                 std::hash<uint64_t>()(static_cast<uint64_t>(static_cast<int64_t>(d))));
    }
    if (std::trunc(d) == d && d >= 0 && d < 1.8e19) {
      return mix(14695981039346656037ULL, std::hash<uint64_t>()(static_cast<uint64_t>(d)));
    }
    return mix(14695981039346656037ULL, std::hash<double>()(d));
  }
  switch (kind_) {
    case Kind::kNull:
      return 0x9e3779b9;
    case Kind::kString:
      return mix(0x5bd1e995, std::hash<std::string>()(s_));
    case Kind::kList: {
      size_t h = 0x27d4eb2f;
      for (const Value& v : *l_) {
        h = mix(h, v.Hash());
      }
      return h;
    }
    default:
      return 0;
  }
}

size_t Value::ByteSize() const {
  size_t base = sizeof(Value);
  if (kind_ == Kind::kString) {
    base += s_.size();
  } else if (kind_ == Kind::kList) {
    for (const Value& v : *l_) {
      base += v.ByteSize();
    }
  }
  return base;
}

}  // namespace p2
