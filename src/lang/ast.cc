#include "src/lang/ast.h"

#include "src/common/strings.h"

namespace p2 {

namespace {

const char* OpName(OpKind op) {
  switch (op) {
    case OpKind::kAdd: return "+";
    case OpKind::kSub: return "-";
    case OpKind::kMul: return "*";
    case OpKind::kDiv: return "/";
    case OpKind::kMod: return "%";
    case OpKind::kEq: return "==";
    case OpKind::kNe: return "!=";
    case OpKind::kLt: return "<";
    case OpKind::kLe: return "<=";
    case OpKind::kGt: return ">";
    case OpKind::kGe: return ">=";
    case OpKind::kAnd: return "&&";
    case OpKind::kOr: return "||";
    case OpKind::kNot: return "!";
    case OpKind::kNeg: return "-";
  }
  return "?";
}

const char* AggName(AggKind agg) {
  switch (agg) {
    case AggKind::kNone: return "";
    case AggKind::kCount: return "count";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
    case AggKind::kAvg: return "avg";
    case AggKind::kSum: return "sum";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kConst:
      if (constant.kind() == Value::Kind::kString) {
        return "\"" + constant.AsString() + "\"";
      }
      return constant.ToString();
    case Kind::kVar:
      return name;
    case Kind::kBinary:
      return "(" + children[0]->ToString() + " " + OpName(op) + " " +
             children[1]->ToString() + ")";
    case Kind::kUnary:
      return std::string(OpName(op)) + children[0]->ToString();
    case Kind::kCall: {
      std::vector<std::string> parts;
      for (const ExprPtr& c : children) {
        parts.push_back(c->ToString());
      }
      return name + "(" + Join(parts, ", ") + ")";
    }
    case Kind::kInterval:
      return children[0]->ToString() + " in " + (open_left ? "(" : "[") +
             children[1]->ToString() + ", " + children[2]->ToString() +
             (open_right ? ")" : "]");
    case Kind::kMakeList: {
      std::vector<std::string> parts;
      for (const ExprPtr& c : children) {
        parts.push_back(c->ToString());
      }
      return "[" + Join(parts, ", ") + "]";
    }
  }
  return "?";
}

std::string HeadArg::ToString() const {
  if (agg == AggKind::kNone) {
    return expr->ToString();
  }
  return std::string(AggName(agg)) + "<" + (expr ? expr->ToString() : "*") + ">";
}

std::string Predicate::ToString() const {
  std::vector<std::string> parts;
  for (size_t i = 1; i < args.size(); ++i) {
    parts.push_back(args[i]->ToString());
  }
  return name + "@" + (args.empty() ? "?" : args[0]->ToString()) + "(" + Join(parts, ", ") +
         ")";
}

std::string BodyTerm::ToString() const {
  switch (kind) {
    case Kind::kPredicate:
      return (negated ? "not " : "") + pred.ToString();
    case Kind::kAssign:
      return var + " := " + expr->ToString();
    case Kind::kFilter:
      return expr->ToString();
  }
  return "?";
}

std::string Head::ToString() const {
  std::vector<std::string> parts;
  for (size_t i = 1; i < args.size(); ++i) {
    parts.push_back(args[i].ToString());
  }
  return name + "@" + (args.empty() ? "?" : args[0].ToString()) + "(" + Join(parts, ", ") +
         ")";
}

bool Head::HasAggregate() const {
  for (const HeadArg& arg : args) {
    if (arg.agg != AggKind::kNone) {
      return true;
    }
  }
  return false;
}

std::string Rule::ToString() const {
  std::vector<std::string> parts;
  for (const BodyTerm& t : body) {
    parts.push_back(t.ToString());
  }
  return id + " " + (is_delete ? "delete " : "") + head.ToString() + " :- " +
         Join(parts, ", ") + ".";
}

std::string Program::ToString() const {
  std::string out;
  for (const TableSpec& m : materializations) {
    out += StrFormat("materialize(%s, ...).\n", m.name.c_str());
  }
  for (const Rule& r : rules) {
    out += r.ToString() + "\n";
  }
  return out;
}

}  // namespace p2
