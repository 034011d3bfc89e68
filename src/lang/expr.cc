#include "src/lang/expr.h"

#include "src/lang/builtins.h"

namespace p2 {

Value EvalExpr(const Expr& expr, const Bindings& binds, EvalContext& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kConst:
      return expr.constant;
    case Expr::Kind::kVar: {
      const Value* v = binds.Find(expr.slot);
      return v != nullptr ? *v : Value::Null();
    }
    case Expr::Kind::kUnary: {
      if (expr.op == OpKind::kNot) {
        return Value::Bool(!EvalExpr(*expr.children[0], binds, ctx).Truthy());
      }
      return Value::Neg(EvalExpr(*expr.children[0], binds, ctx));
    }
    case Expr::Kind::kBinary: {
      // Short-circuit logicals.
      if (expr.op == OpKind::kAnd) {
        if (!EvalExpr(*expr.children[0], binds, ctx).Truthy()) {
          return Value::Bool(false);
        }
        return Value::Bool(EvalExpr(*expr.children[1], binds, ctx).Truthy());
      }
      if (expr.op == OpKind::kOr) {
        if (EvalExpr(*expr.children[0], binds, ctx).Truthy()) {
          return Value::Bool(true);
        }
        return Value::Bool(EvalExpr(*expr.children[1], binds, ctx).Truthy());
      }
      Value a = EvalExpr(*expr.children[0], binds, ctx);
      Value b = EvalExpr(*expr.children[1], binds, ctx);
      switch (expr.op) {
        case OpKind::kAdd: return Value::Add(a, b);
        case OpKind::kSub: return Value::Sub(a, b);
        case OpKind::kMul: return Value::Mul(a, b);
        case OpKind::kDiv: return Value::Div(a, b);
        case OpKind::kMod: return Value::Mod(a, b);
        case OpKind::kEq: return Value::Bool(a == b);
        case OpKind::kNe: return Value::Bool(!(a == b));
        case OpKind::kLt: return Value::Bool(a.Compare(b) < 0);
        case OpKind::kLe: return Value::Bool(a.Compare(b) <= 0);
        case OpKind::kGt: return Value::Bool(a.Compare(b) > 0);
        case OpKind::kGe: return Value::Bool(a.Compare(b) >= 0);
        default: return Value::Null();
      }
    }
    case Expr::Kind::kCall: {
      ValueList args;
      args.reserve(expr.children.size());
      for (const ExprPtr& c : expr.children) {
        args.push_back(EvalExpr(*c, binds, ctx));
      }
      return CallBuiltin(expr.name, args, ctx);
    }
    case Expr::Kind::kInterval: {
      Value x = EvalExpr(*expr.children[0], binds, ctx);
      Value lo = EvalExpr(*expr.children[1], binds, ctx);
      Value hi = EvalExpr(*expr.children[2], binds, ctx);
      return Value::Bool(Value::InInterval(x, lo, hi, expr.open_left, expr.open_right));
    }
    case Expr::Kind::kMakeList: {
      ValueList items;
      items.reserve(expr.children.size());
      for (const ExprPtr& c : expr.children) {
        items.push_back(EvalExpr(*c, binds, ctx));
      }
      return Value::List(std::move(items));
    }
  }
  return Value::Null();
}

}  // namespace p2
