#include "src/lang/parser.h"

#include <cctype>
#include <cmath>

#include "src/common/strings.h"
#include "src/lang/lexer.h"

namespace p2 {

namespace {

bool IsUpperIdent(const std::string& s) {
  return !s.empty() && std::isupper(static_cast<unsigned char>(s[0]));
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const ParamMap& params, Program* out, std::string* error)
      : tokens_(std::move(tokens)), params_(params), out_(out), error_(error) {}

  bool Run() {
    while (!At(TokKind::kEof)) {
      if (!ParseStatement()) {
        return false;
      }
    }
    return true;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokKind k) const { return Cur().kind == k; }
  bool AtIdent(const char* text) const {
    return Cur().kind == TokKind::kIdent && Cur().text == text;
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
  }
  bool Fail(const std::string& msg) {
    *error_ = StrFormat("parse error at line %d: %s", Cur().line, msg.c_str());
    return false;
  }
  bool Expect(TokKind k, const char* what) {
    if (!At(k)) {
      return Fail(StrFormat("expected %s", what));
    }
    Advance();
    return true;
  }

  bool ParseStatement() {
    if (AtIdent("materialize")) {
      return ParseMaterialize();
    }
    if (AtIdent("watch")) {
      return ParseWatch();
    }
    return ParseRule();
  }

  bool ParseMaterialize() {
    Advance();  // materialize
    if (!Expect(TokKind::kLParen, "'('")) {
      return false;
    }
    TableSpec spec;
    if (!At(TokKind::kIdent)) {
      return Fail("expected table name");
    }
    spec.name = Cur().text;
    Advance();
    if (!Expect(TokKind::kComma, "','")) {
      return false;
    }
    // Lifetime.
    double lifetime = 0;
    if (!ParseMaterializeNumber(&lifetime)) {
      return false;
    }
    spec.lifetime_secs = lifetime;
    if (!Expect(TokKind::kComma, "','")) {
      return false;
    }
    // Max size.
    double max_size = 0;
    if (!ParseMaterializeNumber(&max_size)) {
      return false;
    }
    spec.max_size = std::isinf(max_size) ? std::numeric_limits<size_t>::max()
                                         : static_cast<size_t>(max_size);
    // Optional keys(...).
    if (At(TokKind::kComma)) {
      Advance();
      if (!AtIdent("keys")) {
        return Fail("expected keys(...)");
      }
      Advance();
      if (!Expect(TokKind::kLParen, "'('")) {
        return false;
      }
      while (!At(TokKind::kRParen)) {
        if (!At(TokKind::kNumber)) {
          return Fail("expected key field index");
        }
        int idx = static_cast<int>(Cur().number);
        if (idx < 1) {
          return Fail("key field indices are 1-based");
        }
        spec.key_fields.push_back(static_cast<size_t>(idx - 1));
        Advance();
        if (At(TokKind::kComma)) {
          Advance();
        }
      }
      Advance();  // ')'
    }
    if (!Expect(TokKind::kRParen, "')'")) {
      return false;
    }
    if (!Expect(TokKind::kDot, "'.'")) {
      return false;
    }
    out_->materializations.push_back(std::move(spec));
    return true;
  }

  // A lifetime/size position in materialize(): a number, `infinity`, or a numeric
  // named parameter.
  bool ParseMaterializeNumber(double* out) {
    if (AtIdent("infinity")) {
      *out = std::numeric_limits<double>::infinity();
      Advance();
      return true;
    }
    if (At(TokKind::kNumber)) {
      *out = Cur().number;
      Advance();
      return true;
    }
    if (At(TokKind::kIdent)) {
      auto it = params_.find(Cur().text);
      if (it != params_.end() && it->second.is_numeric()) {
        *out = it->second.ToDouble();
        Advance();
        return true;
      }
    }
    return Fail("expected number, infinity, or numeric parameter");
  }

  bool ParseWatch() {
    Advance();  // watch
    if (!Expect(TokKind::kLParen, "'('")) {
      return false;
    }
    if (!At(TokKind::kIdent)) {
      return Fail("expected tuple name in watch()");
    }
    out_->watches.push_back(Cur().text);
    Advance();
    if (!Expect(TokKind::kRParen, "')'")) {
      return false;
    }
    return Expect(TokKind::kDot, "'.'");
  }

  bool ParseRule() {
    Rule rule;
    rule.line = Cur().line;
    // Optional rule id, bare or bracketed.
    if (At(TokKind::kLBracket)) {
      Advance();
      if (!At(TokKind::kIdent)) {
        return Fail("expected rule id inside [ ]");
      }
      rule.id = Cur().text;
      Advance();
      if (!Expect(TokKind::kRBracket, "']'")) {
        return false;
      }
    } else if (At(TokKind::kIdent) && Cur().text != "delete" &&
               Peek(1).kind == TokKind::kIdent) {
      rule.id = Cur().text;
      Advance();
    }
    if (AtIdent("delete")) {
      rule.is_delete = true;
      Advance();
    }
    const bool unnamed = rule.id.empty();
    if (unnamed) {
      rule.id = StrFormat("rule_l%d", rule.line);
    }
    // Head.
    if (!ParseHead(&rule.head)) {
      return false;
    }
    if (!Expect(TokKind::kColonDash, "':-'")) {
      return false;
    }
    // Body terms.
    while (true) {
      BodyTerm term;
      if (!ParseBodyTerm(&term)) {
        return false;
      }
      rule.body.push_back(std::move(term));
      if (At(TokKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    if (!Expect(TokKind::kDot, "'.'")) {
      return false;
    }
    // ruleExec provenance, rule metrics and unloads all key on the id.
    for (const Rule& prior : out_->rules) {
      if (prior.id == rule.id) {
        *error_ = StrFormat("parse error at line %d: duplicate rule id %s%s", rule.line,
                            rule.id.c_str(),
                            unnamed ? " (unnamed rules on one line; give them ids)" : "");
        return false;
      }
    }
    if (!NumberRuleVars(&rule)) {
      *error_ = StrFormat("parse error at line %d: rule %s has more than %zu variables",
                          rule.line, rule.id.c_str(), kMaxRuleVars);
      return false;
    }
    out_->rules.push_back(std::move(rule));
    return true;
  }

  // Gives each distinct variable of `rule` a binding slot, in order of first appearance
  // (head, then body), and records at every expression node the slots its subtree
  // reads. False when the rule has more than kMaxRuleVars variables.
  bool NumberRuleVars(Rule* rule) {
    rule_vars_.clear();
    for (HeadArg& arg : rule->head.args) {
      if (arg.expr != nullptr && !NumberVars(arg.expr.get())) {
        return false;
      }
    }
    for (BodyTerm& term : rule->body) {
      if (term.kind == BodyTerm::Kind::kPredicate) {
        for (ExprPtr& arg : term.pred.args) {
          if (!NumberVars(arg.get())) {
            return false;
          }
        }
        continue;
      }
      if (term.kind == BodyTerm::Kind::kAssign) {
        term.slot = SlotOf(term.var);
        if (term.slot < 0) {
          return false;
        }
      }
      if (!NumberVars(term.expr.get())) {
        return false;
      }
    }
    rule->num_slots = rule_vars_.size();
    return true;
  }

  bool NumberVars(Expr* expr) {
    if (expr->kind == Expr::Kind::kVar) {
      expr->slot = SlotOf(expr->name);
      if (expr->slot < 0) {
        return false;
      }
      expr->reads = uint64_t{1} << expr->slot;
      return true;
    }
    for (ExprPtr& c : expr->children) {
      if (!NumberVars(c.get())) {
        return false;
      }
      expr->reads |= c->reads;
    }
    return true;
  }

  // The slot of variable `name` in the rule being numbered, or -1 when it would exceed
  // kMaxRuleVars. A linear scan: rules have about a dozen variables, and a map would
  // allocate per variable on every program install.
  int SlotOf(const std::string& name) {
    for (size_t i = 0; i < rule_vars_.size(); ++i) {
      if (*rule_vars_[i] == name) {
        return static_cast<int>(i);
      }
    }
    if (rule_vars_.size() == kMaxRuleVars) {
      return -1;
    }
    rule_vars_.push_back(&name);
    return static_cast<int>(rule_vars_.size() - 1);
  }

  bool ParseHead(Head* head) {
    head->line = Cur().line;
    if (!At(TokKind::kIdent)) {
      return Fail("expected head predicate name");
    }
    head->name = Cur().text;
    Advance();
    bool have_loc = false;
    if (At(TokKind::kAt)) {
      Advance();
      HeadArg loc;
      loc.expr = ParsePrimary();
      if (loc.expr == nullptr) {
        return false;
      }
      head->args.push_back(std::move(loc));
      have_loc = true;
    }
    if (!Expect(TokKind::kLParen, "'(' after head name")) {
      return false;
    }
    while (!At(TokKind::kRParen)) {
      HeadArg arg;
      if (!ParseHeadArg(&arg)) {
        return false;
      }
      head->args.push_back(std::move(arg));
      if (At(TokKind::kComma)) {
        Advance();
      } else {
        break;
      }
    }
    if (!Expect(TokKind::kRParen, "')'")) {
      return false;
    }
    if (!have_loc && head->args.empty()) {
      return Fail("head predicate needs a location specifier");
    }
    return true;
  }

  static AggKind AggFromName(const std::string& name) {
    if (name == "count") return AggKind::kCount;
    if (name == "min") return AggKind::kMin;
    if (name == "max") return AggKind::kMax;
    if (name == "avg") return AggKind::kAvg;
    if (name == "sum") return AggKind::kSum;
    return AggKind::kNone;
  }

  bool ParseHeadArg(HeadArg* arg) {
    if (At(TokKind::kIdent) && Peek(1).kind == TokKind::kLt) {
      AggKind agg = AggFromName(Cur().text);
      if (agg != AggKind::kNone) {
        arg->agg = agg;
        Advance();  // agg name
        Advance();  // '<'
        if (At(TokKind::kStar)) {
          if (agg != AggKind::kCount) {
            return Fail("only count<*> may aggregate over *");
          }
          arg->expr = nullptr;
          Advance();
        } else if (At(TokKind::kIdent) && IsUpperIdent(Cur().text)) {
          // Aggregates range over a single variable (a general expression would be
          // ambiguous with the closing '>').
          auto var = std::make_unique<Expr>();
          var->kind = Expr::Kind::kVar;
          var->name = Cur().text;
          var->line = Cur().line;
          arg->expr = std::move(var);
          Advance();
        } else {
          return Fail("expected variable or * inside aggregate");
        }
        return Expect(TokKind::kGt, "'>' closing aggregate");
      }
    }
    arg->expr = ParseExpr();
    return arg->expr != nullptr;
  }

  bool ParseBodyTerm(BodyTerm* term) {
    term->line = Cur().line;
    // Negated predicate: `not pred@Loc(args)`.
    if (AtIdent("not") && Peek(1).kind == TokKind::kIdent &&
        !IsUpperIdent(Peek(1).text) && !StartsWith(Peek(1).text, "f_") &&
        (Peek(2).kind == TokKind::kAt || Peek(2).kind == TokKind::kLParen)) {
      Advance();  // not
      term->kind = BodyTerm::Kind::kPredicate;
      term->negated = true;
      return ParsePredicate(&term->pred);
    }
    if (At(TokKind::kIdent)) {
      const std::string& name = Cur().text;
      if (IsUpperIdent(name)) {
        if (Peek(1).kind == TokKind::kColonEq) {
          term->kind = BodyTerm::Kind::kAssign;
          term->var = name;
          Advance();
          Advance();
          term->expr = ParseExpr();
          return term->expr != nullptr;
        }
        term->kind = BodyTerm::Kind::kFilter;
        term->expr = ParseExpr();
        return term->expr != nullptr;
      }
      // Lower-case identifier: a builtin call is a filter, anything else followed by
      // `@` or `(` is a predicate.
      if (!StartsWith(name, "f_") &&
          (Peek(1).kind == TokKind::kAt || Peek(1).kind == TokKind::kLParen)) {
        term->kind = BodyTerm::Kind::kPredicate;
        return ParsePredicate(&term->pred);
      }
    }
    term->kind = BodyTerm::Kind::kFilter;
    term->expr = ParseExpr();
    return term->expr != nullptr;
  }

  bool ParsePredicate(Predicate* pred) {
    pred->line = Cur().line;
    pred->name = Cur().text;
    Advance();
    bool have_loc = false;
    if (At(TokKind::kAt)) {
      Advance();
      ExprPtr loc = ParsePrimary();
      if (loc == nullptr) {
        return false;
      }
      pred->args.push_back(std::move(loc));
      have_loc = true;
    }
    if (!Expect(TokKind::kLParen, "'(' after predicate name")) {
      return false;
    }
    while (!At(TokKind::kRParen)) {
      ExprPtr arg = ParseExpr();
      if (arg == nullptr) {
        return false;
      }
      pred->args.push_back(std::move(arg));
      if (At(TokKind::kComma)) {
        Advance();
      } else {
        break;
      }
    }
    if (!Expect(TokKind::kRParen, "')'")) {
      return false;
    }
    if (!have_loc && pred->args.empty()) {
      return Fail(StrFormat("predicate %s needs a location specifier", pred->name.c_str()));
    }
    return true;
  }

  // ----- expressions (precedence climbing) -----

  ExprPtr ParseExpr() { return ParseOr(); }

  ExprPtr MakeBinary(OpKind op, ExprPtr a, ExprPtr b, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kBinary;
    e->op = op;
    e->children.push_back(std::move(a));
    e->children.push_back(std::move(b));
    e->line = line;
    return e;
  }

  ExprPtr ParseOr() {
    ExprPtr lhs = ParseAnd();
    while (lhs != nullptr && At(TokKind::kOrOr)) {
      int line = Cur().line;
      Advance();
      ExprPtr rhs = ParseAnd();
      if (rhs == nullptr) {
        return nullptr;
      }
      lhs = MakeBinary(OpKind::kOr, std::move(lhs), std::move(rhs), line);
    }
    return lhs;
  }

  ExprPtr ParseAnd() {
    ExprPtr lhs = ParseCmp();
    while (lhs != nullptr && At(TokKind::kAndAnd)) {
      int line = Cur().line;
      Advance();
      ExprPtr rhs = ParseCmp();
      if (rhs == nullptr) {
        return nullptr;
      }
      lhs = MakeBinary(OpKind::kAnd, std::move(lhs), std::move(rhs), line);
    }
    return lhs;
  }

  ExprPtr ParseCmp() {
    ExprPtr lhs = ParseAddSub();
    if (lhs == nullptr) {
      return nullptr;
    }
    if (AtIdent("in")) {
      int line = Cur().line;
      Advance();
      bool open_left;
      if (At(TokKind::kLParen)) {
        open_left = true;
      } else if (At(TokKind::kLBracket)) {
        open_left = false;
      } else {
        Fail("expected '(' or '[' after in");
        return nullptr;
      }
      Advance();
      ExprPtr lo = ParseAddSub();
      if (lo == nullptr || !Expect(TokKind::kComma, "','")) {
        return nullptr;
      }
      ExprPtr hi = ParseAddSub();
      if (hi == nullptr) {
        return nullptr;
      }
      bool open_right;
      if (At(TokKind::kRParen)) {
        open_right = true;
      } else if (At(TokKind::kRBracket)) {
        open_right = false;
      } else {
        Fail("expected ')' or ']' closing interval");
        return nullptr;
      }
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kInterval;
      e->open_left = open_left;
      e->open_right = open_right;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(lo));
      e->children.push_back(std::move(hi));
      e->line = line;
      return e;
    }
    OpKind op;
    switch (Cur().kind) {
      case TokKind::kEqEq: op = OpKind::kEq; break;
      case TokKind::kNe: op = OpKind::kNe; break;
      case TokKind::kLt: op = OpKind::kLt; break;
      case TokKind::kLe: op = OpKind::kLe; break;
      case TokKind::kGt: op = OpKind::kGt; break;
      case TokKind::kGe: op = OpKind::kGe; break;
      default:
        return lhs;
    }
    int line = Cur().line;
    Advance();
    ExprPtr rhs = ParseAddSub();
    if (rhs == nullptr) {
      return nullptr;
    }
    return MakeBinary(op, std::move(lhs), std::move(rhs), line);
  }

  ExprPtr ParseAddSub() {
    ExprPtr lhs = ParseMulDiv();
    while (lhs != nullptr && (At(TokKind::kPlus) || At(TokKind::kMinus))) {
      OpKind op = At(TokKind::kPlus) ? OpKind::kAdd : OpKind::kSub;
      int line = Cur().line;
      Advance();
      ExprPtr rhs = ParseMulDiv();
      if (rhs == nullptr) {
        return nullptr;
      }
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs), line);
    }
    return lhs;
  }

  ExprPtr ParseMulDiv() {
    ExprPtr lhs = ParseUnary();
    while (lhs != nullptr &&
           (At(TokKind::kStar) || At(TokKind::kSlash) || At(TokKind::kPercent))) {
      OpKind op = At(TokKind::kStar)
                      ? OpKind::kMul
                      : (At(TokKind::kSlash) ? OpKind::kDiv : OpKind::kMod);
      int line = Cur().line;
      Advance();
      ExprPtr rhs = ParseUnary();
      if (rhs == nullptr) {
        return nullptr;
      }
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs), line);
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    if (At(TokKind::kBang) || At(TokKind::kMinus)) {
      OpKind op = At(TokKind::kBang) ? OpKind::kNot : OpKind::kNeg;
      int line = Cur().line;
      Advance();
      ExprPtr inner = ParseUnary();
      if (inner == nullptr) {
        return nullptr;
      }
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->op = op;
      e->children.push_back(std::move(inner));
      e->line = line;
      return e;
    }
    return ParsePrimary();
  }

  ExprPtr MakeConst(Value v, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kConst;
    e->constant = std::move(v);
    e->line = line;
    return e;
  }

  ExprPtr ParsePrimary() {
    int line = Cur().line;
    if (At(TokKind::kNumber)) {
      Value v = Cur().is_integer ? Value::Int(static_cast<int64_t>(Cur().number))
                                 : Value::Double(Cur().number);
      Advance();
      return MakeConst(std::move(v), line);
    }
    if (At(TokKind::kString)) {
      Value v = Value::Str(Cur().text);
      Advance();
      return MakeConst(std::move(v), line);
    }
    if (At(TokKind::kLParen)) {
      Advance();
      ExprPtr inner = ParseExpr();
      if (inner == nullptr) {
        return nullptr;
      }
      if (!Expect(TokKind::kRParen, "')'")) {
        return nullptr;
      }
      return inner;
    }
    if (At(TokKind::kLBracket)) {
      // List literal.
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kMakeList;
      e->line = line;
      while (!At(TokKind::kRBracket)) {
        ExprPtr item = ParseExpr();
        if (item == nullptr) {
          return nullptr;
        }
        e->children.push_back(std::move(item));
        if (At(TokKind::kComma)) {
          Advance();
        } else {
          break;
        }
      }
      if (!Expect(TokKind::kRBracket, "']'")) {
        return nullptr;
      }
      return e;
    }
    if (At(TokKind::kIdent)) {
      std::string name = Cur().text;
      if (IsUpperIdent(name)) {
        Advance();
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kVar;
        e->name = std::move(name);
        e->line = line;
        return e;
      }
      if (name == "infinity") {
        Advance();
        return MakeConst(Value::Double(std::numeric_limits<double>::infinity()), line);
      }
      if (name == "true") {
        Advance();
        return MakeConst(Value::Bool(true), line);
      }
      if (name == "false") {
        Advance();
        return MakeConst(Value::Bool(false), line);
      }
      if (name == "null") {
        Advance();
        return MakeConst(Value::Null(), line);
      }
      if (StartsWith(name, "f_")) {
        // Builtin function call.
        Advance();
        if (!Expect(TokKind::kLParen, "'(' after builtin name")) {
          return nullptr;
        }
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kCall;
        e->name = std::move(name);
        e->line = line;
        while (!At(TokKind::kRParen)) {
          ExprPtr arg = ParseExpr();
          if (arg == nullptr) {
            return nullptr;
          }
          e->children.push_back(std::move(arg));
          if (At(TokKind::kComma)) {
            Advance();
          } else {
            break;
          }
        }
        if (!Expect(TokKind::kRParen, "')'")) {
          return nullptr;
        }
        return e;
      }
      // Named parameter.
      auto it = params_.find(name);
      if (it == params_.end()) {
        Fail(StrFormat("unknown parameter or constant '%s' (supply it in the ParamMap)",
                       name.c_str()));
        return nullptr;
      }
      Advance();
      return MakeConst(it->second, line);
    }
    Fail("expected expression");
    return nullptr;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  // The variable names of the rule being numbered, by slot (they point into the rule).
  std::vector<const std::string*> rule_vars_;
  const ParamMap& params_;
  Program* out_;
  std::string* error_;
};

}  // namespace

bool ParseProgram(const std::string& source, const ParamMap& params, Program* out,
                  std::string* error) {
  *out = Program();
  std::vector<Token> tokens;
  if (!Lex(source, &tokens, error)) {
    return false;
  }
  Parser parser(std::move(tokens), params, out, error);
  return parser.Run();
}

bool ParseProgram(const std::string& source, Program* out, std::string* error) {
  ParamMap empty;
  return ParseProgram(source, empty, out, error);
}

}  // namespace p2
