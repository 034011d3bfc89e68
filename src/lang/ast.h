// Abstract syntax for the OverLog dialect (paper §2).
//
// A program is a list of `materialize` declarations, `watch` statements, and rules:
//
//   ruleId head@Loc(Arg, ...) :- body_term, body_term, ... .
//   ruleId delete head@Loc(Arg, ...) :- ... .
//
// Body terms are predicates (`pred@Loc(args)`), assignments (`Var := expr`), or boolean
// filter expressions. Head arguments may carry aggregates (`count<*>`, `min<D>`,
// `max<C>`, `avg<X>`). Identifiers beginning with an upper-case letter are variables;
// lower-case identifiers are predicate names, built-in function names (`f_*`), or named
// parameters resolved against a host-supplied map at parse time.
//
// The parser numbers each rule's distinct variables 0, 1, ... in order of first
// appearance (its binding slots), so strands read and write bindings by slot instead of
// by name.

#ifndef SRC_LANG_AST_H_
#define SRC_LANG_AST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/table.h"
#include "src/runtime/value.h"

namespace p2 {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

// A rule's bound-variable set is one 64-bit word, so a rule may have at most this many
// distinct variables; the parser rejects larger rules.
constexpr size_t kMaxRuleVars = 64;

// Binary and unary operators.
enum class OpKind {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kNot, kNeg,
};

struct Expr {
  enum class Kind {
    kConst,     // a literal or resolved named parameter
    kVar,       // upper-case identifier
    kBinary,    // children[0] op children[1]
    kUnary,     // op children[0]
    kCall,      // builtin f_*(children...)
    kInterval,  // children[0] in <children[1], children[2]>
    kMakeList,  // [children...]
  };

  // Ordered to keep padding small (Chord alone holds about 500 of these). A fleet
  // parses each distinct program once and its nodes share that copy
  // (src/lang/program_cache.h), so this size does not grow with the node count.
  Kind kind = Kind::kConst;
  OpKind op = OpKind::kAdd;
  Value constant;       // kConst
  std::string name;     // kVar: variable name; kCall: function name
  std::vector<ExprPtr> children;
  uint64_t reads = 0;   // bit s set: the variable in slot s occurs in this subtree
  bool open_left = true;   // kInterval bracket styles
  bool open_right = true;
  int8_t slot = -1;     // kVar: the variable's binding slot in its rule
  int line = 0;

  // Printed form (diagnostics, introspection tables).
  std::string ToString() const;
};

// Aggregate functions allowed in head arguments.
enum class AggKind { kNone, kCount, kMin, kMax, kAvg, kSum };

// One head argument: either a plain expression or an aggregate over a variable
// (`count<*>` has a null expr).
struct HeadArg {
  AggKind agg = AggKind::kNone;
  ExprPtr expr;  // null only for count<*>

  std::string ToString() const;
};

// A predicate occurrence: `name@Loc(args)` or `name(args)`. The location specifier is
// always args[0] (the `@` form is normalized by the parser).
struct Predicate {
  std::string name;
  std::vector<ExprPtr> args;
  int line = 0;

  std::string ToString() const;
};

// A body term.
struct BodyTerm {
  enum class Kind { kPredicate, kAssign, kFilter };
  Kind kind = Kind::kPredicate;
  Predicate pred;        // kPredicate
  // `not pred(...)`: the rule fires only when NO matching row exists. Unbound
  // variables in a negated predicate are existential wildcards. Negated predicates
  // must be materialized and are evaluated after all positive terms (stratified).
  bool negated = false;
  int slot = -1;         // kAssign target's binding slot
  std::string var;       // kAssign target
  ExprPtr expr;          // kAssign value / kFilter condition
  int line = 0;

  std::string ToString() const;
};

// The head of a rule: a predicate whose arguments may aggregate.
struct Head {
  std::string name;
  std::vector<HeadArg> args;  // args[0] is the location specifier
  int line = 0;

  std::string ToString() const;

  bool HasAggregate() const;
};

struct Rule {
  std::string id;
  bool is_delete = false;
  Head head;
  std::vector<BodyTerm> body;
  size_t num_slots = 0;  // distinct variables, at most kMaxRuleVars
  int line = 0;

  std::string ToString() const;
};

// A parsed program. Immutable once ParseProgram returns: the nodes of a fleet share
// one copy through a shared_ptr<const Program>, and their strands point into it.
struct Program {
  std::vector<TableSpec> materializations;
  std::vector<Rule> rules;
  std::vector<std::string> watches;

  std::string ToString() const;
};

}  // namespace p2

#endif  // SRC_LANG_AST_H_
