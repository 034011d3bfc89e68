// Expression evaluation over variable bindings.
//
// Bindings hold a rule's variables by binding slot (numbered by the parser) during a rule
// strand execution. Evaluation is total: unbound variables and type mismatches evaluate
// to null, and a null filter is simply false (soft failure, in keeping with P2's
// soft-state philosophy).

#ifndef SRC_LANG_EXPR_H_
#define SRC_LANG_EXPR_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/lang/ast.h"
#include "src/runtime/value.h"

namespace p2 {

// A rule's variable bindings: one value per slot, the set of bound slots, and a trail of
// slots in the order they were bound, which strands unwind when backtracking through
// join alternatives. Slots are those the parser gave the rule's variables.
class Bindings {
 public:
  // Room for `num_slots` slots (at most kMaxRuleVars), all unbound.
  explicit Bindings(size_t num_slots) : values_(num_slots) {}

  // Returns the value bound to `slot`, or nullptr.
  const Value* Find(int slot) const { return Has(slot) ? &values_[slot] : nullptr; }

  bool Has(int slot) const { return (bound_ >> slot) & 1; }

  // True when every slot in `slots` (bit s for slot s) is bound.
  bool HasAll(uint64_t slots) const { return (bound_ & slots) == slots; }

  // Binds `slot` (overwrites an existing binding in place).
  void Set(int slot, Value v) {
    if (!Has(slot)) {
      bound_ |= uint64_t{1} << slot;
      trail_[depth_++] = static_cast<uint8_t>(slot);
    }
    values_[slot] = std::move(v);
  }

  // Number of bound slots.
  size_t size() const { return depth_; }

  // Unbinds every slot bound after the first `n`; used to undo trail entries when
  // backtracking through join alternatives.
  void TruncateTo(size_t n) {
    while (depth_ > n) {
      bound_ &= ~(uint64_t{1} << trail_[--depth_]);
    }
  }

 private:
  std::vector<Value> values_;
  uint64_t bound_ = 0;
  std::array<uint8_t, kMaxRuleVars> trail_{};
  size_t depth_ = 0;
};

// Ambient state available to expressions: the virtual clock, a random stream, and the
// local node address.
struct EvalContext {
  double now = 0;
  Rng* rng = nullptr;
  const std::string* local_addr = nullptr;
};

// Evaluates `expr` under `binds`. Never throws; returns null on soft failure.
Value EvalExpr(const Expr& expr, const Bindings& binds, EvalContext& ctx);

}  // namespace p2

#endif  // SRC_LANG_EXPR_H_
