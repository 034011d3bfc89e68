// Tuple: the immutable unit of state and communication in P2.
//
// A tuple is a named row of values. By convention (paper §2), the first field is the
// location specifier: the address of the node where the tuple lives or must be sent.
// `link@A(B, W)` therefore denotes the tuple link(A, B, W).
//
// Tuples are immutable and shared by reference. Global live-instance counters feed the
// memory figures of the evaluation section (the paper tracks "live tuples" directly in
// Figures 6 and 7 and process memory elsewhere; intermediate tuples dominate both).

#ifndef SRC_RUNTIME_TUPLE_H_
#define SRC_RUNTIME_TUPLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/value.h"

namespace p2 {

class Tuple;
using TupleRef = std::shared_ptr<const Tuple>;

class Tuple {
 public:
  Tuple(std::string name, ValueList fields);
  ~Tuple();

  Tuple(const Tuple&) = delete;
  Tuple& operator=(const Tuple&) = delete;

  // Convenience factory returning a shared immutable reference.
  static TupleRef Make(std::string name, ValueList fields);

  const std::string& name() const { return name_; }
  const ValueList& fields() const { return fields_; }
  const Value& field(size_t i) const { return fields_[i]; }
  size_t arity() const { return fields_.size(); }

  // The location specifier (first field) as a string address. Returns an empty string
  // if the tuple has no fields or the first field is not a string. The reference is
  // into the tuple (or a static empty), so routing decisions pay no copy.
  const std::string& LocationSpecifier() const;

  // Structural equality: same name, same fields.
  bool operator==(const Tuple& other) const;

  // Hash consistent with operator==.
  size_t Hash() const;

  // Printed form: name(f1, f2, ...).
  std::string ToString() const;

  // Approximate heap footprint.
  size_t ByteSize() const;

  // Global accounting across all live Tuple instances in the process. The benchmarks
  // snapshot these to report "live tuples" / memory growth; TotalBytesCreated deltas
  // measure intermediate-tuple churn (the paper's stated driver of process-memory
  // growth under monitoring load). Each reader sums per-thread shards (see
  // src/runtime/counter_shards.h), so call them between runs, not per tuple.
  static uint64_t LiveCount();
  static uint64_t LiveBytes();
  static uint64_t TotalCreated();
  static uint64_t TotalBytesCreated();

 private:
  std::string name_;
  ValueList fields_;
  size_t byte_size_;
};

}  // namespace p2

#endif  // SRC_RUNTIME_TUPLE_H_
