#include "src/runtime/tuple.h"

#include <functional>

#include "src/runtime/counter_shards.h"

namespace p2 {

namespace {

enum : size_t { kLiveCount, kLiveBytes, kTotalCreated, kTotalBytesCreated };
constinit ShardedCounters<4> counters;

}  // namespace

Tuple::Tuple(std::string name, ValueList fields)
    : name_(std::move(name)), fields_(std::move(fields)) {
  byte_size_ = sizeof(Tuple) + name_.size();
  for (const Value& v : fields_) {
    byte_size_ += v.ByteSize();
  }
  counters.Add(kLiveCount, 1);
  counters.Add(kLiveBytes, byte_size_);
  counters.Add(kTotalCreated, 1);
  counters.Add(kTotalBytesCreated, byte_size_);
}

Tuple::~Tuple() {
  counters.Sub(kLiveCount, 1);
  counters.Sub(kLiveBytes, byte_size_);
}

TupleRef Tuple::Make(std::string name, ValueList fields) {
  // One arena block carries the control block and the Tuple (allocate_shared), and
  // the moved-in ValueList buffer is arena-backed too — a dropped tuple returns its
  // whole storage to the thread's free lists for the next derivation to reuse.
  return std::allocate_shared<const Tuple>(ArenaAllocator<Tuple>(), std::move(name),
                                           std::move(fields));
}

const std::string& Tuple::LocationSpecifier() const {
  static const std::string kEmpty;
  if (fields_.empty() || fields_[0].kind() != Value::Kind::kString) {
    return kEmpty;
  }
  return fields_[0].AsString();
}

bool Tuple::operator==(const Tuple& other) const {
  if (name_ != other.name_ || fields_.size() != other.fields_.size()) {
    return false;
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (!(fields_[i] == other.fields_[i])) {
      return false;
    }
  }
  return true;
}

size_t Tuple::Hash() const {
  size_t h = std::hash<std::string>()(name_);
  for (const Value& v : fields_) {
    h = h * 1099511628211ULL ^ v.Hash();
  }
  return h;
}

std::string Tuple::ToString() const {
  std::string out = name_;
  out += "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += fields_[i].ToString();
  }
  out += ")";
  return out;
}

size_t Tuple::ByteSize() const { return byte_size_; }

uint64_t Tuple::LiveCount() { return counters.Sum(kLiveCount); }
uint64_t Tuple::LiveBytes() { return counters.Sum(kLiveBytes); }
uint64_t Tuple::TotalCreated() { return counters.Sum(kTotalCreated); }
uint64_t Tuple::TotalBytesCreated() { return counters.Sum(kTotalBytesCreated); }

}  // namespace p2
