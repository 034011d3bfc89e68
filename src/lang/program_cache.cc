#include "src/lang/program_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace p2 {

namespace {

// Same kind and same value, bit for bit: unlike Value::operator==, Int(3), Id(3) and
// Double(3.0) differ, and so do 0.0 and -0.0.
bool Identical(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return false;
  }
  switch (a.kind()) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kBool:
      return a.AsBool() == b.AsBool();
    case Value::Kind::kInt:
      return a.AsInt() == b.AsInt();
    case Value::Kind::kId:
      return a.AsId() == b.AsId();
    case Value::Kind::kDouble:
      return std::bit_cast<uint64_t>(a.AsDouble()) ==
             std::bit_cast<uint64_t>(b.AsDouble());
    case Value::Kind::kString:
      return a.AsString() == b.AsString();
    case Value::Kind::kList:
      return std::equal(a.AsList().begin(), a.AsList().end(), b.AsList().begin(),
                        b.AsList().end(), Identical);
  }
  return false;
}

bool SameParams(const ParamMap& a, const ParamMap& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && Identical(x.second, y.second);
                    });
}

}  // namespace

std::shared_ptr<const Program> ProgramCache::Get(const std::string& source,
                                                 const ParamMap& params,
                                                 std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_source_.find(source);
  if (it != by_source_.end()) {
    for (const Entry& entry : it->second) {
      if (SameParams(entry.params, params)) {
        return entry.program;
      }
    }
  }
  auto program = std::make_shared<Program>();
  if (!ParseProgram(source, params, program.get(), error)) {
    return nullptr;
  }
  if (it == by_source_.end()) {
    it = by_source_.emplace(source, std::vector<Entry>()).first;
  }
  it->second.push_back(Entry{params, program});
  return program;
}

}  // namespace p2
