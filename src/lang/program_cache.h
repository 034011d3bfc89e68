// ProgramCache: the parsed OverLog programs shared by the nodes of one Network.
//
// The paper deploys each monitor as the same OverLog text on every node, and every
// installer hands every node the same parameters, so a fleet parses each distinct
// (source, params) pair once and every node that loads it holds the same immutable
// Program. What depends on the node (its tables, the planner's strands, the rule-id
// check against its other programs) is still built per node from that Program
// (Node::LoadProgram).
//
// Params match by name, kind and exact value. Value::operator== calls Int(3), Id(3)
// and Double(3.0) equal, but each parses to a constant of its own kind, so here they
// are different parameters. Parse failures are not cached: every node that loads a
// broken source parses it again and gets the same error.
//
// Entries live as long as the cache. Nodes keep their own references, because
// strands (inert ones of unloaded programs included) point into the Program.
//
// Thread-safe: installs posted with NodeHandle::LoadAt run on pool threads inside
// windows. A parse runs under the lock, so concurrent installs of one program wait
// for the one parse instead of each making a copy.

#ifndef SRC_LANG_PROGRAM_CACHE_H_
#define SRC_LANG_PROGRAM_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/lang/parser.h"

namespace p2 {

class ProgramCache {
 public:
  // The program parsed from `source` with `params`, parsed on first use. Returns null
  // and sets `error` when the source does not parse.
  std::shared_ptr<const Program> Get(const std::string& source, const ParamMap& params,
                                     std::string* error);

 private:
  struct Entry {
    ParamMap params;
    std::shared_ptr<const Program> program;
  };

  std::mutex mu_;
  // By source text, then one entry per distinct parameter set.
  std::map<std::string, std::vector<Entry>> by_source_;
};

}  // namespace p2

#endif  // SRC_LANG_PROGRAM_CACHE_H_
