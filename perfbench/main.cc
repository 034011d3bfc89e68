// p2bench: runs one workload of the repository benchmark in this process and
// prints its report as one JSON line. run.py starts one process per run.
//
// Usage: p2bench --workload NAME --seed N --seconds S [--trace 0|1]
//                [--spans-out PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"

int main(int argc, char** argv) {
  p2bench::RunOptions opt;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      opt.spans_out = value;
    } else {
      fprintf(stderr, "p2bench: unknown flag %s\n", flag);
      return 2;
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0) {
    fprintf(stderr,
            "usage: p2bench --workload NAME --seed N --seconds S [--trace 0|1] "
            "[--spans-out PATH]\n");
    return 2;
  }
  p2bench::Report report;
  if (workload == "fleet256_k4") {
    report = p2bench::RunFleet256K4(opt);
  } else if (workload == "forensics21") {
    report = p2bench::RunForensics21(opt);
  } else if (workload == "udp_dht32") {
    report = p2bench::RunUdpDht32(opt);
  } else {
    fprintf(stderr, "p2bench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  printf("%s\n", report.ToJson().c_str());
  return 0;
}
