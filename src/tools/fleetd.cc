// fleetd: hosts a slice of a real-UDP fleet from a scenario/profile file
// (docs/DEPLOYMENT.md).
//
//   fleetd --profile <file> [--procs P --index I]
//          [--listen <host:port>]      rendezvous control address (the seed
//                                      process, index 0, binds it)
//          [--seed <host:port>]        the seed's control address (joiners)
//          [--stats-out <path>]        write a JSON summary when the profile ends
//          [--metrics-out <path>]      stream per-sweep telemetry (csv/jsonl)
//          [--rdv-timeout <secs>]      rendezvous timeout (default 30)
//
// Every process runs the IDENTICAL profile with a different --index: the k-th
// `node` directive is hosted by process k % P, directives addressing remote
// nodes are skipped, and the first `run` line performs the rendezvous exchange
// (the seed collects every process's name->socket map and broadcasts the
// union). A single-process invocation (--procs 1, the default) needs no
// rendezvous flags at all: it is `olgrun --backend=udp` plus the stats report.
//
// The stats JSON carries the transport counters (datagrams, envelopes, batching
// ratio), the pump's timer lateness (p50/p99 in us, bucket upper bounds), per-node
// overlay state (chord id, best successor, predecessor), and the overload
// counters (shed_reliable must stay 0) — the CI multi-process smoke job asserts
// ring convergence across the per-process reports.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/chord/chord.h"
#include "src/common/strings.h"
#include "src/net/udp_driver.h"
#include "src/tools/scenario.h"

namespace {

int Usage(const char* prog) {
  fprintf(stderr,
          "usage: %s --profile <file> [--procs P --index I] "
          "[--listen <host:port>] [--seed <host:port>] [--stats-out <path>] "
          "[--metrics-out <path>] [--rdv-timeout <secs>]\n",
          prog);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

// The pump's timer lateness at quantile `q`, in us: the upper bound of the
// histogram bucket holding that rank, like the udp_timer_lag_* gauges.
unsigned long long TimerLagUs(const p2::UdpDriver& driver, double q) {
  return driver.timer_lag().ValueAtQuantile(q) / 1000;
}

bool WriteStats(const std::string& path, p2::ScenarioRunner& runner, int index,
                int procs) {
  p2::Fleet* fleet = runner.fleet();
  p2::UdpDriver* driver = fleet != nullptr ? fleet->udp() : nullptr;
  std::ostringstream out;
  out << "{\n";
  out << "  \"index\": " << index << ",\n";
  out << "  \"procs\": " << procs << ",\n";
  out << "  \"expectations_passed\": " << runner.expectations_passed() << ",\n";
  if (driver != nullptr) {
    out << "  \"datagrams_sent\": " << driver->datagrams_sent() << ",\n";
    out << "  \"datagrams_received\": " << driver->datagrams_received() << ",\n";
    out << "  \"envelopes_sent\": " << driver->envelopes_sent() << ",\n";
    out << "  \"envelopes_received\": " << driver->envelopes_received() << ",\n";
    out << "  \"envelopes_dropped\": " << driver->envelopes_dropped() << ",\n";
    out << "  \"unroutable_dropped\": " << driver->unroutable_dropped() << ",\n";
    out << "  \"frame_decode_errors\": " << driver->frame_decode_errors() << ",\n";
    out << "  \"batch_ratio\": " << p2::StrFormat("%.3f", driver->batch_ratio())
        << ",\n";
    out << "  \"timer_lag_p50_us\": " << TimerLagUs(*driver, 0.5) << ",\n";
    out << "  \"timer_lag_p99_us\": " << TimerLagUs(*driver, 0.99) << ",\n";
  }
  uint64_t shed_reliable = 0;
  out << "  \"nodes\": [";
  bool first = true;
  if (fleet != nullptr) {
    for (p2::NodeHandle& h : fleet->Handles()) {
      p2::Node* node = h.raw();  // single-threaded here: the profile has ended
      const p2::NodeStats& s = h.Stats();
      shed_reliable += s.shed_reliable;
      out << (first ? "\n" : ",\n");
      first = false;
      out << "    {\"addr\": \"" << JsonEscape(h.addr()) << "\""
          << ", \"chord_id\": " << p2::ChordId(node)
          << ", \"best_succ\": \"" << JsonEscape(p2::BestSuccAddr(node)) << "\""
          << ", \"pred\": \"" << JsonEscape(p2::PredAddr(node)) << "\""
          << ", \"msgs_sent\": " << s.msgs_sent
          << ", \"msgs_received\": " << s.msgs_received
          << ", \"shed_reliable\": " << s.shed_reliable << "}";
    }
  }
  out << "\n  ],\n";
  out << "  \"shed_reliable\": " << shed_reliable << "\n";
  out << "}\n";
  if (path == "-") {
    fputs(out.str().c_str(), stdout);
    return true;
  }
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) {
    fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  f << out.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile;
  std::string listen;
  std::string seed_addr;
  std::string stats_out;
  std::string metrics_out;
  double rdv_timeout = 30.0;
  int index = 0;
  int procs = 1;
  auto flag_value = [&](const char* name, int* i) -> const char* {
    if (*i + 1 >= argc) {
      return nullptr;
    }
    (void)name;
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--profile") == 0 && (v = flag_value(arg, &i))) {
      profile = v;
    } else if (std::strcmp(arg, "--listen") == 0 && (v = flag_value(arg, &i))) {
      listen = v;
    } else if (std::strcmp(arg, "--seed") == 0 && (v = flag_value(arg, &i))) {
      seed_addr = v;
    } else if (std::strcmp(arg, "--stats-out") == 0 && (v = flag_value(arg, &i))) {
      stats_out = v;
    } else if (std::strcmp(arg, "--metrics-out") == 0 && (v = flag_value(arg, &i))) {
      metrics_out = v;
    } else if (std::strcmp(arg, "--index") == 0 && (v = flag_value(arg, &i))) {
      index = std::atoi(v);
    } else if (std::strcmp(arg, "--procs") == 0 && (v = flag_value(arg, &i))) {
      procs = std::atoi(v);
    } else if (std::strcmp(arg, "--rdv-timeout") == 0 && (v = flag_value(arg, &i))) {
      rdv_timeout = std::atof(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (profile.empty() || procs < 1 || index < 0 || index >= procs) {
    return Usage(argv[0]);
  }
  std::ifstream f(profile);
  if (!f) {
    fprintf(stderr, "error: cannot open %s\n", profile.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << f.rdbuf();

  p2::ScenarioRunner runner;
  runner.SetBackend(p2::FleetBackend::kUdp);
  std::string error;
  if (!runner.ConfigureProcesses(index, procs, &error)) {
    fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (procs > 1) {
    p2::RendezvousConfig rdv;
    rdv.timeout = rdv_timeout;
    if (index == 0) {
      if (listen.empty()) {
        fprintf(stderr, "error: the seed process (--index 0) needs --listen\n");
        return 1;
      }
      rdv.listen = listen;
      rdv.expected = procs;
    } else {
      if (seed_addr.empty()) {
        fprintf(stderr, "error: joiner processes need --seed <host:port>\n");
        return 1;
      }
      rdv.seed_addr = seed_addr;
    }
    runner.SetRendezvous(rdv);
  }
  if (!metrics_out.empty() && !runner.SetMetricsOut(metrics_out, &error)) {
    fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  bool ok = runner.RunScript(ss.str(), &error);
  if (!ok) {
    fprintf(stderr, "error: %s\n", error.c_str());
  }
  if (!stats_out.empty() && !WriteStats(stats_out, runner, index, procs)) {
    return 1;
  }
  p2::Fleet* fleet = runner.fleet();
  if (fleet != nullptr && fleet->udp() != nullptr) {
    p2::UdpDriver* d = fleet->udp();
    fprintf(stderr,
            "fleetd[%d/%d]: datagrams sent=%llu recv=%llu envelopes sent=%llu "
            "recv=%llu batch=%.2fx timer_lag p50=%lluus p99=%lluus\n",
            index, procs, static_cast<unsigned long long>(d->datagrams_sent()),
            static_cast<unsigned long long>(d->datagrams_received()),
            static_cast<unsigned long long>(d->envelopes_sent()),
            static_cast<unsigned long long>(d->envelopes_received()),
            d->batch_ratio(), TimerLagUs(*d, 0.5), TimerLagUs(*d, 0.99));
  }
  return ok ? 0 : 1;
}
