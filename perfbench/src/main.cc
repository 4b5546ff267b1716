// ElephantSim benchmark driver.
//
//   esim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for the given time budget and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any correctness check fails. perfbench/run.py builds and runs it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's footprint when that was larger.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t counter(const esim::telemetry::Snapshot& snapshot,
                      std::string_view name) {
  const auto* instrument = snapshot.find(name);
  return instrument != nullptr ? instrument->counter : 0;
}

void measure(const Options& opt, const Protocol& protocol, Report& report) {
  const auto t0 = Clock::now();
  const auto [setup_s, run_s] = protocol.first();
  report.peak_rss_mb = peak_rss_mb();
  report.setup_s.push_back(setup_s);
  report.run_s.push_back(run_s);
  while (report.setup_s.size() < kMinReps ||
         seconds_since(t0) < kSetupShare * opt.seconds) {
    report.setup_s.push_back(protocol.setup());
  }
  const std::size_t min_traced = opt.trace ? kMinReps : 0;
  while (report.run_s.size() < kMinReps ||
         report.traced_run_s.size() < min_traced ||
         seconds_since(t0) < opt.seconds) {
    const bool traced =
        opt.trace && report.traced_run_s.size() < report.run_s.size();
    (traced ? report.traced_run_s : report.run_s)
        .push_back(protocol.run(traced));
  }
}

}  // namespace perfbench

namespace {

using perfbench::Fault;

/// Every per-layer metric with its unit, as BENCHMARK.json lists them. A
/// traced run prints all of them, because every workload reports the same
/// metric set; a layer the workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"workload.materialize_s", "s"},
    {"core.build_s", "s"},
    {"approx.record_trace_s", "s"},
    {"ml.train_s", "s"},
    {"approx.boundary_records", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"net.pkts_delivered", "count"},
    {"net.pkts_dropped", "count"},
    {"tcp.segments_sent", "count"},
    {"tcp.retransmissions", "count"},
    {"tcp.timeouts", "count"},
    {"approx.boundary_pkts", "count"},
    {"ml.inferences", "count"},
    {"ml.inference_s", "s"},
    {"ml.inference_ns_per_pkt", "ns"},
    {"ml.inference_share", "ratio"},
    {"approx.predicted_drops", "count"},
    {"approx.backlog_drops", "count"},
    {"fct_ks", "ratio"},
    {"rtt_w1_us", "us"},
    {"sim.parallel.run_s", "s"},
    {"sim.parallel.sync_rounds", "count"},
    {"sim.parallel.cross_msgs", "count"},
    {"sim.parallel.busy_share_max", "ratio"},
    {"sim.parallel.busy_share_min", "ratio"},
    {"sim.parallel.wait_s", "s"},
    {"sim.parallel.event_share_p0", "ratio"},
    {"memo.lookups", "count"},
    {"memo.hits", "count"},
    {"memo.near_misses", "count"},
    {"memo.hit_ratio", "ratio"},
    {"memo.fast_forwarded_phases", "count"},
    {"memo.cache_bytes", "B"},
    {"telemetry.overhead_s", "s"},
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The metrics one invocation prints: the end-to-end ones from the
/// untraced timings, or every per-layer one.
std::vector<Metric> metrics_of(const perfbench::Report& r, bool trace) {
  using perfbench::median;
  if (!trace) {
    return {{"setup_s", median(r.setup_s), "s"},
            {"run_s", median(r.run_s), "s"},
            {"peak_rss_mb", r.peak_rss_mb, "MB"}};
  }
  std::map<std::string, double> layers = r.layers;
  layers["telemetry.overhead_s"] =
      median(r.traced_run_s) - median(r.run_s);
  std::vector<Metric> out;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = layers.find(name);
    out.push_back({name, it != layers.end() ? it->second : 0.0, unit});
    if (it != layers.end()) layers.erase(it);
  }
  if (!layers.empty()) {
    throw std::logic_error("per-layer metric " + layers.begin()->first +
                           " is not in the metric list");
  }
  return out;
}

/// The LSTM kernel variant ml/inference.cc dispatches to, by the same rule
/// it applies: ESIM_INFERENCE_ISA when set, else AVX2 before AVX-512.
std::string inference_isa() {
#if defined(__x86_64__) || defined(__i386__)
  const char* force = std::getenv("ESIM_INFERENCE_ISA");
  if (force != nullptr && force[0] != '\0') {
    const std::string_view v{force};
    if (v == "avx512" && __builtin_cpu_supports("avx512f")) return "avx512";
    if (v == "avx2" && __builtin_cpu_supports("avx2")) return "avx2";
    return "scalar";
  }
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("avx512f")) return "avx512";
#endif
  return "scalar";
}

bool optimized_build() {
  const std::string_view type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "esim_perfbench: %s\nusage: esim_perfbench --workload "
               "<full_web|hybrid_web|memo_allreduce> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--break <flow_bytes|memo_fingerprint>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--break") {
      if (value == "flow_bytes") {
        opt.fault = Fault::FlowBytes;
      } else if (value == "memo_fingerprint") {
        opt.fault = Fault::MemoFingerprint;
      } else {
        return usage("unknown --break fault");
      }
    } else {
      return usage("unknown argument");
    }
  }
  const bool web =
      opt.workload == "full_web" || opt.workload == "hybrid_web";
  if (!web && opt.workload != "memo_allreduce") {
    return usage("unknown --workload");
  }
  if (!optimized_build()) {
    std::fprintf(stderr, "esim_perfbench: built as %s; numbers need an "
                         "optimized build\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }

  std::printf("host: nproc=%u inference_isa=%s compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), inference_isa().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Checks checks;
  perfbench::Report report;
  std::vector<Metric> metrics;
  try {
    report = web ? perfbench::run_web(opt, checks)
                 : perfbench::run_memo_allreduce(opt, checks);
    metrics = metrics_of(report, opt.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esim_perfbench: %s\n", e.what());
    return 1;
  }

  for (const Metric& m : metrics) {
    std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool comma = false;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "esim_perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += comma ? ", " : "";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    comma = true;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.ok() ? 0 : 1;
}
