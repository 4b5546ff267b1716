// Shared pieces of the ElephantSim benchmark driver: options, the report,
// the correctness-check ledger, and the measurement protocol.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A fault planted on purpose, to show that the checks catch it.
enum class Fault {
  None,
  FlowBytes,        ///< one flow's expected bytes altered after injection
  MemoFingerprint,  ///< the memo-off reference fingerprint corrupted
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Fault fault = Fault::None;
};

/// What one benchmark invocation measured. `measure` fills the timings;
/// the workload counts the operations (flows) over every repetition and,
/// in a traced run, puts its per-layer metrics in `layers` by name. main.cc
/// turns the timings into the end-to-end metrics and gives every metric its
/// unit.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s, run_s, traced_run_s;
  double peak_rss_mb = 0;
  std::map<std::string, double> layers;
};

/// Ledger of correctness checks. Every failed check is printed to stderr;
/// a run with any failure reports "correct": false and exits non-zero.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  std::uint64_t failures_ = 0;
};

/// Median of `xs` (mean of the middle pair for even sizes).
double median(std::vector<double> xs);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// A counter's value in `snapshot`; 0 when no component registered it.
std::uint64_t counter(const esim::telemetry::Snapshot& snapshot,
                      std::string_view name);

/// One workload's side of the measurement protocol.
struct Protocol {
  /// Sets up and runs once. Returns {set-up seconds, run seconds}.
  std::function<std::pair<double, double>()> first;
  /// Sets up once more and discards what it built. Returns its seconds.
  std::function<double()> setup;
  /// Runs the first set-up's inputs again, from a fresh engine, and checks
  /// that the run repeats the first one. Returns the run's seconds.
  std::function<double(bool traced)> run;
};

/// The protocol every workload is measured by, within `opt.seconds`:
///  1. `first`, then the peak RSS, which so covers one set-up and one run
///     and nothing the workload does later;
///  2. `setup` until there are kMinReps set-ups and kSetupShare of the
///     budget is spent;
///  3. `run` until there are kMinReps runs and the budget is spent. With
///     `opt.trace` untraced and traced runs alternate, so both medians see
///     the same host conditions, and there are kMinReps of each.
void measure(const Options& opt, const Protocol& protocol, Report& report);

inline constexpr std::size_t kMinReps = 3;
inline constexpr double kSetupShare = 0.2;

Report run_web(const Options& opt, Checks& checks);
Report run_memo_allreduce(const Options& opt, Checks& checks);

}  // namespace perfbench
