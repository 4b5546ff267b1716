// memo_allreduce: periodic ring-allreduce training traffic through
// memo::MemoRunner in aggregate mode with memoization on. Every phase each
// host streams a gradient chunk to its ring successor and one host
// broadcasts parameters; after the two live warm-up phases every verified
// repeat is fast-forwarded from the phase cache.
#include <algorithm>
#include <numeric>

#include "bench.h"
#include "check/digest.h"
#include "core/full_builder.h"
#include "memo/memo_diff.h"
#include "memo/memo_runner.h"
#include "sim/random.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace perfbench {

using namespace esim;  // NOLINT

namespace {

constexpr std::uint32_t kPhases = 240;
constexpr std::int64_t kPeriodNs = 2'000'000;

memo::PeriodicScenario allreduce(std::uint64_t seed) {
  check::Scenario base;
  base.seed = seed;
  base.tors = 2;
  base.spines = 2;
  base.hosts_per_tor = 4;
  base.queue_bytes = 150'000;
  base.tcp = check::TcpVariant::NewReno;
  const std::uint32_t hosts = base.total_hosts();
  sim::Rng rng{seed};
  std::vector<std::uint32_t> ring(hosts);
  std::iota(ring.begin(), ring.end(), 0u);
  for (std::uint32_t i = hosts; i > 1; --i) {
    std::swap(ring[i - 1], ring[rng.uniform_int(i)]);
  }
  // Uneven shards (three sizes in a seeded rotation), the same every phase.
  const std::uint64_t rotation = rng.uniform_int(3);
  std::uint64_t id = 1;
  for (std::uint32_t i = 0; i < hosts; ++i) {
    check::FlowSpec f;
    f.src = ring[i];
    f.dst = ring[(i + 1) % hosts];
    f.bytes = 30'000 + 2'000 * ((i + rotation) % 3);
    f.start_ns = 5'000 + 1'000 * static_cast<std::int64_t>(i);
    f.flow_id = id++;
    base.flows.push_back(f);
  }
  for (std::uint32_t i = 1; i < hosts; i += 3) {  // parameter broadcast
    check::FlowSpec f;
    f.src = ring[0];
    f.dst = ring[i];
    f.bytes = 8'000;
    f.start_ns = 400'000 + 1'000 * static_cast<std::int64_t>(i);
    f.flow_id = id++;
    base.flows.push_back(f);
  }
  base.duration_ns = kPeriodNs;
  return memo::make_periodic(base, kPhases, kPeriodNs);
}

/// One timed run: a fresh runner (so the phase cache starts empty) over
/// the scenario, optionally with a trace session active.
struct Rep {
  double run_s = 0;
  memo::MemoRunOutcome out;
};

Rep run_rep(const memo::PeriodicScenario& ps, bool memo_enabled,
            bool traced) {
  Rep r;
  memo::MemoConfig mcfg;
  mcfg.enabled = memo_enabled;
  memo::MemoRunner runner{mcfg};
  telemetry::TraceSession trace;
  if (traced) trace.start();
  const auto t = Clock::now();
  r.out = runner.run(ps.scenario, ps.pattern, check::EngineSpec{0, false},
                     /*with_digest=*/false);
  r.run_s = seconds_since(t);
  trace.stop();
  return r;
}

/// A live, instrumented replay of the whole scenario outside MemoRunner,
/// through the same builder and flow injection: its counters are the
/// logical totals the memo run's fast-forward must reproduce.
struct LiveRun {
  telemetry::Snapshot snapshot;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t completed = 0;
  double build_s = 0;
};

LiveRun live_run(const memo::PeriodicScenario& ps) {
  LiveRun live;
  telemetry::Registry registry;
  sim::Simulator sim{ps.scenario.seed};
  sim.set_telemetry(&registry);
  const auto t_build = Clock::now();
  const auto net = core::build_full_network(sim, ps.scenario.network_config());
  live.build_s = seconds_since(t_build);
  std::uint64_t* completed = &live.completed;
  for (const check::FlowSpec& f : ps.scenario.flows) {
    tcp::Host* host = net.hosts[f.src];
    sim.schedule_at(sim::SimTime::from_ns(f.start_ns), [host, f, completed] {
      host->open_flow(f.dst, f.bytes, f.flow_id)->on_complete = [completed] {
        ++*completed;
      };
    });
  }
  sim.run_until(sim::SimTime::from_ns(ps.scenario.duration_ns));
  live.events = sim.events_executed();
  live.fingerprint = check::final_state_fingerprint({&sim});
  live.snapshot = registry.snapshot();
  return live;
}

void check_rep(const Rep& r, const memo::PeriodicScenario& ps,
               std::uint64_t memo_off_fp, Checks& checks) {
  const memo::MemoStats& s = r.out.stats;
  checks.expect(r.out.flows_completed ==
                    std::uint64_t{kPhases} * ps.pattern.pattern.size(),
                "completions " + std::to_string(r.out.flows_completed) +
                    " != phases x flows per phase");
  checks.expect(s.lookups == s.hits + s.misses + s.near_misses,
                "memo lookups != hits + misses + near misses");
  checks.expect(s.fast_forwarded_phases == s.hits,
                "fast-forwarded phases != cache hits");
  checks.expect(s.fast_forwarded_ns ==
                    static_cast<std::int64_t>(s.hits) * kPeriodNs,
                "fast-forwarded ns != hits x period");
  checks.expect(r.out.final_state_fp == memo_off_fp,
                "memo-on final state differs from the memo-off live run");
}

}  // namespace

Report run_memo_allreduce(const Options& opt, Checks& checks) {
  Report report;
  memo::PeriodicScenario ps;
  Rep first;
  auto count = [&](const Rep& r) {
    const std::uint64_t flows = ps.scenario.flows.size();
    report.attempted += flows;
    report.failed += flows - r.out.flows_completed;
  };

  Protocol protocol;
  protocol.first = [&] {
    const auto t = Clock::now();
    ps = allreduce(opt.seed);
    const double setup_s = seconds_since(t);
    first = run_rep(ps, /*memo_enabled=*/true, false);
    count(first);
    return std::pair{setup_s, first.run_s};
  };
  protocol.setup = [&] {
    const auto t = Clock::now();
    const memo::PeriodicScenario again = allreduce(opt.seed);
    return seconds_since(t);
  };
  protocol.run = [&](bool traced) {
    const Rep r = run_rep(ps, /*memo_enabled=*/true, traced);
    count(r);
    checks.expect(r.out.final_state_fp == first.out.final_state_fp &&
                      r.out.stats.hits == first.out.stats.hits,
                  "a repetition on the same inputs gave different results");
    return r.run_s;
  };
  measure(opt, protocol, report);

  // The memo-off reference runs after the timed repetitions and after the
  // peak RSS reading, so it costs neither.
  const memo::MemoRunOutcome off =
      run_rep(ps, /*memo_enabled=*/false, false).out;
  std::uint64_t off_fp = off.final_state_fp;
  if (opt.fault == Fault::MemoFingerprint) off_fp ^= 1;
  checks.expect(off.flows_completed == first.out.flows_completed,
                "memo-off run completed a different number of flows");
  check_rep(first, ps, off_fp, checks);
  if (!opt.trace) return report;

  const LiveRun live = live_run(ps);
  checks.expect(live.fingerprint == off_fp &&
                    live.completed == off.flows_completed,
                "instrumented live run differs from the memo-off run");
  const memo::MemoStats& s = first.out.stats;
  auto& m = report.layers;
  m["workload.materialize_s"] = median(report.setup_s);
  m["core.build_s"] = live.build_s;
  m["sim.events"] = static_cast<double>(live.events);
  m["sim.events_per_s"] =
      static_cast<double>(live.events) / median(report.run_s);
  m["net.pkts_delivered"] =
      static_cast<double>(counter(live.snapshot, "net.link.delivered"));
  m["net.pkts_dropped"] =
      static_cast<double>(counter(live.snapshot, "net.link.dropped"));
  for (const char* name :
       {"tcp.segments_sent", "tcp.retransmissions", "tcp.timeouts"}) {
    m[name] = static_cast<double>(counter(live.snapshot, name));
  }
  m["memo.lookups"] = static_cast<double>(s.lookups);
  m["memo.hits"] = static_cast<double>(s.hits);
  m["memo.near_misses"] = static_cast<double>(s.near_misses);
  m["memo.hit_ratio"] =
      s.lookups > 0 ? static_cast<double>(s.hits) / s.lookups : 0.0;
  m["memo.fast_forwarded_phases"] =
      static_cast<double>(s.fast_forwarded_phases);
  m["memo.cache_bytes"] = static_cast<double>(first.out.cache_bytes);
  return report;
}

}  // namespace perfbench
