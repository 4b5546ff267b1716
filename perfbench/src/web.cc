// The web-search workloads: full_web (packet level, sequential) and
// hybrid_web (cluster 0 at packet level, clusters 1-7 replaced by trained
// LSTM boundary models). Both inject one flow list, drawn from the seed,
// through tcp::Host::open_flow. hybrid_web's traced run also runs its
// inputs on a two-partition ParallelEngine.
#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "core/experiment.h"
#include "core/hybrid_builder.h"
#include "core/hybrid_pdes.h"
#include "flows.h"
#include "sim/parallel.h"
#include "stats/distance.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace perfbench {

using namespace esim;  // NOLINT
using sim::SimTime;

namespace {

enum class Mode { Full, Hybrid, HybridPdes };

constexpr double kLoad = 0.3;
constexpr double kIntraFraction = 0.3;
constexpr std::uint32_t kFullCluster = 0;
constexpr std::uint32_t kPartitions = 2;
// Flows arrive over kArrivalWindow. Every run simulates up to kHorizon,
// long enough for a handshake that loses its SYN five times in a row
// (100 + 200 + 400 + 800 + 1600 ms of backoff), which the hybrids' sampled
// drops produce on some seeds; a fixed span keeps that tail from making
// the simulated work depend on the seed. A run that has not drained by
// then (a flow still open, or a packet-level link still busy) continues
// in kDrainSlice steps, and fails the checks at kDrainCap.
const SimTime kArrivalWindow = SimTime::from_ms(10);
const SimTime kHorizon = SimTime::from_ms(3200);
const SimTime kDrainSlice = SimTime::from_ms(100);
const SimTime kDrainCap = SimTime::from_sec(30);

core::ExperimentConfig experiment_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = 8;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  cfg.load = kLoad;
  cfg.intra_fraction = kIntraFraction;
  cfg.seed = seed;
  // Training at the size bench/fig5_parallel uses for this topology: the
  // model defaults (two 32-wide layers, 400 batches of 64) take close to a
  // minute to train, which would leave no time to measure anything else.
  cfg.train_duration = SimTime::from_ms(25);
  cfg.model.hidden = 16;
  cfg.model.layers = 1;
  cfg.train.batches = 100;
  cfg.train.batch_size = 32;
  cfg.train.seq_len = 16;
  cfg.train.learning_rate = 5e-3;
  return cfg;
}

/// Flows wholly between approximated clusters cannot affect what cluster
/// 0 measures; the hybrid workloads leave them out (paper §6.2).
bool elided(const net::ClosSpec& spec, const Flow& f) {
  return spec.cluster_of_host(f.src) != kFullCluster &&
         spec.cluster_of_host(f.dst) != kFullCluster;
}

struct FlowSlot {
  std::int64_t end_ns = -1;
  const tcp::TcpConnection* conn = nullptr;
};

/// One built network on its engine. Owns everything a run touches.
struct Network {
  telemetry::Registry registry;  // outlives the engines publishing into it
  stats::LatencyCollector rtt;   // cluster-0 RTT samples
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<sim::ParallelEngine> engine;
  std::vector<tcp::Host*> hosts;
  std::vector<std::uint32_t> partition_of_host;  // PDES only
  std::vector<core::ApproxCluster*> clusters;
  std::vector<net::Link*> links;
  std::vector<FlowSlot> slots;

  sim::Simulator& sim_of(net::HostId h) {
    return engine ? engine->partition(partition_of_host[h]).sim() : *sim;
  }
  void run_until(SimTime t) {
    if (engine) {
      engine->run_until(t);
    } else {
      sim->run_until(t);
    }
  }
};

std::unique_ptr<Network> build(Mode mode, const core::ExperimentConfig& cfg,
                               const core::TrainedModels* models,
                               bool telemetry) {
  auto n = std::make_unique<Network>();
  telemetry::Registry* registry = telemetry ? &n->registry : nullptr;
  core::HybridConfig hcfg;
  hcfg.net = cfg.net;
  hcfg.full_cluster = kFullCluster;
  hcfg.approx = cfg.approx;
  hcfg.approx.macro = cfg.macro;
  std::vector<sim::Simulator*> sims;
  if (mode == Mode::HybridPdes) {
    sim::ParallelEngine::Config ecfg;
    ecfg.num_partitions = kPartitions;
    ecfg.lookahead = SimTime::from_us(1);
    ecfg.seed = cfg.seed + 1;
    n->engine = std::make_unique<sim::ParallelEngine>(ecfg);
    n->engine->set_telemetry(registry);
    auto built = core::build_hybrid_network_partitioned(
        *n->engine, hcfg, *models->ingress, *models->egress);
    n->hosts = built.net.hosts;
    n->clusters = built.net.clusters;
    n->partition_of_host = built.partition_of_host;
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      sims.push_back(&n->engine->partition(p).sim());
    }
  } else {
    n->sim = std::make_unique<sim::Simulator>(cfg.seed + 1);
    n->sim->set_telemetry(registry);
    if (mode == Mode::Full) {
      n->hosts = core::build_full_network(*n->sim, cfg.net).hosts;
    } else {
      auto built = core::build_hybrid_network(*n->sim, hcfg, *models->ingress,
                                              *models->egress);
      n->hosts = built.hosts;
      n->clusters = built.clusters;
    }
    sims.push_back(n->sim.get());
  }
  std::erase(n->clusters, nullptr);
  for (sim::Simulator* s : sims) {
    for (const auto& c : s->components()) {
      if (auto* link = dynamic_cast<net::Link*>(c.get())) {
        n->links.push_back(link);
      }
    }
  }
  const net::ClosSpec& spec = cfg.net.spec;
  for (net::HostId h = 0; h < spec.total_hosts(); ++h) {
    if (spec.cluster_of_host(h) == kFullCluster) {
      n->hosts[h]->set_rtt_collector(&n->rtt);
    }
  }
  return n;
}

void inject(Network& n, const std::vector<Flow>& flows) {
  n.slots.assign(flows.size(), FlowSlot{});
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow f = flows[i];
    FlowSlot* slot = &n.slots[i];
    tcp::Host* host = n.hosts[f.src];
    n.sim_of(f.src).schedule_at(SimTime::from_ns(f.start_ns), [host, f, slot] {
      tcp::TcpConnection* conn = host->open_flow(f.dst, f.bytes, f.id);
      slot->conn = conn;
      conn->on_complete = [host, slot] {
        slot->end_ns = host->sim().now().ns();
      };
    });
  }
}

bool link_balanced(const net::Link& link) {
  const auto& c = link.counter();
  return c.sent == c.delivered + c.dropped;
}

bool drained(const Network& n) {
  return std::all_of(n.slots.begin(), n.slots.end(),
                     [](const FlowSlot& s) { return s.end_ns >= 0; }) &&
         std::all_of(n.links.begin(), n.links.end(),
                     [](const net::Link* l) { return link_balanced(*l); });
}

/// A workload's inputs: the offered flows and, for the hybrids, the
/// boundary models trained for this seed.
struct Inputs {
  std::vector<Flow> flows;
  core::TrainedModels models;
  double materialize_s = 0, record_trace_s = 0, train_s = 0;
};

Inputs prepare(Mode mode, const core::ExperimentConfig& cfg) {
  Inputs in;
  auto t = Clock::now();
  in.flows = web_flows(cfg.net, cfg.load, cfg.intra_fraction, kArrivalWindow,
                       cfg.seed);
  if (mode != Mode::Full) {
    std::erase_if(in.flows,
                  [&](const Flow& f) { return elided(cfg.net.spec, f); });
  }
  in.materialize_s = seconds_since(t);
  if (mode != Mode::Full) {
    t = Clock::now();
    const core::BoundaryTrace trace = core::record_boundary_trace(cfg);
    in.record_trace_s = seconds_since(t);
    t = Clock::now();
    in.models = core::train_from_trace(cfg, trace);
    in.train_s = seconds_since(t);
  }
  return in;
}

/// Everything one run of a built network measured and produced.
struct Rep {
  double build_s = 0, run_s = 0;
  std::vector<Flow> flows;  // offered, in injection order
  std::vector<std::int64_t> end_ns;
  std::vector<std::uint64_t> bytes_done;
  stats::EmpiricalCdf rtt;
  std::uint64_t events = 0;
  std::uint64_t unbalanced_links = 0;
  core::ApproxCluster::Stats approx;
  std::uint64_t decided = 0;          // sum of per-tier decisions
  std::uint64_t approx_arrivals = 0;  // link deliveries into clusters
  sim::ParallelEngine::Stats pdes;
  std::uint64_t events_p0 = 0;
  // Traced runs only.
  telemetry::Snapshot snapshot;
  std::vector<double> busy_s;  // pdes.window span time per partition
  double engine_s = 0;         // wall time inside run_until
};

/// Adds the pdes.window span durations of `trace` to `busy`, per partition.
void add_window_busy(const telemetry::TraceSession& trace,
                     std::vector<double>& busy) {
  const telemetry::Json doc = trace.chrome_trace();
  const telemetry::Json* events = doc.find("traceEvents");
  std::vector<std::pair<std::int64_t, std::uint32_t>> partition_of_tid;
  const std::string prefix = "partition ";
  for (std::size_t i = 0; i < events->size(); ++i) {
    const telemetry::Json& e = events->at(i);
    if (e.find("ph")->as_string() != "M") continue;
    const std::string& name = e.find("args")->find("name")->as_string();
    if (name.rfind(prefix, 0) == 0) {
      partition_of_tid.emplace_back(
          e.find("tid")->as_int(),
          static_cast<std::uint32_t>(std::stoul(name.substr(prefix.size()))));
    }
  }
  for (std::size_t i = 0; i < events->size(); ++i) {
    const telemetry::Json& e = events->at(i);
    if (e.find("name")->as_string() != "pdes.window") continue;
    const std::int64_t tid = e.find("tid")->as_int();
    for (const auto& [t, p] : partition_of_tid) {
      if (t == tid) busy.at(p) += e.find("dur")->as_double() * 1e-6;
    }
  }
}

/// Builds a network for `in`, runs it until it has drained, and collects
/// what the checks and metrics need. `trace_events` bounds the spans one
/// traced run_until call can record.
Rep run_rep(Mode mode, const core::ExperimentConfig& cfg, const Inputs& in,
            bool traced, Fault fault, std::uint64_t trace_events) {
  Rep r;
  auto t = Clock::now();
  auto n = build(mode, cfg, &in.models, traced);
  inject(*n, in.flows);
  r.build_s = seconds_since(t);
  r.flows = in.flows;
  if (fault == Fault::FlowBytes) r.flows.front().bytes += 1;

  // Every run_until call traces into a session of its own: the engine's
  // worker threads are new each call and each needs a ring that holds all
  // of its spans (approx.inference included), or pdes.window spans would
  // be overwritten.
  telemetry::TraceSession::Config tcfg;
  tcfg.events_per_thread = std::bit_ceil(trace_events + 1024);
  r.busy_s.assign(kPartitions, 0.0);
  for (SimTime until = kHorizon;; until = until + kDrainSlice) {
    telemetry::TraceSession trace{tcfg};
    if (traced) trace.start();
    t = Clock::now();
    n->run_until(until);
    const double engine_s = seconds_since(t);
    trace.stop();
    if (traced && n->engine) {
      if (trace.overwritten() != 0) {
        throw std::runtime_error("trace ring overflowed; pdes.window lost");
      }
      add_window_busy(trace, r.busy_s);
    }
    t = Clock::now();
    const bool done = drained(*n);
    r.run_s += engine_s + seconds_since(t);
    r.engine_s += engine_s;
    if (done || until >= kDrainCap) break;
  }

  r.events = n->engine ? n->engine->stats().events_executed
                       : n->sim->events_executed();
  for (const FlowSlot& s : n->slots) {
    r.end_ns.push_back(s.end_ns);
    r.bytes_done.push_back(s.conn != nullptr ? s.conn->bytes_done() : 0);
  }
  r.rtt = n->rtt.cdf();
  for (const net::Link* l : n->links) {
    if (!link_balanced(*l)) ++r.unbalanced_links;
    if (l->name().find("->approx.c") != std::string::npos) {
      r.approx_arrivals += l->counter().delivered;
    }
  }
  for (core::ApproxCluster* c : n->clusters) {
    c->flush_batch();
    const auto& s = c->stats();
    r.approx.egress_packets += s.egress_packets;
    r.approx.ingress_packets += s.ingress_packets;
    r.approx.intra_packets += s.intra_packets;
    r.approx.predicted_drops += s.predicted_drops;
    r.approx.backlog_drops += s.backlog_drops;
    for (std::uint64_t tier : s.tier_packets) r.decided += tier;
  }
  if (n->engine) {
    r.pdes = n->engine->stats();
    r.events_p0 = n->engine->partition(0).sim().events_executed();
  }
  if (traced) r.snapshot = n->registry.snapshot();
  return r;
}

void check_rep(const Rep& r, Mode mode, const core::ExperimentConfig& cfg,
               Checks& checks) {
  std::uint64_t incomplete = 0, wrong_bytes = 0, too_fast = 0,
                elided_offered = 0;
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const Flow& f = r.flows[i];
    if (mode != Mode::Full && elided(cfg.net.spec, f)) ++elided_offered;
    if (r.end_ns[i] < 0) {
      ++incomplete;
      continue;
    }
    if (r.bytes_done[i] != f.bytes) ++wrong_bytes;
    if (r.end_ns[i] - f.start_ns < min_fct_ns(cfg.net, f)) ++too_fast;
  }
  checks.expect(incomplete == 0, std::to_string(incomplete) +
                                     " offered flows did not complete");
  checks.expect(wrong_bytes == 0,
                std::to_string(wrong_bytes) +
                    " flows completed with acked bytes != offered bytes");
  checks.expect(too_fast == 0,
                std::to_string(too_fast) +
                    " flows beat the handshake + serialization + "
                    "propagation lower bound");
  checks.expect(r.unbalanced_links == 0,
                std::to_string(r.unbalanced_links) +
                    " packet-level links end with sent != delivered + "
                    "dropped");
  if (mode == Mode::Full) return;
  checks.expect(elided_offered == 0,
                std::to_string(elided_offered) +
                    " offered flows run wholly between approximated "
                    "clusters");
  const std::uint64_t boundary = r.approx.ingress_packets +
                                 r.approx.egress_packets +
                                 r.approx.predicted_drops;
  checks.expect(r.approx.intra_packets == 0,
                "approximated clusters carried intra-cluster packets");
  checks.expect(boundary == r.decided,
                "ingress + egress + predicted drops (" +
                    std::to_string(boundary) + ") != decided packets (" +
                    std::to_string(r.decided) + ")");
  checks.expect(r.approx_arrivals == r.decided,
                "link deliveries into approximated clusters (" +
                    std::to_string(r.approx_arrivals) +
                    ") != decided packets (" + std::to_string(r.decided) +
                    ")");
}

Mode mode_of(const std::string& workload) {
  return workload == "full_web" ? Mode::Full : Mode::Hybrid;
}

/// How a run split across the PDES partitions.
struct ParallelSplit {
  double run_s = 0, busy_max = 0, busy_min = 1, wait_s = 0, share_p0 = 0;
  std::uint64_t sync_rounds = 0, cross_msgs = 0;
};

/// Runs `in` on the two-partition ParallelEngine: kMinReps untraced runs
/// for the median run_s, then one traced run for the busy/wait split from
/// its pdes.window spans. Every run is checked like the sequential ones.
ParallelSplit run_parallel(const core::ExperimentConfig& cfg,
                           const Inputs& in, Fault fault, Checks& checks) {
  if (std::thread::hardware_concurrency() < kPartitions) {
    throw std::runtime_error("the PDES run needs one CPU per partition");
  }
  std::vector<double> run;
  const Rep first = run_rep(Mode::HybridPdes, cfg, in, false, fault, 0);
  check_rep(first, Mode::HybridPdes, cfg, checks);
  run.push_back(first.run_s);
  for (std::size_t i = 0; i <= kMinReps; ++i) {
    const bool traced = i == kMinReps;
    Rep r = run_rep(Mode::HybridPdes, cfg, in, traced, fault,
                    first.decided + 3 * first.pdes.sync_rounds);
    checks.expect(r.end_ns == first.end_ns && r.events == first.events,
                  "a PDES repetition on the same inputs gave different "
                  "results");
    if (!traced) {
      run.push_back(r.run_s);
      continue;
    }
    ParallelSplit split;
    split.run_s = median(run);
    for (const double b : r.busy_s) {
      split.busy_max = std::max(split.busy_max, b / r.engine_s);
      split.busy_min = std::min(split.busy_min, b / r.engine_s);
      split.wait_s += r.engine_s - b;
    }
    split.share_p0 = static_cast<double>(r.events_p0) /
                     static_cast<double>(r.pdes.events_executed);
    split.sync_rounds = r.pdes.sync_rounds;
    split.cross_msgs = r.pdes.cross_messages;
    return split;
  }
  return {};  // not reached: the last iteration is the traced run
}

/// FCT and RTT distances between a hybrid run and the packet-level run of
/// the same seed's full flow list, compared on the same flows.
std::pair<double, double> fidelity(const Rep& hybrid, const Rep& full) {
  std::vector<std::int64_t> full_fct(full.flows.size() + 1, -1);
  for (std::size_t i = 0; i < full.flows.size(); ++i) {
    full_fct[full.flows[i].id] = full.end_ns[i] - full.flows[i].start_ns;
  }
  stats::EmpiricalCdf a, b;
  for (std::size_t i = 0; i < hybrid.flows.size(); ++i) {
    const Flow& f = hybrid.flows[i];
    a.add(static_cast<double>(hybrid.end_ns[i] - f.start_ns) * 1e-9);
    b.add(static_cast<double>(full_fct.at(f.id)) * 1e-9);
  }
  return {stats::ks_distance(a, b),
          stats::wasserstein_distance(hybrid.rtt, full.rtt) * 1e6};
}

}  // namespace

Report run_web(const Options& opt, Checks& checks) {
  const Mode mode = mode_of(opt.workload);
  const core::ExperimentConfig cfg = experiment_config(opt.seed);
  Report report;
  std::vector<double> materialize, record, train, build_s;
  Inputs in;
  Rep first, traced;

  auto setup_s = [&](const Inputs& inputs, double build) {
    materialize.push_back(inputs.materialize_s);
    record.push_back(inputs.record_trace_s);
    train.push_back(inputs.train_s);
    build_s.push_back(build);
    return inputs.materialize_s + inputs.record_trace_s + inputs.train_s +
           build;
  };
  auto count = [&](const Rep& r) {
    report.attempted += r.flows.size();
    report.failed += static_cast<std::uint64_t>(
        std::count(r.end_ns.begin(), r.end_ns.end(), -1));
  };

  Protocol protocol;
  protocol.first = [&] {
    in = prepare(mode, cfg);
    first = run_rep(mode, cfg, in, false, opt.fault, 0);
    count(first);
    check_rep(first, mode, cfg, checks);
    return std::pair{setup_s(in, first.build_s), first.run_s};
  };
  protocol.setup = [&] {
    const Inputs again = prepare(mode, cfg);
    const auto t = Clock::now();
    auto n = build(mode, cfg, &again.models, false);
    inject(*n, again.flows);
    return setup_s(again, seconds_since(t));
  };
  protocol.run = [&](bool trace_this) {
    // Spans one run_until call can record at most: one inference per
    // boundary packet, a window span per partition and a sync instant per
    // round.
    const std::uint64_t trace_events =
        first.decided + 3 * first.pdes.sync_rounds;
    Rep r = run_rep(mode, cfg, in, trace_this, opt.fault, trace_events);
    count(r);
    build_s.push_back(r.build_s);
    checks.expect(r.end_ns == first.end_ns && r.events == first.events,
                  "a repetition on the same inputs gave different results");
    const double run_s = r.run_s;
    if (trace_this) traced = std::move(r);
    return run_s;
  };
  measure(opt, protocol, report);
  if (!opt.trace) return report;

  auto& m = report.layers;
  const telemetry::Snapshot& snap = traced.snapshot;
  const double run_med = median(report.run_s);
  m["workload.materialize_s"] = median(materialize);
  m["core.build_s"] = median(build_s);
  m["sim.events"] = static_cast<double>(first.events);
  m["sim.events_per_s"] = static_cast<double>(first.events) / run_med;
  m["net.pkts_delivered"] =
      static_cast<double>(counter(snap, "net.link.delivered"));
  m["net.pkts_dropped"] =
      static_cast<double>(counter(snap, "net.link.dropped"));
  for (const char* name :
       {"tcp.segments_sent", "tcp.retransmissions", "tcp.timeouts"}) {
    m[name] = static_cast<double>(counter(snap, name));
  }
  if (mode == Mode::Full) return report;

  m["approx.record_trace_s"] = median(record);
  m["ml.train_s"] = median(train);
  m["approx.boundary_records"] =
      static_cast<double>(in.models.boundary_records);
  m["approx.boundary_pkts"] = static_cast<double>(first.decided);
  m["approx.predicted_drops"] =
      static_cast<double>(first.approx.predicted_drops);
  m["approx.backlog_drops"] = static_cast<double>(first.approx.backlog_drops);
  const auto* inference = snap.find("approx.inference_ns");
  const double inferences =
      static_cast<double>(counter(snap, "approx.inferences"));
  const double inference_s =
      inference != nullptr ? static_cast<double>(inference->sum) * 1e-9 : 0.0;
  m["ml.inferences"] = inferences;
  m["ml.inference_s"] = inference_s;
  m["ml.inference_ns_per_pkt"] =
      inferences > 0 ? inference_s * 1e9 / inferences : 0.0;
  m["ml.inference_share"] = inference_s / traced.run_s;

  // The same inputs on the PDES engine: the only run where sim/parallel,
  // the partitioner and the SPSC rings do work.
  const ParallelSplit split = run_parallel(cfg, in, opt.fault, checks);
  m["sim.parallel.run_s"] = split.run_s;
  m["sim.parallel.sync_rounds"] = static_cast<double>(split.sync_rounds);
  m["sim.parallel.cross_msgs"] = static_cast<double>(split.cross_msgs);
  m["sim.parallel.busy_share_max"] = split.busy_max;
  m["sim.parallel.busy_share_min"] = split.busy_min;
  m["sim.parallel.wait_s"] = split.wait_s;
  m["sim.parallel.event_share_p0"] = split.share_p0;

  const Rep reference = run_rep(Mode::Full, cfg, prepare(Mode::Full, cfg),
                                false, Fault::None, 0);
  check_rep(reference, Mode::Full, cfg, checks);
  std::tie(m["fct_ks"], m["rtt_w1_us"]) = fidelity(first, reference);
  return report;
}

}  // namespace perfbench
