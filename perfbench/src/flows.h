// Open-loop flow lists drawn up front from the benchmark seed, and the
// physical lower bound every completed flow must respect.
#pragma once

#include <cstdint>
#include <vector>

#include "core/full_builder.h"
#include "net/clos.h"
#include "sim/time.h"

namespace perfbench {

struct Flow {
  esim::net::HostId src = 0;
  esim::net::HostId dst = 0;
  std::uint64_t bytes = 0;
  std::int64_t start_ns = 0;
  std::uint64_t id = 0;
};

/// DCTCP web-search (mini scale) traffic at `load` of the aggregate host
/// bandwidth over [0, window), a fraction `intra` of it inside the source
/// cluster. The flow count is the expected Poisson count for the window
/// and the arrival times are that many uniform draws, sorted: a Poisson
/// process conditioned on its count. Sizes are stratified over the size
/// CDF (one draw per 1/N quantile band, shuffled), so the offered bytes
/// barely move from seed to seed while every flow's size, endpoints and
/// arrival still come from the seed.
std::vector<Flow> web_flows(const esim::core::NetworkConfig& net, double load,
                            double intra, esim::sim::SimTime window,
                            std::uint64_t seed);

/// Lower bound on a flow's completion time computed from the link configs
/// alone: the handshake round trip plus one more traversal of the shortest
/// path's propagation delays, plus the payload's serialization at the host
/// line rate.
std::int64_t min_fct_ns(const esim::core::NetworkConfig& net, const Flow& f);

}  // namespace perfbench
