#include "flows.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/random.h"
#include "workload/flow_size.h"
#include "workload/traffic_matrix.h"

namespace perfbench {

using namespace esim;  // NOLINT

namespace {

/// Inverse of the piecewise log-linear size CDF at `u`: the same
/// interpolation workload::EmpiricalFlowSize::sample applies to its draw.
std::uint64_t size_quantile(
    const std::vector<std::pair<std::uint64_t, double>>& knots, double u) {
  if (u <= knots.front().second) return knots.front().first;
  auto it = std::lower_bound(
      knots.begin(), knots.end(), u,
      [](const auto& knot, double p) { return knot.second < p; });
  if (it == knots.end()) return knots.back().first;
  const auto& [x1, p1] = *it;
  const auto& [x0, p0] = *(it - 1);
  const double t = (u - p0) / (p1 - p0);
  const double lx = std::log(static_cast<double>(x0)) +
                    t * (std::log(static_cast<double>(x1)) -
                         std::log(static_cast<double>(x0)));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::exp(lx)));
}

}  // namespace

std::vector<Flow> web_flows(const core::NetworkConfig& net, double load,
                            double intra, sim::SimTime window,
                            std::uint64_t seed) {
  const auto sizes = workload::mini_web_distribution();
  const double bytes_per_s = load * net.spec.total_hosts() *
                             net.host_uplink.bandwidth_bps / 8.0;
  const auto n = static_cast<std::size_t>(
      std::llround(bytes_per_s * window.to_seconds() / sizes->mean()));

  sim::Rng rng{seed};
  std::vector<std::int64_t> starts(n);
  for (auto& t : starts) {
    t = static_cast<std::int64_t>(rng.uniform() *
                                  static_cast<double>(window.ns()));
  }
  std::sort(starts.begin(), starts.end());

  std::vector<double> bands(n);
  for (std::size_t i = 0; i < n; ++i) {
    bands[i] = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(bands[i - 1], bands[rng.uniform_int(i)]);
  }

  const workload::ClusterMixTraffic matrix{net.spec, intra};
  std::vector<Flow> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [src, dst] = matrix.sample(rng);
    flows.push_back({src, dst, size_quantile(sizes->knots(), bands[i]),
                     starts[i], i + 1});
  }
  return flows;
}

std::int64_t min_fct_ns(const core::NetworkConfig& net, const Flow& f) {
  const net::ClosSpec& spec = net.spec;
  const std::int64_t uplink = net.host_uplink.propagation.ns();
  const std::int64_t fabric = net.fabric_link.propagation.ns();
  const std::int64_t core = net.core_link_config().propagation.ns();
  // Shortest path: host -> ToR -> host; via an Agg inside the cluster; or
  // up through a core switch into the destination cluster.
  std::int64_t prop = uplink + fabric;
  if (spec.cluster_of_host(f.src) != spec.cluster_of_host(f.dst)) {
    prop = uplink + 3 * fabric + 2 * core;
  } else if (spec.tor_of_host(f.src) != spec.tor_of_host(f.dst)) {
    prop = uplink + 3 * fabric;
  }
  const auto serialization = static_cast<std::int64_t>(
      static_cast<double>(f.bytes) * 8.0 * 1e9 / net.host_uplink.bandwidth_bps);
  return 3 * prop + serialization;
}

}  // namespace perfbench
