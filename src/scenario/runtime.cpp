#include "scenario/runtime.hpp"

#include <chrono>
#include <memory>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/mux.hpp"
#include "net/netem.hpp"
#include "scenario/registry.hpp"
#include "sim/byzantine.hpp"
#include "sim/latency.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace delphi::scenario {

namespace {

/// Resolve t (kAutoFaults → protocol default) and validate (structure and
/// parameter keys — a typo'd param must not silently change nothing).
ScenarioSpec resolve(const ScenarioSpec& spec, const ProtocolRegistry& reg,
                     const ProtocolInfo& info) {
  ScenarioSpec rs = spec;
  if (rs.t == kAutoFaults) rs.t = info.default_faults(rs.n);
  rs.validate();
  rs.validate_params(reg);
  return rs;
}

/// Crash-fault placement: the top `crashes` node ids, silent from the start
/// (the fault model of the paper's crash experiments and delphi_cli
/// --crashes).
std::set<NodeId> crash_set(const ScenarioSpec& spec) {
  return top_ids(spec.n, spec.crashes);
}

/// Byzantine-behaviour placement: the `byzantine.k` ids directly below the
/// crash block, so `crashes=1 byzantine=garbage:64:2` faults the top three.
std::set<NodeId> byzantine_set(const ScenarioSpec& spec) {
  return top_ids(spec.n - spec.crashes, spec.byzantine.k);
}

/// Wrap the suite factory so faulted placements get their declared
/// behaviour: SilentProtocol on crash ids, the spec'd Byzantine wrapper on
/// byzantine ids, the honest suite everywhere else. Protocol-level wrapping,
/// so the same factory runs on both substrates.
net::ProtocolFactory with_faults(net::ProtocolFactory inner,
                                 std::set<NodeId> crashed,
                                 std::set<NodeId> byz, ByzantineSpec bz) {
  if (crashed.empty() && byz.empty()) return inner;
  return [inner = std::move(inner), crashed = std::move(crashed),
          byz = std::move(byz),
          bz](NodeId i) -> std::unique_ptr<net::Protocol> {
    if (crashed.contains(i)) return std::make_unique<sim::SilentProtocol>();
    if (byz.contains(i)) {
      switch (bz.kind) {
        case ByzantineKind::kCrashAfter:
          return std::make_unique<sim::CrashAfterProtocol>(inner(i), bz.param);
        case ByzantineKind::kGarbage:
          return std::make_unique<sim::GarbageSprayProtocol>(
              2, static_cast<std::size_t>(bz.param));
        case ByzantineKind::kNone:
          break;
      }
    }
    return inner(i);
  };
}

/// Channels per SessionMux instance window. Kept at the mux default so every
/// registered suite's channel layout fits (the widest, abraham, uses
/// rounds*(n+1)+1 channels).
constexpr std::uint32_t kMuxStride = 1u << 16;

/// Per-instance honest inputs: explicit inputs pin the workload for every
/// feed; generated workloads draw a distinct clustered set per feed, with
/// instance 0 matching the single-instance generator (seed + n) exactly.
std::vector<double> instance_inputs(const ScenarioSpec& rs,
                                    std::uint32_t sid) {
  if (!rs.inputs.empty()) return rs.make_inputs();
  return clustered_inputs(rs.n, rs.center, rs.delta, rs.seed + rs.n + sid);
}

/// The honest per-node factory: the suite's own factory at instances == 1, a
/// SessionMux wrapping one suite instance per session window otherwise. Each
/// instance gets its own inner factory built up front (owning that
/// instance's shared deployment state — coins, key stores — across all
/// nodes) with a distinct derived seed, so concurrent feeds don't share coin
/// sessions.
net::ProtocolFactory make_node_factory(const ProtocolInfo& info,
                                       const ScenarioSpec& rs) {
  if (rs.instances <= 1) return info.make_factory(rs, rs.make_inputs());
  auto inners = std::make_shared<std::vector<net::ProtocolFactory>>();
  for (std::uint32_t sid = 0; sid < rs.instances; ++sid) {
    ScenarioSpec is = rs;
    is.seed = rs.seed + sid;
    inners->push_back(info.make_factory(is, instance_inputs(rs, sid)));
  }
  net::SessionMux::Config cfg;
  cfg.expected = static_cast<std::uint32_t>(rs.instances);
  cfg.stride = kMuxStride;
  cfg.mode = rs.mux_mode == MuxMode::kSequential
                 ? net::SessionMux::Mode::kSequential
                 : net::SessionMux::Mode::kConcurrent;
  return [inners, cfg](NodeId i) -> std::unique_ptr<net::Protocol> {
    return std::make_unique<net::SessionMux>(
        cfg, [inners, i](std::uint32_t sid) { return (*inners)[sid](i); });
  };
}

/// Socket-substrate payload decoder: under a mux the wire channel is
/// sid * stride + c, while suite decoders map in-window channels — fold the
/// window offset away before dispatch.
transport::Decoder make_node_decoder(const ProtocolInfo& info,
                                     const ScenarioSpec& rs) {
  auto inner = info.make_decoder(rs);
  if (rs.instances <= 1) return inner;
  return [inner = std::move(inner)](std::uint32_t channel, ByteReader& r) {
    return inner(channel % kMuxStride, r);
  };
}

/// The harvester for one honest node's outputs: per instance through the mux
/// (every feed reports, in sid order — never-opened sessions of an
/// unfinished sequential chain contribute nothing), directly otherwise.
OutputHarvester node_harvester(const ProtocolInfo& info,
                               std::size_t instances) {
  if (instances <= 1) return info.harvest;
  return [&info, instances](const net::Protocol& node,
                            std::vector<double>& out) {
    const auto& mux = dynamic_cast<const net::SessionMux&>(node);
    for (std::uint32_t sid = 0; sid < instances; ++sid) {
      if (const auto* s = mux.session(sid)) info.harvest(*s, out);
    }
  };
}

/// Churn placement for one spec entry: the first k honest ids (0..k-1) when
/// churn_seed == 0, else k distinct seed-derived honest ids (per-entry
/// stream, so repeated `churn=` entries hit independent subsets). The honest
/// range excludes the top-id crash/byzantine block; validate() guarantees k
/// fits, so the rejection loop terminates.
std::vector<NodeId> churn_targets(const ScenarioSpec& rs, std::size_t entry) {
  const std::uint64_t k = rs.churn[entry].k;
  std::vector<NodeId> ids;
  if (rs.churn_seed == 0) {
    for (std::uint64_t i = 0; i < k; ++i) {
      ids.push_back(static_cast<NodeId>(i));
    }
    return ids;
  }
  const std::uint64_t honest = rs.n - rs.crashes - rs.byzantine.k;
  Rng rng(rs.churn_seed ^ (0x9e3779b97f4a7c15ULL * (entry + 1)));
  std::set<NodeId> chosen;
  while (chosen.size() < k) {
    chosen.insert(static_cast<NodeId>(rng.below(honest)));
  }
  ids.assign(chosen.begin(), chosen.end());
  return ids;
}

/// Expand the spec's churn schedule into per-node transport windows (the
/// same expansion feeds sim::SimConfig::churn, field for field).
std::vector<transport::ChurnWindow> churn_windows(const ScenarioSpec& rs) {
  std::vector<transport::ChurnWindow> ws;
  for (std::size_t e = 0; e < rs.churn.size(); ++e) {
    for (NodeId id : churn_targets(rs, e)) {
      ws.push_back({id, static_cast<std::int64_t>(rs.churn[e].down_us),
                    static_cast<std::int64_t>(rs.churn[e].up_us)});
    }
  }
  return ws;
}

/// Materialize the spec's network adversary (nullptr = benign network, the
/// SimConfig default). Victim/minority groups are the *first* k ids —
/// disjoint from the top-id fault placements, so `adversary=` composes with
/// `crashes=` / `byzantine=` without attacking already-dead nodes.
std::shared_ptr<sim::NetworkAdversary> make_adversary(
    const AdversarySpec& a) {
  std::set<NodeId> group;
  for (std::uint64_t i = 0; i < a.k; ++i) {
    group.insert(static_cast<NodeId>(i));
  }
  switch (a.kind) {
    case AdversaryKind::kNone:
      return nullptr;
    case AdversaryKind::kRandomDelay:
      return std::make_shared<sim::RandomDelayAdversary>(
          static_cast<SimTime>(a.us));
    case AdversaryKind::kTargetedLag:
      return std::make_shared<sim::TargetedLagAdversary>(
          std::move(group), static_cast<SimTime>(a.us));
    case AdversaryKind::kPartition:
      return std::make_shared<sim::PartitionAdversary>(
          std::move(group), static_cast<SimTime>(a.us));
    case AdversaryKind::kBurst:
      return std::make_shared<sim::BurstReorderAdversary>(
          static_cast<SimTime>(a.us));
  }
  return nullptr;
}

/// Netem shim parameters for a socket substrate: the spec's adversary= form
/// plus the loss/bandwidth knobs. The shim's schedule seed is the spec seed,
/// so the same spec emulates the same network on every run.
net::netem::Config netem_from_spec(const ScenarioSpec& rs) {
  net::netem::Config c;
  c.seed = rs.seed;
  switch (rs.adversary.kind) {
    case AdversaryKind::kNone:
      break;
    case AdversaryKind::kRandomDelay:
      c.jitter_max_us = static_cast<SimTime>(rs.adversary.us);
      break;
    case AdversaryKind::kTargetedLag:
      c.lag_k = static_cast<std::size_t>(rs.adversary.k);
      c.lag_us = static_cast<SimTime>(rs.adversary.us);
      break;
    case AdversaryKind::kPartition:
      c.partition_k = static_cast<std::size_t>(rs.adversary.k);
      c.heal_us = static_cast<SimTime>(rs.adversary.us);
      break;
    case AdversaryKind::kBurst:
      c.burst_period_us = static_cast<SimTime>(rs.adversary.us);
      break;
  }
  c.loss = rs.param("loss", 0.0);
  c.loss_burst_len = rs.param("loss-burst", 1.0);
  // 1 kbit/s = 125 bytes/s = 1.25e-4 bytes/µs.
  c.rate_bytes_per_us = rs.param("rate-kbps", 0.0) * 0.000125;
  return c;
}

/// Precise substrate-support errors for the netem knobs: a key that cannot
/// take effect on the spec's substrate must fail loudly, with the fix named.
void check_netem_support(const ScenarioSpec& rs) {
  const bool sim = rs.substrate == Substrate::kSim;
  const bool udp = rs.substrate == Substrate::kUdp;
  if (!udp) {
    for (const char* key : {"loss", "loss-burst"}) {
      if (rs.params.contains(key)) {
        throw ConfigError(
            std::string("scenario: ") + key + "= needs a substrate that can " +
            (sim ? "drop messages (the simulator's asynchronous model "
                   "forbids drops)"
                 : "recover dropped frames (tcp has no frame-level "
                   "retransmission, a shim-dropped frame would be lost "
                   "forever)") +
            "; did you mean substrate=udp?");
      }
    }
    if (rs.params.contains("rto-ms")) {
      throw ConfigError(
          "scenario: rto-ms= is the udp substrate's retransmission timeout; "
          "did you mean substrate=udp?");
    }
  }
  if (sim && rs.params.contains("rate-kbps")) {
    throw ConfigError(
        "scenario: rate-kbps= shapes a real socket's send boundary (the "
        "simulator models bandwidth via its testbed cost model); did you "
        "mean substrate=udp?");
  }
  if (udp && rs.param("fifo", 0.0) != 0.0) {
    throw ConfigError(
        "scenario: fifo=1 requires per-link FIFO delivery, which the udp "
        "substrate deliberately does not provide — use substrate=sim or "
        "substrate=tcp");
  }
}

/// The option fields every socket cluster shares, from the spec.
void fill_cluster_options(const ScenarioSpec& rs,
                          transport::ClusterOptions& opts) {
  opts.n = rs.n;
  opts.auth = rs.param("auth", 1.0) != 0.0;
  opts.seed = rs.seed;
  opts.timeout_ms = static_cast<std::int64_t>(rs.param("timeout-ms", 30'000.0));
  opts.netem = netem_from_spec(rs);
  opts.churn = churn_windows(rs);
}

/// The socket-substrate run body shared by TcpRuntime and UdpRuntime.
RunReport run_cluster(const ProtocolInfo& info, const ScenarioSpec& rs,
                      transport::SocketCluster& cluster) {
  const auto crashed = crash_set(rs);
  auto faulted = crashed;
  faulted.merge(byzantine_set(rs));
  // Faults wrap the whole node: a crashed node is silent across every
  // instance, crash-after counts sends across the pipeline — the same
  // composition on every substrate.
  const auto factory = with_faults(make_node_factory(info, rs), crashed,
                                   byzantine_set(rs), rs.byzantine);

  const auto harvest = node_harvester(info, rs.instances);
  const auto start = std::chrono::steady_clock::now();
  cluster.start(factory, make_node_decoder(info, rs));

  RunReport rep;
  rep.ok = cluster.wait();
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  rep.runtime_ms = rep.ok ? static_cast<double>(wall) / 1000.0 : -0.001;
  rep.nodes.resize(rs.n);
  for (NodeId i = 0; i < rs.n; ++i) {
    const auto& m = cluster.metrics(i);
    rep.nodes[i] = {m.msgs_sent,         m.bytes_sent,
                    m.msgs_delivered,    m.malformed_dropped,
                    /*terminated_at=*/-1, m.reconnects,
                    m.catchup_frames,    m.catchup_bytes,
                    m.downtime_us / 1000, m.datagrams_sent};
    if (!faulted.contains(i)) {
      rep.honest_bytes += m.bytes_sent;
      rep.honest_msgs += m.msgs_sent;
      harvest(cluster.protocol(i), rep.outputs);
    }
  }
  // wait() reports faulted nodes as done (SilentProtocol and the Byzantine
  // wrappers all claim terminated()), so everything in unfinished() is an
  // honest straggler.
  rep.unfinished = cluster.unfinished();
  for (const auto& f : cluster.failures()) {
    rep.node_errors.push_back({f.id, f.message});
  }
  return rep;
}

}  // namespace

sim::SimConfig testbed_config(TestbedKind tb, std::size_t n,
                              std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  switch (tb) {
    case TestbedKind::kAws:
      cfg.latency = std::make_shared<sim::AwsGeoLatency>(n);
      cfg.cost = sim::CostModel::aws();
      break;
    case TestbedKind::kCps:
      cfg.latency = std::make_shared<sim::CpsLanLatency>();
      cfg.cost = sim::CostModel::cps();
      break;
    case TestbedKind::kAsync:
      cfg.latency = std::make_shared<sim::UniformLatency>(100, 20'000);
      cfg.cost = sim::CostModel::fast();
      break;
    case TestbedKind::kFast:
      cfg.cost = sim::CostModel::fast();
      break;
  }
  return cfg;
}

std::set<NodeId> top_ids(std::size_t n, std::size_t k) {
  std::set<NodeId> ids;
  for (std::size_t i = n - k; i < n; ++i) ids.insert(static_cast<NodeId>(i));
  return ids;
}

RunReport SimRuntime::run(const ScenarioSpec& spec) {
  const auto& reg = registry_ != nullptr ? *registry_ : ProtocolRegistry::global();
  const auto& info = reg.require(spec.protocol);
  const ScenarioSpec rs = resolve(spec, reg, info);
  check_netem_support(rs);

  auto cfg = testbed_config(rs.testbed, rs.n, rs.seed);
  cfg.auth_channels = rs.param("auth", 1.0) != 0.0;
  cfg.fifo_links = rs.param("fifo", 0.0) != 0.0;
  cfg.adversary = make_adversary(rs.adversary);
  for (std::size_t e = 0; e < rs.churn.size(); ++e) {
    for (NodeId id : churn_targets(rs, e)) {
      cfg.churn.push_back({id, static_cast<SimTime>(rs.churn[e].down_us),
                           static_cast<SimTime>(rs.churn[e].up_us)});
    }
  }

  const auto crashed = crash_set(rs);
  // All behaviourally-faulted placements: excluded from honest traffic,
  // outputs, and termination accounting.
  auto faulted = crashed;
  faulted.merge(byzantine_set(rs));
  const auto factory = with_faults(make_node_factory(info, rs), crashed,
                                   byzantine_set(rs), rs.byzantine);
  return run_sim(cfg, factory, faulted, node_harvester(info, rs.instances));
}

RunReport SimRuntime::run(const sim::SimConfig& cfg,
                          const net::ProtocolFactory& factory,
                          const std::set<NodeId>& byzantine) {
  return run_sim(cfg, factory, byzantine, harvest_value_output);
}

RunReport SimRuntime::run_sim(const sim::SimConfig& cfg,
                              const net::ProtocolFactory& factory,
                              const std::set<NodeId>& faulted,
                              const OutputHarvester& harvest) {
  // The factory may own shared deployment state (coins, keys); the caller
  // keeps it alive past the simulator, which is destroyed here.
  sim::Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) sim.add_node(factory(i));
  sim.set_byzantine(faulted);

  RunReport rep;
  rep.ok = sim.run();
  rep.runtime_ms =
      static_cast<double>(sim.metrics().honest_completion) / 1000.0;
  const auto traffic = sim.traffic_totals();
  rep.honest_bytes = traffic.honest_bytes;
  rep.honest_msgs = traffic.honest_msgs;
  rep.nodes.resize(cfg.n);
  for (NodeId i = 0; i < cfg.n; ++i) {
    const auto& m = sim.node_metrics(i);
    rep.nodes[i] = {m.msgs_sent, m.bytes_sent, m.msgs_delivered,
                    m.malformed_dropped, m.terminated_at};
    // The simulator's restart is a deterministic pure-delay model: frames
    // deferred past a dark window are the catch-up traffic, and each window
    // is one rejoin.
    rep.nodes[i].catchup_frames = m.deferred_frames;
    rep.nodes[i].catchup_bytes = m.deferred_bytes;
    if (!faulted.contains(i)) {
      if (m.terminated_at < 0) rep.unfinished.push_back(i);
      harvest(sim.node(i), rep.outputs);
    }
  }
  for (const auto& w : cfg.churn) {
    ++rep.nodes[w.id].reconnects;
    rep.nodes[w.id].downtime_ms +=
        static_cast<std::uint64_t>(w.up_us - w.down_us) / 1000;
  }
  return rep;
}

RunReport TcpRuntime::run(const ScenarioSpec& spec) {
  const auto& reg = registry_ != nullptr ? *registry_ : ProtocolRegistry::global();
  const auto& info = reg.require(spec.protocol);
  const ScenarioSpec rs = resolve(spec, reg, info);
  check_netem_support(rs);

  // Every adversary= form runs here via the shim's holdback (delay-only:
  // check_netem_support already rejected the loss knobs); churn windows
  // darken nodes, and the links' replay logs catch them up on rejoin.
  transport::TcpCluster::Options opts;
  fill_cluster_options(rs, opts);
  opts.nodelay = rs.param("nodelay", 1.0) != 0.0;
  transport::TcpCluster cluster(opts);
  return run_cluster(info, rs, cluster);
}

RunReport UdpRuntime::run(const ScenarioSpec& spec) {
  const auto& reg = registry_ != nullptr ? *registry_ : ProtocolRegistry::global();
  const auto& info = reg.require(spec.protocol);
  const ScenarioSpec rs = resolve(spec, reg, info);
  check_netem_support(rs);

  transport::UdpMesh::Options opts;
  fill_cluster_options(rs, opts);
  opts.rto_ms = static_cast<std::int64_t>(rs.param("rto-ms", 25.0));
  transport::UdpMesh cluster(opts);
  return run_cluster(info, rs, cluster);
}

RunReport run_scenario(const ScenarioSpec& spec) {
  switch (spec.substrate) {
    case Substrate::kTcp:
      return TcpRuntime().run(spec);
    case Substrate::kUdp:
      return UdpRuntime().run(spec);
    case Substrate::kSim:
      break;
  }
  return SimRuntime().run(spec);
}

}  // namespace delphi::scenario
