#include "net/machine.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace esp::net {

namespace {

struct NetObs {
  obs::Counter& transfers = obs::counter("net.transfers");
  obs::Counter& bytes = obs::counter("net.bytes_transferred");
  obs::Histogram& lane_wait = obs::histogram("net.lane_wait_us");
};

NetObs& nobs() {
  static NetObs o;
  return o;
}

/// Queueing delay of a pipelined transfer: completion minus wire latency
/// minus the no-contention service time, in whole microseconds.
std::uint64_t wait_us(double start, double done, double latency,
                      std::uint64_t bytes, double bandwidth) {
  const double service = static_cast<double>(bytes) / bandwidth;
  const double wait = done - latency - start - service;
  return wait > 0 ? static_cast<std::uint64_t>(wait * 1e6) : 0;
}

}  // namespace

MachineConfig MachineConfig::tera100() {
  MachineConfig c;
  c.name = "Tera 100";
  c.cores_per_node = 32;           // 4 sockets x 8 cores Nehalem EX
  c.nic_bandwidth = 1.25e9;        // effective per-node MPI stream rate
  c.nic_latency = 1.5e-6;          // IB QDR
  c.bisection_bandwidth = 150e9;   // job-visible fat-tree aggregate
  c.memory_bandwidth = 20e9;
  c.memory_latency = 0.3e-6;
  c.flops_per_core = 9.08e9;       // 2.27 GHz x 4 flops/cycle
  c.fs_total_bandwidth = 500e9;    // paper: 500 GB/s whole machine
  c.total_cores = 140000;
  return c;
}

MachineConfig MachineConfig::curie() {
  MachineConfig c = tera100();
  c.name = "Curie";
  c.cores_per_node = 16;           // 2 sockets x 8 cores Sandy Bridge
  c.flops_per_core = 21.6e9;       // 2.7 GHz x 8 flops/cycle (AVX)
  c.total_cores = 80640;
  return c;
}

Machine::Machine(MachineConfig cfg, int max_cores)
    : cfg_(cfg),
      node_count_((max_cores + cfg.cores_per_node - 1) / cfg.cores_per_node),
      bisection_(cfg.bisection_bandwidth,
                 std::max(1, static_cast<int>(cfg.bisection_bandwidth /
                                              cfg.nic_bandwidth))) {
  node_count_ = std::max(node_count_, 1);
  nodes_.reserve(static_cast<std::size_t>(node_count_));
  for (int i = 0; i < node_count_; ++i)
    nodes_.push_back(std::make_unique<Node>(cfg_));
}

double Machine::transfer(int src_core, int dst_core, std::uint64_t bytes,
                         double start) {
  const int sn = node_of(src_core);
  const int dn = node_of(dst_core);
  if (sn == dn) {
    // Intra-node: serialized on the node's memory engine.
    const double done = nodes_[static_cast<std::size_t>(sn)]->memory.acquire(
        start + cfg_.memory_latency, bytes);
    if (obs::enabled()) {
      auto& o = nobs();
      o.transfers.add(1);
      o.bytes.add(bytes);
      o.lane_wait.observe(
          wait_us(start, done, cfg_.memory_latency, bytes,
                  cfg_.memory_bandwidth));
    }
    return done;
  }
  // Inter-node pipelined model: the three resources operate concurrently;
  // completion is the slowest queue, plus wire latency.
  const double t_tx =
      nodes_[static_cast<std::size_t>(sn)]->tx.acquire(start, bytes);
  const double t_rx =
      nodes_[static_cast<std::size_t>(dn)]->rx.acquire(start, bytes);
  const double t_bis = bisection_.acquire(start, bytes);
  const double done = cfg_.nic_latency + std::max({t_tx, t_rx, t_bis});
  if (obs::enabled()) {
    auto& o = nobs();
    o.transfers.add(1);
    o.bytes.add(bytes);
    const std::uint64_t w =
        wait_us(start, done, cfg_.nic_latency, bytes, cfg_.nic_bandwidth);
    o.lane_wait.observe(w);
    // A queued lane is the interesting case: surface it on the caller's
    // track (virtual time on rank tracks).
    if (w > 0) obs::trace_span("net", "net.lane_wait", start, done, bytes,
                               "bytes");
  }
  return done;
}

double Machine::nic_send(int core, std::uint64_t bytes, double start) {
  const int n = node_of(core);
  return cfg_.nic_latency +
         nodes_[static_cast<std::size_t>(n)]->tx.acquire(start, bytes);
}

double Machine::local_copy(int core, std::uint64_t bytes, double start) {
  const int n = node_of(core);
  return nodes_[static_cast<std::size_t>(n)]->memory.acquire(start, bytes);
}

void Machine::reset() {
  for (auto& n : nodes_) {
    n->tx.reset();
    n->rx.reset();
    n->memory.reset();
  }
  bisection_.reset();
}

}  // namespace esp::net
