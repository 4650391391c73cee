#pragma once
/// \file machine.hpp
/// \brief Calibrated machine model: fat-tree interconnect + node compute.
///
/// Substitutes for the Tera 100 / Curie clusters of the paper. Cores are
/// numbered globally and packed onto nodes block-wise. A point-to-point
/// transfer between cores charges, in virtual time:
///   - same node:      memory latency + bytes / memory bandwidth, on the
///                     node's serialized memory engine;
///   - different node: NIC latency + the bottleneck of (src TX NIC,
///                     dst RX NIC, global bisection), each a serialized
///                     resource operating concurrently (pipelined model:
///                     completion = latency + max of per-resource queues).
///
/// Calibration targets (paper, Section IV): a 2560-writer/2560-reader
/// stream coupling sustains ~98.5 GB/s aggregate; QDR InfiniBand latency
/// order 1.5 us; fat-tree with full-ish bisection.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/resource.hpp"

namespace esp::net {

/// Static description of the simulated machine.
struct MachineConfig {
  std::string name = "generic";
  int cores_per_node = 32;
  /// Effective per-node NIC bandwidth per direction. Calibrated to the
  /// *application-visible* MPI stream rate (not link signalling rate).
  double nic_bandwidth = 1.25e9;
  double nic_latency = 1.5e-6;
  /// Aggregate inter-node capacity of the fat tree.
  double bisection_bandwidth = 150e9;
  /// Intra-node (shared-memory) transport.
  double memory_bandwidth = 20e9;
  double memory_latency = 0.3e-6;
  /// Per-core sustained compute rate, used by workload skeletons to turn
  /// flop counts into virtual seconds.
  double flops_per_core = 9.08e9;
  /// Whole-machine parallel-filesystem aggregate write bandwidth and the
  /// total core count it is shared across (paper: 500 GB/s / 140k cores).
  double fs_total_bandwidth = 500e9;
  int total_cores = 140000;
  /// Metadata-server base cost per create/open, serialized machine-wide.
  double fs_metadata_op_cost = 150e-6;

  /// Tera 100: 4370 nodes, 4x8 Nehalem EX @2.27 GHz, IB QDR fat tree.
  static MachineConfig tera100();
  /// Curie thin nodes: 5040 nodes, 2x8 Sandy Bridge @2.7 GHz.
  static MachineConfig curie();
};

/// The runtime-facing machine: owns per-node resources and answers
/// "when does this transfer finish?" queries in virtual time.
class Machine {
 public:
  explicit Machine(MachineConfig cfg, int max_cores);

  const MachineConfig& config() const noexcept { return cfg_; }
  int node_of(int core) const noexcept { return core / cfg_.cores_per_node; }
  int node_count() const noexcept { return node_count_; }

  /// Virtual-time completion of a `bytes` transfer from core `src` to core
  /// `dst` that becomes ready at `start`.
  double transfer(int src_core, int dst_core, std::uint64_t bytes, double start);

  /// A purely local buffer copy on `core`'s node (eager-send staging).
  double local_copy(int core, std::uint64_t bytes, double start);

  /// Charge only the sending node's TX NIC (used by SimFs, whose IO nodes
  /// are outside the compute partition).
  double nic_send(int core, std::uint64_t bytes, double start);

  /// Virtual seconds for `flops` floating-point operations on one core.
  double compute_seconds(double flops) const noexcept {
    return flops / cfg_.flops_per_core;
  }

  /// Diagnostics.
  std::uint64_t total_transfers() const { return bisection_.requests(); }
  double bisection_busy() const { return bisection_.busy_time(); }
  void reset();

 private:
  struct Node {
    BandwidthResource tx;
    BandwidthResource rx;
    BandwidthResource memory;
    explicit Node(const MachineConfig& c)
        : tx(c.nic_bandwidth), rx(c.nic_bandwidth), memory(c.memory_bandwidth, 4) {}
  };

  MachineConfig cfg_;
  int node_count_;
  std::vector<std::unique_ptr<Node>> nodes_;
  BandwidthResource bisection_;
};

}  // namespace esp::net
