#pragma once
/// \file analyzer.hpp
/// \brief The distributed analysis engine's program main.
///
/// Each analyzer rank (the "Analyzer" partition of Fig. 10):
///  1. maps every application partition additively (VMPI_Map),
///  2. opens a read stream over the mapping,
///  3. runs a parallel blackboard with the dispatcher / unpacker /
///     profiling KS modules registered once per application level,
///  4. loops: read block -> push event pack on the blackboard (which frees
///     the stream buffer immediately, per the paper), until every writer
///     has closed,
///  5. drains the blackboard, reduces per-application partial results to
///     a surviving analyzer rank (reduce_root() in membership.hpp; rank 0
///     when no faults or membership changes are planned), which emits
///     the chaptered report "briefly after execution ends".
///
/// Virtual-time model: the analyzer rank charges
/// `per_event_cost / workers` seconds per event read, modelling the
/// parallel blackboard's throughput; this is the consumption rate that
/// creates stream backpressure for over-producing applications.

#include <memory>
#include <string>

#include "analysis/app_results.hpp"
#include "analysis/tenant.hpp"
#include "blackboard/blackboard.hpp"
#include "simmpi/runtime.hpp"
#include "vmpi/map.hpp"
#include "vmpi/stream.hpp"

namespace esp::an {

struct AnalyzerConfig {
  bb::BlackboardConfig board{.workers = 4, .fifo_count = 16};
  /// Max stream blocks drained per blackboard submission: one batched
  /// submit_batch() per burst instead of one lock round-trip per block.
  int read_batch = 16;
  /// Analysis CPU cost per event (divided by worker count).
  double per_event_cost = 100e-9;
  /// Extended analyses (temporal maps, wait-state/late-sender detection).
  bool enable_temporal = true;
  bool enable_wait_states = true;
  double temporal_bin_seconds = 5e-3;
  /// Report directory; empty disables file output.
  std::string output_dir;
  /// Optional programmatic sink, filled by the reduce root.
  std::shared_ptr<AnalysisResults> results;
  /// Tenant fabric: when enabled, the reduce root doubles as admission
  /// root (non-blocking read loop interleaved with control-plane polling),
  /// per-tenant quotas shed flooding links, and departed tenants are torn
  /// down (blackboard KSs removed, stream slots reclaimed) without
  /// touching the survivors.
  FabricConfig fabric;
};

/// Run the analyzer on the calling rank. Use as the partition main:
///   progs.push_back({"analyzer", n, [&](ProcEnv& env) {
///     an::run_analyzer(env, cfg); }});
void run_analyzer(mpi::ProcEnv& env, const AnalyzerConfig& cfg);

}  // namespace esp::an
