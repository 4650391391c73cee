#pragma once
/// \file bench_util.hpp
/// \brief Shared harness helpers for the figure-reproduction benches.
///
/// Every figure binary prints the paper-style rows to stdout and mirrors
/// them as CSV under bench_results/. Default configurations are scaled to
/// finish quickly on a small host; set ESP_FULL_SCALE=1 for paper-scale
/// runs.

#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "baseline/baseline_tools.hpp"
#include "common/env.hpp"
#include "common/io_writers.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "instrument/online_instrument.hpp"
#include "nas/workloads.hpp"

namespace esp::benchutil {

inline std::string results_dir() {
  const std::string dir = env_str("ESP_BENCH_DIR", "bench_results");
  ensure_directory(dir);
  return dir;
}

struct WorkloadRun {
  double app_walltime = 0;          ///< Virtual seconds, instrumented span.
  std::uint64_t events = 0;         ///< Events recorded (0 for reference).
  std::uint64_t streamed_bytes = 0; ///< Online coupling volume.
  std::uint64_t trace_bytes = 0;    ///< Baseline trace volume.
};

/// Run one workload at `nprocs` under a tool configuration.
/// `analyzer_ratio` = instrumented processes per analysis core (paper
/// writer/reader ratio); only used for OnlineCoupling.
inline WorkloadRun run_workload(nas::WorkloadParams params, int nprocs,
                                baseline::ToolKind tool, int analyzer_ratio,
                                const net::MachineConfig& machine,
                                int iterations) {
  params.iterations = iterations;
  WorkloadRun out;
  mpi::RuntimeConfig rcfg;
  rcfg.machine = machine;

  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({nas::workload_label(params.bench, params.cls), nprocs,
                   nas::make_workload(params)});

  std::shared_ptr<inst::OnlineInstrument> online;
  std::shared_ptr<baseline::BaselineTool> base;
  if (tool == baseline::ToolKind::OnlineCoupling) {
    const int n_an = std::max(1, nprocs / std::max(1, analyzer_ratio));
    an::AnalyzerConfig acfg;
    // One blackboard slot per analyzer rank: in the machine model one
    // analysis core backs one analyzer process. Slots are shares of the
    // process's one helper pool, not threads.
    acfg.board.workers = 1;
    acfg.board.fifo_count = 4;
    progs.push_back({"analyzer", n_an, [acfg](mpi::ProcEnv& env) {
                       an::run_analyzer(env, acfg);
                     }});
  }
  mpi::Runtime rt(rcfg, std::move(progs));
  if (tool == baseline::ToolKind::OnlineCoupling) {
    online = inst::attach_online_instrumentation(rt);
  } else {
    base = baseline::attach_baseline(rt, tool);
  }
  rt.run();
  out.app_walltime = rt.partition_walltime(0);
  if (online) {
    out.events = online->totals().events;
    out.streamed_bytes = online->totals().streamed_bytes;
  }
  if (base) {
    out.events = base->totals().events;
    out.trace_bytes = base->totals().trace_bytes;
  }
  return out;
}

inline double overhead_percent(double instrumented, double reference) {
  return reference > 0 ? (instrumented - reference) / reference * 100.0 : 0.0;
}

}  // namespace esp::benchutil
