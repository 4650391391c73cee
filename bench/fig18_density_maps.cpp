/// \file fig18_density_maps.cpp
/// \brief Reproduces paper Fig. 18: the density-map module's outputs.
///
/// Paper observations reproduced:
///  18a  LU.D/1024: MPI_Send hit counts correlate with neighbour count
///       (grid interior > edges > corners);
///  18b  LU.D/1024: total p2p size follows the LU decomposition pattern;
///  18c-e BT.D/8281: collective time, wait time and p2p size expose a
///       spatial imbalance (the paper reads ~491.8 ms vs ~288.5 ms wait
///       extremes and a small p2p-size spread of 660.93 vs 664.87 MB).
///
/// Artifacts land under bench_results/fig18/<app>/density_*.{csv,ppm}.

#include <algorithm>
#include <iostream>

#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace esp;

namespace {

struct Stats {
  double lo = 0, hi = 0, mean = 0;
};

Stats stats_of(const std::vector<double>& v) {
  Stats s;
  if (v.empty()) return s;
  s.lo = s.hi = v[0];
  for (double x : v) {
    s.lo = std::min(s.lo, x);
    s.hi = std::max(s.hi, x);
    s.mean += x;
  }
  s.mean /= static_cast<double>(v.size());
  return s;
}

}  // namespace

int main() {
  const auto machine = net::MachineConfig::tera100();
  const bool full = full_scale();
  const std::string outdir = benchutil::results_dir() + "/fig18";
  ensure_directory(outdir);
  std::cout << "Fig 18 — density-map module outputs (artifacts under "
            << outdir << ")\n\n";
  Table table({"app", "procs", "metric", "min", "mean", "max"});

  struct Case {
    nas::Benchmark bench;
    int procs;
  };
  const std::vector<Case> cases = {
      {nas::Benchmark::LU, full ? 1024 : 256},
      {nas::Benchmark::BT, full ? 8281 : 324},
  };

  std::vector<double> lu_sends;
  for (const auto& c : cases) {
    const int nprocs = nas::nearest_valid_nprocs(c.bench, c.procs);
    auto results = std::make_shared<an::AnalysisResults>();
    an::AnalyzerConfig acfg;
    acfg.results = results;
    acfg.output_dir = outdir;
    acfg.board.workers = 2;

    std::vector<mpi::ProgramSpec> progs;
    nas::WorkloadParams p{c.bench, nas::ProblemClass::D, 16};
    progs.push_back(
        {nas::workload_label(c.bench, nas::ProblemClass::D), nprocs,
         nas::make_workload(p)});
    progs.push_back({"analyzer", std::max(1, nprocs / 8),
                     [acfg](mpi::ProcEnv& env) { an::run_analyzer(env, acfg); }});
    mpi::RuntimeConfig rcfg;
    rcfg.machine = machine;
    mpi::Runtime rt(rcfg, std::move(progs));
    inst::attach_online_instrumentation(rt);
    rt.run();

    const an::AppResults* app = results->find(0);
    if (app == nullptr) continue;
    for (auto m : {an::DensityMetric::SendHits, an::DensityMetric::P2pBytes,
                   an::DensityMetric::WaitTime, an::DensityMetric::CollTime}) {
      const auto& v = app->density[static_cast<std::size_t>(m)];
      const Stats s = stats_of(v);
      if (s.hi == 0) continue;
      table.row(app->name, nprocs, an::density_metric_name(m), s.lo, s.mean,
                s.hi);
      if (c.bench == nas::Benchmark::LU && m == an::DensityMetric::SendHits)
        lu_sends = v;
    }
  }
  table.print(std::cout);

  // Fig 18a check: LU send counts correlate with grid neighbour count.
  if (!lu_sends.empty()) {
    const int n = static_cast<int>(lu_sends.size());
    int px = 1;
    while (px * 2 * px * 2 <= n) px *= 2;  // matches the LU factorization
    while (px * (n / px) != n) px /= 2;
    // Compare a corner rank with an interior rank.
    const double corner = lu_sends[0];
    const double interior =
        n > px + 1 ? lu_sends[static_cast<std::size_t>(px + 1)] : corner;
    std::cout << "\nFig 18a check — LU corner sends " << corner
              << " vs interior sends " << interior
              << (corner < interior ? "  (correlates with neighbour count, OK)"
                                    : "  (UNEXPECTED)")
              << std::endl;
  }
  return 0;
}
