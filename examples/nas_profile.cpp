/// \file nas_profile.cpp
/// \brief Command-line profiler for the bundled NAS skeletons — the
/// workflow of the paper's Section IV: pick a benchmark, class, scale and
/// analyzer ratio; get the report and the headline numbers.
///
///   nas_profile [SP|BT|LU|CG|FT|EulerMHD] [C|D] [nprocs] [ratio]

#include <cstdio>
#include <cstring>
#include <string>

#include "core/session.hpp"
#include "nas/workloads.hpp"

int main(int argc, char** argv) {
  using namespace esp;
  nas::Benchmark bench = nas::Benchmark::SP;
  nas::ProblemClass cls = nas::ProblemClass::C;
  int target = 64;
  int ratio = 8;

  if (argc > 1) {
    const std::string b = argv[1];
    if (b == "BT") bench = nas::Benchmark::BT;
    else if (b == "CG") bench = nas::Benchmark::CG;
    else if (b == "FT") bench = nas::Benchmark::FT;
    else if (b == "LU") bench = nas::Benchmark::LU;
    else if (b == "SP") bench = nas::Benchmark::SP;
    else if (b == "EulerMHD") bench = nas::Benchmark::EulerMHD;
    else {
      std::fprintf(stderr,
                   "usage: %s [BT|CG|FT|LU|SP|EulerMHD] [C|D] [nprocs] "
                   "[ratio]\n",
                   argv[0]);
      return 2;
    }
  }
  if (argc > 2 && argv[2][0] == 'D') cls = nas::ProblemClass::D;
  if (argc > 3) target = std::atoi(argv[3]);
  if (argc > 4) ratio = std::atoi(argv[4]);

  const int nprocs = nas::nearest_valid_nprocs(bench, target);
  const std::string label = nas::workload_label(bench, cls);
  std::printf("profiling %s on %d ranks (analyzer ratio 1:%d)...\n",
              label.c_str(), nprocs, ratio);

  SessionConfig cfg;
  cfg.analyzer_ratio = ratio;
  cfg.output_dir = "nas_profile_report";

  Session session(cfg);
  const int app =
      session.add_application(label, nprocs, nas::make_workload({bench, cls, 0}));
  auto results = session.run();
  const an::AppResults* r = results->find(app);
  if (r == nullptr) return 1;

  const double wall = session.application_walltime(app);
  const auto totals = session.instrument_totals();
  std::printf("\nvirtual walltime  : %.3f s\n", wall);
  std::printf("events analysed   : %llu\n",
              static_cast<unsigned long long>(r->total_events));
  std::printf("streamed volume   : %.2f MB\n",
              static_cast<double>(totals.streamed_bytes) / 1e6);
  std::printf("Bi (event b/w)    : %.2f MB/s\n",
              static_cast<double>(totals.streamed_bytes) / wall / 1e6);
  std::printf("p2p matrix edges  : %zu\n", r->comm.size());
  std::printf("report            : nas_profile_report/report.md\n");
  return 0;
}
