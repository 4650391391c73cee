/// \file test_workloads.cpp
/// \brief NAS skeleton invariants: every workload runs to completion on
/// valid process counts, produces the expected topology through the full
/// pipeline, and its class scaling ordering holds (C is more
/// communication-intensive per second than D).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/analyzer.hpp"
#include "instrument/online_instrument.hpp"
#include "nas/workloads.hpp"

namespace esp::nas {
namespace {

using an::AnalysisResults;
using an::AppResults;
using mpi::ProgramSpec;
using mpi::Runtime;
using mpi::RuntimeConfig;

std::shared_ptr<AnalysisResults> profile_workload(WorkloadParams p, int nprocs,
                                                  int n_analyzer) {
  auto results = std::make_shared<AnalysisResults>();
  an::AnalyzerConfig acfg;
  acfg.results = results;
  acfg.board.workers = 2;
  std::vector<ProgramSpec> progs;
  progs.push_back({workload_label(p.bench, p.cls), nprocs, make_workload(p)});
  progs.push_back({"analyzer", n_analyzer, [acfg](mpi::ProcEnv& env) {
                     an::run_analyzer(env, acfg);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  inst::InstrumentConfig icfg;
  icfg.block_size = 64 * 1024;
  inst::attach_online_instrumentation(rt, icfg);
  rt.run();
  return results;
}

TEST(Workloads, ValidProcessCounts) {
  EXPECT_EQ(nearest_valid_nprocs(Benchmark::BT, 1000), 961);  // 31^2
  EXPECT_EQ(nearest_valid_nprocs(Benchmark::SP, 16), 16);
  EXPECT_EQ(nearest_valid_nprocs(Benchmark::CG, 100), 64);
  EXPECT_EQ(nearest_valid_nprocs(Benchmark::FT, 17), 16);
  EXPECT_EQ(nearest_valid_nprocs(Benchmark::LU, 31), 16);
  EXPECT_EQ(nearest_valid_nprocs(Benchmark::EulerMHD, 50), 49);
}

struct BenchCase {
  Benchmark bench;
  int nprocs;
};

class WorkloadP : public ::testing::TestWithParam<BenchCase> {};

TEST_P(WorkloadP, RunsAndProducesEvents) {
  const auto [bench, nprocs] = GetParam();
  WorkloadParams p{bench, ProblemClass::C, 3};
  auto results = profile_workload(p, nprocs, 2);
  AppResults* app = results->find(0);
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->size, nprocs);
  EXPECT_GT(app->total_events, 0u);
  if (bench != Benchmark::FT) {  // FT's alltoall is a collective, no p2p
    EXPECT_FALSE(app->comm.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, WorkloadP,
    ::testing::Values(BenchCase{Benchmark::BT, 9}, BenchCase{Benchmark::SP, 16},
                      BenchCase{Benchmark::LU, 8}, BenchCase{Benchmark::CG, 8},
                      BenchCase{Benchmark::FT, 8},
                      BenchCase{Benchmark::EulerMHD, 9}),
    [](const auto& info) {
      return std::string(benchmark_name(info.param.bench)) +
             std::to_string(info.param.nprocs);
    });

TEST(Workloads, LuTopologyIsNonPeriodicGrid) {
  WorkloadParams p{Benchmark::LU, ProblemClass::C, 2};
  auto results = profile_workload(p, 16, 2);  // 4x4 grid
  AppResults* app = results->find(0);
  ASSERT_NE(app, nullptr);
  // Every edge must connect 2D-grid neighbours (no wraparound).
  const int px = 4;
  std::set<std::pair<int, int>> edges;
  for (const auto& [key, cell] : app->comm) {
    (void)cell;
    const int s = AppResults::comm_src(key), d = AppResults::comm_dst(key);
    const int sr = s / px, sc = s % px, dr = d / px, dc = d % px;
    EXPECT_EQ(std::abs(sr - dr) + std::abs(sc - dc), 1)
        << "non-neighbour edge " << s << "->" << d;
    edges.insert({s, d});
  }
  // Interior ranks have 4 neighbours; corners 2: count directed edges of a
  // 4x4 non-periodic grid = 2*(2*px*(px-1)) = 48.
  EXPECT_EQ(edges.size(), 48u);
  // Corner sends fewer messages than interior (Fig. 18a correlation).
  const auto& sends =
      app->density[static_cast<std::size_t>(an::DensityMetric::SendHits)];
  ASSERT_EQ(sends.size(), 16u);
  EXPECT_LT(sends[0], sends[5]);  // corner (0,0) < interior (1,1)
}

TEST(Workloads, EulerMhdTopologyIsTorus) {
  WorkloadParams p{Benchmark::EulerMHD, ProblemClass::C, 2};
  auto results = profile_workload(p, 16, 2);  // 4x4 torus
  AppResults* app = results->find(0);
  ASSERT_NE(app, nullptr);
  // Periodic: every rank has exactly 4 outgoing edges.
  std::map<int, int> out_degree;
  for (const auto& [key, cell] : app->comm) {
    (void)cell;
    out_degree[AppResults::comm_src(key)]++;
  }
  ASSERT_EQ(out_degree.size(), 16u);
  for (const auto& [r, deg] : out_degree) EXPECT_EQ(deg, 4) << "rank " << r;
  // POSIX checkpoints are absent with only 2 iterations (period is 10).
  const auto& posix =
      app->density[static_cast<std::size_t>(an::DensityMetric::PosixBytes)];
  double total = 0;
  for (double v : posix) total += v;
  EXPECT_DOUBLE_EQ(total, 0.0);
}

TEST(Workloads, EulerMhdCheckpointsAreRecorded) {
  WorkloadParams p{Benchmark::EulerMHD, ProblemClass::C, 10};
  auto results = profile_workload(p, 4, 1);
  AppResults* app = results->find(0);
  ASSERT_NE(app, nullptr);
  const auto& posix =
      app->density[static_cast<std::size_t>(an::DensityMetric::PosixBytes)];
  for (double v : posix) EXPECT_GT(v, 0.0);
}

TEST(Workloads, CgTransposePartnerIsInvolution) {
  // 8 ranks: nprows=2, npcols=4 — the rectangular case.
  WorkloadParams p{Benchmark::CG, ProblemClass::C, 2};
  auto results = profile_workload(p, 8, 1);
  AppResults* app = results->find(0);
  ASSERT_NE(app, nullptr);
  // Communication must be symmetric: src->dst implies dst->src.
  for (const auto& [key, cell] : app->comm) {
    (void)cell;
    const int s = AppResults::comm_src(key), d = AppResults::comm_dst(key);
    EXPECT_TRUE(app->comm.count(AppResults::comm_key(d, s)))
        << s << "->" << d << " has no reverse edge";
  }
}

TEST(Workloads, ClassCIsMoreCallIntensiveThanClassD) {
  // Bi ordering (paper §IV-C): with the same rank count and iterations,
  // class C must produce more instrumentation bandwidth (events per
  // virtual second) than class D.
  auto run = [&](ProblemClass cls) {
    WorkloadParams p{Benchmark::SP, cls, 4};
    std::vector<ProgramSpec> progs;
    progs.push_back({"sp", 16, make_workload(p)});
    Runtime rt(RuntimeConfig{}, std::move(progs));
    struct Count : mpi::Tool {
      std::atomic<std::uint64_t> calls{0};
      void on_call(mpi::RankContext&, const mpi::CallInfo&) override {
        calls.fetch_add(1);
      }
    };
    auto c = std::make_shared<Count>();
    rt.tools().attach(c);
    rt.run();
    return static_cast<double>(c->calls.load()) / rt.partition_walltime(0);
  };
  const double bi_c = run(ProblemClass::C);
  const double bi_d = run(ProblemClass::D);
  EXPECT_GT(bi_c, bi_d * 2.0) << "class C must be far more call-intensive";
}

}  // namespace
}  // namespace esp::nas
