/// \file test_workloads.cpp
/// \brief NAS skeleton invariants: every workload runs to completion on
/// valid process counts, produces the expected topology through the full
/// pipeline, its class scaling ordering holds (C is more
/// communication-intensive per second than D), and its work traffic is
/// size-only: charged as before, with no payload bytes moved.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/analyzer.hpp"
#include "instrument/online_instrument.hpp"
#include "nas/workloads.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

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

/// Parameterized test suffix, e.g. "BT9".
constexpr auto case_name = [](const auto& info) {
  return std::string(benchmark_name(info.param.bench)) +
         std::to_string(info.param.nprocs);
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
    case_name);

/// What one skeleton run shows simmpi, the tool chain and the payload
/// counters.
struct SkeletonTraffic {
  std::uint64_t calls = 0;       ///< RankContext::calls_made over all ranks.
  std::uint64_t tool_bytes = 0;  ///< Sum of every CallInfo::bytes seen.
  /// Point-to-point messages inside the allreduces: 2 (p - 1) per
  /// instance (reduce tree, then broadcast tree). The skeletons call no
  /// other collective that carries values.
  std::uint64_t reduce_msgs = 0;
  std::uint64_t bytes_copied = 0;  ///< simmpi.payload_bytes_copied delta.
};

SkeletonTraffic run_skeleton(Benchmark b, int nprocs, int iters) {
  struct Tally : mpi::Tool {
    std::atomic<std::uint64_t> calls{0}, bytes{0}, allreduce_calls{0};
    void on_call(mpi::RankContext&, const mpi::CallInfo& ci) override {
      bytes.fetch_add(ci.bytes);
      if (ci.kind == mpi::CallKind::Allreduce) allreduce_calls.fetch_add(1);
    }
    void on_finalize(mpi::RankContext& rc) override {
      calls.fetch_add(rc.calls_made);
    }
  };
  auto& copied = obs::counter("simmpi.payload_bytes_copied");
  const std::uint64_t c0 = copied.value();
  std::vector<ProgramSpec> progs;
  progs.push_back({benchmark_name(b), nprocs,
                   make_workload({b, ProblemClass::C, iters})});
  auto tally = std::make_shared<Tally>();
  obs::set_enabled(true, false);
  {
    Runtime rt(RuntimeConfig{}, std::move(progs));
    rt.tools().attach(tally);
    rt.run();
  }
  obs::set_enabled(false, false);
  SkeletonTraffic t;
  t.calls = tally->calls.load();
  t.tool_bytes = tally->bytes.load();
  t.reduce_msgs = tally->allreduce_calls.load() / static_cast<unsigned>(nprocs) *
                  2 * static_cast<unsigned>(nprocs - 1);
  t.bytes_copied = copied.value() - c0;
  return t;
}

struct SkeletonCase {
  Benchmark bench;
  int nprocs;
  /// simmpi calls and tool-observed bytes of the same run, measured when
  /// the skeletons still posted real payload buffers.
  std::uint64_t buffered_calls;
  std::uint64_t buffered_tool_bytes;
};

class SkeletonTrafficP : public ::testing::TestWithParam<SkeletonCase> {};

TEST_P(SkeletonTrafficP, WorkTrafficIsSizeOnly) {
  const SkeletonCase c = GetParam();
  // 8 iterations: every skeleton reaches at least one allreduce.
  const SkeletonTraffic t = run_skeleton(c.bench, c.nprocs, 8);
  ASSERT_GT(t.reduce_msgs, 0u);
  // Only the 8-byte reductions move host bytes.
  EXPECT_LE(t.bytes_copied, 16 * t.reduce_msgs);
  // The simulated work is what the buffered skeleton did.
  EXPECT_EQ(t.calls, c.buffered_calls);
  EXPECT_EQ(t.tool_bytes, c.buffered_tool_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Skeletons, SkeletonTrafficP,
    ::testing::Values(SkeletonCase{Benchmark::BT, 9, 680, 806215752},
                      SkeletonCase{Benchmark::SP, 16, 2236, 1073295488},
                      SkeletonCase{Benchmark::LU, 8, 3612, 134369344},
                      SkeletonCase{Benchmark::CG, 8, 696, 129607040},
                      SkeletonCase{Benchmark::FT, 8, 1016, 17179869312},
                      SkeletonCase{Benchmark::EulerMHD, 9, 904, 113246784}),
    case_name);

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
