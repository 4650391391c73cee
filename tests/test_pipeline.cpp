/// \file test_pipeline.cpp
/// \brief End-to-end online-coupling pipeline: instrumented applications
/// stream event packs to the analyzer partition; the blackboard modules
/// must reconstruct the exact communication structure.

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "analysis/analyzer.hpp"
#include "instrument/online_instrument.hpp"

namespace esp {
namespace {

using an::AnalysisResults;
using an::AnalyzerConfig;
using an::AppResults;
using an::DensityMetric;
using mpi::ProcEnv;
using mpi::ProgramSpec;
using mpi::Runtime;
using mpi::RuntimeConfig;

/// Ring application: every rank sends `bytes` to (r+1)%n, `iters` times,
/// with one barrier per iteration.
mpi::ProgramMain ring_app(int iters, std::uint64_t bytes) {
  return [iters, bytes](ProcEnv& env) {
    const int n = env.world.size();
    const int r = env.world_rank;
    std::vector<std::byte> out(bytes), in(bytes);
    for (int it = 0; it < iters; ++it) {
      mpi::Request rr = env.world.irecv(in.data(), bytes, (r + n - 1) % n, 7);
      env.world.send(out.data(), bytes, (r + 1) % n, 7);
      mpi::wait(rr);
      env.world.barrier();
    }
  };
}

struct PipelineRun {
  std::shared_ptr<AnalysisResults> results = std::make_shared<AnalysisResults>();
  std::shared_ptr<inst::OnlineInstrument> tool;
  double app_walltime = 0;
};

PipelineRun run_ring_pipeline(int n_app, int n_an, int iters,
                              std::uint64_t bytes,
                              const std::string& output_dir = "") {
  PipelineRun out;
  AnalyzerConfig acfg;
  acfg.results = out.results;
  acfg.output_dir = output_dir;
  acfg.board.workers = 2;

  std::vector<ProgramSpec> progs;
  progs.push_back({"ring", n_app, ring_app(iters, bytes)});
  progs.push_back({"analyzer", n_an, [acfg](ProcEnv& env) {
                     an::run_analyzer(env, acfg);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  inst::InstrumentConfig icfg;
  icfg.block_size = 64 * 1024;  // small packs -> several flushes
  out.tool = inst::attach_online_instrumentation(rt, icfg);
  rt.run();
  out.app_walltime = rt.partition_walltime(0);
  return out;
}

TEST(Pipeline, EventCountsAreExact) {
  const int n = 6, iters = 10;
  auto run = run_ring_pipeline(n, 2, iters, 2048);
  AppResults* app = run.results->find(0);
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->name, "ring");
  EXPECT_EQ(app->size, n);
  // Per rank per iter: 1 Irecv + 1 Send + 1 Wait + 1 Barrier = 4 events.
  EXPECT_EQ(app->total_events, static_cast<std::uint64_t>(n) * iters * 4);
  // Nothing lost between instrumentation and analysis.
  EXPECT_EQ(app->total_events, run.tool->totals().events);

  const auto slot = [&](mpi::CallKind k) {
    return app->per_kind[an::kind_slot(inst::event_kind(k))];
  };
  EXPECT_EQ(slot(mpi::CallKind::Send).hits,
            static_cast<std::uint64_t>(n) * iters);
  EXPECT_EQ(slot(mpi::CallKind::Irecv).hits,
            static_cast<std::uint64_t>(n) * iters);
  EXPECT_EQ(slot(mpi::CallKind::Wait).hits,
            static_cast<std::uint64_t>(n) * iters);
  EXPECT_EQ(slot(mpi::CallKind::Barrier).hits,
            static_cast<std::uint64_t>(n) * iters);
}

TEST(Pipeline, TopologyMatrixMatchesRing) {
  const int n = 8, iters = 5;
  const std::uint64_t bytes = 4096;
  auto run = run_ring_pipeline(n, 2, iters, bytes);
  AppResults* app = run.results->find(0);
  ASSERT_NE(app, nullptr);
  // Exactly n non-zero cells: (r -> r+1 mod n).
  EXPECT_EQ(app->comm.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto it = app->comm.find(AppResults::comm_key(r, (r + 1) % n));
    ASSERT_NE(it, app->comm.end()) << "missing ring edge from " << r;
    EXPECT_EQ(it->second.hits, static_cast<std::uint64_t>(iters));
    EXPECT_EQ(it->second.bytes, static_cast<std::uint64_t>(iters) * bytes);
  }
  // Bytes conservation: matrix total == sends total.
  std::uint64_t matrix_bytes = 0;
  for (const auto& [k, c] : app->comm) {
    (void)k;
    matrix_bytes += c.bytes;
  }
  EXPECT_EQ(matrix_bytes, static_cast<std::uint64_t>(n) * iters * bytes);
}

TEST(Pipeline, DensityMapsPerRank) {
  const int n = 5, iters = 4;
  auto run = run_ring_pipeline(n, 1, iters, 1024);
  AppResults* app = run.results->find(0);
  ASSERT_NE(app, nullptr);
  const auto& sends =
      app->density[static_cast<std::size_t>(DensityMetric::SendHits)];
  const auto& p2p =
      app->density[static_cast<std::size_t>(DensityMetric::P2pBytes)];
  const auto& wait =
      app->density[static_cast<std::size_t>(DensityMetric::WaitTime)];
  ASSERT_EQ(sends.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    EXPECT_DOUBLE_EQ(sends[static_cast<std::size_t>(r)], iters);
    EXPECT_DOUBLE_EQ(p2p[static_cast<std::size_t>(r)], iters * 1024.0);
    EXPECT_GE(wait[static_cast<std::size_t>(r)], 0.0);
  }
}

TEST(Pipeline, MultiApplicationConcurrentProfiling) {
  // Two different applications profiled concurrently into one analyzer —
  // the multi-level blackboard must keep them fully separate (Fig. 5).
  auto results = std::make_shared<AnalysisResults>();
  AnalyzerConfig acfg;
  acfg.results = results;
  acfg.board.workers = 2;

  std::vector<ProgramSpec> progs;
  progs.push_back({"ring_small", 4, ring_app(6, 512)});
  progs.push_back({"ring_big", 6, ring_app(3, 8192)});
  progs.push_back({"analyzer", 2, [acfg](ProcEnv& env) {
                     an::run_analyzer(env, acfg);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  inst::InstrumentConfig icfg;
  icfg.block_size = 32 * 1024;
  auto tool = inst::attach_online_instrumentation(rt, icfg);
  rt.run();

  AppResults* a = results->find(0);
  AppResults* b = results->find(1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->name, "ring_small");
  EXPECT_EQ(b->name, "ring_big");
  EXPECT_EQ(a->total_events, 4u * 6 * 4);
  EXPECT_EQ(b->total_events, 6u * 3 * 4);
  EXPECT_EQ(a->comm.size(), 4u);
  EXPECT_EQ(b->comm.size(), 6u);
  auto edge = b->comm.find(AppResults::comm_key(0, 1));
  ASSERT_NE(edge, b->comm.end());
  EXPECT_EQ(edge->second.bytes, 3u * 8192);
}

TEST(Pipeline, ReportFilesAreWritten) {
  const std::string dir = "pipeline_report_test";
  std::filesystem::remove_all(dir);
  auto run = run_ring_pipeline(4, 1, 3, 1024, dir);
  ASSERT_NE(run.results->find(0), nullptr);
  namespace fs = std::filesystem;
  EXPECT_TRUE(fs::exists(dir + "/report.md"));
  EXPECT_TRUE(fs::exists(dir + "/ring/profile.csv"));
  EXPECT_TRUE(fs::exists(dir + "/ring/comm_bytes.csv"));
  EXPECT_TRUE(fs::exists(dir + "/ring/comm_bytes.ppm"));
  EXPECT_TRUE(fs::exists(dir + "/ring/topology.dot"));
  EXPECT_TRUE(fs::exists(dir + "/ring/density_send_hits.ppm"));
  std::filesystem::remove_all(dir);
}

TEST(Pipeline, InstrumentationOverheadIsBounded) {
  // The same app, with and without instrumentation: the virtual-walltime
  // overhead at a generous analyzer ratio must stay modest (paper: <25%).
  const int n = 8, iters = 20;
  double t_ref = 0, t_inst = 0;
  {
    std::vector<ProgramSpec> progs;
    progs.push_back({"ring", n, ring_app(iters, 16 * 1024)});
    Runtime rt(RuntimeConfig{}, std::move(progs));
    rt.run();
    t_ref = rt.partition_walltime(0);
  }
  {
    auto run = run_ring_pipeline(n, n, iters, 16 * 1024);
    t_inst = run.app_walltime;
  }
  ASSERT_GT(t_ref, 0.0);
  EXPECT_GE(t_inst, t_ref * 0.999);
  EXPECT_LT((t_inst - t_ref) / t_ref, 0.5)
      << "ref=" << t_ref << " inst=" << t_inst;
}

}  // namespace
}  // namespace esp
