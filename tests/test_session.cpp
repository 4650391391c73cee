/// \file test_session.cpp
/// \brief The esp::Session façade and the report/analysis helpers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/report.hpp"
#include "core/session.hpp"

namespace esp {
namespace {

mpi::ProgramMain pingpong(int iters) {
  return [iters](mpi::ProcEnv& env) {
    std::vector<std::byte> buf(2048);
    const int peer = 1 - env.world_rank;
    for (int i = 0; i < iters; ++i) {
      if (env.world_rank == 0) {
        env.world.send(buf.data(), buf.size(), peer, 0);
        env.world.recv(buf.data(), buf.size(), peer, 0);
      } else {
        env.world.recv(buf.data(), buf.size(), peer, 0);
        env.world.send(buf.data(), buf.size(), peer, 0);
      }
    }
  };
}

TEST(Session, EndToEndSingleApp) {
  Session session;
  const int app = session.add_application("pp", 2, pingpong(20));
  auto results = session.run();
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->total_events, 80u);  // 2 ranks x 40 calls
  EXPECT_GT(session.application_walltime(app), 0.0);
  EXPECT_EQ(session.instrument_totals().events, 80u);
}

TEST(Session, MultipleApplications) {
  Session session;
  const int a = session.add_application("a", 2, pingpong(5));
  const int b = session.add_application("b", 2, pingpong(9));
  auto results = session.run();
  ASSERT_NE(results->find(a), nullptr);
  ASSERT_NE(results->find(b), nullptr);
  EXPECT_EQ(results->find(a)->total_events, 20u);
  EXPECT_EQ(results->find(b)->total_events, 36u);
}

TEST(Session, AnalyzerRatioSizesPartition) {
  SessionConfig cfg;
  cfg.analyzer_ratio = 2;
  Session session(cfg);
  session.add_application("ring", 8, [](mpi::ProcEnv& env) {
    std::vector<std::byte> buf(512);
    const int n = env.world.size();
    mpi::Request r = env.world.irecv(buf.data(), buf.size(),
                                     (env.world_rank + n - 1) % n, 0);
    env.world.send(buf.data(), buf.size(), (env.world_rank + 1) % n, 0);
    mpi::wait(r);
  });
  session.run();
  const auto* an_part = session.runtime().partition_by_name("analyzer");
  ASSERT_NE(an_part, nullptr);
  EXPECT_EQ(an_part->size, 4);
}

TEST(Session, UsageErrors) {
  Session session;
  EXPECT_THROW(session.run(), std::logic_error);  // no applications
  Session s2;
  EXPECT_THROW(s2.add_application("analyzer", 2, pingpong(1)),
               std::invalid_argument);
  Session s3;
  s3.add_application("pp", 2, pingpong(1));
  s3.run();
  EXPECT_THROW(s3.run(), std::logic_error);
  EXPECT_THROW(s3.add_application("x", 1, pingpong(1)), std::logic_error);
}

TEST(ReportHelpers, DensityGridIsNearSquare) {
  std::vector<double> v(10, 1.0);
  const Matrix g = an::density_grid(v);
  EXPECT_EQ(g.cols(), 4u);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_DOUBLE_EQ(g.sum(), 10.0);
  const Matrix empty = an::density_grid({});
  EXPECT_EQ(empty.rows(), 1u);
}

TEST(ReportHelpers, DenseCommMatrix) {
  an::AppResults app;
  app.size = 3;
  app.comm[an::AppResults::comm_key(0, 2)] = {4, 100, 0.5};
  app.comm[an::AppResults::comm_key(2, 1)] = {1, 7, 0.1};
  const Matrix bytes = an::dense_comm_matrix(app, an::CommWeight::Bytes);
  EXPECT_DOUBLE_EQ(bytes.at(0, 2), 100.0);
  EXPECT_DOUBLE_EQ(bytes.at(2, 1), 7.0);
  EXPECT_DOUBLE_EQ(bytes.sum(), 107.0);
  const Matrix hits = an::dense_comm_matrix(app, an::CommWeight::Hits);
  EXPECT_DOUBLE_EQ(hits.at(0, 2), 4.0);
  const Matrix time = an::dense_comm_matrix(app, an::CommWeight::Time);
  EXPECT_DOUBLE_EQ(time.at(2, 1), 0.1);
}

TEST(Session, ReportOnDisk) {
  const std::string dir = "session_report_test";
  std::filesystem::remove_all(dir);
  SessionConfig cfg;
  cfg.output_dir = dir;
  Session session(cfg);
  session.add_application("pp", 2, pingpong(4));
  session.run();
  EXPECT_TRUE(std::filesystem::exists(dir + "/report.md"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/pp/comm_bytes.csv"));
  std::filesystem::remove_all(dir);
}

/// Runs a fixed-seed ping-pong Session into `dir` and returns report.md.
std::string seeded_report(const std::string& dir) {
  std::filesystem::remove_all(dir);
  SessionConfig cfg;
  cfg.output_dir = dir;
  cfg.instrument.block_size = 4096;
  cfg.runtime.seed = 7;
  Session session(cfg);
  session.add_application("pp", 2, pingpong(40));
  session.run();
  std::ifstream in(dir + "/report.md", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::filesystem::remove_all(dir);
  return text.str();
}

/// Variable names that once overrode SessionConfig fields at run().
constexpr const char* kOptionLookalikes[][2] = {{"ESP_DEGRADE", "1"},
                                                {"ESP_DEGRADE_FORCE", "1"},
                                                {"ESP_TENANT", "1"},
                                                {"ESP_HB", "0"}};

/// Configuration lives in code: the process environment must not change
/// what a seeded run reports.
TEST(Session, ReportIgnoresProcessEnvironment) {
  const std::string clean = seeded_report("session_env_clean");
  ASSERT_FALSE(clean.empty());

  struct UnsetOnExit {
    ~UnsetOnExit() {
      for (const auto& v : kOptionLookalikes) unsetenv(v[0]);
    }
  } unset_on_exit;
  for (const auto& v : kOptionLookalikes) setenv(v[0], v[1], 1);
  const std::string dirty = seeded_report("session_env_dirty");

  EXPECT_EQ(clean, dirty);
}

}  // namespace
}  // namespace esp
