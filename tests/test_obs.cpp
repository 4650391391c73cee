/// \file test_obs.cpp
/// \brief Self-observability: metrics registry, virtual-time tracer, and
/// the end-to-end session artifacts (metrics.json + trace.json).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "vmpi/stream.hpp"

namespace esp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ObsMetrics, CounterIsExactAcrossThreads) {
  auto& c = obs::counter("test.counter_exact");
  const std::uint64_t c0 = c.value();  // the registry outlives one test
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value() - c0,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, RegistryReturnsSameInstance) {
  auto& a = obs::counter("test.same_instance");
  auto& b = obs::counter("test.same_instance");
  EXPECT_EQ(&a, &b);
  const std::uint64_t b0 = b.value();
  a.add(3);
  EXPECT_EQ(b.value() - b0, 3u);
}

TEST(ObsMetrics, HistogramBucketsArePowerOfTwo) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);

  auto& h = obs::histogram("test.histo");
  const std::uint64_t n0 = h.count(), sum0 = h.sum();
  const std::uint64_t b0 = h.bucket(0), b1 = h.bucket(1), b3 = h.bucket(3);
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(5);
  EXPECT_EQ(h.count() - n0, 4u);
  EXPECT_EQ(h.sum() - sum0, 11u);
  EXPECT_EQ(h.bucket(0) - b0, 1u);
  EXPECT_EQ(h.bucket(1) - b1, 1u);
  EXPECT_EQ(h.bucket(3) - b3, 2u);  // [4, 8)
}

TEST(ObsMetrics, GaugeHoldsLastValue) {
  auto& g = obs::gauge("test.gauge");
  g.set(2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(ObsMetrics, SnapshotIsSortedByName) {
  obs::counter("test.zz_sorted").add(1);
  obs::counter("test.aa_sorted").add(1);
  const auto snap = obs::metrics_snapshot();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LE(snap[i - 1].name, snap[i].name);
}

/// Regression: stats().eagain_returns and the "stream.eagain_returns"
/// metric used to be incremented in two separate branches of Stream::read
/// and could drift (the obs mirror once double-counted). Both now move at
/// one authoritative site, so their deltas must agree exactly.
TEST(ObsMetrics, StreamEagainCounterAgreesWithStreamStats) {
  const std::uint64_t before = obs::counter("stream.eagain_returns").value();
  obs::set_enabled(true, false);
  std::atomic<std::uint64_t> stream_eagains{0};
  constexpr int kPolledTag = 7;
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({"w", 1, [&](mpi::ProcEnv& env) {
                     vmpi::Stream st(
                         {1024, 2, vmpi::BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     // Hold back until the reader has polled: the receive
                     // parks this rank, so the reader's misses are certain.
                     int token = 0;
                     env.universe.recv(&token, sizeof token, 1, kPolledTag);
                     std::vector<std::byte> block(1024);
                     st.write(block.data(), 1);
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](mpi::ProcEnv& env) {
                     vmpi::Stream st(
                         {1024, 2, vmpi::BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<std::byte> block(1024);
                     // Guarantee a handful of kEagain returns before any
                     // data exists, then drain to end-of-stream (racing a
                     // few more kEagains on the way).
                     for (int i = 0; i < 3; ++i)
                       EXPECT_EQ(st.read(block.data(), 1, vmpi::kNonblock),
                                 vmpi::kEagain);
                     int token = 1;
                     env.universe.send(&token, sizeof token, 0, kPolledTag);
                     int r;
                     do {
                       r = st.read(block.data(), 1, vmpi::kNonblock);
                     } while (r == vmpi::kEagain || r > 0);
                     EXPECT_EQ(r, 0);
                     stream_eagains.store(st.stats().eagain_returns);
                   }});
  mpi::Runtime rt(mpi::RuntimeConfig{}, std::move(progs));
  rt.run();
  obs::set_enabled(false, false);

  EXPECT_GE(stream_eagains.load(), 3u);
  EXPECT_EQ(obs::counter("stream.eagain_returns").value() - before,
            stream_eagains.load())
      << "obs mirror and stream stats must count the same returns";
}

TEST(ObsTrace, DisabledHooksAreNoOps) {
  obs::set_enabled(false, false);
  EXPECT_FALSE(obs::enabled());
  EXPECT_FALSE(obs::trace_enabled());
}

/// End-to-end: an ESP_OBS-enabled session writes a Perfetto-loadable
/// trace.json and a metrics.json next to its report. The artifact
/// directory is deliberately left behind under the test working dir so CI
/// can upload it.
TEST(ObsPipeline, SessionWritesArtifacts) {
  namespace fs = std::filesystem;
  const std::string dir = "obs_artifacts";
  fs::remove_all(dir);

  obs::set_enabled(true, true);
  {
    SessionConfig cfg;
    cfg.output_dir = dir;
    Session session(cfg);
    auto pingpong = [](mpi::ProcEnv& env) {
      std::vector<std::byte> buf(4096);
      const int peer = 1 - env.world_rank;
      for (int i = 0; i < 200; ++i) {
        if (env.world_rank == 0) {
          env.world.send(buf.data(), buf.size(), peer, 0);
          env.world.recv(buf.data(), buf.size(), peer, 0);
        } else {
          env.world.recv(buf.data(), buf.size(), peer, 0);
          env.world.send(buf.data(), buf.size(), peer, 0);
        }
      }
    };
    session.add_application("alpha", 2, pingpong);
    session.add_application("beta", 2, pingpong);
    auto results = session.run();
    ASSERT_NE(results->find(0), nullptr);
    // Per-app transport telemetry made it through the rank-0 reduction.
    EXPECT_GT(results->find(0)->telemetry.stream_blocks, 0u);
    EXPECT_GT(results->find(0)->telemetry.stream_bytes, 0u);
    EXPECT_GT(results->health.telemetry.blocks_read, 0u);
    EXPECT_GT(results->health.telemetry.jobs_executed, 0u);
  }
  obs::set_enabled(false, false);

  ASSERT_TRUE(fs::exists(dir + "/metrics.json"));
  ASSERT_TRUE(fs::exists(dir + "/trace.json"));

  const std::string metrics = slurp(dir + "/metrics.json");
  for (const char* needle :
       {"stream.blocks_written", "stream.blocks_read", "bb.batch_size", "net.transfers", "inst.packs", "an.packs_unpacked"})
    EXPECT_NE(metrics.find(needle), std::string::npos) << needle;

  const std::string trace = slurp(dir + "/trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // Every app partition appears as a named Perfetto process, and the
  // stream / blackboard / instrument span families are present.
  for (const char* needle :
       {"\"alpha\"", "\"beta\"", "\"analyzer\"", "stream.write",
        "stream.read", "inst.flush", "ks.job", "an.unpack"})
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;

  // The report folds the telemetry in.
  const std::string report = slurp(dir + "/report.md");
  EXPECT_NE(report.find("Engine telemetry"), std::string::npos);
  EXPECT_NE(report.find("Transport telemetry"), std::string::npos);
}

/// trace.json is valid Chrome trace_event JSON with per-track monotone
/// timestamps (the same property tools/check_trace.py verifies in CI).
TEST(ObsTrace, WrittenEventsAreTrackSortedAndCapped) {
  obs::set_enabled(true, true);
  for (int i = 0; i < 64; ++i)
    obs::trace_span("test", "test.span", i * 1e-6, i * 1e-6 + 5e-7);
  obs::set_enabled(false, false);

  const std::string path = "obs_trace_unit.json";
  ASSERT_TRUE(obs::write_trace_json(path));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("test.span"), std::string::npos);

  // Extract this thread's ts sequence in file order; must be monotone.
  double last = -1.0;
  std::size_t pos = 0, seen = 0;
  while ((pos = text.find("\"name\":\"test.span\"", pos)) !=
         std::string::npos) {
    const auto ts_pos = text.find("\"ts\":", pos);
    ASSERT_NE(ts_pos, std::string::npos);
    const double ts = std::stod(text.substr(ts_pos + 5));
    EXPECT_GE(ts, last);
    last = ts;
    ++seen;
    ++pos;
  }
  EXPECT_EQ(seen, 64u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace esp
