/// \file test_failover.cpp
/// \brief Analyzer failover end to end: the death of an analysis-engine
/// rank mid-run must not cost the session its report. Writers detect the
/// dead reader within the virtual lease, re-route their open streams to a
/// surviving analyzer rank (replaying the resend window), the reduction
/// re-roots onto a survivor, and every unreplayable block lands in the
/// data-loss ledger — never analysed twice. The overload-degradation
/// ladder is exercised both pinned (deterministic weighting bounds) and
/// adaptive (steps down under backpressure).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "net/fault.hpp"
#include "vmpi/stream.hpp"

namespace esp {
namespace {

/// Ring exchange resilient to dead neighbours (completions carry errors
/// instead of blocking forever) — the same workload test_faults.cpp uses.
mpi::ProgramMain ring(int iters) {
  return [iters](mpi::ProcEnv& env) {
    std::vector<std::byte> rbuf(1024), sbuf(1024);
    const int n = env.world.size();
    for (int i = 0; i < iters; ++i) {
      mpi::compute(5e-5);
      mpi::Request r = env.world.irecv(rbuf.data(), rbuf.size(),
                                       (env.world_rank + n - 1) % n, 0);
      env.world.send(sbuf.data(), sbuf.size(), (env.world_rank + 1) % n, 0);
      mpi::wait(r);
    }
  };
}

/// Small stream blocks (several per rank) and a tight lease so reader
/// death is detected well inside the run.
SessionConfig failover_config() {
  SessionConfig cfg;
  cfg.instrument.block_size = 4096;
  cfg.instrument.hb_lease = 5e-4;
  cfg.instrument.hb_interval = 1e-4;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Fingerprint of one analyzer-crash run: the loss ledger, the failover
/// telemetry, and the literal report bytes.
struct RunSnapshot {
  std::vector<int> dead_world;
  std::vector<int> dead_analyzer;
  std::uint64_t lost = 0, corrupted = 0, dropped_estimate = 0;
  std::uint64_t analysed_events = 0;
  std::uint64_t failover_joins = 0, blocks_replayed = 0;
  std::string report;
};

RunSnapshot run_analyzer_crash_session(std::uint64_t seed,
                                       const std::string& out_dir) {
  SessionConfig cfg = failover_config();
  cfg.runtime.seed = seed;
  cfg.analyzer_ratio = 4;  // 8 app procs -> 2 analyzer ranks
  cfg.output_dir = out_dir;
  // Kill analyzer rank 0 (named partition-relative: the session resolves
  // it to a world rank) early enough that streams are still open.
  cfg.faults.crashes.push_back({.at_time = 1e-3, .analyzer_rank = true});
  cfg.faults.crashes.back().world_rank = 0;
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(600));
  auto results = session.run();  // must complete; ctest timeout guards hangs

  RunSnapshot s;
  s.dead_world = results->health.dead_world_ranks;
  s.dead_analyzer = results->health.dead_analyzer_ranks;
  std::sort(s.dead_analyzer.begin(), s.dead_analyzer.end());
  if (const an::AppResults* r = results->find(app)) {
    s.lost = r->loss.blocks_lost;
    s.corrupted = r->loss.blocks_corrupted;
    s.dropped_estimate = r->loss.events_dropped_estimate;
    s.analysed_events = r->total_events;
    s.failover_joins = r->telemetry.failover_joins;
    s.blocks_replayed = r->telemetry.blocks_replayed;
  }
  s.report = slurp(out_dir + "/report.md");
  return s;
}

TEST(Failover, AnalyzerRankDeathStillProducesReport) {
  const std::string dir = testing::TempDir() + "esp_failover_report";
  const RunSnapshot s = run_analyzer_crash_session(11, dir);

  // The analyzer rank actually died (world rank 8 = first analyzer rank).
  ASSERT_EQ(s.dead_world, (std::vector<int>{8}));
  EXPECT_EQ(s.dead_analyzer, (std::vector<int>{0}));
  // The surviving rank re-rooted the reduction and wrote the report.
  ASSERT_FALSE(s.report.empty()) << "report.md must exist despite the crash";
  EXPECT_NE(s.report.find("Session health"), std::string::npos);
  // Streams re-routed: the survivor adopted orphaned links and replayed
  // their resend windows.
  EXPECT_GT(s.failover_joins, 0u) << "writers must fail over to a survivor";
  EXPECT_GT(s.analysed_events, 0u);
  // Unreplayable prefixes are accounted, not silently absorbed.
  EXPECT_GT(s.lost, 0u) << "blocks beyond the resend window must be ledgered";
  EXPECT_GT(s.dropped_estimate, 0u);
}

TEST(Failover, SameSeedReproducesIdenticalLedgerAndReport) {
  const std::string da = testing::TempDir() + "esp_failover_a";
  const std::string db = testing::TempDir() + "esp_failover_b";
  const RunSnapshot a = run_analyzer_crash_session(7, da);
  const RunSnapshot b = run_analyzer_crash_session(7, db);
  EXPECT_EQ(a.dead_world, b.dead_world);
  EXPECT_EQ(a.dead_analyzer, b.dead_analyzer);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.dropped_estimate, b.dropped_estimate);
  EXPECT_EQ(a.analysed_events, b.analysed_events);
  EXPECT_EQ(a.failover_joins, b.failover_joins);
  EXPECT_EQ(a.blocks_replayed, b.blocks_replayed);
  ASSERT_FALSE(a.report.empty());
  EXPECT_EQ(a.report, b.report)
      << "same seed must emit bit-identical report bytes";
  // The comparison is not vacuous: failover really happened.
  EXPECT_GT(a.failover_joins, 0u);
}

TEST(Failover, ReaderDeathDuringCloseCompletes) {
  SessionConfig cfg = failover_config();
  cfg.analyzer_ratio = 4;
  // The apps finish their loops around ~3 ms of virtual time; the crash
  // lands while writers are closing/EOS-ing their streams.
  cfg.faults.crashes.push_back({.at_time = 2.5e-3, .analyzer_rank = true});
  cfg.faults.crashes.back().world_rank = 0;
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(60));
  auto results = session.run();  // completion is the core assertion

  EXPECT_TRUE(results->health.degraded());
  EXPECT_EQ(results->health.dead_analyzer_ranks, (std::vector<int>{0}));
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->total_events, 0u);
  // Nothing is ever analysed twice, whatever phase the death hit.
  Session* s = &session;
  EXPECT_LE(r->total_events, s->instrument_totals().events);
}

TEST(Failover, ResendWindowOverflowIsLossNeverDuplication) {
  const std::string dir = testing::TempDir() + "esp_failover_w1";
  SessionConfig cfg = failover_config();
  cfg.analyzer_ratio = 4;
  cfg.instrument.resend_window = 1;  // almost nothing is replayable
  cfg.output_dir = dir;
  cfg.faults.crashes.push_back({.at_time = 1e-3, .analyzer_rank = true});
  cfg.faults.crashes.back().world_rank = 0;
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(600));
  auto results = session.run();

  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->telemetry.failover_joins, 0u);
  // A 1-block window replays at most one block per adopted link.
  EXPECT_LE(r->telemetry.blocks_replayed, r->telemetry.failover_joins);
  // Everything before the window is counted lost...
  EXPECT_GT(r->loss.blocks_lost, 0u);
  // ...and replay never double-counts: the analysed (weighted) total can
  // not exceed what instrumentation actually emitted.
  EXPECT_LE(r->total_events, session.instrument_totals().events);
}

TEST(Failover, CascadingAnalyzerDeathsChainToTheLastSurvivor) {
  // Two of three analyzer ranks die in quick succession: writers that
  // fail over to analyzer rank 1 find (or soon find) it dead too and must
  // chain the re-route to rank 2 instead of wedging on a corpse. With a
  // generous resend window every surviving link replays cleanly.
  const std::string dir = testing::TempDir() + "esp_failover_cascade";
  SessionConfig cfg = failover_config();
  cfg.analyzer_ratio = 4;  // 12 app procs -> 3 analyzer ranks
  cfg.instrument.resend_window = 64;
  cfg.output_dir = dir;
  cfg.faults.crashes.push_back({.at_time = 1e-3, .analyzer_rank = true});
  cfg.faults.crashes.back().world_rank = 0;
  cfg.faults.crashes.push_back({.at_time = 1.5e-3, .analyzer_rank = true});
  cfg.faults.crashes.back().world_rank = 1;
  Session session(cfg);
  const int app = session.add_application("ring", 12, ring(600));
  auto results = session.run();  // must complete on the last survivor

  std::vector<int> dead = results->health.dead_analyzer_ranks;
  std::sort(dead.begin(), dead.end());
  EXPECT_EQ(dead, (std::vector<int>{0, 1}));
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->telemetry.failover_joins, 0u);
  EXPECT_GT(r->total_events, 0u);
  // The last survivor re-rooted the reduction and wrote the report.
  const std::string report = slurp(dir + "/report.md");
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("Session health"), std::string::npos);
  // Nothing analysed twice, whatever path the chained re-route took, and
  // every replayed block arrives intact.
  EXPECT_LE(r->total_events, session.instrument_totals().events);
  EXPECT_EQ(r->loss.blocks_corrupted, 0u);
}

TEST(Failover, ReplayAfterStorageHandoffDeliversTheWrittenFrames) {
  // Rendezvous-size blocks are handed to the reader by reference: from
  // the send on, the framed block belongs to the reader (which may flip an
  // injected bit in it or recycle it through the pool once read), and the
  // writer keeps no reference. So the resend ring must have copied each
  // frame before its send. A ring filled from the block afterwards would
  // replay frames the writer no longer owns onto the survivor, and they
  // would surface as corrupt blocks or as events analysed twice.
  const std::string dir = testing::TempDir() + "esp_failover_handoff";
  SessionConfig cfg = failover_config();
  cfg.instrument.block_size = 32768;  // above the 16 KB eager threshold
  cfg.instrument.resend_window = 64;
  cfg.analyzer_ratio = 4;  // 8 app procs -> 2 analyzer ranks
  cfg.output_dir = dir;
  // Late enough that every writer has framed blocks to the dying rank.
  cfg.faults.crashes.push_back({.at_time = 4e-2, .analyzer_rank = true});
  cfg.faults.crashes.back().world_rank = 0;
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(1500));
  auto results = session.run();

  EXPECT_EQ(results->health.dead_analyzer_ranks, (std::vector<int>{0}));
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->telemetry.failover_joins, 0u);
  EXPECT_GT(r->telemetry.blocks_replayed, 0u);
  EXPECT_EQ(r->loss.blocks_corrupted, 0u);
  EXPECT_LE(r->total_events, session.instrument_totals().events);
}

TEST(Failover, NoCrashMeansNoFailover) {
  SessionConfig cfg = failover_config();
  Session session(cfg);
  const int app = session.add_application("ring", 4, ring(200));
  auto results = session.run();

  EXPECT_FALSE(results->health.degraded());
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->telemetry.failover_joins, 0u);
  EXPECT_EQ(r->telemetry.blocks_replayed, 0u);
  EXPECT_EQ(r->loss.blocks_lost, 0u);
  EXPECT_EQ(r->total_events, session.instrument_totals().events);
}

TEST(Degrade, ForcedSamplingWeightsWithinStrideError) {
  SessionConfig cfg;
  cfg.instrument.block_size = 4096;
  cfg.instrument.degrade = true;
  cfg.instrument.degrade_force_mode = 1;  // pin the Sampled rung
  cfg.instrument.degrade_stride = 4;
  Session session(cfg);
  const int nranks = 4;
  const int app = session.add_application("ring", nranks, ring(300));
  auto results = session.run();

  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  const auto totals = session.instrument_totals();
  EXPECT_GT(totals.calls_sampled_out, 0u);
  const std::uint64_t actual_calls = totals.events + totals.calls_sampled_out;
  // Every kept event stands for `stride` calls: the weighted total brackets
  // the true call count within one stride per rank.
  EXPECT_GE(r->total_events, actual_calls);
  EXPECT_LT(r->total_events,
            actual_calls + cfg.instrument.degrade_stride * nranks);
  // The report-side accounting flags the degraded fidelity.
  EXPECT_TRUE(r->degrade.degraded());
  EXPECT_GT(r->degrade.packs_sampled, 0u);
  EXPECT_EQ(r->degrade.packs_full, 0u);
}

TEST(Degrade, LadderStepsDownUnderOverload) {
  SessionConfig cfg;
  // Rendezvous-sized blocks: eager sends complete locally and can never
  // backpressure, so the ladder needs blocks above the eager threshold.
  cfg.instrument.block_size = 32768;
  cfg.instrument.n_async = 1;
  cfg.instrument.degrade = true;  // adaptive ladder armed
  // Starve the analyzer: a high per-event analysis cost makes producers
  // outrun it, so the streams back-pressure and the ladder must react.
  cfg.analyzer.per_event_cost = 2e-4;
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(400));
  auto results = session.run();

  const auto totals = session.instrument_totals();
  EXPECT_GT(totals.windows_sampled + totals.windows_aggregated, 0u)
      << "sustained backpressure must step the ladder down";
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->degrade.degraded());
  // Degraded windows keep total accounting coherent: weighted analysis
  // totals cover at least the events that were actually shipped.
  EXPECT_GE(r->total_events + r->loss.events_dropped_estimate,
            totals.events);
}

// ---------------------------------------------------------------------------
// Stream-level lease/replay edge cases. Topology in both helpers:
// writers w0, w1 (world 0, 1) map one-to-one onto readers r0, r1 (world
// 2, 3); r0 has a scheduled at_time crash, so w0's failover target is r1
// (its own endpoint set excludes it from being shared). The writer's
// virtual clock is placed explicitly — legitimate in a virtual-time
// simulator — to probe the declaration boundary exactly.
// ---------------------------------------------------------------------------

constexpr double kLeaseDead = 1e-3;   ///< r0's scheduled crash instant.
constexpr double kLeaseLen = 2e-3;    ///< hb_lease used by both endpoints.

struct LeaseProbe {
  std::uint64_t failovers_at_probe = ~0ull;  ///< Right after the probed write.
  std::uint64_t failovers_final = 0;         ///< After close().
  std::uint64_t replay_announced = ~0ull;    ///< Adopted link, reader side.
  std::uint64_t adopted_delivered = 0;
  std::uint64_t adopted_lost = ~0ull;
};

/// w0 writes `pre_blocks`, jumps its clock to exactly `probe_clock`,
/// writes once more (the lease scan runs at write entry), then closes.
/// Where the declaration fired is visible in the replay count: declared
/// at the probed write => the ring held `pre_blocks`; declared only at
/// close => the ring also holds the probe block.
LeaseProbe probe_lease_boundary(double probe_clock, int pre_blocks) {
  LeaseProbe out;
  std::atomic<std::uint64_t> at_probe{~0ull}, final_count{0};
  std::atomic<std::uint64_t> announced{~0ull}, delivered{0}, lost{~0ull};
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back(
      {"w", 2, [&, probe_clock, pre_blocks](mpi::ProcEnv& env) {
         vmpi::Map m;
         m.map_partitions(env, env.runtime->partition_by_name("r")->id,
                          vmpi::MapPolicy::RoundRobin);
         vmpi::StreamConfig sc;
         sc.block_size = 4096;
         sc.n_async = 3;
         sc.policy = vmpi::BalancePolicy::None;
         sc.hb_lease = kLeaseLen;
         vmpi::Stream st(sc);
         st.open_map(env, m, "w");
         std::vector<std::byte> block(4096);
         if (env.world_rank == 0) {
           for (int b = 0; b < pre_blocks; ++b) st.write(block.data(), 1);
           // Place the clock at the probed instant; the lease check runs
           // on entry to the next write, before any cost is charged.
           mpi::Runtime::self().clock = probe_clock;
           st.write(block.data(), 1);
           at_probe.store(st.stats().failovers);
           st.close();  // re-checks the lease; declares if not yet done
           final_count.store(st.stats().failovers);
         } else {
           st.write(block.data(), 1);
           st.close();
         }
       }});
  progs.push_back({"r", 2, [&](mpi::ProcEnv& env) {
                     vmpi::Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("w")->id,
                         vmpi::MapPolicy::RoundRobin);
                     vmpi::StreamConfig sc;
                     sc.block_size = 4096;
                     sc.n_async = 3;
                     sc.policy = vmpi::BalancePolicy::None;
                     sc.hb_lease = kLeaseLen;
                     vmpi::Stream st(sc);
                     st.open_map(env, m, "r");
                     std::vector<std::byte> block(4096);
                     while (st.read(block.data(), 1) > 0) {
                     }
                     if (env.world_rank == 1) {
                       for (const auto& ps : st.peer_stats()) {
                         if (!ps.failover_join) continue;
                         announced.store(ps.blocks_replayed);
                         delivered.store(ps.blocks_delivered);
                         lost.store(ps.blocks_lost);
                       }
                     }
                   }});
  mpi::RuntimeConfig cfg;
  cfg.faults.crashes.push_back({});
  cfg.faults.crashes.back().world_rank = 2;  // r0
  cfg.faults.crashes.back().at_time = kLeaseDead;
  mpi::Runtime rt(cfg, std::move(progs));
  rt.run();
  out.failovers_at_probe = at_probe.load();
  out.failovers_final = final_count.load();
  out.replay_announced = announced.load();
  out.adopted_delivered = delivered.load();
  out.adopted_lost = lost.load();
  return out;
}

TEST(FailoverLease, BoundaryIsInclusiveDeclaredExactlyAtDeadline) {
  // Clock exactly t_dead + hb_lease — the same double expression
  // route_endpoints computes from the crash oracle: the inclusive
  // `>=` must declare at this very write, so only the two pre-blocks
  // were in the ring when the failover replayed it.
  const LeaseProbe p = probe_lease_boundary(kLeaseDead + kLeaseLen, 2);
  EXPECT_EQ(p.failovers_at_probe, 1u);
  EXPECT_EQ(p.failovers_final, 1u);
  EXPECT_EQ(p.replay_announced, 2u);
  // The probe block and the EOS then arrive on the adopted link with
  // their original sequence numbers: nothing is lost, nothing re-lost.
  EXPECT_EQ(p.adopted_delivered, 3u);
  EXPECT_EQ(p.adopted_lost, 0u);
}

TEST(FailoverLease, OneUlpBelowDeadlineDoesNotDeclare) {
  // One representable double below the boundary: the probed write must
  // NOT declare (lease still live), so the probe block joins the resend
  // ring and close() — whose clock has by then passed the deadline —
  // replays all three.
  const LeaseProbe p =
      probe_lease_boundary(std::nextafter(kLeaseDead + kLeaseLen, 0.0), 2);
  EXPECT_EQ(p.failovers_at_probe, 0u)
      << "declaring below the lease deadline breaks the boundary contract";
  EXPECT_EQ(p.failovers_final, 1u) << "close() must still detect the death";
  EXPECT_EQ(p.replay_announced, 3u);
  EXPECT_EQ(p.adopted_delivered, 3u);
  EXPECT_EQ(p.adopted_lost, 0u);
}

struct WindowProbe {
  std::uint64_t resent = 0;               ///< Writer-side replayed count.
  std::uint64_t replay_announced = ~0ull; ///< FailoverCtl.replayed, reader side.
  std::uint64_t adopted_delivered = 0;
  std::uint64_t adopted_lost = ~0ull;
};

/// w0 writes `w_blocks` while r0 is alive, then sails past the lease and
/// closes: the failover replays the resend ring. Retention must be exact
/// — min(w_blocks, window) — so the adopted link's ledger charges exactly
/// the evicted prefix as lost.
WindowProbe probe_resend_window(int window, int w_blocks) {
  WindowProbe out;
  std::atomic<std::uint64_t> resent{0};
  std::atomic<std::uint64_t> announced{~0ull}, delivered{0}, lost{~0ull};
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back(
      {"w", 2, [&, window, w_blocks](mpi::ProcEnv& env) {
         vmpi::Map m;
         m.map_partitions(env, env.runtime->partition_by_name("r")->id,
                          vmpi::MapPolicy::RoundRobin);
         vmpi::StreamConfig sc;
         sc.block_size = 4096;
         sc.n_async = 3;
         sc.policy = vmpi::BalancePolicy::None;
         sc.hb_lease = kLeaseLen;
         sc.resend_window = window;
         vmpi::Stream st(sc);
         st.open_map(env, m, "w");
         std::vector<std::byte> block(4096);
         if (env.world_rank == 0) {
           for (int b = 0; b < w_blocks; ++b) st.write(block.data(), 1);
           mpi::compute(5e-3);  // sail past t_dead + hb_lease
           st.close();          // lease check declares; ring replays
           resent.store(st.stats().resent_blocks);
         } else {
           st.write(block.data(), 1);
           st.close();
         }
       }});
  progs.push_back({"r", 2, [&](mpi::ProcEnv& env) {
                     vmpi::Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("w")->id,
                         vmpi::MapPolicy::RoundRobin);
                     vmpi::StreamConfig sc;
                     sc.block_size = 4096;
                     sc.n_async = 3;
                     sc.policy = vmpi::BalancePolicy::None;
                     sc.hb_lease = kLeaseLen;
                     vmpi::Stream st(sc);
                     st.open_map(env, m, "r");
                     std::vector<std::byte> block(4096);
                     while (st.read(block.data(), 1) > 0) {
                     }
                     if (env.world_rank == 1) {
                       for (const auto& ps : st.peer_stats()) {
                         if (!ps.failover_join) continue;
                         announced.store(ps.blocks_replayed);
                         delivered.store(ps.blocks_delivered);
                         lost.store(ps.blocks_lost);
                       }
                     }
                   }});
  mpi::RuntimeConfig cfg;
  cfg.faults.crashes.push_back({});
  cfg.faults.crashes.back().world_rank = 2;  // r0
  cfg.faults.crashes.back().at_time = kLeaseDead;
  mpi::Runtime rt(cfg, std::move(progs));
  rt.run();
  out.resent = resent.load();
  out.replay_announced = announced.load();
  out.adopted_delivered = delivered.load();
  out.adopted_lost = lost.load();
  return out;
}

TEST(FailoverResendWindow, FullRingRetainsExactlyWindowBlocks) {
  // Exactly window blocks written: every one is replayable. A trim
  // off-by-one (evicting down to window - 1) would announce 3 here.
  const WindowProbe p = probe_resend_window(/*window=*/4, /*w_blocks=*/4);
  EXPECT_EQ(p.resent, 4u);
  EXPECT_EQ(p.replay_announced, 4u);
  EXPECT_EQ(p.adopted_delivered, 4u);
  EXPECT_EQ(p.adopted_lost, 0u);
}

TEST(FailoverResendWindow, OverflowEvictsToWindowNeverBelow) {
  // Six blocks through a 4-deep ring: the two oldest are evicted and
  // surface as sequence-gap loss on the adopted link; the four newest
  // replay. FailoverCtl.replayed must say 4, and the ledger must charge
  // exactly 6 - 4 = 2 — the counts the loss ledger's
  // "lost == written - replayed" identity depends on.
  const WindowProbe p = probe_resend_window(/*window=*/4, /*w_blocks=*/6);
  EXPECT_EQ(p.resent, 4u);
  EXPECT_EQ(p.replay_announced, 4u);
  EXPECT_EQ(p.adopted_delivered, 4u);
  EXPECT_EQ(p.adopted_lost, 2u);
}

TEST(Session, WatchdogDeadlineKnobIsPlumbedFromEnvironment) {
  ::setenv("ESP_SESSION_DEADLINE", "123.5", 1);
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("ring", 2, ring(5));
  session.run();
  ::unsetenv("ESP_SESSION_DEADLINE");
  EXPECT_DOUBLE_EQ(session.runtime().config().watchdog_virtual_deadline,
                   123.5)
      << "ESP_SESSION_DEADLINE must reach the runtime watchdog";
}

}  // namespace
}  // namespace esp
