/// \file test_faults.cpp
/// \brief Fault injection end to end: rank crashes never hang a session,
/// CRC framing catches corrupted stream blocks, throwing knowledge
/// sources are quarantined, and the same seed reproduces the identical
/// fault schedule and data-loss ledger.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "blackboard/blackboard.hpp"
#include "core/session.hpp"
#include "net/fault.hpp"

namespace esp {
namespace {

/// A ring exchange that keeps going when peers die: recv/send completions
/// carry an error status instead of blocking forever, so the loop always
/// terminates even with crashed neighbours.
mpi::ProgramMain ring(int iters) {
  return [iters](mpi::ProcEnv& env) {
    // Distinct buffers: the irecv target may be written by the peer at any
    // point until wait(), so it must not double as the send source.
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

SessionConfig small_blocks_config() {
  SessionConfig cfg;
  cfg.instrument.block_size = 4096;  // several stream blocks per rank
  return cfg;
}

TEST(Faults, CrashedRankNeverHangsSession) {
  SessionConfig cfg = small_blocks_config();
  cfg.faults.crashes.push_back({.world_rank = 1, .after_calls = 50});
  Session session(cfg);
  const int app = session.add_application("ring", 4, ring(200));

  auto results = session.run();  // must complete; ctest timeout guards hangs

  EXPECT_TRUE(results->health.degraded());
  ASSERT_EQ(results->health.dead_world_ranks.size(), 1u);
  EXPECT_EQ(results->health.dead_world_ranks[0], 1);
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_NE(std::find(r->loss.dead_ranks.begin(), r->loss.dead_ranks.end(), 1),
            r->loss.dead_ranks.end())
      << "crashed rank must appear in the app data-loss ledger";
  // Survivors still produced an analysable profile.
  EXPECT_GT(r->total_events, 0u);
}

TEST(Faults, CrashAtVirtualTime) {
  SessionConfig cfg = small_blocks_config();
  cfg.faults.crashes.push_back({.world_rank = 0, .at_time = 2e-3});
  Session session(cfg);
  session.add_application("ring", 3, ring(400));
  auto results = session.run();
  ASSERT_EQ(results->health.dead_world_ranks.size(), 1u);
  EXPECT_EQ(results->health.dead_world_ranks[0], 0);
}

/// Skeleton-payload copy caps a stream must ignore: none, and the
/// paper-figure geometry (cap == block size, as the figure benches set).
constexpr std::uint64_t kCopyCaps[] = {~0ull, 4096};

TEST(Faults, CorruptionIsCaughtByCrcAndCounted) {
  for (const std::uint64_t cap : kCopyCaps) {
    SCOPED_TRACE(cap);
    SessionConfig cfg = small_blocks_config();
    cfg.runtime.payload_copy_cap = cap;
    cfg.faults.links.push_back({.corrupt_probability = 0.5});
    Session session(cfg);
    const int app = session.add_application("ring", 4, ring(300));

    auto results = session.run();

    const an::AppResults* r = results->find(app);
    ASSERT_NE(r, nullptr);
    EXPECT_GT(r->loss.blocks_corrupted, 0u)
        << "with p=0.5 over many blocks the plan must corrupt some";
    // A corrupted block is discarded before unpacking, never analysed: the
    // analyzer sees at most what was emitted, minus the lost packs.
    EXPECT_LE(r->total_events, session.instrument_totals().events);
    EXPECT_LT(r->total_events, session.instrument_totals().events)
        << "corrupted blocks must drop their events from the analysis";
    EXPECT_GT(r->loss.events_dropped_estimate, 0u);
    // No rank actually crashed.
    EXPECT_TRUE(results->health.dead_world_ranks.empty());
  }
}

TEST(Faults, DroppedBlocksAreCountedAsLost) {
  for (const std::uint64_t cap : kCopyCaps) {
    SCOPED_TRACE(cap);
    SessionConfig cfg = small_blocks_config();
    cfg.runtime.payload_copy_cap = cap;
    cfg.faults.links.push_back({.drop_probability = 0.3});
    Session session(cfg);
    const int app = session.add_application("ring", 4, ring(300));
    auto results = session.run();
    const an::AppResults* r = results->find(app);
    ASSERT_NE(r, nullptr);
    EXPECT_GT(r->loss.blocks_lost, 0u);
    EXPECT_LE(r->total_events, session.instrument_totals().events);
  }
}

TEST(Faults, ThrowingKsIsQuarantinedBlackboardKeepsRunning) {
  bb::Blackboard board({.workers = 2, .quarantine_threshold = 3});
  std::atomic<int> good_hits{0};
  const bb::TypeId t = bb::type_id("evt");
  board.register_ks({"bad", {t}, [](bb::Blackboard&, auto) {
                       throw std::runtime_error("ks bug");
                     }});
  board.register_ks({"good", {t}, [&](bb::Blackboard&, auto) {
                      good_hits.fetch_add(1);
                    }});
  // One entry at a time so the failure streak is exactly sequential.
  for (int i = 0; i < 10; ++i) {
    board.push(bb::DataEntry::of(t, i));
    board.drain();
  }
  EXPECT_EQ(good_hits.load(), 10) << "healthy KS must keep executing";
  const auto stats = board.stats();
  EXPECT_EQ(stats.jobs_failed, 3u) << "quarantine after 3 consecutive throws";
  EXPECT_EQ(stats.ks_quarantined, 1u);
  // The blackboard itself is still alive after the quarantine.
  board.push(bb::DataEntry::of(t, 99));
  board.drain();
  EXPECT_EQ(good_hits.load(), 11);
}

/// The complete ledger fingerprint of one faulty run.
struct LedgerSnapshot {
  std::vector<int> dead_world;
  std::vector<int> app_dead_ranks;
  std::uint64_t lost = 0, corrupted = 0, retried = 0, dropped_estimate = 0;
  std::uint64_t analysed_events = 0;

  bool operator==(const LedgerSnapshot&) const = default;
};

LedgerSnapshot run_faulty_session(std::uint64_t seed) {
  SessionConfig cfg = small_blocks_config();
  cfg.runtime.seed = seed;
  cfg.faults.crashes.push_back({.world_rank = 2, .after_calls = 120});
  cfg.faults.links.push_back(
      {.drop_probability = 0.15, .corrupt_probability = 0.2});
  Session session(cfg);
  const int app = session.add_application("ring", 4, ring(250));
  auto results = session.run();
  const an::AppResults* r = results->find(app);
  LedgerSnapshot s;
  s.dead_world = results->health.dead_world_ranks;
  if (r != nullptr) {
    s.app_dead_ranks = r->loss.dead_ranks;
    std::sort(s.app_dead_ranks.begin(), s.app_dead_ranks.end());
    s.lost = r->loss.blocks_lost;
    s.corrupted = r->loss.blocks_corrupted;
    s.retried = r->loss.blocks_retried;
    s.dropped_estimate = r->loss.events_dropped_estimate;
    s.analysed_events = r->total_events;
  }
  return s;
}

TEST(Faults, SameSeedReproducesIdenticalLedger) {
  const LedgerSnapshot a = run_faulty_session(7);
  const LedgerSnapshot b = run_faulty_session(7);
  EXPECT_EQ(a.dead_world, b.dead_world);
  EXPECT_EQ(a.app_dead_ranks, b.app_dead_ranks);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.dropped_estimate, b.dropped_estimate);
  EXPECT_EQ(a.analysed_events, b.analysed_events);
  // The plan actually fired (the comparison above is not vacuous).
  ASSERT_EQ(a.dead_world, (std::vector<int>{2}));
  EXPECT_GT(a.lost + a.corrupted, 0u);
}

TEST(Faults, InjectorDecisionsArePureFunctions) {
  net::FaultPlan plan;
  plan.links.push_back({.drop_probability = 0.5, .corrupt_probability = 0.5});
  net::FaultInjector x, y;
  x.configure(plan, 1234);
  y.configure(plan, 1234);
  constexpr int kTag = net::kStreamDataTagBase + 7;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const auto dx = x.on_message(0, 1, kTag, seq, 4096);
    const auto dy = y.on_message(0, 1, kTag, seq, 4096);
    EXPECT_EQ(dx.drop, dy.drop);
    EXPECT_EQ(dx.corrupt_bit, dy.corrupt_bit);
    EXPECT_EQ(dx.delay, dy.delay);
  }
  // A different seed must yield a different schedule somewhere.
  net::FaultInjector z;
  z.configure(plan, 99);
  bool differs = false;
  for (std::uint64_t seq = 0; seq < 200 && !differs; ++seq)
    differs = x.on_message(0, 1, kTag, seq, 4096).drop !=
              z.on_message(0, 1, kTag, seq, 4096).drop;
  EXPECT_TRUE(differs);
}

TEST(Faults, StreamScopeProtectsControlTraffic) {
  // Link faults must leave non-stream tags untouched even with
  // probability-1 faults.
  net::FaultPlan plan;
  plan.links.push_back({.drop_probability = 1.0, .corrupt_probability = 1.0});
  net::FaultInjector inj;
  inj.configure(plan, 5);
  const auto ctl = inj.on_message(0, 1, /*tag=*/0, 0, 1024);
  EXPECT_FALSE(ctl.drop);
  EXPECT_EQ(ctl.corrupt_bit, -1);
  const auto data =
      inj.on_message(0, 1, net::kStreamDataTagBase + 3, 0, 1024);
  EXPECT_TRUE(data.drop);
}

}  // namespace
}  // namespace esp
