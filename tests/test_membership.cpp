/// \file test_membership.cpp
/// \brief Elastic analyzer membership end to end: planned drain-and-leave
/// shrink and warm-join grow must be deterministic, crash-tolerant, and
/// honest in the accounting. A clean drain charges *nothing* to the loss
/// ledger (the old holder analyzed everything it was delivered); a crash
/// of the draining node downgrades the handoff to an ordinary failover
/// whose ledger charge is exactly the unreplayable prefix. Joins race
/// tenant arrivals without breaking admission determinism, and a shrink
/// below the per-member admission quota re-queues later tenants at the
/// same virtual instant on every same-seed run.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/membership.hpp"
#include "core/session.hpp"
#include "net/fault.hpp"
#include "vmpi/map.hpp"
#include "vmpi/stream.hpp"

namespace esp {
namespace {

/// Ring exchange resilient to dead neighbours — the same workload
/// test_failover.cpp uses.
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

/// Small stream blocks (several per rank) and a tight lease so membership
/// events land well inside the run.
SessionConfig elastic_config() {
  SessionConfig cfg;
  cfg.instrument.block_size = 4096;
  cfg.instrument.hb_lease = 5e-4;
  cfg.instrument.hb_interval = 1e-4;
  cfg.elastic.enabled = true;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Membership, CleanDrainZeroLoss) {
  // 8 app procs, ratio 4 -> 2 analyzer members; member 1 drains and
  // leaves mid-run. Every one of its links hands off through the planned
  // drain path: the loss ledger stays empty and no crash machinery fires.
  const std::string dir = testing::TempDir() + "esp_membership_drain";
  SessionConfig cfg = elastic_config();
  cfg.analyzer_ratio = 4;
  cfg.output_dir = dir;
  cfg.elastic.plan.push_back({.at_time = 1.5e-3, .member = 1, .join = false});
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(600));
  auto results = session.run();

  EXPECT_EQ(results->health.membership_epochs, 2u);
  EXPECT_EQ(results->health.members_left, 1u);
  EXPECT_EQ(results->health.members_joined, 0u);
  EXPECT_GT(results->health.planned_handoffs, 0u)
      << "the leaving member's links must hand off";
  EXPECT_EQ(results->health.failover_joins, 0u)
      << "a planned drain must never use the crash path";
  EXPECT_TRUE(results->health.dead_world_ranks.empty());
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->loss.clean()) << "clean drain must charge nothing";
  EXPECT_EQ(r->telemetry.failover_joins, 0u);
  EXPECT_GT(r->telemetry.planned_handoffs, 0u);
  // Everything emitted was analysed exactly once, across both holders.
  EXPECT_EQ(r->total_events, session.instrument_totals().events);
  const std::string report = slurp(dir + "/report.md");
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("Membership"), std::string::npos)
      << "the report must carry the membership block";
}

TEST(Membership, SpareWarmJoinAdoptsRebalancedWriters) {
  // One spare launched inactive joins mid-run: writers whose epoch-1
  // route lands on it hand their links off cleanly, and the join is
  // announced to the reduction root exactly once.
  SessionConfig cfg = elastic_config();
  cfg.analyzer_ratio = 4;
  cfg.elastic.spares = 1;
  cfg.elastic.plan.push_back({.at_time = 1.5e-3, .member = 2, .join = true});
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(600));
  auto results = session.run();

  EXPECT_EQ(results->health.membership_epochs, 2u);
  EXPECT_EQ(results->health.members_joined, 1u);
  EXPECT_EQ(results->health.join_announcements, 1u);
  EXPECT_GT(results->health.planned_handoffs, 0u)
      << "the rebalance must move at least one link onto the joiner";
  EXPECT_EQ(results->health.failover_joins, 0u);
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->loss.clean());
  EXPECT_EQ(r->total_events, session.instrument_totals().events);
}

TEST(Membership, CrashOfDrainingNodeChargesOnlyUnreplayablePrefix) {
  // The node scheduled to drain at 1.5 ms crashes at 1.3 ms instead: the
  // epoch boundary must downgrade its handoffs to crash failovers — the
  // ledger is charged (tiny resend window, so most of the in-flight tail
  // is unreplayable), nothing is analysed twice, and the whole run is
  // reproducible bit-exactly from the seed.
  auto run_once = [](const std::string& dir) {
    SessionConfig cfg = elastic_config();
    cfg.analyzer_ratio = 4;
    cfg.instrument.resend_window = 2;
    cfg.output_dir = dir;
    cfg.elastic.plan.push_back(
        {.at_time = 1.5e-3, .member = 1, .join = false});
    cfg.faults.crashes.push_back({.at_time = 1.3e-3, .analyzer_rank = true});
    cfg.faults.crashes.back().world_rank = 1;
    Session session(cfg);
    session.add_application("ring", 8, ring(600));
    auto results = session.run();  // must complete; ctest timeout guards
    return std::make_pair(results, slurp(dir + "/report.md"));
  };
  const std::string da = testing::TempDir() + "esp_membership_cd_a";
  const std::string db = testing::TempDir() + "esp_membership_cd_b";
  auto [ra, rep_a] = run_once(da);
  auto [rb, rep_b] = run_once(db);

  EXPECT_EQ(ra->health.dead_analyzer_ranks, (std::vector<int>{1}));
  EXPECT_GT(ra->health.failover_joins, 0u)
      << "a dead drain source must take the crash path";
  const an::AppResults* r = ra->find(0);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->loss.blocks_lost, 0u)
      << "the unreplayable prefix must be ledgered";
  // Replay never double-counts: the analysed total cannot exceed what
  // instrumentation emitted.
  EXPECT_GT(r->total_events, 0u);
  // Same seed, same crash, same membership plan: bit-identical outcome.
  EXPECT_EQ(ra->health.failover_joins, rb->health.failover_joins);
  EXPECT_EQ(ra->health.planned_handoffs, rb->health.planned_handoffs);
  const an::AppResults* r2 = rb->find(0);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r->loss.blocks_lost, r2->loss.blocks_lost);
  EXPECT_EQ(r->total_events, r2->total_events);
  ASSERT_FALSE(rep_a.empty());
  EXPECT_EQ(rep_a, rep_b)
      << "same seed must emit bit-identical report bytes under crash";
}

TEST(Membership, LinkReturningToAClosedHolderReopensIt) {
  // A spare joins at 1 ms and leaves at 2.5 ms. Under round-robin routing
  // writer 0 goes member 0 -> 1 -> 0 and writer 5 goes 1 -> 0 -> 1: each
  // link comes back to a base member that has already read the drain
  // end-of-stream of its first tenure. That member reopens the closed
  // link where the writer resumes; everything is analysed exactly once.
  SessionConfig cfg = elastic_config();
  cfg.analyzer_ratio = 4;
  cfg.elastic.spares = 1;
  cfg.elastic.plan.push_back({.at_time = 1e-3, .member = 2, .join = true});
  cfg.elastic.plan.push_back({.at_time = 2.5e-3, .member = 2, .join = false});
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(600));
  auto results = session.run();

  EXPECT_EQ(results->health.membership_epochs, 3u);
  EXPECT_EQ(results->health.failover_joins, 0u);
  EXPECT_GT(results->health.planned_handoffs, 0u);
  const an::AppResults* r = results->find(app);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->loss.clean()) << "a reopened link must resume seamlessly";
  EXPECT_EQ(r->total_events, session.instrument_totals().events);
}

TEST(Membership, HandshakeBehindAnUnreadDrainWaitsForIt) {
  // Two spares join (1 ms, 2 ms) and base member 1 leaves at 3 ms. Writer
  // 7's link goes member 1 -> 2 -> 1 -> 2, writer 1's goes 1 -> 2 -> 3 ->
  // 2. Spare 2 has no link at open and idles until no other rank can run,
  // so it finds both handshakes of a writer queued at once: the second
  // must wait until the first tenure's drain end-of-stream has been
  // read, then reopen the link. Adopting it early would feed the second
  // tenure's blocks to the first one's sequence accounting; dropping it
  // would lose them.
  auto run_once = [](const std::string& dir) {
    SessionConfig cfg = elastic_config();
    cfg.analyzer_ratio = 4;
    cfg.output_dir = dir;
    cfg.elastic.spares = 2;
    cfg.elastic.plan.push_back({.at_time = 1e-3, .member = 2, .join = true});
    cfg.elastic.plan.push_back({.at_time = 2e-3, .member = 3, .join = true});
    cfg.elastic.plan.push_back({.at_time = 3e-3, .member = 1, .join = false});
    Session session(cfg);
    const int app = session.add_application("ring", 8, ring(600));
    auto results = session.run();
    EXPECT_EQ(results->find(app)->total_events,
              session.instrument_totals().events)
        << "every block of every tenure must be analysed exactly once";
    return std::make_pair(results, slurp(dir + "/report.md"));
  };
  auto [ra, rep_a] = run_once(testing::TempDir() + "esp_membership_defer_a");
  auto [rb, rep_b] = run_once(testing::TempDir() + "esp_membership_defer_b");

  EXPECT_EQ(ra->health.membership_epochs, 4u);
  EXPECT_EQ(ra->health.failover_joins, 0u);
  EXPECT_GT(ra->health.planned_handoffs, 0u);
  const an::AppResults* r = ra->find(0);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->loss.clean());
  EXPECT_EQ(ra->health.planned_handoffs, rb->health.planned_handoffs);
  ASSERT_FALSE(rep_a.empty());
  EXPECT_EQ(rep_a, rep_b);
}

TEST(Membership, JoinRacingTenantAttachStaysDeterministic) {
  // A tenant arrives at exactly the virtual instant a spare joins: both
  // transitions are pure functions of the seed and the schedule, so the
  // race resolves identically on every run.
  auto run_once = [](const std::string& dir) {
    SessionConfig cfg = elastic_config();
    cfg.analyzer_ratio = 4;
    cfg.output_dir = dir;
    cfg.elastic.spares = 1;
    cfg.elastic.plan.push_back({.at_time = 1e-3, .member = 2, .join = true});
    cfg.tenants.enabled = true;
    cfg.tenants.arrival[0] = 0.0;
    cfg.tenants.arrival[1] = 1e-3;  // collides with the join boundary
    Session session(cfg);
    session.add_application("t0", 4, ring(400));
    session.add_application("t1", 4, ring(400));
    auto results = session.run();
    return std::make_pair(results, slurp(dir + "/report.md"));
  };
  const std::string da = testing::TempDir() + "esp_membership_race_a";
  const std::string db = testing::TempDir() + "esp_membership_race_b";
  auto [ra, rep_a] = run_once(da);
  auto [rb, rep_b] = run_once(db);

  EXPECT_EQ(ra->health.members_joined, 1u);
  EXPECT_EQ(ra->health.join_announcements, 1u);
  EXPECT_EQ(ra->health.tenants_admitted, 2u);
  for (int app = 0; app < 2; ++app) {
    const an::AppResults* a = ra->find(app);
    const an::AppResults* b = rb->find(app);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(a->tenant.admitted) << "tenant " << app;
    EXPECT_DOUBLE_EQ(a->tenant.t_admit, b->tenant.t_admit);
    EXPECT_EQ(a->total_events, b->total_events);
  }
  ASSERT_FALSE(rep_a.empty());
  EXPECT_EQ(rep_a, rep_b);
}

TEST(Membership, ShrinkBelowQuotaRequeuesAdmissionDeterministically) {
  // Per-member admission ceiling of 1 over 2 members; member 1 leaves at
  // 2 ms, halving the ceiling before the third tenant arrives. That
  // tenant must queue until an earlier tenant releases — and the admit
  // instant must be a pure function of the seed.
  auto run_once = [] {
    SessionConfig cfg = elastic_config();
    cfg.analyzer_ratio = 6;  // 12 app procs -> 2 analyzer members
    cfg.elastic.plan.push_back({.at_time = 2e-3, .member = 1, .join = false});
    cfg.elastic.max_active_per_member = 1;
    cfg.tenants.enabled = true;
    cfg.tenants.arrival[0] = 0.0;
    cfg.tenants.arrival[1] = 5e-4;
    cfg.tenants.arrival[2] = 2.5e-3;  // lands after the shrink
    Session session(cfg);
    session.add_application("t0", 4, ring(200));
    session.add_application("t1", 4, ring(200));
    session.add_application("t2", 4, ring(200));
    return session.run();
  };
  auto ra = run_once();
  auto rb = run_once();

  EXPECT_EQ(ra->health.members_left, 1u);
  EXPECT_EQ(ra->health.tenants_admitted, 3u)
      << "queueing must delay, never starve";
  const an::AppResults* t2 = ra->find(2);
  ASSERT_NE(t2, nullptr);
  ASSERT_TRUE(t2->tenant.admitted);
  EXPECT_GT(t2->tenant.t_admit, t2->tenant.arrival)
      << "the post-shrink ceiling of 1 must queue the third tenant";
  const an::AppResults* t2b = rb->find(2);
  ASSERT_NE(t2b, nullptr);
  EXPECT_DOUBLE_EQ(t2->tenant.t_admit, t2b->tenant.t_admit);
  EXPECT_DOUBLE_EQ(t2->tenant.t_release, t2b->tenant.t_release);
}

TEST(Membership, ScheduleRejectsInconsistentPlans) {
  auto make = [](std::vector<net::ElasticPlan::Event> ev, int spares,
                 int n_members) {
    net::ElasticPlan p;
    p.events = std::move(ev);
    p.spares = spares;
    p.first_world = 0;
    p.n_members = n_members;
    return net::ElasticSchedule(p);
  };
  // Join of an already-active member.
  EXPECT_THROW(make({{1e-3, 0, true}}, 0, 2), std::invalid_argument);
  // Leave of a member that was never active (an unjoined spare).
  EXPECT_THROW(make({{1e-3, 2, false}}, 1, 3), std::invalid_argument);
  // Out-of-range member index.
  EXPECT_THROW(make({{1e-3, 5, true}}, 1, 3), std::invalid_argument);
  // Every initially-active member leaves: no stable reduction root.
  EXPECT_THROW(make({{1e-3, 0, false}, {2e-3, 1, false}}, 1, 3),
               std::invalid_argument);
  // A valid shrink-then-regrow passes and exposes the right epochs.
  const auto s = make({{1e-3, 1, false}, {2e-3, 1, true}}, 0, 2);
  EXPECT_EQ(s.epoch_count(), 3);
  EXPECT_EQ(s.epoch_at(0.0), 0);
  EXPECT_EQ(s.epoch_at(1e-3), 1);  // boundary instant opens the epoch
  EXPECT_EQ(s.epoch_at(2.5e-3), 2);
  EXPECT_TRUE(s.ever_leaves(1));
  EXPECT_FALSE(s.ever_leaves(0));
}

// ---------------------------------------------------------------------------
// The one root rule, over the plans the runtime actually executes.
// ---------------------------------------------------------------------------

/// An 8-rank app and a 3-rank analyzer (world ranks 8..10, member 2 a
/// spare that joins at 1 ms; member `leaver`, if any, drains at 2 ms).
/// The runtime is built, never run: reduce_root is a pure function of it.
int reduce_root_under(std::vector<net::FaultPlan::RankCrash> crashes,
                      int leaver = -1) {
  mpi::RuntimeConfig rcfg;
  rcfg.faults.crashes = std::move(crashes);
  rcfg.elastic.events = {{.at_time = 1e-3, .member = 2, .join = true}};
  if (leaver >= 0)
    rcfg.elastic.events.push_back(
        {.at_time = 2e-3, .member = leaver, .join = false});
  rcfg.elastic.spares = 1;
  rcfg.elastic.first_world = 8;
  rcfg.elastic.n_members = 3;
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({"app", 8, [](mpi::ProcEnv&) {}});
  progs.push_back({"analyzer", 3, [](mpi::ProcEnv&) {}});
  mpi::Runtime rt(rcfg, std::move(progs));
  return an::reduce_root(rt, rt.partitions().back());
}

TEST(Membership, ReduceRootCountsACrashThatNeverFires) {
  EXPECT_EQ(reduce_root_under({}), 0);
  // A call budget the run never reaches still schedules a crash: every
  // rank that asks must skip member 0, or tenants and the analyzer would
  // meet on different ranks.
  EXPECT_EQ(
      reduce_root_under({{.world_rank = 8, .after_calls = 1'000'000'000}}),
      1);
  // An entry with no trigger at all schedules nothing.
  EXPECT_EQ(reduce_root_under({{.world_rank = 8}}), 0);
}

TEST(Membership, ReduceRootFallsBackWhenEveryRootableMemberCrashes) {
  // A member that leaves never roots while another member can.
  EXPECT_EQ(reduce_root_under({}, /*leaver=*/0), 1);
  // Member 1 leaves, so member 0 is the only rootable member. With it
  // crashing the rule falls back to the lowest analyzer rank with no
  // crash, leaving or not.
  EXPECT_EQ(reduce_root_under({}, /*leaver=*/1), 0);
  EXPECT_EQ(reduce_root_under({{.world_rank = 8, .at_time = 5e-3}},
                              /*leaver=*/1),
            1);
  // Both base members crash: the fallback takes the spare, though it is
  // not active from epoch 0.
  EXPECT_EQ(reduce_root_under({{.world_rank = 8, .at_time = 5e-3},
                               {.world_rank = 9, .at_time = 5e-3}}),
            2);
  // Every analyzer rank crashes: rank 0.
  EXPECT_EQ(reduce_root_under({{.world_rank = 8, .at_time = 5e-3},
                               {.world_rank = 9, .at_time = 5e-3},
                               {.world_rank = 10, .at_time = 5e-3}},
                              /*leaver=*/1),
            0);
}

// ---------------------------------------------------------------------------
// Pure mapping functions: the rebalance and failover choices every
// endpoint computes without communication.
// ---------------------------------------------------------------------------

TEST(MapElastic, RoundRobinRouteRotatesAcrossEpochsWithinActiveSet) {
  const std::vector<int> active{0, 1, 2};
  for (int w = 0; w < 12; ++w) {
    for (int e = 0; e < 4; ++e) {
      const int m = vmpi::Map::elastic_route(vmpi::MapPolicy::RoundRobin,
                                             /*seed=*/7, w, e, active);
      EXPECT_EQ(m, active[static_cast<std::size_t>((w + e) % 3)]);
    }
  }
  EXPECT_EQ(vmpi::Map::elastic_route(vmpi::MapPolicy::RoundRobin, 7, 0, 0,
                                     {}),
            -1);
}

TEST(MapElastic, RendezvousRouteMovesOnlyTheLeaversStreams) {
  // Random policy uses rendezvous hashing: removing member 1 from the
  // active set must relocate exactly the writers previously routed to 1.
  const std::vector<int> before{0, 1, 2};
  const std::vector<int> after{0, 2};
  for (int w = 0; w < 64; ++w) {
    const int a = vmpi::Map::elastic_route(vmpi::MapPolicy::Random,
                                           /*seed=*/42, w, 0, before);
    const int b = vmpi::Map::elastic_route(vmpi::MapPolicy::Random,
                                           /*seed=*/42, w, 0, after);
    ASSERT_NE(a, -1);
    ASSERT_NE(b, -1);
    if (a != 1)
      EXPECT_EQ(b, a) << "writer " << w
                      << " was not on the leaver and must not move";
    else
      EXPECT_NE(b, 1);
  }
}

TEST(MapElastic, FailoverTargetEpochZeroMatchesFixedMembership) {
  // Epoch 0 must reproduce the historical (pre-elastic) choice bit-
  // exactly: the default argument and an explicit 0 agree for every
  // policy, and a non-zero epoch stays inside the candidate set.
  const std::vector<int> cands{8, 9, 11};
  for (const auto policy :
       {vmpi::MapPolicy::RoundRobin, vmpi::MapPolicy::Fixed,
        vmpi::MapPolicy::Random}) {
    for (int w = 0; w < 8; ++w) {
      const int historical =
          vmpi::Map::failover_target(policy, 3, w, 10, cands);
      EXPECT_EQ(vmpi::Map::failover_target(policy, 3, w, 10, cands, 0),
                historical);
      for (int e = 1; e < 4; ++e) {
        const int t = vmpi::Map::failover_target(policy, 3, w, 10, cands, e);
        EXPECT_NE(std::find(cands.begin(), cands.end(), t), cands.end());
      }
    }
  }
}

TEST(MapElastic, FailoverTargetEpochSeparatesReincarnations) {
  // A re-joined node lives in a new epoch: for the hashing policies the
  // epoch feeds the hash, so at least one (writer, epoch) pair picks a
  // different successor than epoch 0 — the property the caller's
  // prior-holder filter composes with to keep a node from re-adopting
  // links it held before leaving.
  const std::vector<int> cands{8, 9, 10, 11};
  bool any_differs = false;
  for (int w = 0; w < 16 && !any_differs; ++w) {
    const int t0 =
        vmpi::Map::failover_target(vmpi::MapPolicy::Random, 42, w, 12, cands, 0);
    const int t2 =
        vmpi::Map::failover_target(vmpi::MapPolicy::Random, 42, w, 12, cands, 2);
    any_differs = t0 != t2;
  }
  EXPECT_TRUE(any_differs)
      << "epoch must perturb the hashed successor choice";
}

}  // namespace
}  // namespace esp
