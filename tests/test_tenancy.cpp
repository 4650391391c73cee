/// \file test_tenancy.cpp
/// \brief Multi-tenant analyzer fabric end to end: dynamic session
/// admission over the reserved control tags, per-tenant quotas (entry
/// rate, stream bytes, concurrency), quota shedding charged to the
/// offending tenant only, and bit-identical same-seed campaigns with
/// tenant crashes in the mix.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/tenant.hpp"
#include "core/session.hpp"
#include "net/fault.hpp"

namespace esp {
namespace {

/// Dead-neighbour-tolerant ring exchange (same workload as the failover
/// suite): completions carry errors instead of blocking forever.
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

SessionConfig fabric_config() {
  SessionConfig cfg;
  cfg.instrument.block_size = 4096;  // several packs per rank
  cfg.analyzer_ratio = 4;
  cfg.tenants.enabled = true;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Unit: the seeded Poisson schedule and the latency histogram.
// ---------------------------------------------------------------------------

TEST(TenantFabric, PoissonScheduleIsDeterministicAndMonotone) {
  const auto a = an::poisson_schedule(42, 64, 1e-3);
  const auto b = an::poisson_schedule(42, 64, 1e-3);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(a, b) << "same seed must yield the same arrivals";
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GT(a[i], a[i - 1]) << "exponential gaps are strictly positive";
  const auto c = an::poisson_schedule(43, 64, 1e-3);
  EXPECT_NE(a, c) << "different seeds must differ";
  // The empirical mean gap lands near the configured mean (loose 3x band:
  // 64 samples of an exponential).
  const double mean = a.back() / 64.0;
  EXPECT_GT(mean, 1e-3 / 3.0);
  EXPECT_LT(mean, 1e-3 * 3.0);
}

TEST(TenantFabric, LatencyHistogramQuantilesAndOrderFreeMerge) {
  an::LatencyHist h;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0) << "empty histogram is all-zero";
  for (int i = 0; i < 99; ++i) h.add(1e-6, 1);
  h.add(1e-2, 1);
  // p50 sits in the 1 us octave, p999 in the 10 ms octave.
  EXPECT_GE(h.quantile(0.50), 0.5e-6);
  EXPECT_LT(h.quantile(0.50), 4e-6);
  EXPECT_GE(h.quantile(0.999), 0.5e-2);

  // Merge is integer and order-independent: (a+b) == (b+a), bit for bit.
  an::LatencyHist x, y;
  for (int i = 0; i < 1000; ++i) x.add(1e-9 * (1 << (i % 20)), 1 + i % 3);
  for (int i = 0; i < 500; ++i) y.add(1e-7 * (i % 13 + 1), 2);
  an::LatencyHist ab = x, ba = y;
  ab.merge(y);
  ba.merge(x);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_EQ(ab.bins, ba.bins);
}

// ---------------------------------------------------------------------------
// Admission: staggered tenants all fit, verdicts land at arrival.
// ---------------------------------------------------------------------------

TEST(TenantFabric, StaggeredTenantsAreAllAdmittedAtArrival) {
  SessionConfig cfg = fabric_config();
  cfg.tenants.arrival[0] = 0.0;
  cfg.tenants.arrival[1] = 5e-4;
  cfg.tenants.arrival[2] = 1e-3;
  Session session(cfg);
  const int a0 = session.add_application("t0", 2, ring(120));
  const int a1 = session.add_application("t1", 2, ring(120));
  const int a2 = session.add_application("t2", 2, ring(120));
  auto results = session.run();

  EXPECT_EQ(results->health.tenants_admitted, 3u);
  EXPECT_EQ(results->health.tenants_rejected, 0u);
  const double arrivals[] = {0.0, 5e-4, 1e-3};
  for (int app : {a0, a1, a2}) {
    const an::AppResults* r = results->find(app);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->tenant.fabric);
    EXPECT_TRUE(r->tenant.admitted) << "app " << app;
    EXPECT_FALSE(r->tenant.rejected);
    // Unconstrained fabric: the verdict is the arrival itself.
    EXPECT_DOUBLE_EQ(r->tenant.arrival, arrivals[app]);
    EXPECT_DOUBLE_EQ(r->tenant.t_admit, arrivals[app]);
    // The tenant detached after running: release follows admission.
    EXPECT_GT(r->tenant.t_release, r->tenant.t_admit) << "app " << app;
    EXPECT_FALSE(r->tenant.released_by_death);
    EXPECT_GT(r->total_events, 0u) << "admitted tenants run their workload";
    EXPECT_GT(r->tenant.latency.count, 0u)
        << "event-to-flush latency is recorded per tenant";
  }
  // Later arrival, later (or equal) admission — admissions are ordered.
  EXPECT_LE(results->find(a0)->tenant.t_admit,
            results->find(a1)->tenant.t_admit);
  EXPECT_LE(results->find(a1)->tenant.t_admit,
            results->find(a2)->tenant.t_admit);
}

// ---------------------------------------------------------------------------
// Admission: a saturated fabric queues, then rejects past the deadline.
// ---------------------------------------------------------------------------

TEST(TenantFabric, SaturatedFabricRejectsPastAdmissionDeadline) {
  SessionConfig cfg = fabric_config();
  cfg.tenants.max_active = 1;
  cfg.tenants.max_admission_delay = 1e-6;  // any queueing -> reject
  cfg.tenants.arrival[0] = 0.0;
  cfg.tenants.arrival[1] = 1e-4;  // arrives while tenant 0 still runs
  Session session(cfg);
  const int a0 = session.add_application("holder", 4, ring(300));
  const int a1 = session.add_application("latecomer", 4, ring(300));
  auto results = session.run();

  EXPECT_EQ(results->health.tenants_admitted, 1u);
  EXPECT_EQ(results->health.tenants_rejected, 1u);

  const an::AppResults* r0 = results->find(a0);
  ASSERT_NE(r0, nullptr);
  EXPECT_TRUE(r0->tenant.admitted);
  EXPECT_GT(r0->total_events, 0u);

  const an::AppResults* r1 = results->find(a1);
  ASSERT_NE(r1, nullptr);
  EXPECT_TRUE(r1->tenant.fabric);
  EXPECT_FALSE(r1->tenant.admitted);
  EXPECT_TRUE(r1->tenant.rejected);
  // A rejected tenant never runs its workload: no events, no board work.
  EXPECT_EQ(r1->total_events, 0u);
  EXPECT_EQ(r1->tenant.jobs_executed, 0u);
}

// ---------------------------------------------------------------------------
// Quotas: a flooding tenant is shed and charged; neighbours untouched.
// ---------------------------------------------------------------------------

TEST(TenantFabric, FloodingTenantIsShedAndChargedAlone) {
  SessionConfig cfg = fabric_config();
  cfg.tenants.arrival[0] = 0.0;
  cfg.tenants.arrival[1] = 0.0;
  // Tenant 1 floods far beyond a tiny entry-rate budget with almost no
  // burst allowance; tenant 0 keeps the unlimited default.
  an::TenantQuota strict;
  strict.entry_rate = 1.0;
  strict.burst_events = 4.0;
  cfg.tenants.quota[1] = strict;
  Session session(cfg);
  const int quiet = session.add_application("quiet", 2, ring(150));
  const int noisy = session.add_application("noisy", 2, ring(600));
  auto results = session.run();

  const an::AppResults* rn = results->find(noisy);
  ASSERT_NE(rn, nullptr);
  EXPECT_GT(rn->tenant.packs_shed, 0u)
      << "sustained flooding past the token bucket must shed packs";
  EXPECT_GT(rn->tenant.events_shed, 0u);

  const an::AppResults* rq = results->find(quiet);
  ASSERT_NE(rq, nullptr);
  EXPECT_EQ(rq->tenant.packs_shed, 0u)
      << "shedding is charged to the flooder's ledger only";
  EXPECT_EQ(rq->tenant.events_shed, 0u);
  EXPECT_GT(rq->total_events, 0u);
  EXPECT_GT(rq->tenant.latency.count, 0u);

  // The session-level roll-up matches the per-tenant charges.
  EXPECT_EQ(results->health.tenant_packs_shed,
            rn->tenant.packs_shed + rq->tenant.packs_shed);
}

// ---------------------------------------------------------------------------
// Determinism: a Poisson campaign with a tenant crash, bit for bit.
// ---------------------------------------------------------------------------

/// Fingerprint of one campaign run: every per-tenant outcome plus the
/// literal report bytes.
struct CampaignSnapshot {
  struct Tenant {
    bool admitted = false, rejected = false, by_death = false;
    double arrival = 0.0, t_admit = 0.0, t_release = 0.0;
    std::uint64_t events = 0, packs_shed = 0, events_shed = 0;
    std::uint64_t jobs_executed = 0, jobs_failed = 0;
    std::uint64_t lat_count = 0;
    double p99 = 0.0;
    bool operator==(const Tenant&) const = default;
  };
  std::vector<Tenant> tenants;
  std::uint64_t admitted = 0, rejected = 0, shed = 0;
  std::vector<int> dead_world;
  std::string report;
};

CampaignSnapshot run_campaign(std::uint64_t seed, const std::string& dir) {
  SessionConfig cfg = fabric_config();
  cfg.runtime.seed = seed;
  cfg.output_dir = dir;
  cfg.tenants.mean_arrival_gap = 3e-4;  // seeded Poisson arrivals
  // Tenant 2's rank 0 (world rank 6: three 3-rank tenants precede it)
  // crashes mid-campaign; the crash oracle must settle its books and the
  // survivors must finish unperturbed.
  cfg.faults.crashes.push_back({.at_time = 5e-3});
  cfg.faults.crashes.back().world_rank = 6;
  Session session(cfg);
  const int napps = 6;
  std::vector<int> ids;
  for (int i = 0; i < napps; ++i)
    ids.push_back(session.add_application("tn" + std::to_string(i), 3,
                                          ring(150 + 30 * i)));
  auto results = session.run();

  CampaignSnapshot s;
  s.admitted = results->health.tenants_admitted;
  s.rejected = results->health.tenants_rejected;
  s.shed = results->health.tenant_packs_shed;
  s.dead_world = results->health.dead_world_ranks;
  for (int app : ids) {
    const an::AppResults* r = results->find(app);
    CampaignSnapshot::Tenant t;
    if (r != nullptr) {
      t.admitted = r->tenant.admitted;
      t.rejected = r->tenant.rejected;
      t.by_death = r->tenant.released_by_death;
      t.arrival = r->tenant.arrival;
      t.t_admit = r->tenant.t_admit;
      t.t_release = r->tenant.t_release;
      t.events = r->total_events;
      t.packs_shed = r->tenant.packs_shed;
      t.events_shed = r->tenant.events_shed;
      t.jobs_executed = r->tenant.jobs_executed;
      t.jobs_failed = r->tenant.jobs_failed;
      t.lat_count = r->tenant.latency.count;
      t.p99 = r->tenant.latency.quantile(0.99);
    }
    s.tenants.push_back(t);
  }
  s.report = slurp(dir + "/report.md");
  return s;
}

TEST(TenantFabric, SameSeedCampaignWithTenantCrashIsBitIdentical) {
  const std::string da = testing::TempDir() + "esp_tenancy_a";
  const std::string db = testing::TempDir() + "esp_tenancy_b";
  const CampaignSnapshot a = run_campaign(21, da);
  const CampaignSnapshot b = run_campaign(21, db);

  EXPECT_EQ(a.dead_world, b.dead_world);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.shed, b.shed);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i)
    EXPECT_EQ(a.tenants[i], b.tenants[i]) << "tenant " << i;
  ASSERT_FALSE(a.report.empty());
  EXPECT_EQ(a.report, b.report)
      << "same seed must emit bit-identical report bytes";

  // The comparison is not vacuous: the campaign really ran and the crash
  // really happened.
  EXPECT_EQ(a.dead_world, (std::vector<int>{6}));
  EXPECT_GT(a.admitted, 0u);
  std::uint64_t total = 0;
  for (const auto& t : a.tenants) total += t.events;
  EXPECT_GT(total, 0u);
  // The crashed tenant was released by the crash oracle, not a detach
  // (unless it never attached before dying — then it never ran at all).
  const auto& crashed = a.tenants[2];
  if (crashed.admitted) {
    EXPECT_TRUE(crashed.by_death);
  }
}

// ---------------------------------------------------------------------------
// Containment: the crashed tenant does not perturb survivor results.
// ---------------------------------------------------------------------------

TEST(TenantFabric, TenantCrashLeavesSurvivorResultsBitIdentical) {
  // Two runs, same seed and shape; one schedules a crash of tenant 1's
  // rank 0 late in its workload. Tenant 0's entire chapter — admission
  // times, analysed totals, latency distribution — must not change.
  auto run = [](bool crash, const std::string& dir) {
    SessionConfig cfg = fabric_config();
    cfg.runtime.seed = 9;
    cfg.output_dir = dir;
    cfg.tenants.arrival[0] = 0.0;
    cfg.tenants.arrival[1] = 0.0;
    if (crash) {
      cfg.faults.crashes.push_back({.at_time = 4e-3});
      cfg.faults.crashes.back().world_rank = 2;  // app 1, rank 0
    }
    Session session(cfg);
    session.add_application("victim_free", 2, ring(120));
    session.add_application("crasher", 2, ring(400));
    auto results = session.run();
    return results;
  };
  const std::string d0 = testing::TempDir() + "esp_tenancy_nocrash";
  const std::string d1 = testing::TempDir() + "esp_tenancy_crash";
  auto clean = run(false, d0);
  auto faulty = run(true, d1);

  const an::AppResults* sc = clean->find(0);
  const an::AppResults* sf = faulty->find(0);
  ASSERT_NE(sc, nullptr);
  ASSERT_NE(sf, nullptr);
  // The survivor's numbers are identical with and without the neighbour's
  // crash: fault containment, not just fault tolerance.
  EXPECT_EQ(sf->total_events, sc->total_events);
  EXPECT_DOUBLE_EQ(sf->tenant.t_admit, sc->tenant.t_admit);
  EXPECT_DOUBLE_EQ(sf->tenant.t_release, sc->tenant.t_release);
  EXPECT_EQ(sf->tenant.latency.bins, sc->tenant.latency.bins);
  EXPECT_EQ(sf->tenant.latency.count, sc->tenant.latency.count);
  // And the crash really registered against the crasher.
  EXPECT_EQ(faulty->health.dead_world_ranks, (std::vector<int>{2}));
  const an::AppResults* cr = faulty->find(1);
  ASSERT_NE(cr, nullptr);
  if (cr->tenant.admitted) {
    EXPECT_TRUE(cr->tenant.released_by_death);
  }
}

// ---------------------------------------------------------------------------
// Root agreement: tenants attach to the rank that runs the admission
// controller, whichever fault plan names a crash and whatever its trigger.
// ---------------------------------------------------------------------------

/// Two 4-rank tenants on two analyzer ranks, watchdog armed: a tenant that
/// attaches to any rank but the admission root waits for its verdict
/// until the scheduler reports the wedge and aborts the run.
void expect_both_tenants_admitted(SessionConfig cfg, const std::string& dir) {
  cfg.output_dir = dir;
  cfg.runtime.watchdog_virtual_deadline = 10;
  Session session(cfg);
  const int a = session.add_application("a", 4, ring(200));
  const int b = session.add_application("b", 4, ring(200));
  auto results = session.run();

  EXPECT_EQ(results->health.tenants_admitted, 2u);
  for (int app : {a, b}) {
    const an::AppResults* r = results->find(app);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->tenant.admitted) << "app " << app;
  }
  EXPECT_TRUE(results->health.dead_world_ranks.empty());
  EXPECT_NE(slurp(dir + "/report.md").find("## Tenant fabric"),
            std::string::npos);
}

TEST(TenantFabric, RuntimePlanCrashThatNeverFiresMovesBothRoots) {
  // World rank 8 is analyzer rank 0. The entry comes through the
  // runtime's own fault plan with a call budget the run never reaches:
  // the plan still names a crash, so the root moves to analyzer rank 1
  // for the analyzer and the tenants alike.
  SessionConfig cfg = fabric_config();
  cfg.runtime.faults.crashes.push_back(
      {.world_rank = 8, .after_calls = 1'000'000'000});
  expect_both_tenants_admitted(cfg,
                               testing::TempDir() + "esp_tenancy_root_rt");
}

TEST(TenantFabric, UntriggeredAnalyzerCrashEntryKeepsBothRootsOnRankZero) {
  // An analyzer-relative entry with neither a time nor a call budget
  // schedules no crash, so analyzer rank 0 stays the root for everyone.
  SessionConfig cfg = fabric_config();
  cfg.faults.crashes.push_back({.world_rank = 0, .analyzer_rank = true});
  expect_both_tenants_admitted(cfg,
                               testing::TempDir() + "esp_tenancy_root_plan");
}

}  // namespace
}  // namespace esp
