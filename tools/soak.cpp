/// \file soak.cpp
/// \brief Chaos soak harness: randomized, seeded fault campaigns against
/// full profiling sessions.
///
/// Each run derives a FaultPlan from its seed — analyzer-rank crashes at
/// random virtual times (including the both-ranks total-partition-loss
/// case), stream-scoped link drop/corruption, randomized resend windows
/// and leases, sometimes the adaptive degradation ladder — executes a
/// complete session on it, and checks the failure-model invariants:
///
///   1. the session completes and writes a non-empty report;
///   2. every recorded analyzer death was scheduled by the plan;
///   3. nothing is analysed twice (weighted totals never exceed what
///      instrumentation emitted, outside degraded weighting);
///   4. lost blocks appear in the ledger whenever a link was adopted
///      after the resend window overflowed;
///   5. the same seed reproduces the identical ledger and bit-identical
///      report bytes (every run executes twice).
///
/// Any violation prints the offending seed (rerun with --seed N --runs 1
/// to reproduce) and exits non-zero. Exercised by tools/check.sh and the
/// CI soak leg; also a development fuzzing loop:
///
///   soak --runs 25 --seed 1
///   ESP_SOAK_SEED=$RANDOM soak --runs 10 --seed-from-env

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "net/fault.hpp"

extern "C" char** environ;

namespace {

int g_failures = 0;
/// Extra flags of the current campaign, reproduced verbatim in the repro
/// line ("--tenants 100 --iters 120 ...").
std::string g_repro_flags;

/// One copy-pasteable command that reruns exactly the failing scenario:
/// every ESP_* variable set in the environment, plus the seed pinned to a
/// single run. Sorted, so the line itself is deterministic.
std::string repro_line(std::uint64_t seed) {
  std::set<std::string> vars;
  for (char** e = environ; e && *e; ++e)
    if (std::strncmp(*e, "ESP_", 4) == 0 && std::strchr(*e, '=') != nullptr)
      vars.insert(*e);
  std::string line;
  for (const std::string& v : vars) {
    line += v;
    line += ' ';
  }
  line += "soak --seed " + std::to_string(seed) + " --runs 1" + g_repro_flags;
  return line;
}

/// Print the violation and the repro line, and append the latter to
/// soak_failures.txt so CI can upload failing seeds as an artifact.
void record_failure(std::uint64_t seed, const char* msg, const char* expr) {
  std::fprintf(stderr, "soak: FAIL seed=%llu: %s (%s)\n",
               static_cast<unsigned long long>(seed), msg, expr);
  const std::string line = repro_line(seed);
  std::fprintf(stderr, "soak: repro: %s\n", line.c_str());
  std::ofstream out("soak_failures.txt", std::ios::app);
  out << line << "  # " << msg << "\n";
  ++g_failures;
}

#define SOAK_CHECK(cond, seed, msg)                                       \
  do {                                                                    \
    if (!(cond)) record_failure(seed, msg, #cond);                        \
  } while (0)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Everything one run produces that the invariants (and the determinism
/// replay) compare.
struct RunOutcome {
  bool completed = false;
  std::vector<int> dead_analyzer;
  std::uint64_t blocks_lost = 0, blocks_corrupted = 0;
  std::uint64_t dropped_estimate = 0;
  std::uint64_t total_events = 0;
  std::uint64_t instrumented_events = 0;
  std::uint64_t failover_joins = 0, blocks_replayed = 0;
  bool degraded_fidelity = false;
  std::string report;
};

/// The per-seed scenario, fully derived from the seed before the session
/// is built so both replays configure identically.
struct Scenario {
  esp::SessionConfig cfg;
  std::vector<int> planned_analyzer_crashes;
  bool degrade = false;
};

Scenario derive_scenario(std::uint64_t seed, int app_ranks) {
  esp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Scenario sc;
  esp::SessionConfig& cfg = sc.cfg;
  cfg.runtime.seed = seed;
  // A wedged run must fail loudly, not hang until someone notices.
  cfg.runtime.watchdog_virtual_deadline = 10.0;
  cfg.analyzer_ratio = 4;  // app_ranks=8 -> a 2-rank analyzer partition
  const int an_ranks = std::max(1, app_ranks / cfg.analyzer_ratio);
  cfg.instrument.block_size = 4096;
  cfg.instrument.hb_lease = rng.uniform(3e-4, 1e-3);
  cfg.instrument.hb_interval = 1e-4;
  cfg.instrument.resend_window = 1 << rng.below(4);  // 1, 2, 4 or 8 blocks

  // Crash schedule: usually one analyzer rank dies, sometimes none (the
  // plan's link faults alone must leave accounting coherent). At least
  // one analyzer rank always survives to root the reduction and write
  // the report — the all-ranks-dead case has no one left to assert with.
  const int crashes = an_ranks > 1 && rng.below(10) < 8 ? 1 : 0;
  for (int c = 0; c < crashes; ++c) {
    esp::net::FaultPlan::RankCrash rc;
    rc.analyzer_rank = true;
    rc.world_rank = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(an_ranks)));
    // Early enough to land mid-stream, late enough to sometimes hit the
    // close/EOS phase (the ring workloads span a few milliseconds).
    rc.at_time = rng.uniform(5e-4, 3.5e-3);
    cfg.faults.crashes.push_back(rc);
    sc.planned_analyzer_crashes.push_back(rc.world_rank);
  }
  std::sort(sc.planned_analyzer_crashes.begin(),
            sc.planned_analyzer_crashes.end());

  // Stream-scoped link noise on roughly half the seeds.
  if (rng.below(2) == 0) {
    esp::net::FaultPlan::LinkFault lf;
    lf.drop_probability = rng.uniform(0.0, 0.05);
    lf.corrupt_probability = rng.uniform(0.0, 0.05);
    cfg.faults.links.push_back(lf);
  }

  // Adaptive degradation ladder on a quarter of the seeds. The pressure
  // signal is virtual-time, so degraded runs replay exactly too — but
  // sampled weighting breaks the simple "analysed <= emitted" bound, so
  // the outcome records fidelity and invariant 3 skips degraded runs.
  if (rng.below(4) == 0) {
    sc.degrade = true;
    cfg.instrument.degrade = true;
    cfg.instrument.degrade_stride = 4;
  }
  return sc;
}

/// Dead-neighbour-tolerant ring exchange (the fault-suite workload).
esp::mpi::ProgramMain ring(int iters) {
  return [iters](esp::mpi::ProcEnv& env) {
    std::vector<std::byte> rbuf(1024), sbuf(1024);
    const int n = env.world.size();
    for (int i = 0; i < iters; ++i) {
      esp::mpi::compute(5e-5);
      esp::mpi::Request r = env.world.irecv(
          rbuf.data(), rbuf.size(), (env.world_rank + n - 1) % n, 0);
      env.world.send(sbuf.data(), sbuf.size(), (env.world_rank + 1) % n, 0);
      esp::mpi::wait(r);
    }
  };
}

RunOutcome execute(const Scenario& sc, int app_ranks, int iters,
                   const std::string& out_dir) {
  esp::SessionConfig cfg = sc.cfg;  // Session is single-use; copy per run
  cfg.output_dir = out_dir;
  esp::Session session(cfg);
  const int app = session.add_application("ring", app_ranks, ring(iters));
  auto results = session.run();

  RunOutcome o;
  o.completed = true;
  o.dead_analyzer = results->health.dead_analyzer_ranks;
  std::sort(o.dead_analyzer.begin(), o.dead_analyzer.end());
  if (const esp::an::AppResults* r = results->find(app)) {
    o.blocks_lost = r->loss.blocks_lost;
    o.blocks_corrupted = r->loss.blocks_corrupted;
    o.dropped_estimate = r->loss.events_dropped_estimate;
    o.total_events = r->total_events;
    o.failover_joins = r->telemetry.failover_joins;
    o.blocks_replayed = r->telemetry.blocks_replayed;
    o.degraded_fidelity = r->degrade.degraded();
  }
  o.instrumented_events = session.instrument_totals().events;
  o.report = slurp(out_dir + "/report.md");
  return o;
}

void check_invariants(const Scenario& sc, const RunOutcome& o,
                      std::uint64_t seed) {
  SOAK_CHECK(o.completed, seed, "session did not complete");
  SOAK_CHECK(!o.report.empty(), seed, "report.md missing or empty");
  SOAK_CHECK(o.report.find("Session health") != std::string::npos, seed,
             "report lacks the session-health chapter");
  // Deaths recorded ⊆ deaths scheduled (a crash landing after the rank
  // finished is legitimately a no-op, never the other way around).
  SOAK_CHECK(std::includes(sc.planned_analyzer_crashes.begin(),
                           sc.planned_analyzer_crashes.end(),
                           o.dead_analyzer.begin(), o.dead_analyzer.end()),
             seed, "an unscheduled analyzer rank died");
  if (!sc.degrade) {
    SOAK_CHECK(o.total_events <= o.instrumented_events, seed,
               "analysed more events than instrumentation emitted "
               "(replay duplication)");
  }
  if (o.failover_joins > 0) {
    // Every adopted link replays at most its resend window; anything
    // older must surface in the ledger rather than vanish.
    SOAK_CHECK(o.blocks_replayed <=
                   o.failover_joins *
                       static_cast<std::uint64_t>(
                           sc.cfg.instrument.resend_window),
               seed, "replayed more than the resend window allows");
  }
}

void check_determinism(const RunOutcome& a, const RunOutcome& b,
                       std::uint64_t seed) {
  SOAK_CHECK(a.dead_analyzer == b.dead_analyzer, seed,
             "death schedule differs between same-seed runs");
  SOAK_CHECK(a.blocks_lost == b.blocks_lost, seed, "loss ledger differs");
  SOAK_CHECK(a.blocks_corrupted == b.blocks_corrupted, seed,
             "corruption count differs");
  SOAK_CHECK(a.dropped_estimate == b.dropped_estimate, seed,
             "drop estimate differs");
  SOAK_CHECK(a.total_events == b.total_events, seed,
             "analysed totals differ");
  SOAK_CHECK(a.failover_joins == b.failover_joins, seed,
             "failover count differs");
  SOAK_CHECK(a.blocks_replayed == b.blocks_replayed, seed,
             "replay count differs");
  SOAK_CHECK(a.report == b.report, seed,
             "same seed produced different report bytes");
}

// ---------------------------------------------------------------------------
// Multi-tenant campaign mode (--tenants N): many overlapping sessions on a
// seeded Poisson schedule against one long-lived analyzer fabric, with
// per-tenant quotas, saturation, and tenant-rank crashes in the mix. The
// analyzer partition itself never crashes here (the failover campaigns
// above own that axis), so the admission root's identity is stable and the
// per-tenant books must replay bit for bit.
// ---------------------------------------------------------------------------

/// Everything one tenant's chapter asserts on, comparable across replays.
struct TenantOutcome {
  bool admitted = false, rejected = false, by_death = false;
  double t_admit = 0.0, t_release = 0.0;
  std::uint64_t events = 0, packs_shed = 0, events_shed = 0;
  std::uint64_t jobs_executed = 0, latency_count = 0;
  bool operator==(const TenantOutcome&) const = default;
};

struct TenantRun {
  bool completed = false;
  std::uint64_t admitted = 0, rejected = 0, shed = 0;
  std::vector<int> dead_world;
  std::vector<TenantOutcome> tenants;
  std::vector<bool> strict;  ///< Which tenants carried a strict quota.
  std::string report;
};

TenantRun run_tenant_campaign(std::uint64_t seed, int ntenants, int iters,
                              const std::string& out_dir) {
  esp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  esp::SessionConfig cfg;
  cfg.runtime.seed = seed;
  cfg.runtime.watchdog_virtual_deadline = 60.0;
  cfg.analyzer_ratio = 8;
  cfg.instrument.block_size = 16384;
  cfg.instrument.n_async = 2;  // bound pinned bytes at 100+-tenant scale
  cfg.tenants.enabled = true;
  cfg.tenants.mean_arrival_gap = rng.uniform(1e-4, 4e-4);
  if (rng.below(2) == 0) {
    // Half the seeds run saturated: admissions queue behind releases, and
    // sometimes a deadline converts the queueing into rejections.
    cfg.tenants.max_active = std::max(2, ntenants / 2);
    if (rng.below(2) == 0)
      cfg.tenants.max_admission_delay = rng.uniform(1e-3, 1e-2);
  }
  TenantRun o;
  o.strict.assign(static_cast<std::size_t>(ntenants), false);
  for (int t = 0; t < ntenants; ++t) {
    if (rng.below(8) == 0) {
      // ~1/8 of the tenants get a budget even the degradation ladder's
      // floor cannot fit: the fabric must shed them and charge only their
      // own ledgers. (Milder overruns are the ladder's job, not shedding's
      // — the writer samples/aggregates itself back under budget.)
      esp::an::TenantQuota q;
      q.entry_rate = rng.uniform(1.0, 100.0);
      q.burst_events = 32.0;
      cfg.tenants.quota[t] = q;
      o.strict[static_cast<std::size_t>(t)] = true;
    }
  }
  const int nprocs = 2;
  const int crashes = static_cast<int>(rng.below(4));  // 0..3 tenant deaths
  for (int c = 0; c < crashes; ++c) {
    esp::net::FaultPlan::RankCrash rc;
    rc.world_rank = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(ntenants * nprocs)));
    rc.at_time = rng.uniform(5e-4, 2e-2);
    cfg.faults.crashes.push_back(rc);
  }
  cfg.output_dir = out_dir;
  esp::Session session(cfg);
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(ntenants));
  for (int t = 0; t < ntenants; ++t)
    ids.push_back(session.add_application("tn" + std::to_string(t), nprocs,
                                          ring(iters + 10 * (t % 7))));
  auto results = session.run();

  o.completed = true;
  o.admitted = results->health.tenants_admitted;
  o.rejected = results->health.tenants_rejected;
  o.shed = results->health.tenant_packs_shed;
  o.dead_world = results->health.dead_world_ranks;
  for (int app : ids) {
    TenantOutcome t;
    if (const esp::an::AppResults* r = results->find(app)) {
      t.admitted = r->tenant.admitted;
      t.rejected = r->tenant.rejected;
      t.by_death = r->tenant.released_by_death;
      t.t_admit = r->tenant.t_admit;
      t.t_release = r->tenant.t_release;
      t.events = r->total_events;
      t.packs_shed = r->tenant.packs_shed;
      t.events_shed = r->tenant.events_shed;
      t.jobs_executed = r->tenant.jobs_executed;
      t.latency_count = r->tenant.latency.count;
    }
    o.tenants.push_back(t);
  }
  o.report = slurp(out_dir + "/report.md");
  return o;
}

void check_tenant_invariants(const TenantRun& o, std::uint64_t seed) {
  SOAK_CHECK(o.completed, seed, "tenant campaign did not complete");
  SOAK_CHECK(!o.report.empty(), seed, "report.md missing or empty");
  SOAK_CHECK(o.report.find("Tenant fabric") != std::string::npos, seed,
             "report lacks the tenant-fabric roll-up");
  SOAK_CHECK(o.admitted > 0, seed, "fabric admitted no tenant at all");
  for (std::size_t t = 0; t < o.tenants.size(); ++t) {
    const TenantOutcome& tn = o.tenants[t];
    // Every tenant's admission was decided one way or the other — no
    // verdict may be silently dropped, crashes included.
    SOAK_CHECK(tn.admitted || tn.rejected, seed,
               "a tenant's admission was never decided");
    if (tn.admitted) {
      SOAK_CHECK(tn.t_release >= tn.t_admit, seed,
                 "an admitted tenant released before its admission");
    }
    if (!o.strict[t]) {
      // Shedding is containment, not collateral: unlimited-quota tenants
      // never see their packs shed, whatever the neighbours do.
      SOAK_CHECK(tn.packs_shed == 0 && tn.events_shed == 0, seed,
                 "quota shedding charged to an unlimited tenant");
    }
  }
}

void check_tenant_determinism(const TenantRun& a, const TenantRun& b,
                              std::uint64_t seed) {
  SOAK_CHECK(a.dead_world == b.dead_world, seed,
             "tenant death schedule differs between same-seed runs");
  SOAK_CHECK(a.admitted == b.admitted && a.rejected == b.rejected, seed,
             "admission counts differ between same-seed runs");
  SOAK_CHECK(a.shed == b.shed, seed, "shed totals differ");
  SOAK_CHECK(a.tenants == b.tenants, seed,
             "per-tenant books differ between same-seed runs");
  SOAK_CHECK(a.report == b.report, seed,
             "same seed produced different report bytes");
}

// ---------------------------------------------------------------------------
// Elastic-membership campaign mode (--elastic N): N tenant apps against a
// fabric whose analyzer partition grows and shrinks on a seeded plan —
// spare warm-joins, base-member drain-and-leaves, sometimes a re-join of
// a departed member, sometimes an analyzer crash landed near a drain.
// Every seed runs twice and must replay bit for bit; a churn-only seed
// (no crash scheduled) must keep every ledger clean: a planned drain
// loses nothing, ever.
// ---------------------------------------------------------------------------

struct ElasticRun {
  bool completed = false;
  bool crash_scheduled = false;  ///< Scenario property, not an outcome.
  std::uint64_t epochs = 0, joined = 0, left = 0;
  std::uint64_t planned_handoffs = 0, failover_joins = 0;
  std::uint64_t join_announcements = 0;
  std::uint64_t admitted = 0, rejected = 0;
  std::uint64_t blocks_lost = 0, blocks_corrupted = 0;
  std::uint64_t total_events = 0;
  std::vector<int> dead_world;
  std::string report;
};

ElasticRun run_elastic_campaign(std::uint64_t seed, int ntenants, int iters,
                                const std::string& out_dir) {
  esp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 13);
  esp::SessionConfig cfg;
  cfg.runtime.seed = seed;
  cfg.runtime.watchdog_virtual_deadline = 60.0;
  // Geometry: 8-rank tenants on ratio 8 give base = ntenants analyzer
  // members; with the spares the partition stays <= each tenant's size,
  // so every writer holds exactly one elastic endpoint (the membership
  // router's contract).
  const int nprocs = 8;
  cfg.analyzer_ratio = 8;
  const int base = ntenants;
  const int spares = 1 + static_cast<int>(rng.below(2));
  cfg.instrument.block_size = 8192;
  cfg.instrument.n_async = 2;
  cfg.instrument.hb_lease = 5e-4;
  cfg.instrument.hb_interval = 1e-4;
  cfg.instrument.resend_window = 1 << rng.below(4);
  cfg.tenants.enabled = true;
  cfg.tenants.mean_arrival_gap = rng.uniform(1e-4, 4e-4);
  cfg.elastic.enabled = true;
  cfg.elastic.spares = spares;

  // Seeded membership plan. Member 0 never leaves and never crashes, so
  // the reduction root is stable by construction; everything else churns.
  auto add_event = [&](bool join, int member, double t) {
    esp::net::ElasticPlan::Event ev;
    ev.join = join;
    ev.member = member;
    ev.at_time = t;
    cfg.elastic.plan.push_back(ev);
  };
  for (int s = 0; s < spares; ++s)
    add_event(true, base + s, rng.uniform(5e-4, 3e-3));
  int left_member = -1;
  double left_at = 0.0;
  if (base > 1 && rng.below(2) == 0) {
    left_member = 1 + static_cast<int>(
        rng.below(static_cast<std::uint64_t>(base - 1)));
    left_at = rng.uniform(1e-3, 5e-3);
    add_event(false, left_member, left_at);
    if (rng.below(4) == 0) {
      // Re-join of a departed member: its next tenure is a new epoch and
      // it must never adopt links it held before leaving.
      add_event(true, left_member, left_at + rng.uniform(1e-3, 2e-3));
    }
  }

  ElasticRun o;
  if (rng.below(2) == 0) {
    // Crash one churning member; when a drain is planned, land the crash
    // near the drain instant so the handoff itself takes the hit.
    esp::net::FaultPlan::RankCrash rc;
    rc.analyzer_rank = true;
    if (left_member >= 0) {
      rc.world_rank = left_member;
      rc.at_time = left_at + rng.uniform(-3e-4, 3e-4);
    } else {
      rc.world_rank = 1 + static_cast<int>(rng.below(
          static_cast<std::uint64_t>(base + spares - 1)));
      rc.at_time = rng.uniform(5e-4, 4e-3);
    }
    cfg.faults.crashes.push_back(rc);
    o.crash_scheduled = true;
  }

  cfg.output_dir = out_dir;
  esp::Session session(cfg);
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(ntenants));
  for (int t = 0; t < ntenants; ++t)
    ids.push_back(session.add_application("el" + std::to_string(t), nprocs,
                                          ring(iters + 10 * (t % 5))));
  auto results = session.run();

  o.completed = true;
  o.epochs = results->health.membership_epochs;
  o.joined = results->health.members_joined;
  o.left = results->health.members_left;
  o.planned_handoffs = results->health.planned_handoffs;
  o.failover_joins = results->health.failover_joins;
  o.join_announcements = results->health.join_announcements;
  o.admitted = results->health.tenants_admitted;
  o.rejected = results->health.tenants_rejected;
  o.dead_world = results->health.dead_world_ranks;
  for (int app : ids) {
    if (const esp::an::AppResults* r = results->find(app)) {
      o.blocks_lost += r->loss.blocks_lost;
      o.blocks_corrupted += r->loss.blocks_corrupted;
      o.total_events += r->total_events;
    }
  }
  o.report = slurp(out_dir + "/report.md");
  return o;
}

void check_elastic_invariants(const ElasticRun& o, std::uint64_t seed) {
  SOAK_CHECK(o.completed, seed, "elastic campaign did not complete");
  SOAK_CHECK(!o.report.empty(), seed, "report.md missing or empty");
  SOAK_CHECK(o.report.find("Membership") != std::string::npos, seed,
             "report lacks the membership roll-up");
  SOAK_CHECK(o.epochs >= 2, seed, "elastic plan produced no epoch change");
  SOAK_CHECK(o.joined > 0, seed, "elastic plan scheduled no join");
  SOAK_CHECK(o.admitted > 0, seed, "fabric admitted no tenant at all");
  SOAK_CHECK(o.total_events > 0, seed, "campaign analysed no events");
  if (!o.crash_scheduled) {
    // The core drain contract: membership churn alone never costs data.
    SOAK_CHECK(o.dead_world.empty(), seed,
               "a rank died without a scheduled crash");
    SOAK_CHECK(o.blocks_lost == 0, seed,
               "a clean drain charged the loss ledger");
    SOAK_CHECK(o.blocks_corrupted == 0, seed,
               "a clean drain corrupted blocks");
    SOAK_CHECK(o.failover_joins == 0, seed,
               "a crash-free run took the crash-failover path");
  }
}

void check_elastic_determinism(const ElasticRun& a, const ElasticRun& b,
                               std::uint64_t seed) {
  SOAK_CHECK(a.epochs == b.epochs && a.joined == b.joined &&
                 a.left == b.left,
             seed, "membership plan differs between same-seed runs");
  SOAK_CHECK(a.planned_handoffs == b.planned_handoffs, seed,
             "planned handoff count differs between same-seed runs");
  SOAK_CHECK(a.failover_joins == b.failover_joins, seed,
             "failover count differs between same-seed runs");
  SOAK_CHECK(a.join_announcements == b.join_announcements, seed,
             "join announcements differ between same-seed runs");
  SOAK_CHECK(a.admitted == b.admitted && a.rejected == b.rejected, seed,
             "admission books differ between same-seed runs");
  SOAK_CHECK(a.dead_world == b.dead_world, seed,
             "death schedule differs between same-seed runs");
  SOAK_CHECK(a.blocks_lost == b.blocks_lost &&
                 a.blocks_corrupted == b.blocks_corrupted,
             seed, "loss ledger differs between same-seed runs");
  SOAK_CHECK(a.total_events == b.total_events, seed,
             "analysed totals differ between same-seed runs");
  SOAK_CHECK(a.report == b.report, seed,
             "same seed produced different report bytes");
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 25;
  std::uint64_t seed = 1;
  int app_ranks = 8;
  int iters = 500;
  int tenants = 0;  // > 0: multi-tenant campaign mode
  int elastic = 0;  // > 0: elastic-membership campaign mode
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "soak: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--runs") {
      runs = std::atoi(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed-from-env") {
      if (const char* e = std::getenv("ESP_SOAK_SEED"))
        seed = std::strtoull(e, nullptr, 10);
    } else if (arg == "--ranks") {
      app_ranks = std::atoi(next());
    } else if (arg == "--iters") {
      iters = std::atoi(next());
    } else if (arg == "--tenants") {
      tenants = std::atoi(next());
    } else if (arg == "--elastic") {
      elastic = std::atoi(next());
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: soak [--runs N] [--seed S | --seed-from-env] "
                   "[--ranks N] [--iters N] [--tenants N] [--elastic N] "
                   "[-v]\n");
      return 2;
    }
  }
  if (elastic > 0) {
    // Geometry bound (see run_elastic_campaign): base members + spares
    // must not exceed the 8-rank tenant size.
    elastic = std::clamp(elastic, 2, 6);
    if (iters == 500) iters = 120;
    g_repro_flags = " --elastic " + std::to_string(elastic) + " --iters " +
                    std::to_string(iters);
  } else if (tenants > 0) {
    // The fault campaign defaults are sized for one 8-rank app; tenant
    // campaigns run many small apps, so shorten each workload unless the
    // caller pinned --iters explicitly.
    if (iters == 500) iters = 120;
    g_repro_flags = " --tenants " + std::to_string(tenants) + " --iters " +
                    std::to_string(iters);
  } else {
    g_repro_flags = " --ranks " + std::to_string(app_ranks) + " --iters " +
                    std::to_string(iters);
  }

  namespace fs = std::filesystem;
  const fs::path base =
      fs::temp_directory_path() /
      ("esp_soak_" + std::to_string(static_cast<unsigned long long>(seed)));
  std::error_code ec;
  fs::remove_all(base, ec);

  if (elastic > 0) {
    std::uint64_t campaign_handoffs = 0, campaign_joins = 0,
                  campaign_left = 0, campaign_deaths = 0;
    for (int r = 0; r < runs && g_failures == 0; ++r) {
      const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
      const std::string da = (base / (std::to_string(s) + "_a")).string();
      const std::string db = (base / (std::to_string(s) + "_b")).string();
      const ElasticRun a = run_elastic_campaign(s, elastic, iters, da);
      check_elastic_invariants(a, s);
      const ElasticRun b = run_elastic_campaign(s, elastic, iters, db);
      check_elastic_determinism(a, b, s);
      campaign_handoffs += a.planned_handoffs;
      campaign_joins += a.joined;
      campaign_left += a.left;
      campaign_deaths += a.dead_world.size();
      if (verbose)
        std::printf(
            "soak: seed=%llu epochs=%llu joined=%llu left=%llu "
            "handoffs=%llu failovers=%llu lost=%llu dead=%zu "
            "digest=%016llx\n",
            static_cast<unsigned long long>(s),
            static_cast<unsigned long long>(a.epochs),
            static_cast<unsigned long long>(a.joined),
            static_cast<unsigned long long>(a.left),
            static_cast<unsigned long long>(a.planned_handoffs),
            static_cast<unsigned long long>(a.failover_joins),
            static_cast<unsigned long long>(a.blocks_lost),
            a.dead_world.size(),
            static_cast<unsigned long long>(esp::fnv1a(a.report)));
    }
    // Non-vacuity: a campaign of this size must really churn membership
    // and hand streams off, or it soaks nothing.
    if (g_failures == 0 && runs >= 5) {
      SOAK_CHECK(campaign_handoffs > 0, seed,
                 "elastic campaign never handed a stream off");
      SOAK_CHECK(campaign_left > 0, seed,
                 "elastic campaign never drained a member");
    }
    fs::remove_all(base, ec);
    if (g_failures > 0) {
      std::fprintf(stderr, "soak: %d invariant violation(s)\n", g_failures);
      return 1;
    }
    std::printf(
        "soak: %d elastic campaigns x 2 runs clean "
        "(handoffs=%llu, joined=%llu, left=%llu, deaths=%llu)\n",
        runs, static_cast<unsigned long long>(campaign_handoffs),
        static_cast<unsigned long long>(campaign_joins),
        static_cast<unsigned long long>(campaign_left),
        static_cast<unsigned long long>(campaign_deaths));
    return 0;
  }

  if (tenants > 0) {
    std::uint64_t campaign_shed = 0, campaign_rejected = 0,
                  campaign_deaths = 0;
    for (int r = 0; r < runs && g_failures == 0; ++r) {
      const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
      const std::string da = (base / (std::to_string(s) + "_a")).string();
      const std::string db = (base / (std::to_string(s) + "_b")).string();
      const TenantRun a = run_tenant_campaign(s, tenants, iters, da);
      check_tenant_invariants(a, s);
      const TenantRun b = run_tenant_campaign(s, tenants, iters, db);
      check_tenant_determinism(a, b, s);
      campaign_shed += a.shed;
      campaign_rejected += a.rejected;
      campaign_deaths += a.dead_world.size();
      if (verbose)
        std::printf(
            "soak: seed=%llu tenants=%d admitted=%llu rejected=%llu "
            "shed=%llu dead=%zu digest=%016llx\n",
            static_cast<unsigned long long>(s), tenants,
            static_cast<unsigned long long>(a.admitted),
            static_cast<unsigned long long>(a.rejected),
            static_cast<unsigned long long>(a.shed), a.dead_world.size(),
            static_cast<unsigned long long>(esp::fnv1a(a.report)));
    }
    // Non-vacuity: a campaign of this size must actually exercise the
    // quota machinery it claims to soak.
    if (g_failures == 0 && runs * tenants >= 64) {
      SOAK_CHECK(campaign_shed > 0, seed,
                 "tenant campaign never shed a flooding tenant");
      SOAK_CHECK(campaign_deaths > 0, seed,
                 "tenant campaign never killed a tenant rank");
    }
    fs::remove_all(base, ec);
    if (g_failures > 0) {
      std::fprintf(stderr, "soak: %d invariant violation(s)\n", g_failures);
      return 1;
    }
    std::printf(
        "soak: %d tenant campaigns x 2 runs clean "
        "(shed=%llu, rejected=%llu, deaths=%llu)\n",
        runs, static_cast<unsigned long long>(campaign_shed),
        static_cast<unsigned long long>(campaign_rejected),
        static_cast<unsigned long long>(campaign_deaths));
    return 0;
  }

  std::uint64_t campaign_joins = 0;
  std::uint64_t campaign_deaths = 0;
  for (int r = 0; r < runs && g_failures == 0; ++r) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    const Scenario sc = derive_scenario(s, app_ranks);
    const std::string da = (base / (std::to_string(s) + "_a")).string();
    const std::string db = (base / (std::to_string(s) + "_b")).string();
    const RunOutcome a = execute(sc, app_ranks, iters, da);
    check_invariants(sc, a, s);
    const RunOutcome b = execute(sc, app_ranks, iters, db);
    check_determinism(a, b, s);
    campaign_joins += a.failover_joins;
    campaign_deaths += a.dead_analyzer.size();
    if (verbose)
      std::printf(
          "soak: seed=%llu crashes=%zu dead=%zu joins=%llu replayed=%llu "
          "lost=%llu corrupt=%llu degraded=%d digest=%016llx\n",
          static_cast<unsigned long long>(s),
          sc.planned_analyzer_crashes.size(), a.dead_analyzer.size(),
          static_cast<unsigned long long>(a.failover_joins),
          static_cast<unsigned long long>(a.blocks_replayed),
          static_cast<unsigned long long>(a.blocks_lost),
          static_cast<unsigned long long>(a.blocks_corrupted),
          a.degraded_fidelity ? 1 : 0,
          static_cast<unsigned long long>(esp::fnv1a(a.report)));
  }

  // The campaign must actually exercise the machinery it claims to soak:
  // a parameter drift that silently stopped killing analyzers (or stopped
  // re-routing streams) would otherwise turn every future run vacuous.
  if (g_failures == 0 && runs >= 10) {
    SOAK_CHECK(campaign_deaths > 0, seed,
               "campaign never killed an analyzer rank");
    SOAK_CHECK(campaign_joins > 0, seed,
               "campaign never exercised stream failover");
  }

  fs::remove_all(base, ec);
  if (g_failures > 0) {
    std::fprintf(stderr, "soak: %d invariant violation(s)\n", g_failures);
    return 1;
  }
  std::printf("soak: %d seeds x 2 runs clean (deaths=%llu, joins=%llu)\n",
              runs, static_cast<unsigned long long>(campaign_deaths),
              static_cast<unsigned long long>(campaign_joins));
  return 0;
}
