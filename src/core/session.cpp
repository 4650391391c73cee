#include "core/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/membership.hpp"
#include "common/env.hpp"
#include "common/io_writers.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace esp {

Session::Session(SessionConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.analyzer_ratio < 1) cfg_.analyzer_ratio = 1;
}

int Session::add_application(std::string name, int nprocs,
                             mpi::ProgramMain main) {
  if (ran_) throw std::logic_error("session already ran");
  if (name == cfg_.instrument.analyzer_partition)
    throw std::invalid_argument("application name collides with analyzer");
  apps_.push_back({std::move(name), nprocs, std::move(main)});
  return static_cast<int>(apps_.size()) - 1;
}

std::shared_ptr<an::AnalysisResults> Session::run() {
  if (ran_) throw std::logic_error("session already ran");
  if (apps_.empty()) throw std::logic_error("no applications added");
  ran_ = true;

  // Session watchdog: the one ops-facing environment override. It only
  // aborts a runaway run, never changes what a completed run reports.
  cfg_.runtime.watchdog_virtual_deadline = env_double(
      "ESP_SESSION_DEADLINE", cfg_.runtime.watchdog_virtual_deadline);
  auto& icfg = cfg_.instrument;
  const auto& tn = cfg_.tenants;
  const auto& el = cfg_.elastic;

  int total_app_procs = 0;
  for (const auto& a : apps_) total_app_procs += a.nprocs;
  const int n_analyzer_base =
      std::max(1, total_app_procs / cfg_.analyzer_ratio);
  const int n_spares = el.enabled ? std::max(0, el.spares) : 0;
  // Spares ride inside the analyzer partition (launched inactive); the
  // partition geometry is fixed for the whole run, membership is not.
  const int n_analyzer = n_analyzer_base + n_spares;

  // Resolve analyzer-relative crash entries: the plan author names a rank
  // *within the analyzer partition* (its world ranks depend on the
  // application mix, only known here). Out-of-range entries stay flagged
  // and are ignored by the injector rather than hitting an app rank.
  for (auto& c : cfg_.faults.crashes) {
    if (!c.analyzer_rank) continue;
    if (c.world_rank < 0 || c.world_rank >= n_analyzer) continue;
    c.world_rank += total_app_procs;
    c.analyzer_rank = false;
  }

  auto results = std::make_shared<an::AnalysisResults>();
  an::AnalyzerConfig acfg = cfg_.analyzer;
  acfg.results = results;
  acfg.output_dir = cfg_.output_dir;

  // ---- Tenant fabric assembly -----------------------------------------
  if (tn.enabled) {
    an::FabricConfig fab;
    fab.enabled = true;
    fab.max_active = tn.max_active;
    fab.max_admission_delay = tn.max_admission_delay;
    fab.max_active_per_member = el.max_active_per_member;

    // Arrivals: explicit overrides win over the seeded Poisson schedule.
    std::vector<double> schedule;
    if (tn.mean_arrival_gap > 0.0)
      schedule = an::poisson_schedule(cfg_.runtime.seed,
                                      static_cast<int>(apps_.size()),
                                      tn.mean_arrival_gap);
    int first_world = 0;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      an::TenantSpec ts;
      ts.app_id = static_cast<int>(i);
      ts.nprocs = apps_[i].nprocs;
      ts.rank0_world = first_world;
      first_world += apps_[i].nprocs;
      if (const auto it = tn.arrival.find(ts.app_id); it != tn.arrival.end())
        ts.arrival = it->second;
      else if (!schedule.empty())
        ts.arrival = schedule[i];
      if (const auto it = tn.quota.find(ts.app_id); it != tn.quota.end())
        ts.quota = it->second;
      else
        ts.quota = tn.default_quota;
      fab.tenants.push_back(ts);
    }
    acfg.fabric = fab;
    acfg.board.fair_share = true;
    // Writer-side rate budgets drive the per-tenant degradation ladder
    // (replacing the shared backpressure trigger for budgeted tenants),
    // so the ladder must be armed in fabric mode.
    icfg.degrade = true;
    for (const auto& ts : fab.tenants)
      if (ts.quota.entry_rate > 0.0)
        icfg.tenant_rate[ts.app_id] = ts.quota.entry_rate;

    // Wrap each application main in the attach/verdict/detach protocol.
    // The admission root is the analyzer's reduce root, asked of the
    // runtime inside the rank: the same rule over the same plans the
    // analyzer applies, so both sides always meet on one rank.
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      const an::TenantSpec spec = fab.tenants[i];
      auto user_main = std::move(apps_[i].main);
      apps_[i].main = [this, spec, user_main](mpi::ProcEnv& env) {
        auto& rc = mpi::Runtime::self();
        // The analyzer partition is appended last (below).
        const auto& analyzer = env.runtime->partitions().back();
        const int root_world = analyzer.first_world_rank +
                               an::reduce_root(*env.runtime, analyzer);
        // The tenant's history starts at its scheduled arrival.
        if (rc.clock < spec.arrival) rc.clock = spec.arrival;
        bool admitted = true;
        double t_admit = spec.arrival;
        an::TenantVerdict v;
        if (env.world_rank == 0) {
          an::TenantAttach att;
          att.app_id = spec.app_id;
          att.nprocs = spec.nprocs;
          att.arrival = spec.arrival;
          env.universe.psend(&att, sizeof att, root_world,
                             an::kTenantAttachTag);
          const auto st = env.universe.precv(&v, sizeof v, root_world,
                                             an::kTenantVerdictTag);
          if (st.error == 0) {
            admitted = v.admitted != 0;
            t_admit = v.t_admit;
          } else {
            // Admission root died: deterministic self-admit at arrival
            // (the root's crash-oracle books record the same verdict).
            v.app_id = spec.app_id;
            v.admitted = 1;
            v.t_admit = spec.arrival;
          }
          // Relay the verdict to the siblings over the partition comm.
          for (int r = 1; r < env.world.size(); ++r)
            env.world.psend(&v, sizeof v, r, an::kTenantVerdictTag);
        } else {
          const auto st = env.world.precv(&v, sizeof v, 0,
                                          an::kTenantVerdictTag);
          if (st.error == 0) {
            admitted = v.admitted != 0;
            t_admit = v.t_admit;
          }
          // Rank 0 died before relaying: self-admit at arrival, matching
          // both rank 0's fallback and the root's oracle sweep.
        }
        if (admitted) {
          if (rc.clock < t_admit) rc.clock = t_admit;
          if (tool_) tool_->note_admit(rc, t_admit);
          user_main(env);
        }
        if (env.world_rank == 0) {
          an::TenantDetach d;
          d.app_id = spec.app_id;
          d.t_release = rc.clock;
          env.universe.psend(&d, sizeof d, root_world, an::kTenantDetachTag);
        }
      };
    }
  }

  std::vector<mpi::ProgramSpec> progs = std::move(apps_);
  progs.push_back({cfg_.instrument.analyzer_partition, n_analyzer,
                   [acfg](mpi::ProcEnv& env) { an::run_analyzer(env, acfg); }});

  mpi::RuntimeConfig rcfg = cfg_.runtime;
  if (!cfg_.faults.empty()) rcfg.faults = cfg_.faults;
  if (el.enabled) {
    // Members are partition-relative. The runtime validates the resolved
    // plan into its one schedule when it is built below, so a bad plan
    // throws before any rank starts.
    rcfg.elastic = net::ElasticPlan{.events = el.plan,
                                    .spares = n_spares,
                                    .first_world = total_app_procs,
                                    .n_members = n_analyzer};
  }
  runtime_ = std::make_unique<mpi::Runtime>(rcfg, std::move(progs));
  tool_ = inst::attach_online_instrumentation(*runtime_, cfg_.instrument);
  runtime_->run();

  // Overlay the runtime's authoritative crash records: streams only see
  // deaths that break a link, while the runtime saw every one (including
  // ranks that died before opening their stream, and analyzer ranks).
  const auto deaths = runtime_->deaths();
  if (!deaths.empty()) {
    std::lock_guard lock(results->mu);
    const int analyzer_pid =
        static_cast<int>(runtime_->partitions().size()) - 1;
    for (const auto& d : deaths) {
      auto& dw = results->health.dead_world_ranks;
      if (std::find(dw.begin(), dw.end(), d.world_rank) == dw.end())
        dw.push_back(d.world_rank);
      const auto& part = runtime_->partition_of_world(d.world_rank);
      const int prank = d.world_rank - part.first_world_rank;
      if (part.id == analyzer_pid) {
        auto& v = results->health.dead_analyzer_ranks;
        if (std::find(v.begin(), v.end(), prank) == v.end())
          v.push_back(prank);
        continue;
      }
      auto it = results->apps.find(part.id);
      if (it != results->apps.end()) {
        auto& v = it->second.loss.dead_ranks;
        if (std::find(v.begin(), v.end(), prank) == v.end())
          v.push_back(prank);
      }
    }
    std::sort(results->health.dead_world_ranks.begin(),
              results->health.dead_world_ranks.end());
  }

  // Self-observability artifacts: metrics.json + trace.json land next to
  // the report (or in ESP_OBS_DIR). The gauges are set once here — they
  // summarize whole-run machine utilization, not a hot path.
  if (obs::enabled()) {
    obs::gauge("net.total_transfers")
        .set(static_cast<double>(runtime_->machine().total_transfers()));
    obs::gauge("net.bisection_busy_s")
        .set(runtime_->machine().bisection_busy());
    const std::string dir = obs::artifact_dir(cfg_.output_dir);
    if (!dir.empty() && ensure_directory(dir)) {
      obs::write_metrics_json(dir + "/metrics.json");
      obs::write_trace_json(dir + "/trace.json");
    }
  }
  return results;
}

double Session::application_walltime(int app_id) const {
  return runtime_->partition_walltime(app_id);
}

inst::InstrumentTotals Session::instrument_totals() const {
  return tool_ ? tool_->totals() : inst::InstrumentTotals{};
}

}  // namespace esp
