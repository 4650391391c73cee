#pragma once
/// \file session.hpp
/// \brief The esperf public façade: profile one or more applications with
/// online coupling in a single call.
///
/// A Session assembles the full MPMD job of Fig. 10: every added
/// application becomes a partition, a dimensioned analyzer partition is
/// appended, online instrumentation is attached to all application
/// partitions, and run() executes everything and returns the per-
/// application analysis results (the content of the paper's profiling
/// report, one chapter per application).
///
///   esp::Session session;
///   session.add_application("solver", 16, my_main);
///   auto results = session.run();
///   results->find(0)->per_kind[...];

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "instrument/online_instrument.hpp"
#include "simmpi/runtime.hpp"

namespace esp {

struct SessionConfig {
  /// Instrumented processes per analyzer process (paper: ratios between
  /// 1 and 32 are practical; 10 is a good bandwidth-resource trade-off).
  int analyzer_ratio = 8;
  /// Report directory; empty keeps results in memory only.
  std::string output_dir;
  inst::InstrumentConfig instrument;
  an::AnalyzerConfig analyzer;
  mpi::RuntimeConfig runtime;
  /// Deterministic fault schedule for the whole job (crashes, link drops,
  /// corruption); run() completes and the results carry a data-loss
  /// ledger under any plan. Seeded by `runtime.seed`.
  net::FaultPlan faults;

  /// Tenant-fabric options: when enabled, applications become dynamically
  /// admitted tenants — each arrives on a schedule, attaches to the
  /// fabric's admission root, and runs only if admitted under the
  /// per-tenant quotas. Tenants' knowledge sources share the blackboard
  /// under deficit-style fair-share scheduling.
  struct TenantOptions {
    bool enabled = false;
    /// > 0: derive arrivals from a seeded Poisson schedule with this mean
    /// inter-arrival gap (virtual seconds). Explicit entries in `arrival`
    /// win over the schedule.
    double mean_arrival_gap = 0.0;
    std::map<int, double> arrival;          ///< Per-app arrival overrides.
    std::map<int, an::TenantQuota> quota;   ///< Per-app quota overrides.
    an::TenantQuota default_quota;          ///< Applied where no override.
    int max_active = 0;                     ///< Concurrent-tenant ceiling.
    double max_admission_delay = 0.0;       ///< Queue-then-reject horizon.
  } tenants;

  /// Elastic-membership options: when enabled, the analyzer partition
  /// grows and shrinks at planned virtual times. Spares are launched with
  /// the partition but stay inactive until a `join` event; a `leave`
  /// event drains the member's streams to successors (clean by
  /// construction) before it departs.
  struct ElasticOptions {
    bool enabled = false;
    /// Extra analyzer ranks launched inactive, available to join events.
    int spares = 0;
    /// Membership events; members are analyzer-partition ranks.
    std::vector<net::ElasticPlan::Event> plan;
    /// > 0: the admission ceiling scales with membership — at any
    /// candidate admit time, at most this many concurrent tenants per
    /// *active* analyzer member.
    int max_active_per_member = 0;
  } elastic;
};

/// One-stop profiling session. Not reusable: build, add, run once.
class Session {
 public:
  explicit Session(SessionConfig cfg = {});

  /// Register an application partition; returns its application id.
  int add_application(std::string name, int nprocs, mpi::ProgramMain main);

  /// Launch applications + analyzer; blocks until every partition
  /// finished; returns the merged analysis results.
  std::shared_ptr<an::AnalysisResults> run();

  // Post-run queries.
  double application_walltime(int app_id) const;
  inst::InstrumentTotals instrument_totals() const;
  const mpi::Runtime& runtime() const { return *runtime_; }

 private:
  SessionConfig cfg_;
  std::vector<mpi::ProgramSpec> apps_;
  std::unique_ptr<mpi::Runtime> runtime_;
  std::shared_ptr<inst::OnlineInstrument> tool_;
  bool ran_ = false;
};

}  // namespace esp
