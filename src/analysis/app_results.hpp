#pragma once
/// \file app_results.hpp
/// \brief Final per-application analysis products: what the paper's
/// profiling report contains (one chapter per instrumented application).

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/tenant.hpp"
#include "instrument/event.hpp"

namespace esp::an {

/// Flat slot index for every event kind (MPI kinds then POSIX kinds).
inline constexpr std::size_t kMpiKinds =
    static_cast<std::size_t>(mpi::CallKind::kCount);
inline constexpr std::size_t kKindSlots = kMpiKinds + 3;

constexpr std::size_t kind_slot(inst::EventKind k) noexcept {
  const auto v = static_cast<std::uint32_t>(k);
  if (v < kMpiKinds) return v;
  return kMpiKinds + (v - static_cast<std::uint32_t>(inst::EventKind::PosixOpen));
}

const char* kind_slot_name(std::size_t slot) noexcept;

/// Per-call-kind aggregate (the MPI interface profile).
struct KindStats {
  std::uint64_t hits = 0;
  double time = 0.0;
  std::uint64_t bytes = 0;
};

/// One cell of the point-to-point communication matrix, weighted "in hits,
/// total size and total time" (paper §IV-D).
struct CommCell {
  std::uint64_t hits = 0;
  std::uint64_t bytes = 0;
  double time = 0.0;
};

/// Density-map metrics (Fig. 18): one value per application rank.
enum class DensityMetric : std::size_t {
  SendHits = 0,     ///< Number of MPI_Send-family calls (Fig. 18a).
  P2pBytes,         ///< Total point-to-point size (Fig. 18b/e).
  WaitTime,         ///< Time in MPI wait calls (Fig. 18d).
  CollTime,         ///< Time in collectives (Fig. 18c).
  PosixBytes,       ///< POSIX IO volume.
  PosixTime,        ///< POSIX IO time.
  kCount,
};
inline constexpr std::size_t kDensityMetrics =
    static_cast<std::size_t>(DensityMetric::kCount);
const char* density_metric_name(DensityMetric m) noexcept;

/// Per-application temporal activity raster (§IV-D "temporal maps"):
/// rank x time-bin seconds spent inside instrumented calls.
struct TemporalMap {
  double bin_seconds = 5e-3;
  std::vector<std::vector<double>> per_rank;  ///< [rank][bin] seconds.

  std::size_t bins() const {
    std::size_t n = 0;
    for (const auto& r : per_rank) n = std::max(n, r.size());
    return n;
  }
};

/// Per-application wait-state summary (late-sender analysis).
struct WaitStates {
  /// Seconds of receive-side blocking beyond the modelled wire time.
  std::vector<double> late_time_per_rank;
  /// Aggregate wait-state seconds per (waiting rank << 32 | peer) pair.
  std::map<std::uint64_t, double> pair_wait;

  double total() const {
    double t = 0;
    for (double v : late_time_per_rank) t += v;
    return t;
  }
};

/// What the analyzer *failed* to learn about one application: the
/// data-loss ledger. Populated from stream framing (sequence gaps, CRC
/// failures) and the runtime's crash records, and carried through the
/// rank-0 reduction so the report can state how trustworthy it is.
struct LossLedger {
  std::vector<int> dead_ranks;  ///< App ranks that crashed mid-run.
  std::uint64_t blocks_lost = 0;       ///< Sequence gaps on event streams.
  std::uint64_t blocks_corrupted = 0;  ///< CRC/framing failures (discarded).
  std::uint64_t blocks_retried = 0;    ///< Corrupt blocks skipped-and-continued.
  /// Upper bound on events never analyzed: each lost or corrupt block
  /// could have carried a full pack.
  std::uint64_t events_dropped_estimate = 0;

  bool clean() const noexcept {
    return dead_ranks.empty() && blocks_lost == 0 && blocks_corrupted == 0;
  }
};

/// Transport-side telemetry for one application: how much event traffic
/// its stream links actually carried into the analyzer. Folded into the
/// report chapter so per-app numbers can be sanity-checked against the
/// loss ledger.
struct AppTelemetry {
  std::uint64_t stream_blocks = 0;  ///< Blocks delivered over app links.
  std::uint64_t stream_bytes = 0;   ///< Payload bytes delivered.
  std::uint64_t failover_joins = 0;   ///< Links adopted after a reader died.
  std::uint64_t blocks_replayed = 0;  ///< Resend-window blocks replayed onto them.
  /// Links adopted through planned elastic drain handoffs (clean by
  /// construction: charge nothing to the loss ledger).
  std::uint64_t planned_handoffs = 0;
};

/// Fidelity accounting for one application: how many of its event packs
/// arrived at each rung of the degradation ladder. Weighted (sampled /
/// aggregated) packs mean the profile is statistical, not exact — the
/// report flags it.
struct DegradeStats {
  std::uint64_t packs_full = 0;
  std::uint64_t packs_sampled = 0;
  std::uint64_t packs_aggregated = 0;

  bool degraded() const noexcept {
    return packs_sampled != 0 || packs_aggregated != 0;
  }
};

/// Tenant-fabric accounting for one application: its admission outcome,
/// what the per-tenant quotas shed, which blackboard work it was charged
/// for, and its event-to-flush latency distribution (the isolation
/// metric). Admission metadata is filled by the fabric root; the shed /
/// job / latency counters are reduced across analyzer ranks.
struct TenantStats {
  bool fabric = false;  ///< Ran under the tenant fabric at all.
  bool admitted = false;
  bool rejected = false;
  double arrival = 0.0;
  double t_admit = 0.0;
  double t_release = 0.0;
  bool released_by_death = false;  ///< Released by crashing, not detaching.
  std::uint64_t packs_shed = 0;   ///< Packs dropped by rate/job quotas.
  std::uint64_t events_shed = 0;  ///< Event records inside shed packs.
  std::uint64_t jobs_executed = 0;  ///< Blackboard jobs charged to it.
  std::uint64_t jobs_failed = 0;
  std::uint64_t ks_quarantined = 0;
  LatencyHist latency;  ///< Event-to-flush latency (virtual seconds).
};

/// Everything the analyzer learned about one application.
struct AppResults {
  int app_id = -1;
  std::string name;
  int size = 0;

  std::array<KindStats, kKindSlots> per_kind{};
  std::uint64_t total_events = 0;
  double last_event_time = 0.0;  ///< Max t_end seen (≈ app activity span).

  /// Sparse p2p matrix keyed (src << 32 | dst), src/dst app ranks.
  std::map<std::uint64_t, CommCell> comm;

  /// Per-rank density vectors, indexed by DensityMetric.
  std::array<std::vector<double>, kDensityMetrics> density;

  /// Extended analyses (populated when the analyzer enables them).
  TemporalMap temporal;
  WaitStates waits;

  /// What never made it into the numbers above.
  LossLedger loss;

  /// How the transport behaved while carrying it.
  AppTelemetry telemetry;

  /// At which fidelity it arrived (degradation ladder accounting).
  DegradeStats degrade;

  /// Its life as a fabric tenant (zero-initialized outside fabric mode).
  TenantStats tenant;

  static std::uint64_t comm_key(std::int32_t src, std::int32_t dst) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }
  static std::int32_t comm_src(std::uint64_t key) noexcept {
    return static_cast<std::int32_t>(key >> 32);
  }
  static std::int32_t comm_dst(std::uint64_t key) noexcept {
    return static_cast<std::int32_t>(key & 0xffffffffu);
  }
};

/// Whole-session engine telemetry, reduced over every analyzer rank:
/// how hard the measurement machinery itself worked.
struct SessionTelemetry {
  std::uint64_t jobs_executed = 0;      ///< Blackboard operation invocations.
  std::uint64_t batches_submitted = 0;  ///< Blackboard submission batches.
  std::uint64_t blocks_read = 0;        ///< Stream blocks drained.
  std::uint64_t bytes_read = 0;         ///< Stream payload bytes drained.
  std::uint64_t eagain_returns = 0;     ///< Empty non-blocking stream polls.
};

/// Whole-session degradation summary: did the measurement infrastructure
/// itself take damage, and is the report to be trusted?
struct SessionHealth {
  std::uint64_t jobs_failed = 0;     ///< Blackboard operations that threw.
  std::uint64_t ks_quarantined = 0;  ///< Knowledge sources removed for it.
  std::vector<int> dead_world_ranks;     ///< Every crashed rank (world ids).
  std::vector<int> dead_analyzer_ranks;  ///< Analyzer partition ranks lost.
  SessionTelemetry telemetry;

  // Tenant-fabric roll-up (all zero outside fabric mode).
  std::uint64_t tenants_admitted = 0;
  std::uint64_t tenants_rejected = 0;
  std::uint64_t tenant_packs_shed = 0;  ///< Packs dropped by quota shedding.

  // Elastic-membership roll-up (all zero under fixed membership).
  std::uint64_t membership_epochs = 0;  ///< Epochs in the elastic plan.
  std::uint64_t members_joined = 0;     ///< Warm-joins scheduled.
  std::uint64_t members_left = 0;       ///< Drain-and-leaves scheduled.
  std::uint64_t planned_handoffs = 0;   ///< Drain handoffs adopted (clean).
  std::uint64_t failover_joins = 0;     ///< Crash handoffs adopted.
  std::uint64_t join_announcements = 0; ///< Warm-join announces received.

  bool degraded() const noexcept {
    return jobs_failed != 0 || ks_quarantined != 0 ||
           !dead_world_ranks.empty();
  }
};

/// Thread-safe sink filled by analyzer rank 0 after the final reduction;
/// gives tests and benches programmatic access to the report content.
struct AnalysisResults {
  std::mutex mu;
  std::map<int, AppResults> apps;  ///< Keyed by app (partition) id.
  SessionHealth health;

  AppResults* find(int app_id) {
    auto it = apps.find(app_id);
    return it == apps.end() ? nullptr : &it->second;
  }
};

}  // namespace esp::an
