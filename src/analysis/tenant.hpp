#pragma once
/// \file tenant.hpp
/// \brief The multi-tenant analyzer fabric: session admission, per-tenant
/// quotas, and the attach/detach control protocol.
///
/// The paper's multi-level blackboard exists so *many* instrumented
/// applications can share one analysis engine; this module turns the
/// analyzer partition into a long-lived fabric that admits and releases
/// instrumented app sessions dynamically:
///
///  - Tenants arrive on a (virtual-time) schedule. Each tenant's rank 0
///    sends a TenantAttach over a reserved control tag to the fabric's
///    admission root, blocks for the TenantVerdict, relays it to its
///    siblings over the partition communicator, and only then runs the
///    user workload (rejected tenants skip it). After the workload, rank 0
///    sends TenantDetach carrying its release time.
///  - The admission root interleaves control-plane polling with its
///    normal stream-read loop and decides admissions strictly in
///    (arrival, app_id) order from deterministic virtual-time facts only:
///    attach arrivals, detach release times, and the fault injector's
///    crash oracle. Saturation delays a decision until the releases it
///    depends on are known; the verdict itself is therefore a pure
///    function of the seed, never of host scheduling.
///  - Control messages are *out-of-band*: every control-plane send/recv
///    on the root runs under a clock warp (save, act, restore) so the
///    fabric never leaks nondeterministic wall-progress into any rank's
///    virtual clock. A tenant's clock moves only via the deterministic
///    admit time carried in the verdict payload.
///
/// Control tags live outside the fault-injected stream data range
/// [kStreamDataTagBase, kStreamDataTagEnd), like the stream control
/// tags: link noise never drops an admission handshake.

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "simmpi/runtime.hpp"

namespace esp::an {

/// Reserved fabric control tags (next to the stream control tags
/// 0x6f100000/0x6f100001; outside the injected data-tag range).
inline constexpr int kTenantAttachTag = 0x6f100002;
inline constexpr int kTenantVerdictTag = 0x6f100003;
inline constexpr int kTenantDetachTag = 0x6f100004;

/// Per-tenant resource quotas. Zero means "unlimited" for every field.
struct TenantQuota {
  /// Blackboard entry-rate budget, recorded calls per virtual second.
  /// Drives both the writer-side degradation ladder (a tenant that
  /// outruns its own budget degrades alone) and the analyzer-side
  /// shedding token bucket.
  double entry_rate = 0.0;
  /// Token-bucket depth for the analyzer-side shedding decision, in
  /// events: short bursts above entry_rate are absorbed, sustained
  /// flooding is shed and charged to the tenant's ledger.
  double burst_events = 65536.0;
};

/// One tenant as the fabric sees it: identity, shape, schedule, budget.
struct TenantSpec {
  int app_id = -1;       ///< Partition id of the tenant.
  int nprocs = 0;        ///< Ranks in the tenant's partition.
  int rank0_world = -1;  ///< Universe rank of the tenant's rank 0.
  double arrival = 0.0;  ///< Virtual arrival time (attach is sent here).
  TenantQuota quota;
};

/// Fabric-wide admission configuration, shared by the Session (which
/// builds it) and the analyzer root (which enforces it).
struct FabricConfig {
  bool enabled = false;
  /// Concurrent-tenant ceiling; 0 = unlimited.
  int max_active = 0;
  /// Reject a queued attach once its admission would be delayed past
  /// arrival + max_admission_delay (virtual seconds); 0 = never reject.
  double max_admission_delay = 0.0;
  /// > 0 under an elastic membership plan: the concurrent-tenant ceiling
  /// at any candidate admit time t is this many tenants per analyzer
  /// member *active at t* (composed with max_active by min). A planned
  /// shrink therefore re-queues later arrivals deterministically; it
  /// never evicts an admitted tenant.
  int max_active_per_member = 0;
  std::vector<TenantSpec> tenants;

  const TenantSpec* find(int app_id) const {
    for (const auto& t : tenants)
      if (t.app_id == app_id) return &t;
    return nullptr;
  }
};

// ---------------------------------------------------------------------------
// Wire structs (trivially copyable; sent raw like FailoverCtl).
// ---------------------------------------------------------------------------

struct TenantAttach {
  std::int32_t app_id = -1;
  std::int32_t nprocs = 0;
  double arrival = 0.0;
};
static_assert(std::is_trivially_copyable_v<TenantAttach>);

struct TenantVerdict {
  std::int32_t app_id = -1;
  std::int32_t admitted = 0;  ///< 1 = run the workload, 0 = rejected.
  double t_admit = 0.0;       ///< Deterministic admit (or reject) time.
};
static_assert(std::is_trivially_copyable_v<TenantVerdict>);

struct TenantDetach {
  std::int32_t app_id = -1;
  std::int32_t pad = 0;
  double t_release = 0.0;  ///< Rank 0's clock at workload completion.
};
static_assert(std::is_trivially_copyable_v<TenantDetach>);

// ---------------------------------------------------------------------------
// Event-to-flush latency histogram (virtual time).
// ---------------------------------------------------------------------------

/// 64-bucket base-2 log histogram over [1 ns, ~16 s). All-integer and
/// order-independent, so per-tenant merges across analyzer ranks are
/// bit-deterministic. Used for the isolation gate: a flooding neighbour
/// must not move a well-behaved tenant's p99.
struct LatencyHist {
  std::array<std::uint64_t, 64> bins{};
  std::uint64_t count = 0;

  static int bucket(double seconds) noexcept {
    if (seconds <= 1e-9) return 0;
    int b = 0;
    double edge = 1e-9;
    while (b < 63 && seconds >= edge * 2.0) {
      edge *= 2.0;
      ++b;
    }
    return b;
  }
  void add(double seconds, std::uint64_t weight) {
    bins[static_cast<std::size_t>(bucket(seconds))] += weight;
    count += weight;
  }
  void merge(const LatencyHist& o) {
    for (std::size_t i = 0; i < bins.size(); ++i) bins[i] += o.bins[i];
    count += o.count;
  }
  /// Quantile in seconds, linearly interpolated within the hit bucket.
  double quantile(double q) const {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      if (bins[i] == 0) continue;
      const double next = cum + static_cast<double>(bins[i]);
      if (next >= target) {
        const double lo = 1e-9 * static_cast<double>(1ull << i);
        const double frac =
            (target - cum) / static_cast<double>(bins[i]);
        return lo * (1.0 + frac);  // linear within the octave
      }
      cum = next;
    }
    return 1e-9 * static_cast<double>(1ull << 63);
  }
};

// ---------------------------------------------------------------------------
// Admission controller (runs on the fabric root's rank).
// ---------------------------------------------------------------------------

class AdmissionController {
 public:
  /// What the root learned about one tenant, folded into the report.
  struct Record {
    double arrival = 0.0;
    double t_admit = 0.0;
    double t_release = 0.0;
    bool attached = false;
    bool decided = false;
    bool admitted = false;
    bool released = false;
    bool released_by_death = false;  ///< Release learned from the crash oracle.
  };

  AdmissionController(mpi::ProcEnv& env, FabricConfig cfg);

  /// Drain pending control messages, decide every decidable admission,
  /// send verdicts (clock-warped). Non-blocking; call from the read
  /// loop. Returns true once every configured tenant has attached, been
  /// decided, and (if admitted) released — i.e. the fabric is drained.
  bool poll(mpi::RankContext& rc);

  const std::map<int, Record>& records() const { return records_; }
  int admitted_count() const { return admitted_total_; }
  int rejected_count() const { return rejected_total_; }

 private:
  void drain_control(mpi::RankContext& rc);
  void decide(mpi::RankContext& rc);
  bool release_known(int app_id, double* when) const;

  mpi::ProcEnv& env_;
  FabricConfig cfg_;
  std::map<int, Record> records_;
  std::vector<int> pending_;  ///< Attached, undecided app ids.
  int admitted_total_ = 0;
  int rejected_total_ = 0;
};

/// Seeded Poisson arrival schedule: `n` arrivals with exponential gaps of
/// mean `mean_gap` starting at `start`. Deterministic per seed (splitmix
/// generator; no global RNG state).
std::vector<double> poisson_schedule(std::uint64_t seed, int n,
                                     double mean_gap, double start = 0.0);

}  // namespace esp::an
