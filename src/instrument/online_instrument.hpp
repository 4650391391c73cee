#pragma once
/// \file online_instrument.hpp
/// \brief The online-coupling instrumentation tool (the paper's core
/// contribution): intercepts every MPI call via the tool chain, records a
/// fixed-size event, and streams 1 MB event packs to the analyzer
/// partition through VMPI streams — no trace file is ever written.
///
/// Perturbation model charged on the instrumented rank's virtual clock:
///  - `per_event_cost` CPU seconds per recorded event (timestamping and
///    the append into the staging pack);
///  - the stream write itself: block staging copy plus, when all N_A
///    asynchronous buffers are in flight, the wait for the analyzer to
///    catch up (backpressure) — this is where the Bi-vs-bandwidth
///    correlation of the paper's Fig. 15 comes from.

#include <map>
#include <memory>
#include <string>

#include "instrument/event.hpp"
#include "simmpi/runtime.hpp"
#include "vmpi/stream.hpp"

namespace esp::inst {

struct InstrumentConfig {
  std::string analyzer_partition = "analyzer";
  std::uint64_t block_size = 1u << 20;  ///< Event-pack/stream block size.
  int n_async = 3;
  vmpi::BalancePolicy policy = vmpi::BalancePolicy::RoundRobin;
  double per_event_cost = 1.0e-6;

  // ---- reader-liveness / failover passthrough (see StreamConfig) ----
  double hb_lease = 2e-3;
  double hb_interval = 5e-4;
  int resend_window = 4;

  // ---- overload-adaptive degradation ladder ----
  /// Step fidelity down when the producer outruns the analyzer: full
  /// events -> 1-in-N sampling -> per-window aggregated counters, and back
  /// up after clear windows. The pressure signal is the stream's
  /// backpressure-wait delta per flush window, judged in *virtual* time
  /// (a write stalled iff reclaiming its buffer advanced the writer's
  /// clock), so the adaptive ladder is as deterministic as the rest of
  /// the simulation. OFF by default because degrading changes what the
  /// report measures; `degrade_force_mode` pins a rung for tests and
  /// ablations.
  bool degrade = false;
  std::uint32_t degrade_stride = 8;  ///< 1-in-N stride at the Sampled rung.
  /// Pin the ladder to a rung (PackMode value 0/1/2); -1 = adaptive.
  int degrade_force_mode = -1;

  // ---- tenant fabric: per-tenant entry-rate budgets ----
  /// Events-per-virtual-second budget per partition id. A rank whose
  /// flush-window rate exceeds its partition's budget steps the ladder
  /// down even without backpressure, and the backpressure trigger is
  /// ignored for budgeted partitions — so a flooding tenant degrades
  /// alone while its well-behaved neighbours keep full fidelity.
  std::map<int, double> tenant_rate;
};

/// Aggregate counters across all instrumented ranks (read after run()).
struct InstrumentTotals {
  std::uint64_t events = 0;  ///< Recorded (shipped) event records.
  std::uint64_t packs = 0;
  std::uint64_t streamed_bytes = 0;
  std::uint64_t windows_full = 0;        ///< Packs flushed at full fidelity.
  std::uint64_t windows_sampled = 0;     ///< Packs flushed while sampling.
  std::uint64_t windows_aggregated = 0;  ///< Packs flushed while aggregating.
  std::uint64_t calls_sampled_out = 0;   ///< Calls skipped by the sampler.
  std::uint64_t calls_aggregated = 0;    ///< Calls folded into aggregates.
};

class OnlineInstrument : public mpi::Tool {
 public:
  OnlineInstrument(mpi::Runtime& rt, InstrumentConfig cfg);
  ~OnlineInstrument() override;

  void on_init(mpi::RankContext& rc) override;
  void on_call(mpi::RankContext& rc, const mpi::CallInfo& ci) override;
  void on_finalize(mpi::RankContext& rc) override;

  /// Record a POSIX-IO event for the calling rank (used by workloads that
  /// model checkpointing; reachable because instrumentation is active).
  static void record_posix(EventKind kind, std::uint64_t bytes,
                           double duration);

  /// Fabric hook: the calling rank's tenant was admitted at `t_admit`.
  /// Stamped into every subsequent pack header and used as the origin of
  /// the rank's entry-rate budget window.
  void note_admit(mpi::RankContext& rc, double t_admit);

  InstrumentTotals totals() const;
  const InstrumentConfig& config() const noexcept { return cfg_; }

 private:
  struct RankState;
  RankState& state(mpi::RankContext& rc);
  /// Route one observed call through the active ladder rung.
  void record(mpi::RankContext& rc, RankState& st, const Event& ev);
  void append(mpi::RankContext& rc, RankState& st, const Event& ev);
  void flush(mpi::RankContext& rc, RankState& st);
  /// Stamp the header and ship the staged pack (flush's write half).
  void write_pack(mpi::RankContext& rc, RankState& st);
  /// Re-evaluate the ladder after a flush (window boundary).
  /// `window_calls` is the call count of the window that just flushed.
  void ladder_update(mpi::RankContext& rc, RankState& st,
                     std::uint64_t window_calls);

  mpi::Runtime& rt_;
  InstrumentConfig cfg_;
  std::vector<std::unique_ptr<RankState>> states_;  ///< Indexed by world rank.
  std::uint64_t total_events_ = 0;
  std::uint64_t total_packs_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_windows_full_ = 0;
  std::uint64_t total_windows_sampled_ = 0;
  std::uint64_t total_windows_agg_ = 0;
  std::uint64_t total_sampled_out_ = 0;
  std::uint64_t total_aggregated_ = 0;
};

/// Attach online instrumentation to every partition except the analyzer.
/// Returns the tool for post-run inspection.
std::shared_ptr<OnlineInstrument> attach_online_instrumentation(
    mpi::Runtime& rt, InstrumentConfig cfg = {});

/// Perform a modelled POSIX IO of `duration` virtual seconds on the
/// calling rank. The time is always charged; an event is recorded only
/// when the rank is instrumented (mirroring an intercepted libc call).
void posix_io(EventKind kind, std::uint64_t bytes, double duration);

}  // namespace esp::inst
