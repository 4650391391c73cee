#pragma once
/// \file fault.hpp
/// \brief Deterministic fault injection for the simulated machine/runtime.
///
/// Online coupling removes the file-system safety net: when a producer
/// rank dies mid-run or a link flips a bit, the consumer must degrade
/// gracefully instead of hanging or silently mis-reporting. This header
/// defines the *schedule* of such failures — a `FaultPlan` the runtime
/// executes deterministically — and the `FaultInjector` that turns the
/// plan into per-message / per-rank decisions.
///
/// Determinism contract: every per-message decision is a pure hash of
/// (seed, src, dst, tag, sender sequence number), and rank crashes fire
/// either at a virtual time or after an exact per-rank call count. The
/// same seed therefore reproduces the identical fault schedule — and the
/// identical data-loss ledger — on every run, regardless of thread
/// interleaving.

#include <cstdint>
#include <limits>
#include <vector>

namespace esp::net {

/// Wildcard world rank for link-fault endpoints.
inline constexpr int kAnyRank = -1;

/// VMPI stream data traffic rides a reserved tag range (see
/// src/vmpi/stream.cpp). Link faults target only it, so a fault plan
/// cannot deadlock internal collectives or control handshakes by accident.
inline constexpr int kStreamDataTagBase = 0x6f200000;
inline constexpr int kStreamDataTagEnd = 0x6f2fffff;

constexpr bool is_stream_data_tag(int tag) noexcept {
  return tag >= kStreamDataTagBase && tag <= kStreamDataTagEnd;
}

/// The declarative failure schedule, reproducible from its seed.
struct FaultPlan {
  /// Kill one rank: at the first instrumentable call once its virtual
  /// clock reaches `at_time`, or after exactly `after_calls` p-layer
  /// calls (deterministic across runs), whichever comes first.
  struct RankCrash {
    int world_rank = -1;
    double at_time = std::numeric_limits<double>::infinity();
    std::uint64_t after_calls = std::numeric_limits<std::uint64_t>::max();
    /// When true, `world_rank` is a rank *within the analyzer partition*
    /// rather than a world rank — the analyzer's world ranks depend on the
    /// application mix, which the plan author does not know. The session
    /// resolves the entry to its world rank (and clears the flag) before
    /// configuring the runtime; an unresolved entry is ignored by the
    /// injector so a plan cannot accidentally kill an application rank.
    bool analyzer_rank = false;
  };

  /// Per-link message faults; `kAnyRank` endpoints are wildcards. They
  /// touch only VMPI stream data messages (a dead rank, by contrast, takes
  /// all of its traffic with it). Probabilities are evaluated
  /// independently per message via a seeded hash, so they commute and
  /// reproduce exactly.
  struct LinkFault {
    int src_world = kAnyRank;
    int dst_world = kAnyRank;
    double drop_probability = 0.0;     ///< Message silently vanishes.
    double corrupt_probability = 0.0;  ///< One payload bit is flipped.
    double delay_probability = 0.0;    ///< Departure delayed by delay_seconds.
    double delay_seconds = 0.0;
  };

  std::vector<RankCrash> crashes;
  std::vector<LinkFault> links;

  bool empty() const noexcept { return crashes.empty() && links.empty(); }
};

/// Planned elastic-membership schedule for the analyzer partition: the
/// same declarative shape as FaultPlan, but the events are *planned*
/// grow/shrink transitions, not failures. A leave is a drain-and-leave
/// (handoff with resend-ring replay, zero loss for a clean drain); a join
/// is a warm-join (writers re-route new packs at the epoch boundary).
///
/// Member indexes are analyzer-partition-relative — the plan author does
/// not know the analyzer's world ranks, which depend on the application
/// mix. The session resolves the plan (fills `first_world`/`n_members`)
/// before configuring the runtime, exactly like RankCrash.analyzer_rank.
struct ElasticPlan {
  struct Event {
    double at_time = 0.0;  ///< Virtual time of the epoch boundary.
    int member = -1;       ///< Analyzer-partition-relative member index.
    bool join = true;      ///< true = warm-join; false = drain-and-leave.
  };

  std::vector<Event> events;
  /// Extra analyzer ranks launched *inactive* (no initial endpoints);
  /// joins activate them. Counted inside `n_members` once resolved.
  int spares = 0;

  // Resolved by the session before the runtime is configured:
  int first_world = -1;  ///< World rank of analyzer member 0.
  int n_members = 0;     ///< Total analyzer ranks (base + spares).

  bool resolved() const noexcept { return first_world >= 0 && n_members > 0; }
  bool active() const noexcept { return !events.empty() || spares > 0; }
};

/// Validated, queryable form of an ElasticPlan: the per-epoch active
/// member sets, precomputed once so every membership decision is a pure
/// O(log) lookup on (virtual time) -> (epoch) -> (active set). The
/// runtime builds the one schedule of a run (mpi::Runtime::elastic()) and
/// every module reads it, so all epoch transitions agree bit-exactly.
class ElasticSchedule {
 public:
  ElasticSchedule() = default;
  /// Throws std::invalid_argument on an inconsistent plan (out-of-range
  /// member, join of an already-active member, leave of an inactive one,
  /// an epoch with no active member, or no initially-active member that
  /// stays for the whole run — the reduction needs a stable root).
  explicit ElasticSchedule(const ElasticPlan& plan);

  bool enabled() const noexcept { return enabled_; }
  int n_members() const noexcept { return plan_.n_members; }
  int first_world() const noexcept { return plan_.first_world; }

  /// Epochs are numbered 0..epoch_count()-1; each event opens a new one.
  int epoch_count() const noexcept { return static_cast<int>(active_.size()); }
  /// Epoch in effect at virtual time `t` (boundaries are inclusive: the
  /// event at `at_time` belongs to the epoch it opens).
  int epoch_at(double t) const noexcept;
  /// Virtual time at which `epoch` opened (0 for epoch 0).
  double epoch_time(int epoch) const noexcept;
  /// The event that opened `epoch` (epoch >= 1).
  const ElasticPlan::Event& event_opening(int epoch) const {
    return events_[static_cast<std::size_t>(epoch - 1)];
  }

  /// Active member indexes during `epoch`, ascending.
  const std::vector<int>& active_at(int epoch) const {
    return active_[static_cast<std::size_t>(epoch)];
  }
  bool is_active(int member, int epoch) const noexcept;

  int member_of_world(int world) const noexcept {
    const int m = world - plan_.first_world;
    return m >= 0 && m < plan_.n_members ? m : -1;
  }
  int world_of_member(int member) const noexcept {
    return plan_.first_world + member;
  }
  bool contains_world(int world) const noexcept {
    return member_of_world(world) >= 0;
  }

  int joins() const noexcept { return joins_; }
  int leaves() const noexcept { return leaves_; }
  /// True when `member` has any scheduled leave — such a member must not
  /// be chosen as reduction root or crash-failover successor for streams
  /// that outlive its tenure.
  bool ever_leaves(int member) const noexcept;

 private:
  bool enabled_ = false;
  ElasticPlan plan_;
  std::vector<ElasticPlan::Event> events_;  ///< Sorted (at_time, member).
  std::vector<std::vector<int>> active_;    ///< Per-epoch active sets.
  int joins_ = 0;
  int leaves_ = 0;
};

/// Aggregate injection counters (diagnostics; read after run()).
struct FaultStats {
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_corrupted = 0;
  std::uint64_t messages_delayed = 0;
};

/// Executes a FaultPlan: answers "what happens to this message?" and
/// "when does this rank die?" purely from hashed plan state.
class FaultInjector {
 public:
  FaultInjector() = default;

  void configure(const FaultPlan& plan, std::uint64_t seed);

  bool enabled() const noexcept { return enabled_; }
  bool has_link_faults() const noexcept { return enabled_ && !plan_.links.empty(); }

  /// Outcome for one message; fields combine (a delayed message may also
  /// be corrupted; a dropped one never arrives at all).
  struct Decision {
    bool drop = false;
    double delay = 0.0;
    std::int64_t corrupt_bit = -1;  ///< Bit index into the payload, or -1.
  };

  /// Deterministic per-message verdict. `seq` is the sender-side sequence
  /// number, which is program-ordered and thus stable across runs.
  Decision on_message(int src_world, int dst_world, int tag,
                      std::uint64_t seq, std::uint64_t bytes) const;

  /// Virtual-time crash deadline for a rank (+inf when it never crashes).
  double crash_time(int world_rank) const noexcept;
  /// Call-count crash deadline for a rank (UINT64_MAX when none).
  std::uint64_t crash_after_calls(int world_rank) const noexcept;
  /// True when the plan schedules any crash for `world_rank`.
  bool has_crash(int world_rank) const noexcept {
    return crash_time(world_rank) !=
               std::numeric_limits<double>::infinity() ||
           crash_after_calls(world_rank) !=
               std::numeric_limits<std::uint64_t>::max();
  }

  FaultStats stats() const;

 private:
  bool enabled_ = false;
  FaultPlan plan_;
  std::uint64_t seed_ = 0;
  mutable std::uint64_t dropped_ = 0;
  mutable std::uint64_t corrupted_ = 0;
  mutable std::uint64_t delayed_ = 0;
};

}  // namespace esp::net
