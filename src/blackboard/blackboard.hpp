#pragma once
/// \file blackboard.hpp
/// \brief The parallel blackboard: a data-centric task engine (paper §II-B,
/// §III-B, Fig. 13).
///
/// Faithful to the paper's definitions:
///  - a Data Entry is a tuple {Type, Size, Payload} — here a 64-bit type id
///    plus a ref-counted byte buffer;
///  - a Knowledge Source is {{Sensitivities}, Operation}: a multiset of
///    type ids that trigger a function over the collected entries. A KS
///    may have several sensitivities of the same type, may submit entries,
///    and may register or remove KSs, including itself (the paper's
///    simplified opportunistic reasoning);
///  - the control system only matches sensitivities: a submitted entry is
///    looked up in the sensitivity hash table, queued on the matching KS,
///    and when it satisfies the last open sensitivity a Job
///    {{Data entries}, Operation} becomes runnable;
///  - data entries are read-mostly and managed by ref-counting: a payload
///    is writable only while its ref-count is one; buffers are freed
///    automatically once every processing that references them completes,
///    which is what lets the blackboard act as the temporary storage that
///    frees stream buffers without blocking instrumented processes;
///  - multi-level blackboards use type ids hashed from (level, type name),
///    so the same KS graph can be instantiated once per application level
///    (Fig. 5).
///
/// Scheduling follows the paper: "an array of lock-protected FIFOs …
/// swept by a worker pool" (Fig. 13, bench/ablation_blackboard.cpp). The
/// pool is the process's one helper pool (common/helpers.hpp), shared by
/// every board and by the streams' byte work; a board owns no thread:
///  - every runnable job goes to a random FIFO, and every grab of a sweep
///    starts at a random FIFO, so producers and sweeps spread over
///    `fifo_count` locks instead of convoying on one;
///  - an enqueue posts a sweep of the board to the pool while fewer than
///    `workers` of its sweeps hold a slot; a sweep runs jobs until it finds
///    the array empty, then retires with a re-check, so no job is left
///    behind and no sweep idles;
///  - drain() runs queued jobs on the calling thread too, in the same
///    sweep order, then waits for the jobs still running;
///  - under `fair_share` (tenant fabric) a batch with an affinity key
///    goes to its tenant's FIFO and the sweep start rotates, so each
///    tenant with queued work gets a one-job quantum per round;
///  - the sensitivity hash table is sharded 16 ways by TypeId so concurrent
///    submissions (stream readers, unpackers, KS operations) do not
///    serialize on one shared_mutex;
///  - submit_batch() amortizes one index lookup and one KS lock over a
///    whole event pack instead of paying them per event.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/hash.hpp"

namespace esp::bb {

/// Type identifier of a data entry; stable hash of (level, type name).
using TypeId = std::uint64_t;

/// Global (level-less) type id.
inline TypeId type_id(std::string_view type_name) { return fnv1a(type_name); }

/// Multi-level type id: identical KSs and data types can coexist in
/// multiple blackboard levels (paper: "computed as a hash of both level and
/// data-type names").
inline TypeId type_id(std::string_view level, std::string_view type_name) {
  return hash_combine(fnv1a(level), fnv1a(type_name));
}

/// The paper's {Type, Size, Payload} tuple. Size lives in the buffer.
struct DataEntry {
  TypeId type = 0;
  BufferRef payload;

  DataEntry() = default;
  DataEntry(TypeId t, BufferRef p) : type(t), payload(std::move(p)) {}

  /// Build an entry holding a copy of a trivially-copyable value.
  template <typename T>
  static DataEntry of(TypeId t, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return DataEntry(t, Buffer::copy_of(&value, sizeof value));
  }

  std::uint64_t size() const noexcept { return payload ? payload->size() : 0; }
  /// Typed view of the payload. A truncated or missing payload (e.g. a
  /// corrupt entry that slipped past transport checks) fails loudly here
  /// instead of reading out of bounds.
  template <typename T>
  const T& as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!payload || payload->size() < sizeof(T))
      throw std::length_error("DataEntry::as<T>: payload smaller than T");
    return *reinterpret_cast<const T*>(payload->data());
  }
};

class Blackboard;

/// A KS operation: runs on a helper-pool thread, or on a thread in drain(),
/// with the satisfied entries (in sensitivity declaration order) and the
/// blackboard for submissions.
using Operation =
    std::function<void(Blackboard&, std::span<const DataEntry>)>;

/// Registration handle.
using KsId = std::uint64_t;

struct KsSpec {
  std::string name;
  std::vector<TypeId> sensitivities;  ///< Multiset; duplicates allowed.
  Operation operation;
  /// Owning tenant (application/partition id) for fabric accounting and
  /// fault containment; -1 = shared infrastructure (e.g. the dispatcher).
  int tenant = -1;
};

struct BlackboardConfig {
  /// At most this many of the board's jobs run at once: the board's share
  /// of the helper pool.
  int workers = 4;
  /// Width of the job-FIFO array (the paper's Fig. 13).
  int fifo_count = 16;
  /// A KS whose operation throws this many times *consecutively* is
  /// quarantined (removed) so one broken analysis module cannot starve
  /// the pool; a single success resets the streak.
  int quarantine_threshold = 3;
  /// Fair-share service (tenant fabric): batches with an affinity key
  /// k >= 0 all go to FIFO k mod fifo_count, and the board rotates its
  /// sweep start by one per grab — a deficit-style one-job quantum per
  /// queue, so one flooding tenant cannot starve the others. Off, the
  /// affinity key is ignored: a single-app run must not pile every job
  /// onto one FIFO lock.
  bool fair_share = false;
};

/// Engine counters. A snapshot taken by stats() while jobs are running
/// is necessarily a moment-in-time read of independently updated atomics,
/// but it is never *torn* with respect to the subset relations below: the
/// writers increment the superset counter before the subset counter and
/// stats() reads the subset counters first (all with seq_cst ordering), so
/// every snapshot satisfies
///   jobs_failed      <= jobs_executed
///   ks_quarantined   <= ks_removed <= ks_registered
///   batches_submitted <= entries_pushed
/// (ks_removed <= ks_registered additionally relies on register_ks
/// counting *before* the KS becomes visible to remove_ks).
struct BlackboardStats {
  std::uint64_t entries_pushed = 0;
  std::uint64_t jobs_executed = 0;
  std::uint64_t ks_registered = 0;
  std::uint64_t ks_removed = 0;
  std::uint64_t jobs_failed = 0;     ///< Operations that threw.
  std::uint64_t ks_quarantined = 0;  ///< KSs removed for repeated failure.
  std::uint64_t batches_submitted = 0;  ///< submit_batch calls (incl. push).
};

/// The engine. The destructor stops it (see stop()).
class Blackboard {
 public:
  /// Throws std::invalid_argument on a non-positive worker, FIFO or
  /// quarantine-threshold count (a zero-width share would hang, a
  /// zero-width FIFO array was UB).
  explicit Blackboard(BlackboardConfig cfg = {});
  ~Blackboard();

  Blackboard(const Blackboard&) = delete;
  Blackboard& operator=(const Blackboard&) = delete;

  /// Register a knowledge source; thread-safe, callable from operations.
  KsId register_ks(KsSpec spec);
  /// Remove a knowledge source; safe from inside its own operation.
  void remove_ks(KsId id);

  /// Submit a data entry; triggers matching sensitivities.
  void push(DataEntry entry);
  void push(TypeId type, BufferRef payload) {
    push(DataEntry(type, std::move(payload)));
  }

  /// Submit a batch of entries in one shot: the sensitivity lookup is
  /// cached per type and each matching KS is locked once for the whole
  /// batch, so one lock acquisition amortizes over an event pack instead
  /// of being paid per event. Entry order is preserved (FIFO pairing
  /// semantics are identical to an equivalent sequence of push() calls);
  /// a KS registered concurrently with a batch may observe the batch
  /// atomically (all entries or none).
  void submit_batch(std::span<const DataEntry> entries);

  /// Tenant-affine batch submission: under `fair_share`, batches sharing
  /// an affinity key (>= 0) always land in the same FIFO, so the rotating
  /// sweep services tenants round-robin. Without `fair_share`, or with
  /// affinity -1, this is submit_batch(entries).
  void submit_batch(std::span<const DataEntry> entries, int affinity);

  /// Block until no jobs are queued or running, running queued jobs on the
  /// calling thread meanwhile in one of the `workers` slots: a free one, or
  /// that of a posted sweep the pool has not started. Entries held by
  /// partially satisfied multi-sensitivity KSs are not runnable work and
  /// stay queued.
  void drain();

  // ---- tenant fabric: per-tenant accounting + containment teardown ----

  /// Engine counters attributed to one tenant (see KsSpec::tenant).
  struct TenantCounters {
    std::uint64_t ks_registered = 0;
    std::uint64_t ks_removed = 0;
    std::uint64_t ks_quarantined = 0;
    std::uint64_t jobs_executed = 0;
    std::uint64_t jobs_failed = 0;
  };
  /// Counters for one tenant, live and retired KSs combined.
  TenantCounters tenant_counters(int tenant) const;

  /// Fault-containment teardown: remove every KS owned by `tenant`,
  /// folding its job counters into the retired ledger so the tenant's
  /// report chapter keeps its history. Returns the number of KSs
  /// removed. Call only after drain() for the tenant's traffic — jobs
  /// queued for a removed KS are skipped, which would silently drop the
  /// tenant's tail entries.
  int remove_tenant(int tenant);

  /// drain(), then return once no pool task can touch the board again.
  /// The destructor calls it.
  void stop();

  BlackboardStats stats() const;

 private:
  struct KsState {
    KsId id = 0;
    std::string name;
    std::vector<TypeId> sensitivities;
    Operation operation;
    int tenant = -1;
    std::atomic<bool> alive{true};
    std::atomic<int> consecutive_failures{0};
    /// Per-KS job counts, folded into the tenant ledger at removal.
    std::atomic<std::uint64_t> jobs_run{0};
    std::atomic<std::uint64_t> jobs_thrown{0};

    /// Pending entries per type + needed multiplicity per type.
    std::mutex mu;
    std::unordered_map<TypeId, std::deque<DataEntry>> pending;
    std::unordered_map<TypeId, std::size_t> multiplicity;
  };

  /// A runnable chunk: one or more satisfied sensitivity groups of a
  /// single KS, concatenated. Batched submission produces one chunk per
  /// (KS, batch) — one allocation and one queue operation amortize over
  /// the whole batch; the sweep invokes the operation once per
  /// arity-sized group.
  struct Job {
    std::shared_ptr<KsState> ks;
    std::vector<DataEntry> entries;  ///< groups * arity entries.
    std::uint32_t arity = 1;         ///< Entries per operation invocation.
    /// Intrusive link of the FIFO chain while queued.
    Job* link = nullptr;
  };

  /// One lock-protected FIFO of the scheduler array, intrusively chained
  /// through Job::link so queue operations never allocate.
  struct Fifo {
    std::mutex mu;
    Job* head = nullptr;
    Job* tail = nullptr;
  };

  /// One shard of the sensitivity hash table. Cache-line aligned: shards
  /// sit contiguously in a vector and are locked from many threads, so an
  /// unaligned shard would false-share its neighbour's shared_mutex.
  struct alignas(64) IndexShard {
    mutable std::shared_mutex mu;
    std::unordered_map<TypeId, std::vector<std::shared_ptr<KsState>>> map;
  };

  /// Sensitivity-index shard count (a power of two).
  static constexpr std::size_t kIndexShards = 16;

  IndexShard& shard_of(TypeId t) noexcept {
    return index_shards_[mix64(t) & (kIndexShards - 1)];
  }

  void enqueue_batch(std::vector<Job*>& jobs, int affinity);
  /// Post a sweep per new job while free slots last.
  void post_sweeps(std::size_t jobs);
  /// Pool entry point of a posted sweep (`arg` is the board).
  static void sweep_task(void* arg);
  /// Run jobs while any is queued, then give the slot back; true when it
  /// ran one.
  bool sweep();
  /// Where a grab starts its scan: rotating under fair share, random
  /// otherwise (paper Fig. 13).
  std::size_t sweep_start();
  void push_fifo(std::size_t qi, Job* job);
  Job* pop_fifo(std::size_t qi);
  /// Scan the whole FIFO array once, starting at `start`.
  Job* next_job(std::size_t start);
  void execute(Job* job);

  /// Reusable per-thread submit_batch scratch (defined in the .cpp).
  struct BatchScratch;
  static BatchScratch& scratch();

  BlackboardConfig cfg_;

  // Sharded sensitivity hash table: type id -> interested KSs.
  std::array<IndexShard, kIndexShards> index_shards_;
  // KS registry (registration bookkeeping only; not on the submit path).
  mutable std::mutex registry_mu_;
  std::unordered_map<KsId, std::shared_ptr<KsState>> ks_by_id_;
  std::atomic<KsId> next_ks_id_{1};

  // Tenant ledger: registration/removal/quarantine counts plus the job
  // counters of retired KSs (live KS jobs are summed at query time).
  mutable std::mutex tenant_mu_;
  std::unordered_map<int, TenantCounters> tenant_ledger_;

  std::vector<std::unique_ptr<Fifo>> fifos_;
  std::atomic<std::uint64_t> rr_seed_{0x1234};
  std::atomic<std::uint64_t> sweep_seq_{0};

  // Sweep slots. A pool task's last touch of the board is under mu_,
  // which stop() waits on.
  std::mutex mu_;
  std::condition_variable idle_cv_;  ///< inflight_, slots_ or orphans_ hit 0.
  int slots_ = 0;    ///< Sweeps posted or running, drainers included.
  int queued_ = 0;   ///< Posted sweeps not started yet, each with a slot.
  int orphans_ = 0;  ///< Posted sweeps whose slot a drainer took.

  // Drain accounting: jobs queued or running.
  std::atomic<std::int64_t> inflight_{0};

  // Stats.
  std::atomic<std::uint64_t> entries_pushed_{0};
  std::atomic<std::uint64_t> jobs_executed_{0};
  std::atomic<std::uint64_t> ks_registered_{0};
  std::atomic<std::uint64_t> ks_removed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> ks_quarantined_{0};
  std::atomic<std::uint64_t> batches_submitted_{0};
};

}  // namespace esp::bb
