#pragma once
/// \file runtime.hpp
/// \brief The MPMD launcher and per-rank execution context.
///
/// A Runtime hosts one MPMD job: a list of programs (partitions), each with
/// a number of processes. Every process is a fiber with its own virtual
/// clock, and all of them run on the thread that calls run(), one at a
/// time, in (virtual clock, world rank) order (simmpi/fiber.hpp), so a
/// seed fixes every simulation step. World ranks are assigned contiguously
/// per program in declaration order (as `mpirun prog1 : prog2 : ...`
/// would). The runtime owns the machine model, the mailboxes, the
/// communicator registry, and the tool chain through which vmpi
/// virtualization and instrumentation attach.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/fault.hpp"
#include "net/machine.hpp"
#include "obs/obs.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fiber.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/tool.hpp"

namespace esp::mpi {

/// Partition description, queryable by name from any rank — the paper's
/// VMPI_Partition_desc (processes are "grouped in partitions either by
/// names or command lines").
struct PartitionDesc {
  int id = -1;
  std::string name;
  int size = 0;
  int first_world_rank = 0;
  bool contains_world(int w) const noexcept {
    return w >= first_world_rank && w < first_world_rank + size;
  }
};

/// Thrown inside a rank when its FaultPlan crash point fires.
/// Deliberately *not* derived from std::exception: program code that
/// catches std::exception must not be able to swallow a simulated death.
struct RankCrashedError {
  int world_rank = -1;
  double time = 0.0;
};

/// Post-run record of one simulated rank death.
struct RankDeath {
  int world_rank = -1;
  double time = 0.0;           ///< Virtual clock at the crash point.
  std::uint64_t calls = 0;     ///< p-layer calls the rank made before dying.
};

/// Per-rank execution context (one per fiber, owned by the Runtime).
/// Everything a rank keeps across calls lives here, never in a
/// thread_local: all ranks share one thread.
struct RankContext {
  Runtime* rt = nullptr;
  int world_rank = -1;
  int partition_id = -1;
  int partition_rank = -1;
  double clock = 0.0;  ///< Virtual time, seconds.
  std::uint64_t send_seq = 0;
  Rng rng;
  /// Per-parent-communicator split counters for deterministic context ids.
  std::unordered_map<std::uint64_t, std::uint64_t> split_counters;

  // ---- fault injection (configured by rank_main from the FaultPlan) ----
  double crash_at = std::numeric_limits<double>::infinity();
  std::uint64_t crash_after_calls = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t calls_made = 0;
  bool crashed = false;  ///< Set once; guards cleanup paths during unwind.

  /// Streams this rank opened, for deterministic tag allocation (vmpi).
  int streams_opened = 0;
  /// The instrumentation tool attached to this rank and its per-rank
  /// state, for hooks reached outside the p-layer (instrument layer).
  void* tool = nullptr;
  void* tool_state = nullptr;
  /// This rank's trace track (null while tracing is off).
  std::shared_ptr<obs::TraceTrack> trace_track;

  void advance(double dt) noexcept { clock += dt; }

  /// Crash checkpoint, invoked at every p-layer call entry. Counts the
  /// call, publishes this rank's progress clock (idle-crash polling, the
  /// session's virtual deadline), and throws RankCrashedError exactly once
  /// when either trigger (virtual-time deadline or call budget) has been
  /// reached. Out-of-line: it needs the full Runtime.
  void check_crash();

  /// Idle-crash poll for blocking loops that make no p-layer calls while
  /// waiting (a stream reader parked on a waitset): a rank whose virtual
  /// clock is frozen would otherwise never reach an `at_time` crash
  /// scheduled during its wait. When the *global* maximum progress clock
  /// has passed this rank's crash deadline the crash is fired now, with
  /// the clock advanced to the deadline — the same virtual instant every
  /// run, however many idle polls the wait took.
  void poll_scheduled_crash();
};

/// What a program's main receives on each of its ranks.
struct ProcEnv {
  Comm universe;  ///< Real COMM_WORLD spanning the whole MPMD job.
  Comm world;     ///< Virtualized world: this partition's communicator.
  const PartitionDesc* partition = nullptr;
  Runtime* runtime = nullptr;
  int universe_rank = -1;
  int world_rank = -1;  ///< Rank within `world`.
};

using ProgramMain = std::function<void(ProcEnv&)>;

struct ProgramSpec {
  std::string name;
  int nprocs = 1;
  ProgramMain main;
};

struct RuntimeConfig {
  net::MachineConfig machine = net::MachineConfig::tera100();
  /// Messages up to this size are staged eagerly (sender does not block).
  std::uint64_t eager_threshold = 16 * 1024;
  /// At most this many bytes are physically copied per message, while
  /// *virtual* costs are always charged for the full size. VMPI stream
  /// data is exempt and always copied whole. Still honoured, but nothing
  /// in src/, bench/ or examples/ sets it: skeleton workloads post
  /// size-only messages (null buffers, see comm.hpp), which copy nothing.
  std::uint64_t payload_copy_cap = ~0ull;
  std::uint64_t seed = 42;
  /// Deterministic fault schedule (empty = fault-free run). Decisions are
  /// derived from `seed`, so seed + plan reproduce identical failures.
  net::FaultPlan faults;
  /// Session watchdog (0 = disabled): abort the process with the per-rank
  /// dump when any published progress clock exceeds this deadline — a
  /// runaway session fails loudly instead of running until the ctest
  /// timeout. (A wedged one always aborts: the scheduler detects it.)
  double watchdog_virtual_deadline = 0.0;
  /// Planned elastic membership for the analyzer partition (resolved by
  /// the session; empty = fixed membership). The runtime validates it
  /// once into Runtime::elastic(), the schedule every module reads.
  net::ElasticPlan elastic;
};

class Runtime {
 public:
  Runtime(RuntimeConfig cfg, std::vector<ProgramSpec> programs);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Tool chain; attach tools before run().
  ToolChain& tools() noexcept { return tools_; }

  /// Run every rank's program as a fiber on the calling thread until all
  /// return. Call once. The first exception thrown by any rank's program
  /// (or tool) is captured and rethrown here after every rank finished;
  /// if the rank that threw leaves another waiting forever, the wedge dump
  /// names it as failed, with the exception's what(), and the run aborts.
  void run();

  // ---- topology / partitions -----------------------------------------
  int world_size() const noexcept { return world_size_; }
  const std::vector<PartitionDesc>& partitions() const noexcept {
    return partitions_;
  }
  const PartitionDesc* partition_by_name(std::string_view name) const;
  const PartitionDesc& partition_of_world(int world_rank) const;
  Comm universe() const { return Comm(universe_data_); }
  Comm partition_comm(int partition_id) const {
    return Comm(partition_data_[static_cast<std::size_t>(partition_id)]);
  }

  // ---- post-run results ----------------------------------------------
  /// Final virtual clock of one rank (valid after run()).
  double final_clock(int world_rank) const { return rank(world_rank).clock; }
  /// Virtual walltime of a partition = max final clock over its ranks.
  double partition_walltime(int partition_id) const;
  double max_walltime() const;
  /// Ranks that crashed under the fault plan so far, in death order.
  const std::vector<RankDeath>& deaths() const noexcept { return deaths_; }

  // ---- services used by Comm / tools ----------------------------------
  net::Machine& machine() noexcept { return machine_; }
  const RuntimeConfig& config() const noexcept { return cfg_; }
  detail::Mailbox& mailbox(int world_rank) {
    return mailboxes_[static_cast<std::size_t>(world_rank)];
  }
  /// Block mapping: world rank r runs on global core r.
  int core_of(int world_rank) const noexcept { return world_rank; }
  /// Allocate a fresh context id (used by split/dup).
  std::uint64_t next_ctx_component() noexcept { return ctx_counter_++; }
  void dispatch_tools(RankContext& rc, const CallInfo& ci);

  // ---- fault services --------------------------------------------------
  const net::FaultInjector& injector() const noexcept { return injector_; }
  /// The elastic membership schedule built from RuntimeConfig::elastic
  /// (disabled under fixed membership). Immutable after construction, so
  /// every rank reads the same epochs without synchronization.
  const net::ElasticSchedule& elastic() const noexcept { return elastic_; }
  /// True once `world_rank` crashed under the fault plan.
  bool rank_dead(int world_rank) const noexcept {
    return fate(world_rank) == Fate::Dead;
  }
  /// True once `world_rank` left its program (normally, by crash or by an
  /// exception) — after this it will never send another message.
  bool rank_finished(int world_rank) const noexcept {
    return fate(world_rank) != Fate::Running;
  }
  /// Virtual clock at which `world_rank` died, or +inf while it lives.
  double death_time(int world_rank) const noexcept {
    return rank_dead(world_rank) ? rank(world_rank).clock
                                 : std::numeric_limits<double>::infinity();
  }
  /// Publish one rank's progress clock (called from check_crash); aborts
  /// with the per-rank dump once it passes the session's virtual deadline.
  void note_progress(const RankContext& rc) noexcept;
  /// The maximum progress clock published by any rank so far — the global
  /// virtual-time frontier used for idle-crash polling.
  double max_progress() const noexcept { return max_progress_; }
  /// Last published progress clock of one rank. The tenant-fabric
  /// admission root uses it as a release *lower bound*: a rank observed
  /// past time t has provably not released before t.
  double progress_clock(int world_rank) const noexcept {
    return progress_clock_[static_cast<std::size_t>(world_rank)];
  }
  /// Crash sweep: record the death and release every operation that would
  /// otherwise wait on the dead rank forever.
  void on_rank_crashed(const RankContext& rc, std::uint64_t calls);

  /// The running rank's context. Only valid inside a rank.
  static RankContext& self();
  /// True when called from inside a rank of some runtime.
  static bool on_rank_thread() noexcept;

 private:
  /// How a rank left its program, or Running while it has not.
  enum class Fate : std::uint8_t { Running, Finished, Dead, Failed };

  void rank_main(int world_rank);
  /// Record the exception rank_main caught as `world_rank`'s failure.
  void fail(int world_rank, const char* what);
  /// Print every rank's partition, clock, call count and state under
  /// `why`, then abort.
  [[noreturn]] void dump_and_abort(const char* why) const;
  const RankContext& rank(int world_rank) const {
    return ranks_[static_cast<std::size_t>(world_rank)];
  }
  Fate fate(int world_rank) const noexcept {
    return fate_[static_cast<std::size_t>(world_rank)];
  }

  RuntimeConfig cfg_;
  std::vector<ProgramSpec> programs_;
  std::vector<PartitionDesc> partitions_;
  int world_size_ = 0;
  net::Machine machine_;
  ToolChain tools_;
  std::vector<detail::Mailbox> mailboxes_;
  /// Every rank's context; a rank's final clock stays after it finished.
  std::vector<RankContext> ranks_;
  std::shared_ptr<CommData> universe_data_;
  std::vector<std::shared_ptr<CommData>> partition_data_;
  std::uint64_t ctx_counter_ = 1u << 20;
  std::exception_ptr first_error_;
  bool ran_ = false;

  net::FaultInjector injector_;
  net::ElasticSchedule elastic_;
  std::vector<Fate> fate_;
  std::vector<std::string> failure_;  ///< what() of each Failed rank.
  std::vector<RankDeath> deaths_;

  // Progress publication (idle-crash polling, the virtual deadline).
  std::vector<double> progress_clock_;
  double max_progress_ = 0.0;
  double deadline_ = std::numeric_limits<double>::infinity();
};

}  // namespace esp::mpi
