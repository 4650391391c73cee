#include "simmpi/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/hash.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace esp::mpi {

namespace {
/// Fixed context ids for runtime-created communicators.
constexpr std::uint64_t kUniverseCtx = 1;
constexpr std::uint64_t kPartitionCtxBase = 1000;
}  // namespace

RankContext& Runtime::self() {
  RankContext* rc = fib::current_rank();
  assert(rc != nullptr && "not inside a rank");
  return *rc;
}

bool Runtime::on_rank_thread() noexcept {
  return fib::current_rank() != nullptr;
}

void RankContext::check_crash() {
  ++calls_made;
  rt->note_progress(*this);
  if (!crashed && (clock >= crash_at || calls_made > crash_after_calls)) {
    crashed = true;
    throw RankCrashedError{world_rank, clock};
  }
}

void RankContext::poll_scheduled_crash() {
  if (crashed || crash_at == std::numeric_limits<double>::infinity()) return;
  if (clock >= crash_at || rt->max_progress() >= crash_at) {
    // Die at the scheduled instant, not at whatever stale clock the idle
    // wait froze on: the death record must be the same virtual time on
    // every run for the loss ledger to be reproducible.
    clock = std::max(clock, crash_at);
    crashed = true;
    throw RankCrashedError{world_rank, clock};
  }
}

Runtime::Runtime(RuntimeConfig cfg, std::vector<ProgramSpec> programs)
    : cfg_(cfg),
      programs_(std::move(programs)),
      machine_(cfg.machine, [&] {
        int total = 0;
        for (const auto& p : programs_) total += p.nprocs;
        return total;
      }()) {
  if (programs_.empty()) throw std::invalid_argument("no programs");
  int next = 0;
  partitions_.reserve(programs_.size());
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    const auto& p = programs_[i];
    if (p.nprocs <= 0) throw std::invalid_argument("nprocs must be positive");
    PartitionDesc d;
    d.id = static_cast<int>(i);
    d.name = p.name;
    d.size = p.nprocs;
    d.first_world_rank = next;
    next += p.nprocs;
    partitions_.push_back(std::move(d));
  }
  world_size_ = next;

  const auto n = static_cast<std::size_t>(world_size_);
  mailboxes_.resize(n);
  ranks_.resize(n);
  fate_.assign(n, Fate::Running);
  failure_.resize(n);
  progress_clock_.assign(n, 0.0);
  if (cfg_.watchdog_virtual_deadline > 0.0)
    deadline_ = cfg_.watchdog_virtual_deadline;

  injector_.configure(cfg_.faults, cfg_.seed);
  elastic_ = net::ElasticSchedule(cfg_.elastic);  // throws on a bad plan

  std::vector<int> all(static_cast<std::size_t>(world_size_));
  for (int r = 0; r < world_size_; ++r) all[static_cast<std::size_t>(r)] = r;
  universe_data_ = CommData::make(this, kUniverseCtx, all);

  partition_data_.reserve(partitions_.size());
  for (const auto& d : partitions_) {
    std::vector<int> ranks(static_cast<std::size_t>(d.size));
    for (int r = 0; r < d.size; ++r)
      ranks[static_cast<std::size_t>(r)] = d.first_world_rank + r;
    partition_data_.push_back(CommData::make(
        this, kPartitionCtxBase + static_cast<std::uint64_t>(d.id),
        std::move(ranks)));
  }
}

const PartitionDesc* Runtime::partition_by_name(std::string_view name) const {
  for (const auto& d : partitions_)
    if (d.name == name) return &d;
  return nullptr;
}

const PartitionDesc& Runtime::partition_of_world(int world_rank) const {
  for (const auto& d : partitions_)
    if (d.contains_world(world_rank)) return d;
  throw std::out_of_range("world rank outside any partition");
}

double Runtime::partition_walltime(int partition_id) const {
  const auto& d = partitions_[static_cast<std::size_t>(partition_id)];
  double w = 0.0;
  for (int r = d.first_world_rank; r < d.first_world_rank + d.size; ++r)
    w = std::max(w, final_clock(r));
  return w;
}

double Runtime::max_walltime() const {
  double w = 0.0;
  for (const auto& rc : ranks_) w = std::max(w, rc.clock);
  return w;
}

void Runtime::note_progress(const RankContext& rc) noexcept {
  progress_clock_[static_cast<std::size_t>(rc.world_rank)] = rc.clock;
  if (rc.clock > max_progress_) {
    max_progress_ = rc.clock;
    if (max_progress_ > deadline_)
      dump_and_abort("session watchdog fired (virtual-time deadline exceeded)");
  }
}

void Runtime::on_rank_crashed(const RankContext& rc, std::uint64_t calls) {
  deaths_.push_back(RankDeath{rc.world_rank, rc.clock, calls});
  fate_[static_cast<std::size_t>(rc.world_rank)] = Fate::Dead;
  // Release everyone the dead rank could still block: receivers waiting on
  // it (specific-source recvs in *their* mailboxes) and senders queued or
  // about to queue into *its* mailbox. No copy can be in flight into the
  // buffers the unwind frees: complete_match never yields.
  for (int r = 0; r < world_size_; ++r) {
    if (r == rc.world_rank) continue;
    mailbox(r).fail_source(rc.world_rank, rc.clock);
  }
  mailbox(rc.world_rank).kill_destination(rc.clock);
}

void Runtime::dispatch_tools(RankContext& rc, const CallInfo& ci) {
  if (tools_.empty()) return;
  tools_.for_partition(rc.partition_id,
                       [&](Tool& t) { t.on_call(rc, ci); });
}

void Runtime::rank_main(int world_rank) {
  const PartitionDesc& part = partition_of_world(world_rank);

  RankContext& rc = ranks_[static_cast<std::size_t>(world_rank)];
  rc.rt = this;
  rc.world_rank = world_rank;
  rc.partition_id = part.id;
  rc.partition_rank = world_rank - part.first_world_rank;
  rc.rng.reseed(hash_combine(cfg_.seed, mix64(static_cast<std::uint64_t>(
                                 world_rank + 1))));
  rc.crash_at = injector_.crash_time(world_rank);
  rc.crash_after_calls = injector_.crash_after_calls(world_rank);
  fib::set_current_rank(&rc);

  // Trace identity: one Perfetto process per partition, one track per
  // universe rank; span timestamps on these tracks are *virtual* seconds.
  if (obs::trace_enabled()) {
    rc.trace_track = obs::make_track(
        part.id + 1, world_rank,
        part.name + "/" + std::to_string(rc.partition_rank), part.name);
    obs::bind_track(rc.trace_track.get());
  }

  ProcEnv env;
  env.universe = universe();
  env.world = partition_comm(part.id);
  env.partition = &part;
  env.runtime = this;
  env.universe_rank = world_rank;
  env.world_rank = rc.partition_rank;

  try {
    tools_.for_partition(part.id, [&](Tool& t) { t.on_init(rc); });
    programs_[static_cast<std::size_t>(part.id)].main(env);
    tools_.for_partition(part.id, [&](Tool& t) { t.on_finalize(rc); });
  } catch (const RankCrashedError&) {
    // A simulated death is an *expected* outcome, not a session error:
    // sweep the mailboxes so nobody waits on this rank forever.
    on_rank_crashed(rc, rc.calls_made);
  } catch (const std::exception& e) {
    fail(world_rank, e.what());
  } catch (...) {
    fail(world_rank, "exception not derived from std::exception");
  }

  auto& ending = fate_[static_cast<std::size_t>(world_rank)];
  if (ending == Fate::Running) ending = Fate::Finished;
  if (rc.trace_track) {
    obs::bind_track(nullptr);
    rc.trace_track.reset();
  }
  fib::set_current_rank(nullptr);
}

void Runtime::fail(int world_rank, const char* what) {
  if (!first_error_) first_error_ = std::current_exception();
  fate_[static_cast<std::size_t>(world_rank)] = Fate::Failed;
  failure_[static_cast<std::size_t>(world_rank)] = what;
}

void Runtime::dump_and_abort(const char* why) const {
  std::fprintf(stderr,
               "esperf: %s; per-rank state (virtual clock / p-layer calls / "
               "state):\n",
               why);
  for (int r = 0; r < world_size_; ++r) {
    std::string state;
    switch (fate(r)) {
      case Fate::Running: state = fib::status(r); break;
      case Fate::Finished: state = "finished"; break;
      case Fate::Dead: state = "dead"; break;
      case Fate::Failed:
        state = "failed: " + failure_[static_cast<std::size_t>(r)];
        break;
    }
    const auto& part = partition_of_world(r);
    std::fprintf(stderr, "  rank %d (%s/%d): clock=%.9fs calls=%llu %s\n", r,
                 part.name.c_str(), r - part.first_world_rank, rank(r).clock,
                 static_cast<unsigned long long>(rank(r).calls_made),
                 state.c_str());
  }
  std::fflush(stderr);
  std::abort();
}

void Runtime::run() {
  if (ran_) throw std::logic_error("Runtime::run() may only be called once");
  ran_ = true;
  obs::trace_reset();  // trace.json holds this run's tracks only

  fib::run_fibers(world_size_, [this](int r) { rank_main(r); },
                  [this](const char* why) { dump_and_abort(why); });
  if (first_error_) std::rethrow_exception(first_error_);
}

}  // namespace esp::mpi
