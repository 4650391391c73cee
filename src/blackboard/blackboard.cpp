#include "blackboard/blackboard.hpp"

#include <algorithm>

#include "common/helpers.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace esp::bb {

namespace {

/// Registry lookups hoisted out of the job hot path; every use is guarded
/// by obs::enabled().
struct BoardObs {
  /// Pool sweeps that found no job: wake-ups that did no work.
  obs::Counter& backoff_waits = obs::counter("bb.backoff_waits");
  obs::Counter& jobs = obs::counter("bb.jobs_executed");
  obs::Histogram& batch_size = obs::histogram("bb.batch_size");
};

BoardObs& bobs() {
  static BoardObs o;
  return o;
}

}  // namespace

/// Per-thread scratch for submit_batch: the snapshot/grouping vectors are
/// reused across calls (capacity — including the nested vectors' — is
/// retained via used-counters instead of clear()), so a warm submitter
/// allocates nothing. Only a sweep run inline (the pool's test seam) can
/// call submit_batch from inside it, and submit_batch resets the scratch
/// before it posts sweeps, so one scratch per thread is safe.
struct Blackboard::BatchScratch {
  struct TypeSnap {
    TypeId type;
    std::vector<std::shared_ptr<KsState>> interested;
  };
  struct KsBatch {
    KsState* key;
    std::shared_ptr<KsState> ks;
    std::vector<const DataEntry*> entries;
  };
  std::vector<TypeSnap> snaps;
  std::vector<KsBatch> touched;
  std::vector<Job*> jobs;
  std::size_t n_snaps = 0;
  std::size_t n_touched = 0;

  TypeSnap& push_snap() {
    if (n_snaps == snaps.size()) snaps.emplace_back();
    return snaps[n_snaps++];
  }
  KsBatch& push_touched() {
    if (n_touched == touched.size()) touched.emplace_back();
    return touched[n_touched++];
  }
  /// Drop every KS reference at the end of the call — scratch must not
  /// keep knowledge sources alive while the thread idles.
  void reset() noexcept {
    for (std::size_t i = 0; i < n_snaps; ++i) snaps[i].interested.clear();
    for (std::size_t i = 0; i < n_touched; ++i) {
      touched[i].key = nullptr;
      touched[i].ks.reset();
      touched[i].entries.clear();
    }
    n_snaps = 0;
    n_touched = 0;
    jobs.clear();
  }
};

Blackboard::BatchScratch& Blackboard::scratch() {
  static thread_local BatchScratch s;
  return s;
}

Blackboard::Blackboard(BlackboardConfig cfg) : cfg_(cfg) {
  if (cfg_.workers <= 0)
    throw std::invalid_argument("BlackboardConfig::workers must be > 0");
  if (cfg_.fifo_count <= 0)
    throw std::invalid_argument("BlackboardConfig::fifo_count must be > 0");
  if (cfg_.quarantine_threshold <= 0)
    throw std::invalid_argument(
        "BlackboardConfig::quarantine_threshold must be > 0");

  fifos_.reserve(static_cast<std::size_t>(cfg_.fifo_count));
  for (int i = 0; i < cfg_.fifo_count; ++i)
    fifos_.push_back(std::make_unique<Fifo>());
}

Blackboard::~Blackboard() { stop(); }

KsId Blackboard::register_ks(KsSpec spec) {
  auto ks = std::make_shared<KsState>();
  ks->id = next_ks_id_.fetch_add(1);
  ks->name = std::move(spec.name);
  ks->sensitivities = std::move(spec.sensitivities);
  ks->operation = std::move(spec.operation);
  ks->tenant = spec.tenant;
  for (TypeId t : ks->sensitivities) ks->multiplicity[t] += 1;

  // Count BEFORE the KS becomes visible to remove_ks: a concurrent
  // stats() reader must never observe ks_removed > ks_registered.
  ks_registered_.fetch_add(1);
  if (ks->tenant >= 0) {
    std::lock_guard lock(tenant_mu_);
    tenant_ledger_[ks->tenant].ks_registered += 1;
  }
  {
    std::lock_guard lock(registry_mu_);
    ks_by_id_.emplace(ks->id, ks);
  }
  // One shard lock at a time; shards are never nested, so registration
  // cannot deadlock against submissions or other registrations.
  for (const auto& [t, mult] : ks->multiplicity) {
    (void)mult;
    auto& sh = shard_of(t);
    std::unique_lock lock(sh.mu);
    sh.map[t].push_back(ks);
  }
  return ks->id;
}

void Blackboard::remove_ks(KsId id) {
  std::shared_ptr<KsState> ks;
  {
    std::lock_guard lock(registry_mu_);
    auto it = ks_by_id_.find(id);
    if (it == ks_by_id_.end()) return;
    ks = it->second;
    ks_by_id_.erase(it);
  }
  for (const auto& [t, mult] : ks->multiplicity) {
    (void)mult;
    auto& sh = shard_of(t);
    std::unique_lock lock(sh.mu);
    auto idx = sh.map.find(t);
    if (idx == sh.map.end()) continue;
    auto& vec = idx->second;
    std::erase_if(vec, [&](const auto& p) { return p->id == id; });
    if (vec.empty()) sh.map.erase(idx);
  }
  ks->alive.store(false, std::memory_order_release);
  ks_removed_.fetch_add(1);
  if (ks->tenant >= 0) {
    // Fold the retired KS's job history into its tenant's ledger; the
    // registry erase above makes this fold happen exactly once.
    std::lock_guard lock(tenant_mu_);
    auto& tc = tenant_ledger_[ks->tenant];
    tc.ks_removed += 1;
    tc.jobs_executed += ks->jobs_run.load(std::memory_order_relaxed);
    tc.jobs_failed += ks->jobs_thrown.load(std::memory_order_relaxed);
  }
}

int Blackboard::remove_tenant(int tenant) {
  std::vector<KsId> ids;
  {
    std::lock_guard lock(registry_mu_);
    for (const auto& [id, ks] : ks_by_id_)
      if (ks->tenant == tenant) ids.push_back(id);
  }
  for (KsId id : ids) remove_ks(id);
  return static_cast<int>(ids.size());
}

Blackboard::TenantCounters Blackboard::tenant_counters(int tenant) const {
  TenantCounters out;
  {
    std::lock_guard lock(tenant_mu_);
    auto it = tenant_ledger_.find(tenant);
    if (it != tenant_ledger_.end()) out = it->second;
  }
  std::lock_guard lock(registry_mu_);
  for (const auto& [id, ks] : ks_by_id_) {
    (void)id;
    if (ks->tenant != tenant) continue;
    out.jobs_executed += ks->jobs_run.load(std::memory_order_relaxed);
    out.jobs_failed += ks->jobs_thrown.load(std::memory_order_relaxed);
  }
  return out;
}

void Blackboard::push(DataEntry entry) { submit_batch({&entry, 1}); }

void Blackboard::submit_batch(std::span<const DataEntry> entries) {
  submit_batch(entries, -1);
}

void Blackboard::submit_batch(std::span<const DataEntry> entries,
                              int affinity) {
  if (entries.empty()) return;
  // Superset before subset (see BlackboardStats): entries first.
  entries_pushed_.fetch_add(entries.size());
  batches_submitted_.fetch_add(1);
  if (obs::enabled()) bobs().batch_size.observe(entries.size());

  // Snapshot interested KSs once per distinct type in the batch (under the
  // type's shard lock, shared mode), then group the batch per KS so each
  // KS mutex is taken once for the whole batch. Entry order is preserved.
  // All grouping state lives in per-thread scratch whose capacity is
  // retained across calls: once warm, the grouping allocates nothing (the
  // jobs it fills are heap objects).
  BatchScratch& sc = scratch();
  for (const DataEntry& e : entries) {
    BatchScratch::TypeSnap* snap = nullptr;
    for (std::size_t i = 0; i < sc.n_snaps; ++i)
      if (sc.snaps[i].type == e.type) {
        snap = &sc.snaps[i];
        break;
      }
    if (snap == nullptr) {
      snap = &sc.push_snap();
      snap->type = e.type;
      auto& sh = shard_of(e.type);
      {
        std::shared_lock lock(sh.mu);
        auto it = sh.map.find(e.type);
        if (it != sh.map.end())
          snap->interested.assign(it->second.begin(), it->second.end());
      }
    }
    for (const auto& ks : snap->interested) {
      BatchScratch::KsBatch* kb = nullptr;
      for (std::size_t i = 0; i < sc.n_touched; ++i)
        if (sc.touched[i].key == ks.get()) {
          kb = &sc.touched[i];
          break;
        }
      if (kb == nullptr) {
        kb = &sc.push_touched();
        kb->key = ks.get();
        kb->ks = ks;
      }
      kb->entries.push_back(&e);
    }
  }

  for (std::size_t ti = 0; ti < sc.n_touched; ++ti) {
    auto& kb = sc.touched[ti];
    if (!kb.ks->alive.load(std::memory_order_acquire)) continue;
    Job* chunk = nullptr;
    std::lock_guard lock(kb.ks->mu);
    if (kb.ks->sensitivities.size() == 1) {
      // Arity-1 fast path (every hot KS: dispatcher, unpacker, the
      // profilers): each entry satisfies the single sensitivity on
      // arrival, so nothing ever lingers in `pending` — append straight
      // to the chunk and skip the deque churn. Behaviour is identical to
      // the general path because pending[t] is provably empty here.
      chunk = new Job;
      chunk->ks = kb.ks;
      chunk->arity = 1;
      chunk->entries.reserve(kb.entries.size());
      for (const DataEntry* e : kb.entries) chunk->entries.push_back(*e);
      sc.jobs.push_back(chunk);
      continue;
    }
    for (const DataEntry* e : kb.entries) {
      kb.ks->pending[e->type].push_back(*e);
      // Last unsatisfied sensitivity? Collect one group's worth of
      // entries onto this KS's chunk for the batch.
      bool satisfied = true;
      for (const auto& [t, need] : kb.ks->multiplicity) {
        if (kb.ks->pending[t].size() < need) {
          satisfied = false;
          break;
        }
      }
      if (!satisfied) continue;
      if (chunk == nullptr) {
        chunk = new Job;
        chunk->ks = kb.ks;
        chunk->arity =
            static_cast<std::uint32_t>(kb.ks->sensitivities.size());
        sc.jobs.push_back(chunk);
      }
      for (TypeId t : kb.ks->sensitivities) {
        auto& q = kb.ks->pending[t];
        chunk->entries.push_back(std::move(q.front()));
        q.pop_front();
      }
    }
  }
  const std::size_t jobs = sc.jobs.size();
  enqueue_batch(sc.jobs, affinity);
  sc.reset();
  post_sweeps(jobs);
}

void Blackboard::enqueue_batch(std::vector<Job*>& jobs, int affinity) {
  if (jobs.empty()) return;
  inflight_.fetch_add(static_cast<std::int64_t>(jobs.size()),
                      std::memory_order_acq_rel);
  if (cfg_.fair_share && affinity >= 0) {
    // Tenant fabric: the tenant's jobs share one FIFO, so the rotating
    // sweep gives each tenant one quantum per round however many jobs a
    // flooder queued.
    const std::size_t qi = static_cast<std::size_t>(affinity) % fifos_.size();
    for (Job* j : jobs) push_fifo(qi, j);
  } else {
    // Paper-faithful contention spreading: each job to a random FIFO.
    for (Job* j : jobs)
      push_fifo(mix64(rr_seed_.fetch_add(0x9e3779b9)) % fifos_.size(), j);
  }
}

void Blackboard::post_sweeps(std::size_t jobs) {
  if (jobs == 0) return;
  std::size_t posts = 0;
  {
    // Taken after the jobs are queued: an enqueue that finds every slot
    // held leaves its jobs to sweeps that re-check under mu_ (sweep()).
    std::lock_guard lock(mu_);
    posts = std::min(jobs, static_cast<std::size_t>(cfg_.workers - slots_));
    slots_ += static_cast<int>(posts);
    queued_ += static_cast<int>(posts);
  }
  for (std::size_t i = 0; i < posts; ++i)
    helpers::post(&Blackboard::sweep_task, this);
}

void Blackboard::sweep_task(void* arg) {
  auto* board = static_cast<Blackboard*>(arg);
  {
    std::lock_guard lock(board->mu_);
    if (board->orphans_ > 0) {
      // A drainer took this sweep's slot; the board may go after this.
      if (--board->orphans_ == 0) board->idle_cv_.notify_all();
      return;
    }
    --board->queued_;
  }
  if (!board->sweep() && obs::enabled()) bobs().backoff_waits.add(1);
}

bool Blackboard::sweep() {
  // On a draining carrier: real-time job spans stay off the rank's track.
  obs::UnboundTrack unbound;
  bool ran = false;
  for (;;) {
    Job* job = next_job(sweep_start());
    if (job == nullptr) {
      // Retire with a re-check under mu_: an enqueue that saw this slot
      // held queued its jobs before it looked, so this scan finds them.
      std::lock_guard lock(mu_);
      job = next_job(sweep_start());
      if (job == nullptr) {
        if (--slots_ == 0) idle_cv_.notify_all();
        return ran;
      }
    }
    ran = true;
    execute(job);
  }
}

std::size_t Blackboard::sweep_start() {
  const std::uint64_t k = sweep_seq_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::size_t>(cfg_.fair_share ? k : mix64(k)) %
         fifos_.size();
}

void Blackboard::push_fifo(std::size_t qi, Job* job) {
  auto& f = *fifos_[qi];
  std::lock_guard lock(f.mu);
  job->link = nullptr;
  if (f.tail != nullptr)
    f.tail->link = job;
  else
    f.head = job;
  f.tail = job;
}

Blackboard::Job* Blackboard::pop_fifo(std::size_t qi) {
  auto& f = *fifos_[qi];
  std::lock_guard lock(f.mu);
  Job* j = f.head;
  if (j == nullptr) return nullptr;
  f.head = j->link;
  if (f.head == nullptr) f.tail = nullptr;
  j->link = nullptr;
  return j;
}

Blackboard::Job* Blackboard::next_job(std::size_t start) {
  for (std::size_t k = 0; k < fifos_.size(); ++k)
    if (Job* j = pop_fifo((start + k) % fifos_.size())) return j;
  return nullptr;
}

void Blackboard::execute(Job* job) {
  const bool obs_on = obs::enabled();
  const double t_begin = obs_on ? obs::real_now() : 0.0;
  const std::size_t arity = std::max<std::size_t>(1, job->arity);
  std::uint64_t groups = 0;
  for (std::size_t off = 0; off < job->entries.size(); off += arity) {
    // Superset before subset (see BlackboardStats): executed is counted
    // before the operation can fail, so failed <= executed always.
    jobs_executed_.fetch_add(1);
    job->ks->jobs_run.fetch_add(1, std::memory_order_relaxed);
    ++groups;
    // Liveness is re-checked per group: a quarantine triggered earlier in
    // this very chunk stops the remaining invocations.
    if (job->ks->alive.load(std::memory_order_acquire)) {
      // Exception isolation: a throwing operation must not unwind the
      // sweep (std::terminate would take the whole process down).
      try {
        job->ks->operation(
            *this, std::span<const DataEntry>(job->entries.data() + off,
                                              arity));
        job->ks->consecutive_failures.store(0, std::memory_order_relaxed);
      } catch (...) {
        jobs_failed_.fetch_add(1);
        job->ks->jobs_thrown.fetch_add(1, std::memory_order_relaxed);
        const int streak = job->ks->consecutive_failures.fetch_add(
                               1, std::memory_order_acq_rel) +
                           1;
        // fetch_add makes exactly one sweep observe the threshold
        // crossing, so the KS is quarantined once.
        if (streak == cfg_.quarantine_threshold) {
          remove_ks(job->ks->id);
          ks_quarantined_.fetch_add(1);
          if (job->ks->tenant >= 0) {
            std::lock_guard lock(tenant_mu_);
            tenant_ledger_[job->ks->tenant].ks_quarantined += 1;
          }
        }
      }
    }
  }
  if (obs_on) {
    bobs().jobs.add(groups);
    obs::trace_span("bb", "ks.job", t_begin, obs::real_now(), groups,
                    "groups");
  }
  // Deleting the chunk drops its entry payloads now, releasing any
  // stream block the last view was pinning.
  delete job;
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard lock(mu_);
    idle_cv_.notify_all();
  }
}

void Blackboard::drain() {
  if (inflight_.load(std::memory_order_acquire) == 0) return;
  bool help = true;
  {
    std::lock_guard lock(mu_);
    if (slots_ < cfg_.workers) {
      ++slots_;
    } else if (queued_ > 0) {
      --queued_;
      ++orphans_;
    } else {
      help = false;  // every slot runs a sweep, which retires only when idle
    }
  }
  if (help) sweep();
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void Blackboard::stop() {
  drain();
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] { return slots_ == 0 && orphans_ == 0; });
}

BlackboardStats Blackboard::stats() const {
  // Subset counters are read FIRST (and writers increment the superset
  // first), so the documented subset relations hold in every snapshot —
  // see the BlackboardStats comment. All loads are seq_cst: a relaxed
  // load could be reordered past the matching superset read.
  BlackboardStats s;
  s.jobs_failed = jobs_failed_.load();
  s.ks_quarantined = ks_quarantined_.load();
  s.ks_removed = ks_removed_.load();
  s.batches_submitted = batches_submitted_.load();
  s.jobs_executed = jobs_executed_.load();
  s.ks_registered = ks_registered_.load();
  s.entries_pushed = entries_pushed_.load();
  return s;
}

}  // namespace esp::bb
