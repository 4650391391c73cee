#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "analysis/membership.hpp"
#include "analysis/modules.hpp"
#include "analysis/modules_ext.hpp"
#include "analysis/report.hpp"

namespace esp::an {

namespace {

constexpr int kReduceTag = 0x6f300001;
/// Mapping of application partitions onto analyzer ranks, and the read
/// side's polling order over its incoming links.
constexpr vmpi::MapPolicy kMapPolicy = vmpi::MapPolicy::RoundRobin;
constexpr vmpi::BalancePolicy kStreamPolicy = vmpi::BalancePolicy::RoundRobin;

/// Minimal append-only byte writer / reader for the rank-0 reduction.
struct Writer {
  std::vector<std::byte> out;
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    out.insert(out.end(), p, p + sizeof v);
  }
};

struct Reader {
  const std::byte* p;
  const std::byte* end;
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (p + sizeof v <= end) {
      std::memcpy(&v, p, sizeof v);
      p += sizeof v;
    }
    return v;
  }
};

/// Blob version tag; bumped whenever the reduction wire format changes
/// ("ESP4" added the per-app telemetry counters; "ESP5" appended failover
/// telemetry and degradation-ladder accounting; "ESP6" appended the
/// tenant-fabric shed/job/latency accounting; "ESP7" appended the elastic
/// membership planned-handoff count).
constexpr std::uint32_t kBlobTag = 0x45535037;

std::vector<std::byte> serialize(const AppResults& a) {
  Writer w;
  w.put(kBlobTag);
  w.put(a.total_events);
  w.put(a.last_event_time);
  for (const auto& ks : a.per_kind) {
    w.put(ks.hits);
    w.put(ks.time);
    w.put(ks.bytes);
  }
  w.put(static_cast<std::uint64_t>(a.comm.size()));
  for (const auto& [key, cell] : a.comm) {
    w.put(key);
    w.put(cell.hits);
    w.put(cell.bytes);
    w.put(cell.time);
  }
  for (const auto& v : a.density) {
    w.put(static_cast<std::uint64_t>(v.size()));
    for (double x : v) w.put(x);
  }
  // Extended analyses.
  w.put(a.temporal.bin_seconds);
  w.put(static_cast<std::uint64_t>(a.temporal.per_rank.size()));
  for (const auto& row : a.temporal.per_rank) {
    w.put(static_cast<std::uint64_t>(row.size()));
    for (double x : row) w.put(x);
  }
  w.put(static_cast<std::uint64_t>(a.waits.late_time_per_rank.size()));
  for (double x : a.waits.late_time_per_rank) w.put(x);
  w.put(static_cast<std::uint64_t>(a.waits.pair_wait.size()));
  for (const auto& [key, t] : a.waits.pair_wait) {
    w.put(key);
    w.put(t);
  }
  // Data-loss ledger.
  w.put(a.loss.blocks_lost);
  w.put(a.loss.blocks_corrupted);
  w.put(a.loss.blocks_retried);
  w.put(a.loss.events_dropped_estimate);
  w.put(static_cast<std::uint64_t>(a.loss.dead_ranks.size()));
  for (int r : a.loss.dead_ranks) w.put(static_cast<std::int32_t>(r));
  // Per-app transport telemetry.
  w.put(a.telemetry.stream_blocks);
  w.put(a.telemetry.stream_bytes);
  w.put(a.telemetry.failover_joins);
  w.put(a.telemetry.blocks_replayed);
  // Degradation-ladder accounting.
  w.put(a.degrade.packs_full);
  w.put(a.degrade.packs_sampled);
  w.put(a.degrade.packs_aggregated);
  // Tenant-fabric accounting (reduced parts only; admission metadata is
  // filled by the fabric root after the merge).
  w.put(a.tenant.packs_shed);
  w.put(a.tenant.events_shed);
  w.put(a.tenant.jobs_executed);
  w.put(a.tenant.jobs_failed);
  w.put(a.tenant.ks_quarantined);
  w.put(a.tenant.latency.count);
  for (std::uint64_t b : a.tenant.latency.bins) w.put(b);
  // Elastic membership accounting (appended last, "ESP7").
  w.put(a.telemetry.planned_handoffs);
  return std::move(w.out);
}

void merge_dead_ranks(std::vector<int>& into, int rank) {
  if (std::find(into.begin(), into.end(), rank) == into.end())
    into.push_back(rank);
}

/// Analyzer-side quota shedding: true when this pack must be dropped.
/// Budgets are judged per producing rank — each of the tenant's nprocs
/// ranks gets an equal share of the tenant's entry rate plus the full
/// burst depth — and entirely from pack-header facts (t_flush, t_admit,
/// event counts), never from this reader's clock, so a pack's fate is a
/// pure function of its producer's deterministic history.
bool shed_pack(const TenantSpec& spec, const inst::PackHeader& h,
               std::map<std::uint64_t, std::uint64_t>& link_accepted) {
  if (spec.quota.entry_rate <= 0.0) return false;
  const double share =
      spec.quota.entry_rate / static_cast<double>(std::max(spec.nprocs, 1));
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(spec.app_id))
       << 32) |
      static_cast<std::uint32_t>(h.app_rank);
  auto& accepted = link_accepted[key];
  const double window = std::max(0.0, h.t_flush - h.t_admit);
  const double allowance =
      share * window + spec.quota.burst_events;
  if (static_cast<double>(accepted) + static_cast<double>(h.event_count) >
      allowance)
    return true;
  accepted += h.event_count;
  return false;
}

void merge_serialized(AppResults& out, const std::vector<std::byte>& blob) {
  Reader r{blob.data(), blob.data() + blob.size()};
  if (r.get<std::uint32_t>() != kBlobTag) return;  // unknown blob
  out.total_events += r.get<std::uint64_t>();
  out.last_event_time = std::max(out.last_event_time, r.get<double>());
  for (auto& ks : out.per_kind) {
    ks.hits += r.get<std::uint64_t>();
    ks.time += r.get<double>();
    ks.bytes += r.get<std::uint64_t>();
  }
  const auto ncomm = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < ncomm; ++i) {
    const auto key = r.get<std::uint64_t>();
    auto& cell = out.comm[key];
    cell.hits += r.get<std::uint64_t>();
    cell.bytes += r.get<std::uint64_t>();
    cell.time += r.get<double>();
  }
  for (auto& v : out.density) {
    const auto n = r.get<std::uint64_t>();
    if (v.size() < n) v.resize(n, 0.0);
    for (std::uint64_t i = 0; i < n; ++i) v[i] += r.get<double>();
  }
  // Extended analyses.
  out.temporal.bin_seconds = r.get<double>();
  const auto t_rows = r.get<std::uint64_t>();
  if (out.temporal.per_rank.size() < t_rows)
    out.temporal.per_rank.resize(t_rows);
  for (std::uint64_t i = 0; i < t_rows; ++i) {
    const auto bins = r.get<std::uint64_t>();
    auto& row = out.temporal.per_rank[i];
    if (row.size() < bins) row.resize(bins, 0.0);
    for (std::uint64_t b = 0; b < bins; ++b) row[b] += r.get<double>();
  }
  const auto w_rows = r.get<std::uint64_t>();
  if (out.waits.late_time_per_rank.size() < w_rows)
    out.waits.late_time_per_rank.resize(w_rows, 0.0);
  for (std::uint64_t i = 0; i < w_rows; ++i)
    out.waits.late_time_per_rank[i] += r.get<double>();
  const auto n_pairs = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_pairs; ++i) {
    const auto key = r.get<std::uint64_t>();
    out.waits.pair_wait[key] += r.get<double>();
  }
  // Data-loss ledger.
  out.loss.blocks_lost += r.get<std::uint64_t>();
  out.loss.blocks_corrupted += r.get<std::uint64_t>();
  out.loss.blocks_retried += r.get<std::uint64_t>();
  out.loss.events_dropped_estimate += r.get<std::uint64_t>();
  const auto n_dead = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_dead; ++i)
    merge_dead_ranks(out.loss.dead_ranks, r.get<std::int32_t>());
  // Per-app transport telemetry.
  out.telemetry.stream_blocks += r.get<std::uint64_t>();
  out.telemetry.stream_bytes += r.get<std::uint64_t>();
  out.telemetry.failover_joins += r.get<std::uint64_t>();
  out.telemetry.blocks_replayed += r.get<std::uint64_t>();
  // Degradation-ladder accounting.
  out.degrade.packs_full += r.get<std::uint64_t>();
  out.degrade.packs_sampled += r.get<std::uint64_t>();
  out.degrade.packs_aggregated += r.get<std::uint64_t>();
  // Tenant-fabric accounting.
  out.tenant.packs_shed += r.get<std::uint64_t>();
  out.tenant.events_shed += r.get<std::uint64_t>();
  out.tenant.jobs_executed += r.get<std::uint64_t>();
  out.tenant.jobs_failed += r.get<std::uint64_t>();
  out.tenant.ks_quarantined += r.get<std::uint64_t>();
  out.tenant.latency.count += r.get<std::uint64_t>();
  for (auto& b : out.tenant.latency.bins) b += r.get<std::uint64_t>();
  // Elastic membership accounting.
  out.telemetry.planned_handoffs += r.get<std::uint64_t>();
}

}  // namespace

void run_analyzer(mpi::ProcEnv& env, const AnalyzerConfig& cfg) {
  auto& rt = *env.runtime;
  auto& rc = mpi::Runtime::self();

  // Application levels: every partition that is not this one.
  std::vector<AppLevel> levels;
  for (const auto& p : rt.partitions()) {
    if (p.id == env.partition->id) continue;
    levels.push_back({p.id, p.name, p.size});
  }

  // Additive mapping over all application partitions (Fig. 10), then one
  // read stream covering every mapped writer.
  vmpi::Map map;
  for (const auto& lvl : levels)
    map.map_partitions(env, lvl.app_id, kMapPolicy);

  vmpi::Stream stream({.policy = kStreamPolicy});
  stream.open_map(env, map, "r");

  bb::Blackboard board(cfg.board);
  register_dispatcher(board, levels);
  MpiProfiler profiler;
  TopologyModule topology;
  DensityModule density;
  TemporalMapModule temporal(cfg.temporal_bin_seconds);
  WaitStateModule waits(rt.machine().config().nic_bandwidth,
                        rt.machine().config().nic_latency);
  for (const auto& lvl : levels) {
    register_unpacker(board, lvl);
    profiler.register_on(board, lvl);
    topology.register_on(board, lvl);
    density.register_on(board, lvl);
    if (cfg.enable_temporal) temporal.register_on(board, lvl);
    if (cfg.enable_wait_states) waits.register_on(board, lvl);
  }

  // Read loop: stream blocks land in fresh buffers that move straight onto
  // the blackboard (temporary storage), freeing the stream slot. Buffers
  // are sized from the stream's *adopted* block size: open_map takes the
  // writers' geometry (block size and slot depth) from their handshakes.
  // Bursts of queued blocks drain in one read_some() and enter the board
  // through a single submit_batch(), so the sensitivity index and the
  // dispatcher KS are locked once per burst, not once per block.
  const std::uint64_t block_size = stream.block_size();
  const double per_event =
      cfg.per_event_cost / static_cast<double>(cfg.board.workers);
  // read_some() rejects a non-positive budget with std::logic_error;
  // validate the knob here so the error names the misconfigured field
  // instead of silently clamping ("batch of 0" used to be read as 1).
  if (cfg.read_batch <= 0)
    throw std::invalid_argument("AnalyzerConfig::read_batch must be > 0");
  const int read_batch = cfg.read_batch;

  // Reduce root — and, in fabric mode, admission root: reduce_root() picks
  // it from the runtime's fault plan and elastic schedule, which every rank
  // knows identically before the run, so all survivors (and the tenants
  // attaching to it) agree without any communication — killing analyzer
  // rank 0 kills neither the report nor the fabric control plane. Member
  // indexes coincide with partition-relative analyzer ranks.
  const mpi::Comm& world = env.world;
  const int arank = env.world_rank;
  const net::ElasticSchedule& elastic = rt.elastic();
  const int root = reduce_root(rt, *env.partition);
  const bool fabric = cfg.fabric.enabled;
  const bool admission_root = fabric && arank == root;
  std::optional<AdmissionController> admission;
  if (admission_root) admission.emplace(env, cfg.fabric);

  // Warm-join announce: a joining member introduces itself to the
  // reduction root over the reserved control tag *before* entering its
  // read loop, so the root's matching receives (issued after its own
  // loop) can never deadlock. The rebalance itself needs no payload —
  // it is a pure function of (epoch, active set) computed everywhere.
  if (elastic.enabled() && arank != root) {
    for (int e = 1; e < elastic.epoch_count(); ++e) {
      const auto& ev = elastic.event_opening(e);
      if (ev.join && ev.member == arank) {
        MembershipAnnounce ann;
        ann.member = arank;
        ann.epoch = e;
        world.psend(&ann, sizeof ann, root, kMembershipTag);
      }
    }
  }

  std::vector<BufferRef> blocks;
  std::vector<bb::DataEntry> batch;
  std::map<int, std::vector<bb::DataEntry>> app_batches;  // fabric mode
  blocks.reserve(static_cast<std::size_t>(read_batch));
  batch.reserve(static_cast<std::size_t>(read_batch));
  // Fidelity accounting: at which rung of the degradation ladder each
  // application's packs arrived. Read off the pack headers here (the only
  // place every delivered pack passes through) and folded into the report
  // so degraded windows are flagged, not silently averaged in.
  std::map<int, DegradeStats> local_degrade;
  // Tenant-fabric read-side accounting: quota shedding cursors, per-app
  // shed counters, and the event-to-flush latency histograms.
  std::map<int, TenantStats> local_tenant;
  std::map<std::uint64_t, std::uint64_t> link_accepted;
  std::vector<int> torn_down;
  std::uint32_t sweep_tick = 0;

  // Fabric teardown: once every one of a tenant's links has closed or
  // died, drain the board (the tenant's last jobs retire into its
  // ledger), remove its knowledge sources, and cancel its stream receives —
  // all without touching the survivors. Where the sweep runs is
  // observation-invariant: every counter it folds is already final once
  // the tenant's links are terminal. Only every 64th pass sweeps, so a
  // teardown is a change for the scheduler's wedge detector: the quiet
  // passes before it did not show that it was due.
  auto teardown_sweep = [&] {
    if (!fabric) return;
    for (const auto& lvl : levels) {
      if (std::find(torn_down.begin(), torn_down.end(), lvl.app_id) !=
          torn_down.end())
        continue;
      bool any = false;
      bool done = true;
      for (const auto& ps : stream.peer_stats()) {
        if (rt.partition_of_world(ps.universe_rank).id != lvl.app_id)
          continue;
        any = true;
        if (!ps.closed && !ps.dead) {
          done = false;
          break;
        }
      }
      if (!any || !done) continue;
      board.drain();
      board.remove_tenant(lvl.app_id);
      stream.reclaim_closed_slots();
      torn_down.push_back(lvl.app_id);
      mpi::fib::progressed();
    }
  };

  for (;;) {
    blocks.clear();
    batch.clear();
    app_batches.clear();
    // The admission root must never block in read(): verdicts owed to
    // queued tenants are issued by *this* loop, and a pending tenant's
    // links carry no data until it is admitted and running.
    const int r = stream.read_some(blocks, read_batch,
                                   admission_root ? vmpi::kNonblock : 0);
    for (auto& block : blocks) {
      const auto view = inst::PackView::parse(block->data(), block->size());
      int app = -1;
      if (view.valid()) {
        app = static_cast<int>(view.header->app_id);
        if (fabric) {
          const TenantSpec* spec = cfg.fabric.find(app);
          if (spec != nullptr &&
              shed_pack(*spec, *view.header, link_accepted)) {
            // Dropped over quota: charged to this tenant's ledger only.
            // No analysis time is spent on it, so a flooding tenant
            // cannot slow the reader down for its neighbours either.
            auto& ts = local_tenant[app];
            ++ts.packs_shed;
            ts.events_shed += view.header->event_count;
            continue;
          }
          auto& ts = local_tenant[app];
          for (const auto& ev : view.span())
            ts.latency.add(view.header->t_flush - ev.t_begin,
                           inst::event_weight(ev));
        }
        rc.advance(static_cast<double>(view.header->event_count) * per_event);
        auto& dg = local_degrade[app];
        switch (static_cast<inst::PackMode>(view.header->mode)) {
          case inst::PackMode::Full: ++dg.packs_full; break;
          case inst::PackMode::Sampled: ++dg.packs_sampled; break;
          case inst::PackMode::Aggregated: ++dg.packs_aggregated; break;
        }
      }
      if (fabric)
        app_batches[app].emplace_back(pack_type(), std::move(block));
      else
        batch.emplace_back(pack_type(), std::move(block));
    }
    if (!batch.empty()) board.submit_batch(batch);
    // Fabric: one submission per application so the batch carries a
    // tenant affinity — the fair-share scheduler keys each tenant's jobs
    // to its own FIFO and round-robins across them.
    for (auto& [app, ab] : app_batches) board.submit_batch(ab, app);
    bool drained = true;
    if (admission) drained = admission->poll(rc);
    // 0 = every writer closed cleanly; kEpipe = no more data can arrive
    // but >= 1 writer died — either way, analyze what we got. The
    // admission root additionally waits for the control plane to drain
    // (every tenant attached, decided and released).
    if ((r == 0 || r == vmpi::kEpipe) && drained) break;
    if (fabric && (++sweep_tick & 63u) == 0) teardown_sweep();
    // Non-blocking root: don't spin while the fabric is idle. An idle
    // wait resumes once no other rank can run; no virtual clock moves. A
    // kEagain from read_some() already was one.
    if (admission_root && blocks.empty() && r != vmpi::kEagain)
      mpi::fib::idle();
  }
  teardown_sweep();
  board.drain();
  board.stop();

  // Data-loss ledger: fold this rank's per-link stream health into
  // per-application records (universe rank -> owning partition). Every
  // lost or corrupt block could have carried a full event pack.
  std::map<int, LossLedger> local_loss;
  const std::uint64_t pack_events =
      inst::pack_capacity(block_size);
  std::map<int, AppTelemetry> local_telemetry;
  for (const auto& ps : stream.peer_stats()) {
    const auto& part = rt.partition_of_world(ps.universe_rank);
    auto& ledger = local_loss[part.id];
    ledger.blocks_lost += ps.blocks_lost;
    ledger.blocks_corrupted += ps.blocks_corrupted;
    ledger.blocks_retried += ps.blocks_retried;
    ledger.events_dropped_estimate +=
        (ps.blocks_lost + ps.blocks_corrupted) * pack_events;
    if (ps.dead)
      merge_dead_ranks(ledger.dead_ranks,
                       ps.universe_rank - part.first_world_rank);
    auto& tel = local_telemetry[part.id];
    tel.stream_blocks += ps.blocks_delivered;
    tel.stream_bytes += ps.bytes_delivered;
    if (ps.failover_join) ++tel.failover_joins;
    if (ps.drain_join) ++tel.planned_handoffs;
    tel.blocks_replayed += ps.blocks_replayed;
  }

  // Reduce per-application partials onto the surviving root chosen above.
  std::map<int, AppResults> merged_apps;  // root only
  for (const auto& lvl : levels) {
    AppResults local;
    local.app_id = lvl.app_id;
    local.name = lvl.name;
    local.size = lvl.size;
    profiler.merge_into(local, lvl.app_id);
    topology.merge_into(local, lvl.app_id);
    density.merge_into(local, lvl.app_id);
    if (cfg.enable_temporal) temporal.merge_into(local, lvl.app_id);
    if (cfg.enable_wait_states) waits.merge_into(local, lvl.app_id);
    if (auto it = local_loss.find(lvl.app_id); it != local_loss.end())
      local.loss = it->second;
    if (auto it = local_telemetry.find(lvl.app_id);
        it != local_telemetry.end())
      local.telemetry = it->second;
    if (auto it = local_degrade.find(lvl.app_id); it != local_degrade.end())
      local.degrade = it->second;
    if (fabric) {
      if (auto it = local_tenant.find(lvl.app_id); it != local_tenant.end())
        local.tenant = it->second;
      // Blackboard work charged to this tenant on this rank (retired KS
      // counters were folded into the ledger at teardown).
      const auto tc = board.tenant_counters(lvl.app_id);
      local.tenant.jobs_executed = tc.jobs_executed;
      local.tenant.jobs_failed = tc.jobs_failed;
      local.tenant.ks_quarantined = tc.ks_quarantined;
    }
    for (auto& v : local.density)
      if (v.size() < static_cast<std::size_t>(lvl.size))
        v.resize(static_cast<std::size_t>(lvl.size), 0.0);

    // The reduction ships serialized partials: every non-root rank sends
    // its level's AppResults, the root folds each surviving peer's blob
    // into its own.
    if (arank != root) {
      const auto blob = serialize(local);
      const std::uint64_t n = blob.size();
      world.psend(&n, sizeof n, root, kReduceTag);
      if (n > 0) world.psend(blob.data(), n, root, kReduceTag);
      continue;
    }
    for (int src = 0; src < world.size(); ++src) {
      if (src == arank) continue;
      std::uint64_t n = 0;
      // A dead analyzer rank fails these receives cleanly (kErrPeerDead),
      // so the reduction degrades to the surviving partials.
      if (world.precv(&n, sizeof n, src, kReduceTag).error != 0) continue;
      std::vector<std::byte> blob(n);
      if (n > 0 && world.precv(blob.data(), n, src, kReduceTag).error != 0)
        continue;
      merge_serialized(local, blob);
    }
    merged_apps[lvl.app_id] = std::move(local);
  }

  // Fabric root: stamp each chapter with its admission record (arrival,
  // verdict, admit/release times) — metadata only the admission root has.
  if (admission) {
    for (auto& [id, app] : merged_apps) {
      app.tenant.fabric = true;
      const auto it = admission->records().find(id);
      if (it == admission->records().end()) continue;
      const auto& rec = it->second;
      app.tenant.admitted = rec.admitted;
      app.tenant.rejected = rec.decided && !rec.admitted;
      app.tenant.arrival = rec.arrival;
      app.tenant.t_admit = rec.t_admit;
      app.tenant.t_release = rec.t_release;
      app.tenant.released_by_death = rec.released_by_death;
    }
  }

  // Session-health + engine-telemetry reduction: explicit point-to-point
  // (not a collective — collectives would deadlock on a dead analyzer
  // rank).
  const auto bstats = board.stats();
  const auto sstats = stream.stats();
  std::uint64_t health[9] = {
      bstats.jobs_failed,       bstats.ks_quarantined, bstats.jobs_executed,
      bstats.batches_submitted, sstats.blocks_read,    sstats.bytes_read,
      sstats.eagain_returns,    sstats.drain_joins,    sstats.failover_joins};
  if (arank != root) {
    world.psend(health, sizeof health, root, kReduceTag + 1);
    return;
  }
  SessionHealth session_health;
  session_health.jobs_failed = health[0];
  session_health.ks_quarantined = health[1];
  session_health.telemetry.jobs_executed = health[2];
  session_health.telemetry.batches_submitted = health[3];
  session_health.telemetry.blocks_read = health[4];
  session_health.telemetry.bytes_read = health[5];
  session_health.telemetry.eagain_returns = health[6];
  session_health.planned_handoffs = health[7];
  session_health.failover_joins = health[8];
  for (int src = 0; src < world.size(); ++src) {
    if (src == arank) continue;
    std::uint64_t h[9] = {};
    if (world.precv(h, sizeof h, src, kReduceTag + 1).error != 0) {
      merge_dead_ranks(session_health.dead_analyzer_ranks, src);
      continue;
    }
    session_health.jobs_failed += h[0];
    session_health.ks_quarantined += h[1];
    session_health.telemetry.jobs_executed += h[2];
    session_health.telemetry.batches_submitted += h[3];
    session_health.telemetry.blocks_read += h[4];
    session_health.telemetry.bytes_read += h[5];
    session_health.telemetry.eagain_returns += h[6];
    session_health.planned_handoffs += h[7];
    session_health.failover_joins += h[8];
  }
  // Membership roll-up: the plan facts every rank shares, plus the joins
  // that actually announced themselves (a crashed joiner's announce fails
  // its matching receive cleanly and is simply not counted).
  if (elastic.enabled()) {
    session_health.membership_epochs =
        static_cast<std::uint64_t>(elastic.epoch_count());
    session_health.members_joined =
        static_cast<std::uint64_t>(elastic.joins());
    session_health.members_left =
        static_cast<std::uint64_t>(elastic.leaves());
    for (int e = 1; e < elastic.epoch_count(); ++e) {
      const auto& ev = elastic.event_opening(e);
      if (!ev.join || ev.member == root) continue;
      MembershipAnnounce ann;
      if (world.precv(&ann, sizeof ann, ev.member, kMembershipTag).error == 0)
        ++session_health.join_announcements;
    }
  }
  // Fabric roll-up: the admission tallies plus what quota shedding cost
  // the session across all tenants.
  if (admission) {
    session_health.tenants_admitted =
        static_cast<std::uint64_t>(admission->admitted_count());
    session_health.tenants_rejected =
        static_cast<std::uint64_t>(admission->rejected_count());
    for (const auto& [id, app] : merged_apps) {
      (void)id;
      session_health.tenant_packs_shed += app.tenant.packs_shed;
    }
  }
  // Crashed ranks, from the runtime's authoritative records: every app
  // rank died (if at all) before its stream drained, so the list is
  // complete by the time the report is written.
  for (const auto& d : rt.deaths())
    merge_dead_ranks(session_health.dead_world_ranks, d.world_rank);
  std::sort(session_health.dead_world_ranks.begin(),
            session_health.dead_world_ranks.end());
  // The reduce root writes the chaptered report and fills the sink.
  if (!cfg.output_dir.empty()) {
    std::vector<const AppResults*> apps;
    apps.reserve(merged_apps.size());
    for (const auto& [id, app] : merged_apps) {
      (void)id;
      apps.push_back(&app);
    }
    write_report(cfg.output_dir, apps, &session_health);
  }
  if (cfg.results) {
    std::lock_guard lock(cfg.results->mu);
    for (auto& [id, app] : merged_apps)
      cfg.results->apps[id] = std::move(app);
    cfg.results->health = session_health;
  }
}

}  // namespace esp::an
