#include "instrument/online_instrument.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "core/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "vmpi/map.hpp"

namespace esp::inst {

namespace {
/// Mapping policy from instrumented partition to the analyzer.
constexpr vmpi::MapPolicy kMapPolicy = vmpi::MapPolicy::RoundRobin;
/// Backpressure waits within one flush window that trigger a step down.
constexpr std::uint64_t kDegradeDownThreshold = 1;
/// Consecutive clear windows before stepping one rung back up.
constexpr int kDegradeUpWindows = 2;

struct InstObs {
  obs::Counter& events = obs::counter("inst.events");
  obs::Counter& packs = obs::counter("inst.packs");
  obs::Counter& bytes = obs::counter("inst.bytes_streamed");
  obs::Counter& steps_down = obs::counter("inst.degrade_steps_down");
  obs::Counter& steps_up = obs::counter("inst.degrade_steps_up");
  obs::Counter& sampled_out = obs::counter("inst.calls_sampled_out");
  obs::Counter& aggregated = obs::counter("inst.calls_aggregated");
};

InstObs& iobs() {
  static InstObs o;
  return o;
}
}  // namespace

const char* event_kind_name(EventKind k) noexcept {
  if (is_mpi(k)) return mpi::call_kind_name(to_call_kind(k));
  switch (k) {
    case EventKind::PosixOpen: return "open";
    case EventKind::PosixRead: return "read";
    case EventKind::PosixWrite: return "write";
    default: return "unknown";
  }
}

struct OnlineInstrument::RankState {
  vmpi::Stream stream;
  // Pack staging area, drawn from the block pool so rank open/close cycles
  // (tenant sessions) recycle the same staging blocks instead of
  // reallocating them per rank.
  BufferRef pack;
  std::uint32_t count = 0;
  std::uint32_t capacity = 0;
  std::uint64_t seq = 0;
  std::uint64_t events = 0;
  std::uint64_t packs = 0;
  std::uint64_t bytes_streamed = 0;
  bool open = false;

  // Degradation ladder. A "window" is `capacity` observed calls — the
  // call budget of one full-fidelity pack — so every rung flushes (and
  // re-evaluates the ladder) at the same cadence.
  PackMode mode = PackMode::Full;
  std::uint32_t stride = 1;          ///< Active 1-in-N stride (Sampled).
  std::uint64_t sample_tick = 0;     ///< Call index for the sampler.
  std::uint64_t window_calls = 0;    ///< Calls observed since last flush.
  std::uint64_t last_bp_waits = 0;   ///< Pressure baseline at last flush.
  int clear_windows = 0;
  std::uint64_t windows_full = 0;
  std::uint64_t windows_sampled = 0;
  std::uint64_t windows_aggregated = 0;
  std::uint64_t sampled_out = 0;
  std::uint64_t aggregated_calls = 0;

  // Tenant fabric: admit stamp + entry-rate budget for this rank.
  double t_admit = 0.0;
  double window_t0 = 0.0;  ///< Clock at the last window boundary.
  double rate_quota = 0.0; ///< Events/virtual second; 0 = unbudgeted.

  /// Per-kind accumulator for the Aggregated rung; materialized into
  /// synthetic weighted events at each flush.
  struct AggCell {
    std::uint64_t hits = 0;
    std::uint64_t bytes = 0;
    double time = 0.0;
    double t_last = 0.0;
  };
  std::map<std::uint32_t, AggCell> agg;

  explicit RankState(const vmpi::StreamConfig& scfg)
      : stream(scfg), pack(mem::acquire_block(scfg.block_size)) {}
};

OnlineInstrument::OnlineInstrument(mpi::Runtime& rt, InstrumentConfig cfg)
    : rt_(rt), cfg_(std::move(cfg)) {
  states_.resize(static_cast<std::size_t>(rt.world_size()));
}

OnlineInstrument::~OnlineInstrument() = default;

OnlineInstrument::RankState& OnlineInstrument::state(mpi::RankContext& rc) {
  auto& slot = states_[static_cast<std::size_t>(rc.world_rank)];
  return *slot;
}

void OnlineInstrument::on_init(mpi::RankContext& rc) {
  const auto* an = rt_.partition_by_name(cfg_.analyzer_partition);
  if (an == nullptr)
    throw std::runtime_error("analyzer partition not found: " +
                             cfg_.analyzer_partition);

  vmpi::StreamConfig scfg{cfg_.block_size, cfg_.n_async, cfg_.policy};
  scfg.hb_lease = cfg_.hb_lease;
  scfg.hb_interval = cfg_.hb_interval;
  scfg.resend_window = cfg_.resend_window;
  auto st = std::make_unique<RankState>(scfg);
  st->capacity = pack_capacity(cfg_.block_size);
  if (const auto it = cfg_.tenant_rate.find(rc.partition_id);
      it != cfg_.tenant_rate.end())
    st->rate_quota = it->second;
  if (cfg_.degrade_force_mode >= 0) {
    st->mode = static_cast<PackMode>(cfg_.degrade_force_mode);
    if (st->mode == PackMode::Sampled)
      st->stride = std::max<std::uint32_t>(1, cfg_.degrade_stride);
  }

  // Build the ProcEnv view this tool needs (on_init runs before main).
  mpi::ProcEnv env;
  env.universe = rt_.universe();
  env.world = rt_.partition_comm(rc.partition_id);
  env.partition = &rt_.partitions()[static_cast<std::size_t>(rc.partition_id)];
  env.runtime = &rt_;
  env.universe_rank = rc.world_rank;
  env.world_rank = rc.partition_rank;

  vmpi::Map map;
  map.map_partitions(env, an->id, kMapPolicy);
  st->stream.open_map(env, map, "w");
  st->open = true;

  states_[static_cast<std::size_t>(rc.world_rank)] = std::move(st);
  // The rank's active instrumentation, for record_posix.
  rc.tool_state = states_[static_cast<std::size_t>(rc.world_rank)].get();
  rc.tool = this;
}

void OnlineInstrument::append(mpi::RankContext& rc, RankState& st,
                              const Event& ev) {
  rc.advance(cfg_.per_event_cost);
  auto* base = st.pack->data() + sizeof(PackHeader);
  std::memcpy(base + st.count * sizeof(Event), &ev, sizeof(Event));
  ++st.count;
  ++st.events;
  if (obs::enabled()) iobs().events.add(1);
  if (st.count == st.capacity) flush(rc, st);
}

void OnlineInstrument::record(mpi::RankContext& rc, RankState& st,
                              const Event& ev) {
  ++st.window_calls;
  switch (st.mode) {
    case PackMode::Full:
      append(rc, st, ev);
      break;
    case PackMode::Sampled:
      // Deterministic 1-in-N: the kept record carries the stride as its
      // statistical weight; skipped calls cost nothing (the sampler's
      // branch is negligible next to timestamping + the 256-byte append).
      if (st.sample_tick++ % st.stride == 0) {
        Event w = ev;
        w.weight = st.stride;
        append(rc, st, w);
      } else {
        ++st.sampled_out;
        if (obs::enabled()) iobs().sampled_out.add(1);
      }
      break;
    case PackMode::Aggregated: {
      auto& cell = st.agg[static_cast<std::uint32_t>(ev.kind)];
      ++cell.hits;
      cell.bytes += ev.bytes;
      cell.time += ev.t_end - ev.t_begin;
      cell.t_last = ev.t_end;
      ++st.aggregated_calls;
      if (obs::enabled()) iobs().aggregated.add(1);
      break;
    }
  }
  // Sampled/Aggregated packs fill far slower than one pack per
  // `capacity` calls (or never, for aggregation) — flush on the window
  // boundary so the ladder re-evaluates at a mode-independent cadence.
  if (st.window_calls >= st.capacity) flush(rc, st);
}

void OnlineInstrument::flush(mpi::RankContext& rc, RankState& st) {
  if (!st.open) return;
  // Materialize the Aggregated rung's accumulators into synthetic
  // weighted events: weight = hits, bytes/duration = per-call averages,
  // stamped at the window's end with no peer (topology and wait-state
  // analysis skip them by construction). The weighted module rule
  // (hits += w, time += w*dt, bytes += w*bytes) then recovers the window
  // totals, up to integer-average rounding on bytes.
  if (st.mode == PackMode::Aggregated) {
    for (const auto& [kind, cell] : st.agg) {
      // A tiny block size can hold fewer events than there are distinct
      // kinds; ship the partial pack and keep materializing.
      if (st.count == st.capacity) write_pack(rc, st);
      Event ev;
      ev.kind = static_cast<EventKind>(kind);
      ev.rank = rc.partition_rank;
      ev.peer = -1;
      ev.bytes = cell.hits > 0 ? cell.bytes / cell.hits : 0;
      const double avg_dt =
          cell.hits > 0 ? cell.time / static_cast<double>(cell.hits) : 0.0;
      ev.t_begin = cell.t_last - avg_dt;
      ev.t_end = cell.t_last;
      ev.weight = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(cell.hits, 0xffffffffu));
      auto* base = st.pack->data() + sizeof(PackHeader);
      std::memcpy(base + st.count * sizeof(Event), &ev, sizeof(Event));
      ++st.count;
      ++st.events;
    }
    st.agg.clear();
  }
  if (st.count > 0) write_pack(rc, st);
  const std::uint64_t window_calls = st.window_calls;
  st.window_calls = 0;
  ladder_update(rc, st, window_calls);
  st.window_t0 = rc.clock;
}

void OnlineInstrument::write_pack(mpi::RankContext& rc, RankState& st) {
  const bool obs_on = obs::enabled();
  const double t_begin = rc.clock;
  PackHeader h;
  h.app_id = static_cast<std::uint32_t>(rc.partition_id);
  h.app_rank = rc.partition_rank;
  h.event_count = st.count;
  h.seq = st.seq++;
  h.mode = static_cast<std::uint32_t>(st.mode);
  h.sample_stride = st.mode == PackMode::Sampled ? st.stride : 1;
  h.t_flush = rc.clock;
  h.t_admit = st.t_admit;
  std::memcpy(st.pack->data(), &h, sizeof h);
  // Full packs ship as whole blocks; the finalize tail ships only its
  // used bytes (a real tool does not pad its last buffer to 1 MB).
  const std::uint64_t used = sizeof(PackHeader) + st.count * sizeof(Event);
  const std::uint32_t count = st.count;
  st.stream.write_partial(st.pack->data(), used);
  st.bytes_streamed += used;
  st.count = 0;
  ++st.packs;
  switch (st.mode) {
    case PackMode::Full: ++st.windows_full; break;
    case PackMode::Sampled: ++st.windows_sampled; break;
    case PackMode::Aggregated: ++st.windows_aggregated; break;
  }
  if (obs_on) {
    auto& o = iobs();
    o.packs.add(1);
    o.bytes.add(used);
    obs::trace_span("inst", "inst.flush", t_begin, rc.clock, count,
                    "events", used, "bytes");
  }
}

void OnlineInstrument::ladder_update(mpi::RankContext& rc, RankState& st,
                                     std::uint64_t window_calls) {
  if (!cfg_.degrade || cfg_.degrade_force_mode >= 0) return;
  // Pressure signal: backpressure waits accumulated during the window
  // that just flushed — virtual-time stalls of this rank's stream writer
  // (see Stream::acquire_out_buf), so the ladder replays identically
  // run-to-run. Budgeted (tenant-fabric) ranks use their own entry rate
  // instead: a tenant over its budget steps down even while the stream
  // still keeps up, and a tenant under budget never degrades just
  // because a noisy neighbour congested the analyzer.
  const std::uint64_t bp = st.stream.stats().backpressure_waits;
  const std::uint64_t delta = bp - st.last_bp_waits;
  st.last_bp_waits = bp;
  bool pressured;
  if (st.rate_quota > 0.0) {
    const double dt = rc.clock - st.window_t0;
    pressured = window_calls > 0 &&
                (dt <= 0.0 ||
                 static_cast<double>(window_calls) > st.rate_quota * dt);
  } else {
    pressured = delta >= kDegradeDownThreshold;
  }
  if (pressured) {
    st.clear_windows = 0;
    if (st.mode == PackMode::Full) {
      st.mode = PackMode::Sampled;
      st.stride = std::max<std::uint32_t>(1, cfg_.degrade_stride);
      if (obs::enabled()) iobs().steps_down.add(1);
    } else if (st.mode == PackMode::Sampled) {
      st.mode = PackMode::Aggregated;
      if (obs::enabled()) iobs().steps_down.add(1);
    }
    return;
  }
  if (st.mode == PackMode::Full) return;
  if (++st.clear_windows >= kDegradeUpWindows) {
    st.clear_windows = 0;
    st.mode = st.mode == PackMode::Aggregated ? PackMode::Sampled
                                              : PackMode::Full;
    if (st.mode == PackMode::Sampled)
      st.stride = std::max<std::uint32_t>(1, cfg_.degrade_stride);
    if (obs::enabled()) iobs().steps_up.add(1);
  }
}

void OnlineInstrument::on_call(mpi::RankContext& rc, const mpi::CallInfo& ci) {
  auto& st = state(rc);
  Event ev;
  ev.kind = event_kind(ci.kind);
  ev.rank = rc.partition_rank;
  ev.peer = ci.peer;
  ev.tag = ci.tag;
  ev.bytes = ci.bytes;
  ev.t_begin = ci.t_begin;
  ev.t_end = ci.t_end;
  record(rc, st, ev);
}

void OnlineInstrument::on_finalize(mpi::RankContext& rc) {
  auto& st = state(rc);
  flush(rc, st);
  st.stream.close();
  st.open = false;
  total_events_ += st.events;
  total_packs_ += st.packs;
  total_bytes_ += st.bytes_streamed;
  total_windows_full_ += st.windows_full;
  total_windows_sampled_ += st.windows_sampled;
  total_windows_agg_ += st.windows_aggregated;
  total_sampled_out_ += st.sampled_out;
  total_aggregated_ += st.aggregated_calls;
  rc.tool_state = nullptr;
  rc.tool = nullptr;
}

void OnlineInstrument::note_admit(mpi::RankContext& rc, double t_admit) {
  auto& st = state(rc);
  st.t_admit = t_admit;
  st.window_t0 = std::max(st.window_t0, t_admit);
}

void OnlineInstrument::record_posix(EventKind kind, std::uint64_t bytes,
                                    double duration) {
  if (!mpi::Runtime::on_rank_thread()) return;
  auto& rc = mpi::Runtime::self();
  if (rc.tool_state == nullptr || rc.tool == nullptr) return;
  Event ev;
  ev.kind = kind;
  ev.rank = rc.partition_rank;
  ev.bytes = bytes;
  ev.t_begin = rc.clock - duration;
  ev.t_end = rc.clock;
  static_cast<OnlineInstrument*>(rc.tool)->record(
      rc, *static_cast<RankState*>(rc.tool_state), ev);
}

void posix_io(EventKind kind, std::uint64_t bytes, double duration) {
  // The IO cost itself is charged whether or not instrumentation is
  // active; the event record is only emitted under instrumentation (like
  // a real intercepted write()).
  mpi::Runtime::self().advance(duration);
  OnlineInstrument::record_posix(kind, bytes, duration);
}

InstrumentTotals OnlineInstrument::totals() const {
  InstrumentTotals t;
  t.events = total_events_;
  t.packs = total_packs_;
  t.streamed_bytes = total_bytes_;
  t.windows_full = total_windows_full_;
  t.windows_sampled = total_windows_sampled_;
  t.windows_aggregated = total_windows_agg_;
  t.calls_sampled_out = total_sampled_out_;
  t.calls_aggregated = total_aggregated_;
  return t;
}

std::shared_ptr<OnlineInstrument> attach_online_instrumentation(
    mpi::Runtime& rt, InstrumentConfig cfg) {
  auto tool = std::make_shared<OnlineInstrument>(rt, cfg);
  for (const auto& p : rt.partitions()) {
    if (p.name == cfg.analyzer_partition) continue;
    rt.tools().attach(tool, p.id);
  }
  return tool;
}

}  // namespace esp::inst
