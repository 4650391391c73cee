#include "analysis/modules.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "core/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace esp::an {

using inst::Event;
using inst::EventKind;
using inst::PackView;

namespace {

struct AnObs {
  obs::Counter& packs = obs::counter("an.packs_unpacked");
  obs::Counter& events = obs::counter("an.events_unpacked");
  obs::Counter& malformed = obs::counter("an.packs_malformed");
  obs::Counter& run_copies = obs::counter("an.packs_copy_fallback");
};

/// A pack whose mpi/posix events interleave in more runs than this is
/// shipped as two per-class copies instead of per-run views: pathological
/// interleaves would otherwise fan out into hundreds of tiny jobs. The
/// split decision is a pure function of the pack bytes, so same-seed runs
/// make the same choice and stay bit-identical.
constexpr std::size_t kMaxViewRuns = 16;

AnObs& aobs() {
  static AnObs o;
  return o;
}

}  // namespace

const char* kind_slot_name(std::size_t slot) noexcept {
  if (slot < kMpiKinds)
    return mpi::call_kind_name(static_cast<mpi::CallKind>(slot));
  switch (slot - kMpiKinds) {
    case 0: return "open";
    case 1: return "read";
    case 2: return "write";
    default: return "?";
  }
}

const char* density_metric_name(DensityMetric m) noexcept {
  switch (m) {
    case DensityMetric::SendHits: return "send_hits";
    case DensityMetric::P2pBytes: return "p2p_total_size";
    case DensityMetric::WaitTime: return "wait_time";
    case DensityMetric::CollTime: return "collective_time";
    case DensityMetric::PosixBytes: return "posix_total_size";
    case DensityMetric::PosixTime: return "posix_time";
    case DensityMetric::kCount: break;
  }
  return "?";
}

void register_dispatcher(bb::Blackboard& board,
                         const std::vector<AppLevel>& levels) {
  // app_id -> level type id table, captured by value.
  std::map<int, bb::TypeId> route;
  for (const auto& l : levels) route[l.app_id] = pack_type(l);
  board.register_ks(
      {"dispatcher",
       {pack_type()},
       [route](bb::Blackboard& b, std::span<const bb::DataEntry> entries) {
         const auto& e = entries[0];
         PackView v = PackView::parse(e.payload->data(), e.payload->size());
         if (!v.valid()) return;  // malformed pack: dropped
         auto it = route.find(static_cast<int>(v.header->app_id));
         if (it == route.end()) return;
         // Same payload, re-typed onto the application's level: the
         // ref-count rises; no copy.
         b.push(bb::DataEntry(it->second, e.payload));
       }});
}

void register_unpacker(bb::Blackboard& board, const AppLevel& level) {
  const bb::TypeId in = pack_type(level);
  const bb::TypeId out_mpi = mpi_events_type(level);
  const bb::TypeId out_posix = posix_events_type(level);
  const int tenant = level.app_id;
  board.register_ks(
      {"unpacker:" + level.name,
       {in},
       [out_mpi, out_posix, tenant](bb::Blackboard& b,
                                    std::span<const bb::DataEntry> entries) {
         const auto& e = entries[0];
         const bool obs_on = obs::enabled();
         const double t_begin = obs_on ? obs::real_now() : 0.0;
         PackView v = PackView::parse(e.payload->data(), e.payload->size());
         if (!v.valid()) {
           if (obs_on) aobs().malformed.add(1);
           return;
         }
         const auto events = v.span();
         // Maximal runs of the same event class (mpi vs posix). Each run
         // is already contiguous in the stream block, so it can go to the
         // profiling KSs as a view that aliases the block — no copy, and
         // the block returns to its pool when the last run is consumed.
         std::size_t runs = 0;
         for (std::size_t i = 0; i < events.size(); ++runs) {
           const bool is_mpi = inst::is_mpi(events[i].kind);
           do {
             ++i;
           } while (i < events.size() && inst::is_mpi(events[i].kind) == is_mpi);
         }
         // All derived entries enter the board in one batch: the
         // profiling KSs downstream are locked once per pack, and the
         // scratch vector's capacity is retained across packs.
         static thread_local std::vector<bb::DataEntry> out;
         out.clear();
         if (runs <= kMaxViewRuns) {
           for (std::size_t i = 0; i < events.size();) {
             const bool is_mpi = inst::is_mpi(events[i].kind);
             std::size_t j = i + 1;
             while (j < events.size() &&
                    inst::is_mpi(events[j].kind) == is_mpi)
               ++j;
             const std::size_t off =
                 sizeof(inst::PackHeader) + i * sizeof(Event);
             const std::size_t len = (j - i) * sizeof(Event);
             out.emplace_back(is_mpi ? out_mpi : out_posix,
                              Buffer::view_of(e.payload, off, len));
             i = j;
           }
         } else {
           // Copy fallback: two per-class buffers, events in pack order.
           // Pool keys are power-of-two so pathological packs of similar
           // size share pools instead of minting one per byte count.
           if (obs_on) aobs().run_copies.add(1);
           std::size_t n_mpi = 0;
           for (const Event& ev : events)
             if (inst::is_mpi(ev.kind)) ++n_mpi;
           auto make_class_buf = [](std::size_t n_events) {
             const std::size_t bytes = n_events * sizeof(Event);
             return mem::acquire_block(std::bit_ceil(bytes), bytes);
           };
           BufferRef mpi_buf, posix_buf;
           Event* mpi_out = nullptr;
           Event* posix_out = nullptr;
           if (n_mpi > 0) {
             mpi_buf = make_class_buf(n_mpi);
             mpi_out = mpi_buf->as_mutable<Event>().data();
           }
           if (n_mpi < events.size()) {
             posix_buf = make_class_buf(events.size() - n_mpi);
             posix_out = posix_buf->as_mutable<Event>().data();
           }
           for (const Event& ev : events) {
             if (inst::is_mpi(ev.kind))
               *mpi_out++ = ev;
             else
               *posix_out++ = ev;
           }
           if (mpi_buf) out.emplace_back(out_mpi, std::move(mpi_buf));
           if (posix_buf) out.emplace_back(out_posix, std::move(posix_buf));
         }
         // Derived entries keep the tenant's affinity so the fair-share
         // scheduler can key them to the same FIFO.
         b.submit_batch(out, tenant);
         // Drop the view references now — a scratch entry lingering until
         // the next pack would pin this pack's stream block.
         out.clear();
         if (obs_on) {
           auto& o = aobs();
           o.packs.add(1);
           o.events.add(v.header->event_count);
           // Worker-thread track, real time (no virtual clock off-rank).
           obs::trace_span("an", "an.unpack", t_begin, obs::real_now(),
                           v.header->event_count, "events");
         }
       },
       level.app_id});
}

// ---------------------------------------------------------------------------
// MpiProfiler
// ---------------------------------------------------------------------------

std::shared_ptr<MpiProfiler::PerApp> MpiProfiler::app(int id) {
  std::lock_guard lock(mu_);
  auto& slot = apps_[id];
  if (!slot) slot = std::make_shared<PerApp>();
  return slot;
}

void MpiProfiler::register_on(bb::Blackboard& board, const AppLevel& level) {
  auto acc = app(level.app_id);
  auto op = [acc](bb::Blackboard&, std::span<const bb::DataEntry> entries) {
    const auto events = entries[0].payload->as<Event>();
    std::lock_guard lock(acc->mu);
    for (const Event& ev : events) {
      // Degraded (sampled/aggregated) records carry a statistical weight:
      // one record stands for `w` real calls, with per-call averages in
      // its payload fields — so every accumulation scales by w.
      const std::uint64_t w = inst::event_weight(ev);
      auto& ks = acc->per_kind[kind_slot(ev.kind)];
      ks.hits += w;
      ks.time += static_cast<double>(w) * (ev.t_end - ev.t_begin);
      ks.bytes += w * ev.bytes;
      acc->total_events += w;
      if (ev.t_end > acc->last_event_time) acc->last_event_time = ev.t_end;
    }
  };
  board.register_ks({"mpi_profiler:" + level.name,
                     {mpi_events_type(level)},
                     op,
                     level.app_id});
  board.register_ks({"posix_profiler:" + level.name,
                     {posix_events_type(level)},
                     op,
                     level.app_id});
}

void MpiProfiler::merge_into(AppResults& out, int app_id) const {
  std::shared_ptr<PerApp> acc;
  {
    std::lock_guard lock(mu_);
    auto it = apps_.find(app_id);
    if (it == apps_.end()) return;
    acc = it->second;
  }
  std::lock_guard lock(acc->mu);
  for (std::size_t i = 0; i < kKindSlots; ++i) {
    out.per_kind[i].hits += acc->per_kind[i].hits;
    out.per_kind[i].time += acc->per_kind[i].time;
    out.per_kind[i].bytes += acc->per_kind[i].bytes;
  }
  out.total_events += acc->total_events;
  if (acc->last_event_time > out.last_event_time)
    out.last_event_time = acc->last_event_time;
}

// ---------------------------------------------------------------------------
// TopologyModule
// ---------------------------------------------------------------------------

std::shared_ptr<TopologyModule::PerApp> TopologyModule::app(int id) {
  std::lock_guard lock(mu_);
  auto& slot = apps_[id];
  if (!slot) slot = std::make_shared<PerApp>();
  return slot;
}

void TopologyModule::register_on(bb::Blackboard& board,
                                 const AppLevel& level) {
  auto acc = app(level.app_id);
  board.register_ks(
      {"topology:" + level.name,
       {mpi_events_type(level)},
       [acc](bb::Blackboard&, std::span<const bb::DataEntry> entries) {
         const auto events = entries[0].payload->as<Event>();
         std::lock_guard lock(acc->mu);
         for (const Event& ev : events) {
           // Count each transfer once, at the send side.
           const auto k = inst::to_call_kind(ev.kind);
           if (k != mpi::CallKind::Send && k != mpi::CallKind::Isend) continue;
           if (ev.peer < 0) continue;  // also skips aggregated records
           const std::uint64_t w = inst::event_weight(ev);
           auto& cell = acc->comm[AppResults::comm_key(ev.rank, ev.peer)];
           cell.hits += w;
           cell.bytes += w * ev.bytes;
           cell.time += static_cast<double>(w) * (ev.t_end - ev.t_begin);
         }
       },
       level.app_id});
}

void TopologyModule::merge_into(AppResults& out, int app_id) const {
  std::shared_ptr<PerApp> acc;
  {
    std::lock_guard lock(mu_);
    auto it = apps_.find(app_id);
    if (it == apps_.end()) return;
    acc = it->second;
  }
  std::lock_guard lock(acc->mu);
  for (const auto& [key, cell] : acc->comm) {
    auto& c = out.comm[key];
    c.hits += cell.hits;
    c.bytes += cell.bytes;
    c.time += cell.time;
  }
}

// ---------------------------------------------------------------------------
// DensityModule
// ---------------------------------------------------------------------------

std::shared_ptr<DensityModule::PerApp> DensityModule::app(int id, int size) {
  std::lock_guard lock(mu_);
  auto& slot = apps_[id];
  if (!slot) {
    slot = std::make_shared<PerApp>();
    for (auto& v : slot->density)
      v.assign(static_cast<std::size_t>(size), 0.0);
  }
  return slot;
}

void DensityModule::register_on(bb::Blackboard& board, const AppLevel& level) {
  auto acc = app(level.app_id, level.size);
  auto op = [acc](bb::Blackboard&, std::span<const bb::DataEntry> entries) {
    const auto events = entries[0].payload->as<Event>();
    std::lock_guard lock(acc->mu);
    auto at = [&](DensityMetric m) -> std::vector<double>& {
      return acc->density[static_cast<std::size_t>(m)];
    };
    for (const Event& ev : events) {
      const auto r = static_cast<std::size_t>(ev.rank);
      if (r >= at(DensityMetric::SendHits).size()) continue;
      const double w = static_cast<double>(inst::event_weight(ev));
      const double dt = w * (ev.t_end - ev.t_begin);
      if (inst::is_mpi(ev.kind)) {
        const auto k = inst::to_call_kind(ev.kind);
        if (k == mpi::CallKind::Send || k == mpi::CallKind::Isend) {
          at(DensityMetric::SendHits)[r] += w;
          at(DensityMetric::P2pBytes)[r] += w * static_cast<double>(ev.bytes);
        }
        if (mpi::is_wait(k)) at(DensityMetric::WaitTime)[r] += dt;
        if (mpi::is_collective(k)) at(DensityMetric::CollTime)[r] += dt;
      } else {
        at(DensityMetric::PosixBytes)[r] += w * static_cast<double>(ev.bytes);
        at(DensityMetric::PosixTime)[r] += dt;
      }
    }
  };
  board.register_ks(
      {"density:" + level.name, {mpi_events_type(level)}, op, level.app_id});
  board.register_ks({"density_posix:" + level.name,
                     {posix_events_type(level)},
                     op,
                     level.app_id});
}

void DensityModule::merge_into(AppResults& out, int app_id) const {
  std::shared_ptr<PerApp> acc;
  {
    std::lock_guard lock(mu_);
    auto it = apps_.find(app_id);
    if (it == apps_.end()) return;
    acc = it->second;
  }
  std::lock_guard lock(acc->mu);
  for (std::size_t m = 0; m < kDensityMetrics; ++m) {
    auto& dst = out.density[m];
    const auto& src = acc->density[m];
    if (dst.size() < src.size()) dst.resize(src.size(), 0.0);
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
  }
}

}  // namespace esp::an
