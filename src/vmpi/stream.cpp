#include "vmpi/stream.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/hash.hpp"
#include "core/pool.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace esp::vmpi {

namespace {

/// Registry lookups hoisted out of the hot paths; every use is guarded by
/// obs::enabled().
struct StreamObs {
  obs::Counter& opens = obs::counter("stream.opens");
  obs::Counter& blocks_written = obs::counter("stream.blocks_written");
  obs::Counter& bytes_written = obs::counter("stream.bytes_written");
  obs::Counter& blocks_read = obs::counter("stream.blocks_read");
  obs::Counter& bytes_read = obs::counter("stream.bytes_read");
  obs::Counter& eagain = obs::counter("stream.eagain_returns");
  obs::Counter& epipe = obs::counter("stream.epipe_returns");
  obs::Counter& backpressure = obs::counter("stream.backpressure_waits");
  obs::Counter& seq_gaps = obs::counter("stream.seq_gap_blocks");
  obs::Counter& corrupted = obs::counter("stream.blocks_corrupted");
  obs::Counter& retried = obs::counter("stream.blocks_retried");
  obs::Counter& failovers = obs::counter("stream.failovers");
  obs::Counter& hb_missed = obs::counter("stream.heartbeats_missed");
  obs::Counter& resent = obs::counter("stream.resent_blocks");
  obs::Counter& failover_joins = obs::counter("stream.failover_joins");
  obs::Counter& planned_handoffs = obs::counter("stream.planned_handoffs");
  obs::Counter& drain_joins = obs::counter("stream.drain_joins");
  obs::Histogram& out_depth = obs::histogram("stream.out_queue_depth");
};

StreamObs& sobs() {
  static StreamObs o;
  return o;
}
/// Corrupt blocks tolerated back-to-back from one peer before the link
/// is declared hopeless and the peer quarantined (counted as dead).
constexpr int kMaxCorruptRetries = 8;
/// Virtual seconds charged to the reader's clock when it gives up on a
/// silently-dead writer (the simulated detection timeout).
constexpr double kReadDeadline = 1e-3;
/// Policy for choosing the surviving replacement endpoint.
constexpr MapPolicy kRemapPolicy = MapPolicy::RoundRobin;

constexpr int kStreamCtlTag = 0x6f100000;
/// Failover handshake tag. Deliberately *outside* the injected data-tag
/// range: link faults touch only stream data, so the handshake can never
/// be dropped, and a failover either completes or the writer itself died —
/// there is no half-joined state.
constexpr int kStreamFailoverTag = 0x6f100001;
constexpr int kStreamDataBase = net::kStreamDataTagBase;

/// Handshake payload: the writer announces the data tag and geometry.
struct StreamCtl {
  int tag = 0;
  std::uint64_t block_size = 0;
  int n_async = 0;
};

/// Failover handshake: a writer whose reader died introduces itself to
/// the replacement endpoint. `resume_seq` is the writer's next sequence
/// number on the re-routed link; `replayed` the number of resend-window
/// blocks about to follow (original sequence numbers baked into their
/// frames, so the new link's seq-gap accounting charges exactly the
/// unreplayable prefix to the loss ledger).
///
/// Elastic membership rides the same handshake: a planned drain handoff
/// sets `drain` (the successor starts clean at resume_seq, nothing
/// replayed, nothing charged), and `base_seq` carries the first sequence
/// number the current holder is accountable for — a later *crash*
/// successor charges its ledger only from there, because everything
/// below it was analyzed by live previous holders. Fixed-membership runs
/// leave both fields zero, reproducing the historical wire behavior.
struct FailoverCtl {
  StreamCtl ctl;
  std::uint64_t resume_seq = 0;
  std::uint64_t replayed = 0;
  std::uint64_t base_seq = 0;
  std::uint32_t drain = 0;
  std::uint32_t pad = 0;
};

/// On-wire block framing. The CRC covers everything after the crc field
/// (seq, payload length, payload bytes), so a bit-flip anywhere in the
/// message is caught either by the magic check or the CRC check. An
/// end-of-stream marker is a header-only message with payload == 0; its
/// seq carries the writer's final per-link block count, so blocks dropped
/// *after* the last delivered one are still counted as lost.
struct BlockHeader {
  std::uint32_t magic = 0;
  std::uint32_t crc = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;
};
static_assert(sizeof(BlockHeader) == 24, "BlockHeader must pack to 24 bytes");

constexpr std::uint32_t kBlockMagic = 0x45535042;  // "ESPB"
constexpr std::uint64_t kFrameBytes = sizeof(BlockHeader);
constexpr std::size_t kCrcOffset = offsetof(BlockHeader, seq);

/// CRC of the header fields the checksum covers (seq, payload length); the
/// payload bytes chain onto it.
std::uint32_t header_crc(const BlockHeader& h) {
  return crc32(reinterpret_cast<const std::byte*>(&h) + kCrcOffset,
               sizeof h - kCrcOffset);
}

/// Header-only end-of-stream marker closing a link after `seq` blocks.
BlockHeader eos_header(std::uint64_t seq) {
  BlockHeader h;
  h.magic = kBlockMagic;
  h.seq = seq;
  h.crc = header_crc(h);
  return h;
}
}  // namespace

Stream::Stream(StreamConfig cfg) : cfg_(cfg) {
  if (cfg_.block_size == 0) throw std::invalid_argument("block_size == 0");
  if (cfg_.n_async <= 0) throw std::invalid_argument("n_async must be > 0");
  if (!(cfg_.hb_lease >= 0)) throw std::invalid_argument("hb_lease < 0");
}

Stream::~Stream() {
  // Never auto-close from a crashed rank's unwind: close() sends EOF
  // through the p-layer, and a dead rank must not emit traffic (nor
  // re-enter check_crash mid-unwind).
  if (open_ && !closed_ && writer_ && mpi::Runtime::on_rank_thread() &&
      !mpi::Runtime::self().crashed)
    close();
  // Reader: receives may still be posted (e.g. after a kEpipe teardown);
  // a late writer completion must not notify the waitset_ we are about
  // to destroy.
  if (!writer_) disarm_receives();
}

void Stream::disarm_receives() {
  for (auto& ip : in_peers_)
    for (auto& slot : ip.slots)
      if (slot) slot->disarm_waitset(&waitset_);
}

void Stream::reclaim_closed_slots() {
  if (writer_ || !open_) return;
  auto& rc = mpi::Runtime::self();
  for (auto& ip : in_peers_) {
    if (!(ip.closed || ip.dead) || ip.slots.empty()) continue;
    // A queued send on the link (a straggler block no posted receive has
    // matched yet) would be orphaned by the cancel; leave this peer for a
    // later sweep.
    if (rt_->mailbox(rc.world_rank)
            .probe(universe_.context(), ip.universe_rank, ip.tag, nullptr,
                   nullptr, nullptr))
      continue;
    for (auto& s : ip.slots)
      if (s) s->disarm_waitset(&waitset_);
    // Per-link counters stay for the loss ledger (the InPeer itself
    // survives, just slotless).
    rt_->mailbox(rc.world_rank)
        .cancel_recvs(universe_.context(), ip.universe_rank, ip.tag);
    ip.slots.clear();
    ip.slots.shrink_to_fit();
    ip.head = 0;
  }
}

void Stream::open_map(mpi::ProcEnv& env, const Map& map, const char* mode) {
  if (open_) throw std::logic_error("stream already open");
  universe_ = env.universe;
  rt_ = env.runtime;
  writer_ = mode != nullptr && mode[0] == 'w';

  if (obs::enabled()) {
    sobs().opens.add(1);
    if (mpi::Runtime::on_rank_thread())
      obs::trace_instant("stream", writer_ ? "stream.open.w" : "stream.open.r",
                         mpi::Runtime::self().clock);
  }

  auto crash_planned = [&](int w) {
    return rt_->injector().enabled() && rt_->injector().has_crash(w);
  };
  if (writer_) {
    peers_ = map.peers();
    if (peers_.empty()) throw std::invalid_argument("writer has no endpoint");
    // Elastic membership: an endpoint inside the elastic partition follows
    // Map::elastic_route per epoch instead of the static map (route and
    // map may disagree even at epoch 0 — the reader enumerates its
    // writers by the route, so both sides agree by construction). Handoffs
    // ride the failover handshake and its sequence accounting.
    const net::ElasticSchedule& elastic = rt_->elastic();
    if (elastic.enabled()) {
      int elastic_endpoints = 0;
      for (int peer : peers_)
        if (elastic.contains_world(peer)) ++elastic_endpoints;
      if (elastic_endpoints > 1)
        throw std::invalid_argument(
            "elastic membership supports one endpoint per stream in the "
            "elastic partition");
      if (elastic_endpoints == 1) {
        elastic_armed_ = true;
        std::vector<int> active;
        for (const int m : elastic.active_at(0))
          active.push_back(elastic.world_of_member(m));
        for (int& peer : peers_)
          if (elastic.contains_world(peer))
            peer = Map::elastic_route(kRemapPolicy, rt_->config().seed,
                                      env.universe_rank, 0, active);
      }
    }
    // Tag allocation must be a pure function of (rank, open index): a
    // shared first-come-first-served counter would make the tag — and
    // with it the fault injector's per-message hash — depend on thread
    // interleaving. Unique while opens * universe_size fits the tag range.
    data_tag_ = kStreamDataBase +
                (mpi::Runtime::self().streams_opened++ * universe_.size() +
                 universe_.rank()) %
                    (net::kStreamDataTagEnd - net::kStreamDataTagBase + 1);
    StreamCtl ctl{data_tag_, cfg_.block_size, cfg_.n_async};
    for (int peer : peers_)
      universe_.psend(&ctl, sizeof ctl, peer, kStreamCtlTag);
    out_.resize(static_cast<std::size_t>(cfg_.n_async));
    out_seq_.assign(peers_.size(), 0);
    // Failover engages only when this run can actually lose a reader: a
    // crash is scheduled for an endpoint or, since an elastic endpoint can
    // move onto any member, for any member of the elastic partition. A
    // chained failover stays covered — the endpoint only moves after its
    // original peer (which had a scheduled crash) died.
    failover_armed_ = std::ranges::any_of(peers_, crash_planned);
    for (int m = 0; elastic_armed_ && m < elastic.n_members(); ++m)
      failover_armed_ |= crash_planned(elastic.world_of_member(m));
    if (failover_armed_ || elastic_armed_) {
      resend_.resize(peers_.size());
      prior_holders_.resize(peers_.size());
      replay_base_.assign(peers_.size(), 0);
    }
    open_ = true;  // only now may the destructor close it
    return;
  }

  // Reader: one handshake per expected incoming stream, then pre-post the
  // N_A block receives per peer so arrivals always find a receive.
  //
  // An elastic member ignores the static map and enumerates its writers
  // by the epoch-0 route — the same pure function the writers applied to
  // their endpoints — so both sides agree on the initial topology without
  // communication. A spare member simply starts with zero links and lives
  // off drain handoffs.
  std::vector<int> sources = map.peers();
  const net::ElasticSchedule& elastic = rt_->elastic();
  const bool elastic_reader =
      elastic.enabled() && elastic.contains_world(env.universe_rank);
  if (elastic_reader) {
    std::vector<int> active;
    for (const int m : elastic.active_at(0))
      active.push_back(elastic.world_of_member(m));
    sources.clear();
    const auto& mine = rt_->partition_of_world(env.universe_rank);
    for (const auto& part : rt_->partitions()) {
      if (part.id == mine.id) continue;
      for (int w = part.first_world_rank;
           w < part.first_world_rank + part.size; ++w) {
        if (Map::elastic_route(kRemapPolicy, rt_->config().seed, w, 0,
                               active) == env.universe_rank)
          sources.push_back(w);
      }
    }
  }
  bool adopted = false;
  for (int peer : sources) {
    StreamCtl ctl;
    mpi::Status st = universe_.precv(&ctl, sizeof ctl, peer, kStreamCtlTag);
    if (st.error != 0) {
      // Writer died before it could even open: record the link as dead so
      // it appears in the loss ledger, with nothing posted on it.
      InPeer ip;
      ip.universe_rank = peer;
      in_peers_.push_back(std::move(ip));
      mark_peer_dead(in_peers_.back());
      continue;
    }
    if (adopted && ctl.block_size != cfg_.block_size)
      throw std::runtime_error("writers disagree on block size");
    cfg_.block_size = ctl.block_size;
    adopted = true;
    InPeer ip;
    ip.universe_rank = peer;
    ip.tag = ctl.tag;
    ip.slots.resize(static_cast<std::size_t>(ctl.n_async));
    for (auto& s : ip.slots)
      s = universe_.pirecv_block(cfg_.block_size + kFrameBytes, peer, ip.tag);
    in_peers_.push_back(std::move(ip));
  }
  if (in_peers_.empty() && !elastic_reader)
    throw std::invalid_argument("reader has no endpoint");
  // A reader must hold the stream open past its own end-of-stream while a
  // sibling of its partition can still die: writers re-route the dead
  // sibling's endpoints here, and the adopted links arrive *after* this
  // reader's original writers closed. Armed by the same predicate the
  // writers use, so a fault-free run never enters the grace loop. An
  // elastic member holds it open for drain handoffs even in a fault-free
  // run: epoch boundaries re-route links here until every writer finished.
  failover_possible_ = elastic_reader;
  const auto& mine = rt_->partition_of_world(env.universe_rank);
  for (int r = mine.first_world_rank; r < mine.first_world_rank + mine.size;
       ++r)
    failover_possible_ |= r != env.universe_rank && crash_planned(r);
  open_ = true;
}

void Stream::open_peer(mpi::ProcEnv& env, int remote_universe_rank,
                       const char* mode) {
  Map m;  // degenerate one-entry map
  m.append_peer(remote_universe_rank);
  open_map(env, m, mode);
}

int Stream::next_target() {
  switch (cfg_.policy) {
    case BalancePolicy::None:
      return 0;
    case BalancePolicy::RoundRobin:
      return static_cast<int>(rr_next_++ % peers_.size());
    case BalancePolicy::Random:
      return static_cast<int>(
          mpi::Runtime::self().rng.below(peers_.size()));
  }
  return 0;
}

int Stream::acquire_out_buf() {
  for (std::size_t i = 0; i < out_.size(); ++i)
    if (!out_[i]) return static_cast<int>(i);
  // All buffers in flight: reclaim the oldest — strict FIFO, because
  // matches on one link complete in post order, and because reclaiming
  // whichever send happened to finish first in *real* time would feed
  // thread-race noise into the writer's virtual clock. Backpressure is
  // judged in virtual time too: the write stalled iff reclaiming the
  // buffer advanced the clock, a pure function of the simulated schedule
  // rather than of which thread got there first on the host.
  const std::size_t oldest = blocks_written_ % out_.size();
  const double t0 = mpi::Runtime::self().clock;
  if (mpi::pwait(out_[oldest]).error != 0) ++writes_failed_;
  out_[oldest].reset();
  if (mpi::Runtime::self().clock > t0) {
    ++backpressure_waits_;
    if (obs::enabled()) {
      sobs().backpressure.add(1);
      obs::trace_span("stream", "stream.backpressure", t0,
                      mpi::Runtime::self().clock);
    }
  }
  return static_cast<int>(oldest);
}

int Stream::write(const void* buf, int nblocks) {
  const auto* src = static_cast<const std::byte*>(buf);
  for (int b = 0; b < nblocks; ++b)
    write_partial(src + static_cast<std::size_t>(b) * cfg_.block_size,
                  cfg_.block_size);
  return nblocks;
}

int Stream::write_partial(const void* buf, std::uint64_t bytes) {
  if (!open_ || !writer_) throw std::logic_error("not an open write stream");
  if (closed_) throw std::logic_error("write on closed stream");
  if (bytes == 0 || bytes > cfg_.block_size)
    throw std::invalid_argument("bad partial-block size");
  auto& rc = mpi::Runtime::self();
  const double t_begin = rc.clock;
  if (failover_armed_ || elastic_armed_) route_endpoints(true);
  const std::size_t ti = static_cast<std::size_t>(next_target());
  const int peer = peers_[ti];
  if (peer < 0) {
    // Dead-end endpoint (its whole partition was wiped out): the block has
    // nowhere to go. The sequence slot is still consumed so per-endpoint
    // accounting stays linear.
    ++out_seq_[ti];
    ++writes_failed_;
    return 1;
  }
  const int slot = acquire_out_buf();
  BlockHeader h;
  h.magic = kBlockMagic;
  h.seq = out_seq_[ti]++;
  h.payload = bytes;
  mpi::fib::yield_point();  // the node's memory lane is booked in rank order
  rc.clock =
      rt_->machine().local_copy(rt_->core_of(rc.world_rank), bytes, rc.clock);
  // The frame goes into a pooled block sized to it; the send hands that
  // block to the reader. Keep a framed copy for replay after a failover;
  // blocks evicted from the ring are unreplayable and will surface as
  // seq-gap loss. Taken before the send: from the send on, the block
  // belongs to the reader. The ring itself is replayed through
  // raw-pointer sends and never changes hands, so a chained failover can
  // replay the same copies again. Evicted ring entries (and replayed ones
  // at teardown) go straight back to the block pool.
  const std::uint64_t framed = bytes + kFrameBytes;
  BufferRef block = mem::acquire_block(cfg_.block_size + kFrameBytes, framed);
  BufferRef copy;
  if ((failover_armed_ || elastic_armed_) && cfg_.resend_window > 0)
    copy = mem::acquire_block(cfg_.block_size + kFrameBytes, framed);
  // One pass frames the block: the payload is checksummed as it is copied.
  // Pure byte work on buffers only this rank holds (the caller's block,
  // the fresh frame and ring copy), so it runs on a helper thread while
  // other ranks proceed.
  std::byte* frame = block->data();
  mpi::fib::run_pure([&] {
    h.crc = crc32_copy(frame + kFrameBytes, buf, bytes, header_crc(h));
    std::memcpy(frame, &h, sizeof h);
    if (copy) std::memcpy(copy->data(), frame, framed);
  });
  if (copy) {
    auto& ring = resend_[ti];
    ring.push_back(std::move(copy));
    if (ring.size() > static_cast<std::size_t>(cfg_.resend_window))
      ring.pop_front();
  }
  // By reference: the reader's block receive takes this very block
  // (Comm::pirecv_block), and the writer keeps only the request.
  out_[static_cast<std::size_t>(slot)] =
      universe_.pisend(block, framed, peer, data_tag_);
  ++blocks_written_;
  bytes_written_ += bytes;
  if (obs::enabled()) {
    auto& o = sobs();
    o.blocks_written.add(1);
    o.bytes_written.add(bytes);
    std::uint64_t in_flight = 0;
    for (const auto& req : out_)
      if (req && !req->is_done()) ++in_flight;
    o.out_depth.observe(in_flight);
    obs::trace_span("stream", "stream.write", t_begin, rc.clock, bytes,
                    "bytes");
  }
  return 1;
}

double Stream::peer_death_time(int peer) const {
  // The fault plan's at_time schedule is a virtual-time oracle: the rank
  // *will* be dead by then (the global progress frontier forces starved
  // ranks over their deadline via poll_scheduled_crash), so declaring on
  // it keeps the failover point a pure function of the writer's own
  // deterministic clock. after_calls crashes have no such oracle; for
  // them the recorded death time is used once the crash actually fired —
  // as deterministic as the rest of the run, since the call count is
  // program-ordered and the scheduler orders every step by the seed.
  const auto& inj = rt_->injector();
  double t = inj.crash_time(peer);
  if (t == std::numeric_limits<double>::infinity() && rt_->rank_dead(peer))
    t = rt_->death_time(peer);
  return t;
}

void Stream::route_endpoints(bool follow_epoch) {
  auto& rc = mpi::Runtime::self();
  const net::ElasticSchedule& elastic = rt_->elastic();
  // Where a dead holder's link goes: a survivor of its partition that is
  // alive at this instant (the boundary instant of a crash is dead, as in
  // poll_scheduled_crash; that also rules out every rank this writer has
  // declared dead). It must hold none of this writer's endpoints — two
  // sequence spaces would collide on one (source, tag) link — and never
  // have held this link: its partials already cover those sequence
  // ranges. Under elastic membership it must be active. -1 when nobody
  // is left.
  auto successor = [&](std::size_t ti) {
    const int dead = peers_[ti];
    const int epoch = elastic_armed_ ? elastic.epoch_at(rc.clock) : 0;
    const auto& part = rt_->partition_of_world(dead);
    std::vector<int> cands;
    for (int r = part.first_world_rank; r < part.first_world_rank + part.size;
         ++r) {
      const int m = elastic_armed_ ? elastic.member_of_world(r) : -1;
      if (r == rc.world_rank || peer_death_time(r) <= rc.clock ||
          std::ranges::find(peers_, r) != peers_.end() ||
          std::ranges::count(prior_holders_[ti], r) != 0 ||
          (m >= 0 && !elastic.is_active(m, epoch)))
        continue;
      cands.push_back(r);
    }
    return Map::failover_target(kRemapPolicy, rt_->config().seed,
                                rc.world_rank, dead, cands, epoch);
  };
  // Lease boundary is inclusive: at exactly t_dead + hb_lease the reader
  // is declared dead. A move advances the clock, so the new holder is
  // judged again at once.
  if (failover_armed_) {
    for (std::size_t ti = 0; ti < peers_.size(); ++ti)
      while (peers_[ti] >= 0 &&
             rc.clock >= peer_death_time(peers_[ti]) + cfg_.hb_lease)
        move_link(ti, successor(ti), false);
  }
  if (!follow_epoch || !elastic_armed_) return;
  const int now = elastic.epoch_at(rc.clock);
  if (now == elastic_epoch_) return;
  elastic_epoch_ = now;
  std::vector<int> active;
  for (const int m : elastic.active_at(now))
    active.push_back(elastic.world_of_member(m));
  for (std::size_t ti = 0; ti < peers_.size(); ++ti) {
    const int old = peers_[ti];
    if (old < 0 || !elastic.contains_world(old)) continue;
    const int want = Map::elastic_route(kRemapPolicy, rt_->config().seed,
                                        rc.world_rank, now, active);
    if (want < 0 || want == old) continue;
    // A holder the oracle already declares dead cannot acknowledge a
    // drain — its partial analysis died with it — so the boundary moves
    // the link as a crash, before its lease would have.
    if (peer_death_time(old) <= rc.clock)
      move_link(ti, successor(ti), false);
    else
      move_link(ti, want, true);
  }
}

void Stream::move_link(std::size_t ti, int target, bool drain) {
  auto& rc = mpi::Runtime::self();
  const int old = peers_[ti];
  const double t0 = rc.clock;
  std::uint64_t missed = 0;
  if (drain) {
    // Per-link FIFO: every in-flight block reaches the old holder before
    // this drain end-of-stream, whose seq is the link's final block count,
    // so it sees a clean close with no gap. It analyzes all of that, so
    // replaying any of it would double-count: drop the ring and advance
    // the base a later crash successor is charged from.
    const BlockHeader h = eos_header(out_seq_[ti]);
    universe_.psend(&h, sizeof h, old, data_tag_);
    resend_[ti].clear();
    replay_base_[ti] = out_seq_[ti];
    prior_holders_[ti].push_back(old);
    ++planned_handoffs_;
  } else {
    // Every beacon the dead reader owed between its death and now went
    // unanswered; the count is derived rather than messaged (see
    // StreamConfig) so it is exact and free.
    const double silent = rc.clock - peer_death_time(old);
    missed = cfg_.hb_interval > 0.0
                 ? std::max<std::uint64_t>(
                       1, static_cast<std::uint64_t>(silent / cfg_.hb_interval))
                 : 1;
    heartbeats_missed_ += missed;
    ++failovers_;
  }
  if (target >= 0) {
    FailoverCtl fc;
    fc.ctl = StreamCtl{data_tag_, cfg_.block_size, cfg_.n_async};
    fc.resume_seq = out_seq_[ti];
    fc.replayed = resend_[ti].size();
    fc.base_seq = replay_base_[ti];
    fc.drain = drain ? 1 : 0;
    universe_.psend(&fc, sizeof fc, target, kStreamFailoverTag);
    // Replay the unacknowledged tail (none after a drain). Original
    // sequence numbers are baked into the frames, so the new link's gap
    // accounting charges exactly the unreplayable prefix as lost —
    // replayed blocks can never be counted lost, and (the dead reader's
    // partial analysis dying with it) never analysed twice either.
    for (const auto& blk : resend_[ti]) {
      universe_.psend(blk->data(), blk->size(), target, data_tag_);
      ++resent_blocks_;
      if (obs::enabled()) sobs().resent.add(1);
    }
  }
  peers_[ti] = target;
  if (!obs::enabled()) return;
  if (drain) {
    sobs().planned_handoffs.add(1);
    obs::trace_instant("stream", "stream.drain_handoff", rc.clock);
  } else {
    sobs().failovers.add(1);
    sobs().hb_missed.add(missed);
    obs::trace_span("stream", "stream.failover", t0, rc.clock,
                    static_cast<std::uint64_t>(resend_[ti].size()), "blocks");
  }
}

/// A handshake is the writer's FailoverCtl plus the rank that sent it.
struct Stream::Join {
  int src = -1;
  FailoverCtl fc;
};

bool Stream::accept_joins() {
  auto& rc = mpi::Runtime::self();
  bool any = false;
  auto take = [&](const Join& j) {
    if (adopt(j))
      any = true;
    else
      pending_joins_.push_back(j);
  };
  // Deferred handshakes first, in arrival order.
  std::vector<Join> deferred;
  deferred.swap(pending_joins_);
  for (const Join& j : deferred) take(j);
  int src = -1;
  while (rt_->mailbox(rc.world_rank)
             .probe(universe_.context(), mpi::kAnySource, kStreamFailoverTag,
                    nullptr, &src, nullptr)) {
    // Matches at once: the handshake is queued here, eager, and a
    // writer's crash sweep keeps eager sends.
    Join j{src, {}};
    universe_.precv(&j.fc, sizeof j.fc, src, kStreamFailoverTag);
    // A spare elastic member opened with no link, so no StreamCtl taught
    // it the writers' geometry: its first handshake does. All writers of
    // an elastic partition share one block size.
    if (in_peers_.empty()) cfg_.block_size = j.fc.ctl.block_size;
    if (j.fc.ctl.block_size != cfg_.block_size)
      throw std::runtime_error("failover writer disagrees on block size");
    take(j);
  }
  return any;
}

bool Stream::adopt(const Join& j) {
  const FailoverCtl& fc = j.fc;
  auto ip = std::ranges::find_if(in_peers_, [&](const InPeer& p) {
    return p.universe_rank == j.src && p.tag == fc.ctl.tag;
  });
  if (ip == in_peers_.end()) {
    ip = in_peers_.emplace(in_peers_.end());
    ip->universe_rank = j.src;
    ip->tag = fc.ctl.tag;
  } else if (!ip->closed && !ip->dead) {
    return false;  // the previous incarnation's drain EOS is still unread
  }
  if (fc.drain != 0) {
    // Clean handoff: pick up exactly where the previous holder stopped —
    // no gap, nothing replayed, nothing charged to the ledger.
    ip->drain_join = true;
    ip->expected_seq = fc.resume_seq;
    ++drain_joins_;
  } else {
    // Crash handoff: accountable from the last clean-handoff base (0
    // under fixed membership). The gap up to the first replayed block
    // charges exactly the unreplayable-and-unanalyzed prefix.
    ip->failover_join = true;
    ip->replay_announced += fc.replayed;
    ip->expected_seq = fc.base_seq;
    ++failover_joins_;
  }
  ip->closed = false;
  ip->dead = false;
  ip->consecutive_corrupt = 0;
  if (ip->slots.empty()) {
    ip->head = 0;
    ip->slots.resize(static_cast<std::size_t>(std::max(1, fc.ctl.n_async)));
    for (auto& s : ip->slots)
      s = universe_.pirecv_block(cfg_.block_size + kFrameBytes, j.src,
                                 ip->tag);
  } else if (!ip->slots[ip->head]) {
    // Reopen of a cleanly-closed incarnation: every slot except the one
    // that consumed the end-of-stream is still posted. Re-arm that slot
    // and advance past it, so consumption order keeps matching the
    // per-link post order (FIFO matching would otherwise wedge the head
    // behind n_async-1 older receives).
    ip->slots[ip->head] = universe_.pirecv_block(
        cfg_.block_size + kFrameBytes, j.src, ip->tag);
    ip->head = (ip->head + 1) % ip->slots.size();
  }
  if (obs::enabled()) {
    const bool drain = fc.drain != 0;
    (drain ? sobs().drain_joins : sobs().failover_joins).add(1);
    obs::trace_instant(
        "stream", drain ? "stream.drain_join" : "stream.failover_join",
        mpi::Runtime::self().clock);
  }
  return true;
}

void Stream::mark_peer_dead(InPeer& ip) {
  if (ip.dead) return;
  ip.dead = true;
  // The simulated reader spent its detection timeout before giving up.
  mpi::Runtime::self().advance(kReadDeadline);
}

bool Stream::scan_silent_dead() {
  // A writer that finished its program without sending end-of-stream (its
  // EOF was dropped, or it died in a way the crash sweep could not reach)
  // will never complete the head receive. rank_finished() turns true only
  // after the writer's last send was queued, and the raw mailbox probe (no
  // piprobe: it would charge clock overhead per poll) confirms nothing is
  // left in flight.
  auto& rc = mpi::Runtime::self();
  bool changed = false;
  for (auto& ip : in_peers_) {
    if (ip.closed || ip.dead) continue;
    if (!rt_->rank_finished(ip.universe_rank)) continue;
    auto& head = ip.slots[ip.head];  // a live link always has its slots
    if (head && head->is_done()) continue;  // data to consume
    if (rt_->mailbox(rc.world_rank)
            .probe(universe_.context(), ip.universe_rank, ip.tag, nullptr,
                   nullptr, nullptr))
      continue;  // a block is queued but unmatched; let it arrive
    mark_peer_dead(ip);
    changed = true;
  }
  return changed;
}

int Stream::try_read_block(void* buf, BufferRef* out) {
  auto& rc = mpi::Runtime::self();
  const std::size_t n = in_peers_.size();
  // A spare elastic member starts with zero links; "all closed" is
  // vacuously true and read_impl's grace loop takes over (also keeps the
  // policy rotation below from dividing by zero).
  if (n == 0) return 0;
  // Polling order honours the policy: round-robin rotates the start,
  // random picks a random start, none scans from the first endpoint.
  std::size_t start = 0;
  if (cfg_.policy == BalancePolicy::RoundRobin) {
    start = rr_peer_++ % n;
  } else if (cfg_.policy == BalancePolicy::Random) {
    start = rc.rng.below(n);
  }
  for (std::size_t k = 0; k < n; ++k) {
    auto& ip = in_peers_[(start + k) % n];
    while (!ip.closed && !ip.dead) {
      auto& slot = ip.slots[ip.head];
      if (!slot || !slot->is_done()) break;
      mpi::Status st = mpi::pwait(slot);
      BufferRef block = std::move(slot->delivered);
      slot.reset();
      if (st.error != 0) {
        // The writer crashed; the runtime's sweep failed this receive.
        mark_peer_dead(ip);
        break;
      }
      // The header is checked first: a matching size and magic bound the
      // payload by the receive size, so by block_size. A copying read
      // checks the CRC during the copy into `buf` — pure byte work, on a
      // helper thread — and a block that fails it may leave its bytes
      // there, but it is never returned. Short blocks (a writer's final
      // partial pack) copy and cost only their actual size; the tail of
      // the caller's buffer is untouched. A handoff read checks the CRC in
      // place and hands the block itself over (below); a copying read
      // drops it, back to its pool.
      BlockHeader h;
      const bool sized =
          block && st.bytes >= sizeof h && block->size() >= st.bytes;
      if (sized) std::memcpy(&h, block->data(), sizeof h);
      bool intact =
          sized && h.magic == kBlockMagic && h.payload + sizeof h == st.bytes;
      if (intact) {
        const std::byte* payload = block->data() + sizeof h;
        if (out != nullptr) {
          intact = h.crc == crc32(payload, h.payload, header_crc(h));
        } else {
          mpi::fib::run_pure([&] {
            intact =
                h.crc == crc32_copy(buf, payload, h.payload, header_crc(h));
          });
        }
      }
      if (!intact) {
        // Corrupt block: count it, retry with the next one a bounded
        // number of times, then quarantine the link. The block's seq is
        // untrusted, so assume it consumed one slot of the sequence —
        // keeps later gap accounting from double-counting it as lost.
        ++ip.corrupted;
        ++ip.expected_seq;
        if (obs::enabled()) sobs().corrupted.add(1);
        if (++ip.consecutive_corrupt > kMaxCorruptRetries) {
          mark_peer_dead(ip);
          break;
        }
        ++ip.retried;
        if (obs::enabled()) sobs().retried.add(1);
        slot = universe_.pirecv_block(cfg_.block_size + kFrameBytes,
                                      ip.universe_rank, ip.tag);
        ip.head = (ip.head + 1) % ip.slots.size();
        continue;
      }
      ip.consecutive_corrupt = 0;
      if (h.seq > ip.expected_seq) {
        const std::uint64_t gap = h.seq - ip.expected_seq;
        ip.lost += gap;
        if (obs::enabled()) sobs().seq_gaps.add(gap);
      }
      ip.expected_seq = h.seq + 1;
      if (h.payload == 0) {
        ip.closed = true;  // end-of-stream, seq = writer's final count
        break;
      }
      // A handoff is charged the copy it replaces, so virtual time does
      // not depend on how the caller reads.
      mpi::fib::yield_point();  // the node's memory lane is booked in rank order
      rc.clock = rt_->machine().local_copy(rt_->core_of(rc.world_rank),
                                           h.payload, rc.clock);
      // Handoff: the caller gets a view of the block's payload, which
      // holds the block until the last view drops.
      if (out != nullptr)
        *out = Buffer::view_of(std::move(block), kFrameBytes, h.payload);
      // Re-post the receive immediately: a receive slot is always armed.
      slot = universe_.pirecv_block(cfg_.block_size + kFrameBytes,
                                    ip.universe_rank, ip.tag);
      ip.head = (ip.head + 1) % ip.slots.size();
      ++ip.blocks;
      ip.bytes += h.payload;
      ++blocks_read_;
      bytes_read_ += h.payload;
      return 1;
    }
  }
  bool any_dead = false;
  for (const auto& ip : in_peers_) {
    if (!ip.closed && !ip.dead) return -2;  // still open, nothing ready
    if (ip.dead) any_dead = true;
  }
  return any_dead ? -3 : 0;  // done: broken pipe vs clean close
}

int Stream::read(void* buf, int nblocks, int flags) {
  const int r = read_counted(buf, nullptr, nblocks, flags);
  // A caller polling with kNonblock must let the writers run: for the
  // scheduler a miss is an idle wait, as a real-time poll would be.
  if (r == kEagain) mpi::fib::idle();
  return r;
}

int Stream::read_counted(void* buf, BufferRef* out, int nblocks, int flags) {
  if (!open_ || writer_) throw std::logic_error("not an open read stream");
  if (closed_) throw std::logic_error("read on closed stream");
  const bool obs_on = obs::enabled();
  const double t_begin = obs_on ? mpi::Runtime::self().clock : 0.0;
  const int r = read_impl(buf, out, nblocks, flags);
  if (r == kEagain) {
    // Single authoritative accounting site: the stats member and its obs
    // mirror increment together, so stats().eagain_returns and the
    // "stream.eagain_returns" counter can never drift apart (they used to
    // be incremented in two separate branches).
    ++eagain_returns_;
    if (obs_on) sobs().eagain.add(1);
  }
  if (obs_on) {
    auto& o = sobs();
    if (r > 0) {
      o.blocks_read.add(static_cast<std::uint64_t>(r));
      obs::trace_span("stream", "stream.read", t_begin,
                      mpi::Runtime::self().clock,
                      static_cast<std::uint64_t>(r), "blocks");
    } else if (r == kEpipe) {
      o.epipe.add(1);
    }
  }
  return r;
}

int Stream::read_impl(void* buf, BufferRef* out, int nblocks, int flags) {
  auto* dst = static_cast<std::byte*>(buf);
  auto& rc = mpi::Runtime::self();
  int got = 0;
  while (got < nblocks) {
    // A scheduled crash for this reader must fire even when its own clock
    // is starved: the global progress frontier stands in for the virtual
    // time it would have observed. Polling on *every* iteration also
    // guarantees a reader with a scheduled crash cannot exit the read
    // loop alive once any peer's clock passed the deadline — which is
    // what makes writer-side lease declaration sound.
    rc.poll_scheduled_crash();
    const int r = try_read_block(
        out != nullptr
            ? nullptr
            : dst + static_cast<std::size_t>(got) * cfg_.block_size,
        out != nullptr ? out + got : nullptr);
    if (r == 1) {
      ++got;
      continue;
    }
    if (r == 0 || r == -3) {
      if (got > 0) return got;  // terminal condition recurs on next call
      if (failover_possible_) {
        // Every original writer is done, but a sibling's death (or an
        // elastic epoch boundary) may still re-route endpoints here: hold
        // the stream open until no join can ever arrive (grace), adopting
        // handshakes as they land.
        if (accept_joins()) continue;  // adopted a link: rescan
        // Writers queue their handshake strictly before finishing, and
        // accept_joins() just emptied the queue and adopted every deferred
        // one (every link is closed or dead here): once every rank outside
        // this partition is finished or dead, no join can arrive again.
        const auto& mine = rt_->partition_of_world(rc.world_rank);
        bool grace_over = true;
        for (int w = 0; w < rt_->world_size(); ++w)
          grace_over &= mine.contains_world(w) || rt_->rank_finished(w) ||
                        rt_->rank_dead(w);
        if (!grace_over) {
          if (flags & kNonblock) return kEagain;
          mpi::fib::idle();
          continue;
        }
      }
      return r == 0 ? 0 : kEpipe;
    }
    // Nothing ready.
    if (got > 0) return got;
    if (failover_possible_) accept_joins();
    if (flags & kNonblock) {
      // A spinning non-blocking reader must still notice dead writers,
      // or the kEagain loop never terminates.
      if (scan_silent_dead()) continue;
      return kEagain;
    }
    // Block until any head request completes, then rescan.
    std::vector<mpi::Request> heads;
    heads.reserve(in_peers_.size());
    for (auto& ip : in_peers_) {
      if (!ip.closed && !ip.dead && ip.slots[ip.head])
        heads.push_back(ip.slots[ip.head]);
    }
    if (heads.empty()) {
      // Nothing armed on any live peer: only the silent-dead scan can
      // make progress now.
      if (!scan_silent_dead()) mpi::fib::idle();
      continue;
    }
    // Wait until any head request completes, without consuming it: the
    // rescan via try_read_block does the consuming so per-peer FIFO order
    // and clock accounting stay in one place. The stream-owned WaitSet is
    // detached from any still-posted receive at close/destruction
    // (disarm_receives), so late completions can never notify a dead
    // stream. The wait is idle: when nothing else can run we re-check for
    // writers that died without a goodbye.
    const std::uint64_t ticket = waitset_.snapshot();
    bool ready = false;
    for (auto& h : heads)
      if (h->arm_waitset(&waitset_)) ready = true;
    if (!ready && !waitset_.wait_change_or_idle(ticket)) scan_silent_dead();
  }
  return got;
}

int Stream::read_some(std::vector<BufferRef>& out, int max_blocks,
                      int flags) {
  // A non-positive budget would fall through to `return 0`, which the
  // caller cannot distinguish from a clean end-of-stream — so a buggy
  // batch-size knob would silently end analysis instead of failing loud.
  if (max_blocks <= 0)
    throw std::logic_error("Stream::read_some: max_blocks must be > 0");
  int got = 0;
  while (got < max_blocks) {
    // Handoff: the block is a view of the writer's block, so reading
    // copies nothing. It travels dispatcher → unpacker as-is, event runs
    // alias it zero-copy, and when the last knowledge source's view is
    // released the pool block returns for a later write.
    BufferRef block;
    const int r =
        read_counted(nullptr, &block, 1, got == 0 ? flags : kNonblock);
    if (r != 1) {
      // Terminal codes (0 / kEpipe) recur on the next call; a burst that
      // ended early just reports what it drained. Only a miss returned to
      // the caller is an idle wait (see read()): the non-blocking probes
      // after the first block never idle, or a reader with data in hand
      // would wait for every other rank before handing it on.
      if (got > 0) return got;
      if (r == kEagain) mpi::fib::idle();
      return r;
    }
    out.push_back(std::move(block));
    ++got;
  }
  return got;
}

void Stream::close() {
  if (!open_ || closed_) return;
  closed_ = true;
  if (writer_) {
    // A reader may have died since the last write; re-route its endpoint
    // *before* end-of-stream so the EOS (and the replayed tail) reach the
    // survivor instead of vanishing into a dead mailbox.
    route_endpoints(false);
    for (auto& req : out_) {
      if (!req) continue;
      if (mpi::pwait(req).error != 0) ++writes_failed_;
      req.reset();
    }
    // Header-only end-of-stream per endpoint; seq carries the final
    // per-link block count so trailing drops are still accounted.
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (peers_[i] < 0) continue;  // dead end: nobody left to notify
      const BlockHeader h = eos_header(out_seq_[i]);
      universe_.psend(&h, sizeof h, peers_[i], data_tag_);
    }
  } else {
    // Drain and cancel nothing: posted receives for already-closed peers
    // were never reposted; outstanding ones are simply dropped with the
    // stream (a late delivery's block dies with its request). Detach them
    // from waitset_ now so a late writer completion cannot notify a stream
    // that is logically gone.
    disarm_receives();
  }
}

StreamStats Stream::stats() const {
  StreamStats s;
  s.blocks_written = blocks_written_;
  s.blocks_read = blocks_read_;
  s.bytes_written = bytes_written_;
  s.bytes_read = bytes_read_;
  s.eagain_returns = eagain_returns_;
  s.backpressure_waits = backpressure_waits_;
  s.writes_failed = writes_failed_;
  s.failovers = failovers_;
  s.heartbeats_missed = heartbeats_missed_;
  s.resent_blocks = resent_blocks_;
  s.failover_joins = failover_joins_;
  s.planned_handoffs = planned_handoffs_;
  s.drain_joins = drain_joins_;
  for (const auto& ip : in_peers_) {
    s.blocks_lost += ip.lost;
    s.blocks_corrupted += ip.corrupted;
    s.blocks_retried += ip.retried;
    if (ip.dead) ++s.peers_dead;
  }
  return s;
}

std::vector<StreamPeerStats> Stream::peer_stats() const {
  std::vector<StreamPeerStats> out;
  out.reserve(in_peers_.size());
  for (const auto& ip : in_peers_) {
    StreamPeerStats ps;
    ps.universe_rank = ip.universe_rank;
    ps.blocks_delivered = ip.blocks;
    ps.bytes_delivered = ip.bytes;
    ps.blocks_lost = ip.lost;
    ps.blocks_corrupted = ip.corrupted;
    ps.blocks_retried = ip.retried;
    ps.closed = ip.closed;
    ps.dead = ip.dead;
    ps.failover_join = ip.failover_join;
    ps.drain_join = ip.drain_join;
    ps.blocks_replayed = ip.replay_announced;
    out.push_back(ps);
  }
  return out;
}

}  // namespace esp::vmpi
