#include "simmpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "simmpi/runtime.hpp"

#include "common/hash.hpp"

namespace esp::mpi {

namespace {

/// CPU cost charged on the caller's clock at every public call entry.
constexpr double kCallOverhead = 0.2e-6;

/// Collectives run in a separate message namespace (high bit of the
/// context id), the moral equivalent of MPI's hidden collective context:
/// user wildcard receives can never swallow internal collective traffic.
constexpr std::uint64_t coll_ctx(std::uint64_t ctx) noexcept {
  return ctx | (1ull << 63);
}

/// Bytes of an `n`-byte message physically copied on the host. Payloads
/// stop at RuntimeConfig::payload_copy_cap; stream data always travels
/// whole, because its reader checks the frame header and CRC.
std::uint64_t physical_bytes(const Runtime& rt, int tag, std::uint64_t n) {
  if (net::is_stream_data_tag(tag)) return n;
  return std::min(n, rt.config().payload_copy_cap);
}

/// Payload-movement counters; each use is guarded by obs::enabled().
struct CommObs {
  obs::Counter& handoffs = obs::counter("simmpi.payload_handoffs");
  obs::Counter& bytes_copied = obs::counter("simmpi.payload_bytes_copied");
};

CommObs& cobs() {
  static CommObs o;
  return o;
}

/// Close a matched (send, recv) pair: deliver the payload (copy, or block
/// handover), compute the virtual transfer timing, and wake both sides.
/// Runs on whichever rank completed the match, without yielding, so no
/// crash sweep can run while a copy touches either rank's buffers.
/// A block receive takes the sender's very block when a by-reference
/// rendezvous send is delivered whole; every other send reaches it as a
/// fresh copy of its physical bytes. A size-only end (null buffer) moves
/// no host byte: a real send into a null receive is discarded, a null
/// send leaves a real receive buffer untouched (and a block receive
/// without a block), and an injected corrupt bit has nothing to flip.
void complete_match(Runtime& rt, detail::SendItem& s, detail::RecvItem& r) {
  const std::uint64_t n = std::min(s.bytes, r.max_bytes);
  const std::byte* src = s.eager_mode && s.eager ? s.eager->data() : s.src_buf;
  const std::uint64_t physical =
      src && (r.dst_buf || r.block) ? physical_bytes(rt, s.tag, n) : 0;
  if (physical != 0) {
    if (r.block && s.src_ref && physical == s.bytes) {
      r.req->delivered = std::move(s.src_ref);
      if (obs::enabled()) cobs().handoffs.add(1);
    } else {
      if (r.block)
        r.req->delivered = Buffer::copy_of(src, physical);
      else
        std::memcpy(r.dst_buf, src, physical);
      if (obs::enabled()) cobs().bytes_copied.add(physical);
    }
    if (s.corrupt_bit >= 0) {
      // Injected in-flight corruption: flip one bit of the delivered
      // bytes, which the receiver owns (a handed-over block too: it
      // belongs to the receiver now). Only bits inside the physically
      // delivered region can flip; stream data is delivered whole, so
      // every flip on a stream block lands where its CRC covers it.
      std::byte* delivered = r.block ? r.req->delivered->data() : r.dst_buf;
      const auto byte_i = static_cast<std::uint64_t>(s.corrupt_bit) / 8;
      if (byte_i < physical)
        delivered[byte_i] ^= static_cast<std::byte>(1u << (s.corrupt_bit % 8));
    }
  }
  const double finish =
      s.wire_booked
          ? std::max(s.wire_finish, r.t_ready)
          : rt.machine().transfer(rt.core_of(s.src_world),
                                  rt.core_of(s.dst_world), s.bytes,
                                  std::max(s.t_ready, r.t_ready));
  Status st;
  st.source = s.src_world;  // world rank; translated by the owning Comm
  st.tag = s.tag;
  st.bytes = n;
  r.req->complete(finish, st);
  if (s.req) s.req->complete(finish, st);
}

/// Base isend: stages eagerly below the threshold (request completes at
/// staging finish) or posts a rendezvous item (request completes at
/// transfer finish). A size-only send (null `buf`) stages no bytes but is
/// charged the same staging time.
Request isend_impl(Runtime& rt, RankContext& rc,
                   const std::shared_ptr<const CommData>& cd,
                   std::uint64_t ctx, const void* buf, std::uint64_t bytes,
                   int dst_world, int tag, BufferRef src_ref = {}) {
  rc.check_crash();
  rc.advance(kCallOverhead);
  fib::yield_point();  // staging, wire booking and matching are ordered
  detail::SendItem item;
  item.src_world = rc.world_rank;
  item.dst_world = dst_world;
  item.ctx = ctx;
  item.tag = tag;
  item.bytes = bytes;
  item.seq = rc.send_seq++;

  net::FaultInjector::Decision fault;
  if (rt.injector().has_link_faults())
    fault = rt.injector().on_message(rc.world_rank, dst_world, tag, item.seq,
                                     bytes);

  Request req = make_request();
  req->kind = CallKind::Isend;
  req->ctx = ctx;
  req->peer_world = dst_world;
  req->bytes = bytes;
  req->comm = cd;

  const bool eager = bytes <= rt.config().eager_threshold;
  item.eager_mode = eager;
  if (eager) {
    if (buf != nullptr)
      item.eager = Buffer::copy_of(buf, physical_bytes(rt, tag, bytes));
    const double staged =
        rt.machine().local_copy(rt.core_of(rc.world_rank), bytes, rc.clock);
    rc.clock = staged;
    item.t_ready = staged;
    Status st;
    st.source = rc.world_rank;
    st.tag = tag;
    st.bytes = bytes;
    req->complete(staged, st);  // sender-side completion only
  } else {
    item.src_buf = static_cast<const std::byte*>(buf);
    item.src_ref = std::move(src_ref);
    item.t_ready = rc.clock;
    item.req = req;
  }

  if (fault.drop) {
    // The network ate the message. The sender still observes success —
    // an eager send already completed at staging, and a rendezvous
    // sender is released at its departure time. Nothing is posted, so
    // the receiver sees a sequence gap (or, for streams, a lost block).
    if (!eager) {
      Status st;
      st.source = rc.world_rank;
      st.tag = tag;
      st.bytes = bytes;
      req->complete(item.t_ready, st);
    }
    return req;
  }
  item.t_ready += fault.delay;
  item.corrupt_bit = fault.corrupt_bit;

  // Crash-oracle wire booking. When the destination has a *scheduled*
  // virtual-time crash, whether a message reaches it before death must not
  // depend on the real-time race between this sender and the dying
  // thread's last poll — that race would make the shared-resource
  // occupancy (NIC, bisection) differ between same-seed runs and leak
  // timing jitter into every survivor's profile. So the wire is booked
  // here, as a pure function of the departure time: a message leaving
  // before the crash always occupies the network (even if the mailbox dies
  // before matching it), one leaving after it never does. Matching is left
  // untouched — a not-yet-dead receiver may still consume the payload, but
  // it is guaranteed to die before anything it learned escapes.
  if (rt.injector().enabled()) {
    const double dst_crash = rt.injector().crash_time(dst_world);
    if (dst_crash != std::numeric_limits<double>::infinity()) {
      item.wire_booked = true;
      item.wire_finish =
          item.t_ready < dst_crash
              ? rt.machine().transfer(rt.core_of(rc.world_rank),
                                      rt.core_of(dst_world), bytes,
                                      item.t_ready)
              : item.t_ready;
    }
  }

  if (auto r = rt.mailbox(dst_world).post_send(item))
    complete_match(rt, item, *r);
  return req;
}

Request irecv_impl(Runtime& rt, RankContext& rc,
                   const std::shared_ptr<const CommData>& cd,
                   std::uint64_t ctx, void* buf, std::uint64_t bytes,
                   int src_world, int tag, bool block = false) {
  rc.check_crash();
  rc.advance(kCallOverhead);
  fib::yield_point();  // matching is ordered
  Request req = make_request();
  req->kind = CallKind::Irecv;
  req->ctx = ctx;
  req->peer_world = src_world;
  req->bytes = bytes;
  req->comm = cd;

  detail::RecvItem item;
  item.dst_buf = static_cast<std::byte*>(buf);
  item.block = block;
  item.max_bytes = bytes;
  item.ctx = ctx;
  item.src_world = src_world;
  item.tag = tag;
  item.t_ready = rc.clock;
  item.req = req;

  if (auto s = rt.mailbox(rc.world_rank).post_recv(item))
    complete_match(rt, *s, item);
  return req;
}

}  // namespace

std::shared_ptr<CommData> CommData::make(Runtime* rt, std::uint64_t ctx,
                                         std::vector<int> world_ranks) {
  auto cd = std::make_shared<CommData>();
  cd->rt = rt;
  cd->ctx = ctx;
  cd->world_to_comm.assign(static_cast<std::size_t>(rt->world_size()), -1);
  for (std::size_t i = 0; i < world_ranks.size(); ++i)
    cd->world_to_comm[static_cast<std::size_t>(world_ranks[i])] =
        static_cast<int>(i);
  cd->world_ranks = std::move(world_ranks);
  return cd;
}

int CommData::comm_rank_of(int world) const noexcept {
  return world >= 0 && static_cast<std::size_t>(world) < world_to_comm.size()
             ? world_to_comm[static_cast<std::size_t>(world)]
             : -1;
}

int Comm::rank() const {
  return comm_rank_of_world(Runtime::self().world_rank);
}

int Comm::comm_rank_of_world(int world) const {
  return data_->comm_rank_of(world);
}

Status Comm::translate(Status st) const {
  if (st.source >= 0) st.source = comm_rank_of_world(st.source);
  return st;
}

// ---------------------------------------------------------------------------
// PMPI layer
// ---------------------------------------------------------------------------

void Comm::psend(const void* buf, std::uint64_t bytes, int dst, int tag) const {
  auto& rc = Runtime::self();
  auto& rt = *data_->rt;
  Request req = isend_impl(rt, rc, data_, data_->ctx, buf, bytes,
                           world_rank(dst), tag);
  const double finish = req->block();
  rc.clock = std::max(rc.clock, finish);
}

Status Comm::precv(void* buf, std::uint64_t bytes, int src, int tag) const {
  auto& rc = Runtime::self();
  auto& rt = *data_->rt;
  const int src_world = src == kAnySource ? kAnySource : world_rank(src);
  Request req = irecv_impl(rt, rc, data_, data_->ctx, buf, bytes, src_world, tag);
  const double finish = req->block();
  rc.clock = std::max(rc.clock, finish);
  return translate(req->status);
}

Request Comm::pisend(const void* buf, std::uint64_t bytes, int dst,
                     int tag) const {
  auto& rc = Runtime::self();
  return isend_impl(*data_->rt, rc, data_, data_->ctx, buf, bytes,
                    world_rank(dst), tag);
}

Request Comm::pisend(const BufferRef& buf, std::uint64_t bytes, int dst,
                     int tag) const {
  auto& rc = Runtime::self();
  return isend_impl(*data_->rt, rc, data_, data_->ctx, buf->data(), bytes,
                    world_rank(dst), tag, buf);
}

Request Comm::pirecv(void* buf, std::uint64_t bytes, int src, int tag) const {
  auto& rc = Runtime::self();
  const int src_world = src == kAnySource ? kAnySource : world_rank(src);
  return irecv_impl(*data_->rt, rc, data_, data_->ctx, buf, bytes, src_world,
                    tag);
}

Request Comm::pirecv_block(std::uint64_t max_bytes, int src, int tag) const {
  auto& rc = Runtime::self();
  const int src_world = src == kAnySource ? kAnySource : world_rank(src);
  return irecv_impl(*data_->rt, rc, data_, data_->ctx, nullptr, max_bytes,
                    src_world, tag, true);
}

bool Comm::piprobe(int src, int tag, Status* st) const {
  auto& rc = Runtime::self();
  auto& rt = *data_->rt;
  rc.advance(kCallOverhead);
  fib::yield_point();  // what the mailbox holds depends on who ran first
  const int src_world = src == kAnySource ? kAnySource : world_rank(src);
  std::uint64_t bytes = 0;
  int src_out = -1, tag_out = -1;
  const bool found = rt.mailbox(rc.world_rank)
                         .probe(data_->ctx, src_world, tag, &bytes, &src_out,
                                &tag_out);
  if (found && st != nullptr) {
    st->source = comm_rank_of_world(src_out);
    st->tag = tag_out;
    st->bytes = bytes;
  }
  return found;
}

Status pwait(Request& r) {
  auto& rc = Runtime::self();
  const double finish = r->block();
  rc.clock = std::max(rc.clock, finish);
  Status st = r->status;
  if (st.source >= 0 && r->comm) st.source = r->comm->comm_rank_of(st.source);
  return st;
}

void pwaitall(std::span<Request> rs) {
  for (auto& r : rs) {
    if (r) pwait(r);
  }
}

bool ptest(Request& r, Status* st) {
  if (!r->is_done()) {
    // A rank polling test() in a loop must let the others complete it:
    // like a failed non-blocking read, a miss is an idle wait.
    fib::idle();
    return false;
  }
  Status s = pwait(r);
  if (st != nullptr) *st = s;
  return true;
}

int pwaitany(std::span<Request> rs, Status* st) {
  bool any_live = false;
  for (const auto& r : rs)
    if (r) any_live = true;
  if (!any_live) return -1;
  WaitSet ws;
  auto disarm_all = [&] {
    for (auto& r : rs)
      if (r) r->disarm_waitset(&ws);
  };
  for (;;) {
    const std::uint64_t ticket = ws.snapshot();
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (!rs[i]) continue;
      if (rs[i]->arm_waitset(&ws)) {  // already complete
        disarm_all();
        Status s = pwait(rs[i]);
        if (st != nullptr) *st = s;
        return static_cast<int>(i);
      }
    }
    ws.wait_change(ticket);
  }
}

// ---------------------------------------------------------------------------
// Collectives (PMPI layer): real algorithms over the internal p2p engine,
// in the hidden collective context.
// ---------------------------------------------------------------------------

namespace {
constexpr int kCollTag = 0x7fff0000;

struct P2p {
  // Minimal internal p2p on the collective context.
  const Comm& c;
  Runtime& rt;
  RankContext& rc;
  std::uint64_t ctx;

  explicit P2p(const Comm& comm)
      : c(comm),
        rt(comm.runtime()),
        rc(Runtime::self()),
        ctx(coll_ctx(comm.context())) {}

  void send(const void* buf, std::uint64_t bytes, int dst, int tag) {
    Request req = isend_impl(rt, rc, nullptr, ctx, buf, bytes,
                             c.world_rank(dst), tag);
    rc.clock = std::max(rc.clock, req->block());
  }
  void recv(void* buf, std::uint64_t bytes, int src, int tag) {
    Request req = irecv_impl(rt, rc, nullptr, ctx, buf, bytes,
                             c.world_rank(src), tag);
    rc.clock = std::max(rc.clock, req->block());
  }
  Request irecv(void* buf, std::uint64_t bytes, int src, int tag) {
    return irecv_impl(rt, rc, nullptr, ctx, buf, bytes, c.world_rank(src), tag);
  }
  Request isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
    return isend_impl(rt, rc, nullptr, ctx, buf, bytes, c.world_rank(dst), tag);
  }
};

}  // namespace

void apply_reduce(const void* in, void* inout, std::uint64_t count, Datatype dt,
                  ReduceOp op) {
  auto apply = [&](auto* a, const auto* b) {
    for (std::uint64_t i = 0; i < count; ++i) {
      switch (op) {
        case ReduceOp::Sum: a[i] = a[i] + b[i]; break;
        case ReduceOp::Min: a[i] = std::min(a[i], b[i]); break;
        case ReduceOp::Max: a[i] = std::max(a[i], b[i]); break;
        case ReduceOp::Prod: a[i] = a[i] * b[i]; break;
      }
    }
  };
  switch (dt) {
    case Datatype::Byte:
      apply(static_cast<std::uint8_t*>(inout),
            static_cast<const std::uint8_t*>(in));
      break;
    case Datatype::Int32:
      apply(static_cast<std::int32_t*>(inout),
            static_cast<const std::int32_t*>(in));
      break;
    case Datatype::Int64:
      apply(static_cast<std::int64_t*>(inout),
            static_cast<const std::int64_t*>(in));
      break;
    case Datatype::Double:
      apply(static_cast<double*>(inout), static_cast<const double*>(in));
      break;
  }
}

void Comm::pbarrier() const {
  P2p p(*this);
  const int n = size();
  const int r = rank();
  char token = 0;
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (r + k) % n;
    const int src = (r - k % n + n) % n;
    Request sreq = p.isend(&token, 1, dst, kCollTag + 1);
    p.recv(&token, 1, src, kCollTag + 1);
    pwait(sreq);
  }
}

void Comm::pbcast(void* buf, std::uint64_t bytes, int root) const {
  P2p p(*this);
  const int n = size();
  const int r = rank();
  const int vr = (r - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      const int src = (vr - mask + root) % n;
      p.recv(buf, bytes, src, kCollTag + 2);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const int dst = (vr + mask + root) % n;
      p.send(buf, bytes, dst, kCollTag + 2);
    }
    mask >>= 1;
  }
}

void Comm::preduce(const void* in, void* out, std::uint64_t count, Datatype dt,
                   ReduceOp op, int root) const {
  P2p p(*this);
  const int n = size();
  const int r = rank();
  const int vr = (r - root + n) % n;
  const std::uint64_t bytes = count * datatype_size(dt);
  std::vector<std::byte> acc(bytes), incoming(bytes);
  std::memcpy(acc.data(), in, bytes);
  int mask = 1;
  while (mask < n) {
    if ((vr & mask) == 0) {
      const int peer_v = vr | mask;
      if (peer_v < n) {
        const int peer = (peer_v + root) % n;
        p.recv(incoming.data(), bytes, peer, kCollTag + 3);
        apply_reduce(incoming.data(), acc.data(), count, dt, op);
      }
    } else {
      const int peer = ((vr & ~mask) + root) % n;
      p.send(acc.data(), bytes, peer, kCollTag + 3);
      break;
    }
    mask <<= 1;
  }
  if (r == root) std::memcpy(out, acc.data(), bytes);
}

void Comm::pallreduce(const void* in, void* out, std::uint64_t count,
                      Datatype dt, ReduceOp op) const {
  preduce(in, out, count, dt, op, 0);
  pbcast(out, count * datatype_size(dt), 0);
}

void Comm::pgather(const void* in, std::uint64_t bytes_each, void* out,
                   int root) const {
  P2p p(*this);
  const int n = size();
  const int r = rank();
  if (r == root) {
    auto* dst = static_cast<std::byte*>(out);
    std::memcpy(dst + static_cast<std::size_t>(r) * bytes_each, in, bytes_each);
    for (int i = 0; i < n; ++i) {
      if (i == r) continue;
      p.recv(dst + static_cast<std::size_t>(i) * bytes_each, bytes_each, i,
             kCollTag + 4);
    }
  } else {
    p.send(in, bytes_each, root, kCollTag + 4);
  }
}

void Comm::pallgather(const void* in, std::uint64_t bytes_each,
                      void* out) const {
  pgather(in, bytes_each, out, 0);
  pbcast(out, bytes_each * static_cast<std::uint64_t>(size()), 0);
}

void Comm::palltoall(const void* in, std::uint64_t bytes_each,
                     void* out) const {
  P2p p(*this);
  const int n = size();
  const int r = rank();
  auto block = [bytes_each](auto* base, int i) {  // size-only stays null
    return base ? base + static_cast<std::size_t>(i) * bytes_each : base;
  };
  const auto* src_bytes = static_cast<const std::byte*>(in);
  auto* dst_bytes = static_cast<std::byte*>(out);
  if (src_bytes && dst_bytes)
    std::memcpy(block(dst_bytes, r), block(src_bytes, r), bytes_each);
  for (int shift = 1; shift < n; ++shift) {
    const int dst = (r + shift) % n;
    const int src = (r - shift + n) % n;
    Request rreq =
        p.irecv(block(dst_bytes, src), bytes_each, src, kCollTag + 5);
    p.send(block(src_bytes, dst), bytes_each, dst, kCollTag + 5);
    pwait(rreq);
  }
}

void Comm::pscan(const void* in, void* out, std::uint64_t count, Datatype dt,
                 ReduceOp op) const {
  P2p p(*this);
  const int n = size();
  const int r = rank();
  const std::uint64_t bytes = count * datatype_size(dt);
  std::memcpy(out, in, bytes);
  std::vector<std::byte> incoming(bytes);
  if (r > 0) {
    p.recv(incoming.data(), bytes, r - 1, kCollTag + 6);
    apply_reduce(incoming.data(), out, count, dt, op);
  }
  if (r + 1 < n) p.send(out, bytes, r + 1, kCollTag + 6);
}

Comm Comm::psplit(int color, int key) const {
  auto& rc = Runtime::self();
  auto& rt = *data_->rt;
  const int n = size();
  struct Trip {
    int color, key, world;
  };
  Trip mine{color, key, rc.world_rank};
  std::vector<Trip> all(static_cast<std::size_t>(n));
  pallgather(&mine, sizeof(Trip), all.data());

  // Deterministic context id: every member of the parent calls split the
  // same number of times (MPI requirement), so the per-rank counter agrees.
  const std::uint64_t epoch = rc.split_counters[data_->ctx]++;
  if (color < 0) return Comm();  // MPI_UNDEFINED

  std::vector<Trip> members;
  for (const auto& t : all)
    if (t.color == color) members.push_back(t);
  std::stable_sort(members.begin(), members.end(), [](auto a, auto b) {
    return a.key != b.key ? a.key < b.key : a.world < b.world;
  });
  std::vector<int> world_ranks;
  world_ranks.reserve(members.size());
  for (const auto& t : members) world_ranks.push_back(t.world);

  std::uint64_t ctx = hash_combine(data_->ctx, mix64(epoch * 1315423911ull +
                                                     static_cast<std::uint64_t>(
                                                         color)));
  ctx &= ~(1ull << 63);
  return Comm(CommData::make(&rt, ctx, std::move(world_ranks)));
}

Comm Comm::pdup() const {
  auto& rc = Runtime::self();
  const std::uint64_t epoch = rc.split_counters[data_->ctx]++;
  std::uint64_t ctx = hash_combine(data_->ctx, mix64(epoch + 0xd0d0d0d0ull));
  ctx &= ~(1ull << 63);
  // A dup is collective but needs no data exchange beyond a barrier to
  // keep the epoch counters aligned in time.
  pbarrier();
  return Comm(CommData::make(data_->rt, ctx, data_->world_ranks));
}

// ---------------------------------------------------------------------------
// Public (tool-wrapped) layer
// ---------------------------------------------------------------------------

namespace {

/// Fills the common CallInfo fields and dispatches to the tool chain.
struct Wrap {
  RankContext& rc;
  Runtime& rt;
  CallInfo ci;

  Wrap(const Comm& c, CallKind kind) : rc(Runtime::self()), rt(c.runtime()) {
    ci.kind = kind;
    ci.ctx = c.context();
    ci.comm_rank = c.rank();
    ci.comm_size = c.size();
    ci.t_begin = rc.clock;
  }
  void done() {
    ci.t_end = rc.clock;
    rt.dispatch_tools(rc, ci);
  }
};

}  // namespace

void Comm::send(const void* buf, std::uint64_t bytes, int dst, int tag) const {
  Wrap w(*this, CallKind::Send);
  w.ci.peer = dst;
  w.ci.tag = tag;
  w.ci.bytes = bytes;
  psend(buf, bytes, dst, tag);
  w.done();
}

Status Comm::recv(void* buf, std::uint64_t bytes, int src, int tag) const {
  Wrap w(*this, CallKind::Recv);
  Status st = precv(buf, bytes, src, tag);
  w.ci.peer = st.source;
  w.ci.tag = st.tag;
  w.ci.bytes = st.bytes;
  w.done();
  return st;
}

Request Comm::isend(const void* buf, std::uint64_t bytes, int dst,
                    int tag) const {
  Wrap w(*this, CallKind::Isend);
  w.ci.peer = dst;
  w.ci.tag = tag;
  w.ci.bytes = bytes;
  Request r = pisend(buf, bytes, dst, tag);
  w.done();
  return r;
}

Request Comm::irecv(void* buf, std::uint64_t bytes, int src, int tag) const {
  Wrap w(*this, CallKind::Irecv);
  w.ci.peer = src;
  w.ci.tag = tag;
  w.ci.bytes = bytes;
  Request r = pirecv(buf, bytes, src, tag);
  w.done();
  return r;
}

bool Comm::iprobe(int src, int tag, Status* st) const {
  Wrap w(*this, CallKind::Probe);
  w.ci.peer = src;
  w.ci.tag = tag;
  const bool found = piprobe(src, tag, st);
  // A rank polling iprobe() in a loop must let the sender run, as test()
  // does. piprobe() stays a plain probe: internal drain loops stop at the
  // first miss and must not wait for every other rank.
  if (!found) fib::idle();
  w.done();
  return found;
}

void Comm::barrier() const {
  Wrap w(*this, CallKind::Barrier);
  pbarrier();
  w.done();
}

void Comm::bcast(void* buf, std::uint64_t bytes, int root) const {
  Wrap w(*this, CallKind::Bcast);
  w.ci.peer = root;
  w.ci.bytes = bytes;
  pbcast(buf, bytes, root);
  w.done();
}

void Comm::reduce(const void* in, void* out, std::uint64_t count, Datatype dt,
                  ReduceOp op, int root) const {
  Wrap w(*this, CallKind::Reduce);
  w.ci.peer = root;
  w.ci.bytes = count * datatype_size(dt);
  preduce(in, out, count, dt, op, root);
  w.done();
}

void Comm::allreduce(const void* in, void* out, std::uint64_t count,
                     Datatype dt, ReduceOp op) const {
  Wrap w(*this, CallKind::Allreduce);
  w.ci.bytes = count * datatype_size(dt);
  pallreduce(in, out, count, dt, op);
  w.done();
}

void Comm::gather(const void* in, std::uint64_t bytes_each, void* out,
                  int root) const {
  Wrap w(*this, CallKind::Gather);
  w.ci.peer = root;
  w.ci.bytes = bytes_each;
  pgather(in, bytes_each, out, root);
  w.done();
}

void Comm::allgather(const void* in, std::uint64_t bytes_each,
                     void* out) const {
  Wrap w(*this, CallKind::Allgather);
  w.ci.bytes = bytes_each;
  pallgather(in, bytes_each, out);
  w.done();
}

void Comm::alltoall(const void* in, std::uint64_t bytes_each,
                    void* out) const {
  Wrap w(*this, CallKind::Alltoall);
  w.ci.bytes = bytes_each * static_cast<std::uint64_t>(size());
  palltoall(in, bytes_each, out);
  w.done();
}

void Comm::scan(const void* in, void* out, std::uint64_t count, Datatype dt,
                ReduceOp op) const {
  Wrap w(*this, CallKind::Scan);
  w.ci.bytes = count * datatype_size(dt);
  pscan(in, out, count, dt, op);
  w.done();
}

Comm Comm::split(int color, int key) const {
  Wrap w(*this, CallKind::CommSplit);
  Comm c = psplit(color, key);
  w.done();
  return c;
}

Comm Comm::dup() const {
  Wrap w(*this, CallKind::CommDup);
  Comm c = pdup();
  w.done();
  return c;
}

Status wait(Request& r) {
  auto& rc = Runtime::self();
  CallInfo ci;
  ci.kind = CallKind::Wait;
  ci.ctx = r->ctx;
  ci.t_begin = rc.clock;
  Status st = pwait(r);
  ci.t_end = rc.clock;
  ci.bytes = st.bytes != 0 ? st.bytes : r->bytes;
  ci.peer = st.source;
  ci.tag = st.tag;
  if (r->comm) {
    ci.comm_size = static_cast<int>(r->comm->world_ranks.size());
    ci.comm_rank = r->comm->comm_rank_of(rc.world_rank);
  }
  rc.rt->dispatch_tools(rc, ci);
  return st;
}

void waitall(std::span<Request> rs) {
  auto& rc = Runtime::self();
  CallInfo ci;
  ci.kind = CallKind::Waitall;
  ci.t_begin = rc.clock;
  std::uint64_t total = 0;
  for (auto& r : rs) {
    if (!r) continue;
    Status st = pwait(r);
    total += st.bytes;
    if (ci.ctx == 0) ci.ctx = r->ctx;
    if (r->comm && ci.comm_size == 0) {
      ci.comm_size = static_cast<int>(r->comm->world_ranks.size());
      ci.comm_rank = r->comm->comm_rank_of(rc.world_rank);
    }
  }
  ci.t_end = rc.clock;
  ci.bytes = total;
  rc.rt->dispatch_tools(rc, ci);
}

bool test(Request& r, Status* st) {
  auto& rc = Runtime::self();
  CallInfo ci;
  ci.kind = CallKind::Test;
  ci.ctx = r->ctx;
  ci.t_begin = rc.clock;
  const bool done = ptest(r, st);
  ci.t_end = rc.clock;
  rc.rt->dispatch_tools(rc, ci);
  return done;
}

void compute(double seconds) {
  auto& rc = Runtime::self();
  rc.check_crash();
  rc.advance(seconds);
}

void compute_flops(double flops) {
  auto& rc = Runtime::self();
  rc.check_crash();
  rc.advance(rc.rt->machine().compute_seconds(flops));
}

}  // namespace esp::mpi
