#pragma once
/// \file mailbox.hpp
/// \brief Receiver-side message matching (internal).
///
/// One Mailbox per world rank. Senders post SendItems into the destination
/// mailbox; receivers post RecvItems into their own. Whichever side closes
/// a match takes the other item out of the queue and completes the pair
/// (payload copy or block handover + virtual-time transfer computation)
/// before any other rank runs. Mailboxes, like requests, are touched only
/// on the carrier (fiber.hpp): they have no lock, and a crash sweep can
/// never meet a copy in flight. The queues own their items by value, in
/// nodes recycled through the thread's free list. A size-only message
/// (null send or receive buffer, see comm.hpp) is matched and timed the
/// same way but moves no bytes.
/// Matching preserves MPI ordering: queues are scanned front-to-back, and
/// items from one sender arrive in program order.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <optional>
#include <unordered_set>

#include "common/buffer.hpp"
#include "common/free_list.hpp"
#include "simmpi/request.hpp"

namespace esp::mpi::detail {

struct SendItem {
  int src_world = -1;
  int dst_world = -1;
  std::uint64_t ctx = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  /// Rendezvous: pointer into the sender's buffer, which the sender keeps
  /// until its request completes; null for eager and for size-only sends.
  const std::byte* src_buf = nullptr;
  /// Rendezvous sent by reference (Comm::pisend(const BufferRef&)):
  /// co-owns the sender's buffer until the item is dropped, so a match
  /// can hand the buffer itself to a block receive. Null for raw-pointer
  /// sends and for eager sends (those deliver from `eager`).
  BufferRef src_ref;
  /// Eager: staged copy owned by the item; null for a size-only send.
  BufferRef eager;
  bool eager_mode = false;
  double t_ready = 0.0;   ///< Virtual time the message leaves the sender.
  std::uint64_t seq = 0;  ///< Sender-side sequence, diagnostic.
  /// Fault injection: payload bit index to flip at delivery, or -1.
  std::int64_t corrupt_bit = -1;
  /// Wire already booked (or deliberately skipped) at send time: the
  /// destination has a scheduled virtual-time crash, so occupancy must be
  /// a pure function of sender state — see isend_impl.
  bool wire_booked = false;
  double wire_finish = 0.0;
  /// Sender completion (rendezvous isend/send); null when eager-complete.
  Request req;
};

struct RecvItem {
  std::byte* dst_buf = nullptr;  ///< Null for size-only and block receives.
  /// Block receive (Comm::pirecv_block): holds no storage; the match
  /// delivers a buffer into `req->delivered` instead of copying to dst_buf.
  bool block = false;
  std::uint64_t max_bytes = 0;
  std::uint64_t ctx = 0;
  int src_world = kAnySource;  ///< Matching world rank, or kAnySource.
  int tag = kAnyTag;
  double t_ready = 0.0;
  Request req;  ///< Always non-null; receiver blocks/waits on it.
};

/// Matching predicate.
inline bool matches(const SendItem& s, const RecvItem& r) noexcept {
  if (s.ctx != r.ctx) return false;
  if (r.src_world != kAnySource && r.src_world != s.src_world) return false;
  if (r.tag != kAnyTag && r.tag != s.tag) return false;
  return true;
}

class Mailbox {
 public:
  /// Post a send; if a posted receive matches, returns it (removed) and
  /// leaves `s` with the caller, else moves `s` into the queue.
  /// When the owning rank has crashed, the send is refused: a rendezvous
  /// sender is completed with kErrPeerDead (eager sends were already
  /// locally complete) and nothing is queued — otherwise writers block
  /// forever on a receiver that will never post again.
  std::optional<RecvItem> post_send(SendItem& s) {
    if (dead_) {
      fail(s, s.t_ready);
      return std::nullopt;
    }
    auto r = take_first(
        recvs_, [&](const RecvItem& posted) { return matches(s, posted); });
    if (!r) sends_.push_back(std::move(s));
    return r;
  }

  /// Post a receive; if a queued send matches, returns it (removed) and
  /// leaves `r` with the caller, else moves `r` into the queue.
  /// A specific-source receive from a rank already known dead (and with
  /// no matching in-flight send) is failed immediately with kErrPeerDead
  /// instead of being queued, so readers never wait on a ghost.
  std::optional<SendItem> post_recv(RecvItem& r) {
    auto s = take_first(
        sends_, [&](const SendItem& queued) { return matches(queued, r); });
    if (s) return s;
    if (r.src_world == kAnySource || !dead_srcs_.contains(r.src_world))
      recvs_.push_back(std::move(r));
    else
      fail(r, r.t_ready);
    return std::nullopt;
  }

  /// Crash sweep, receiver side: `src_world` died at virtual time `t`.
  /// Every posted specific-source receive on it is completed with
  /// kErrPeerDead, and future such receives fail fast (see post_recv).
  /// Wildcard receives are left armed — a live sender may still match.
  /// Queued *rendezvous* sends from the dead rank are purged too: their
  /// payload pointer targets the dead rank's unwound stack, so a later
  /// match would copy from freed memory. Eager sends own a staged copy
  /// and stay deliverable — they were already on the wire.
  void fail_source(int src_world, double t) {
    dead_srcs_.insert(src_world);
    fail_if(recvs_, t,
            [&](const RecvItem& r) { return r.src_world == src_world; });
    fail_if(sends_, t, [&](const SendItem& s) {
      return s.src_world == src_world && !s.eager_mode;
    });
  }

  /// Crash sweep, owner side: the rank owning this mailbox died at `t`.
  /// Queued rendezvous senders are released with kErrPeerDead; queued
  /// state is discarded so no later sender can match a receive whose
  /// buffer lives in the dead rank's unwound stack.
  void kill_destination(double t) {
    dead_ = true;
    fail_if(sends_, t, [](const SendItem&) { return true; });
    fail_if(recvs_, t, [](const RecvItem&) { return true; });
  }

  /// Non-destructive probe for a matching queued send.
  bool probe(std::uint64_t ctx, int src_world, int tag, std::uint64_t* bytes,
             int* src_out, int* tag_out) const {
    RecvItem pattern;
    pattern.ctx = ctx;
    pattern.src_world = src_world;
    pattern.tag = tag;
    for (const auto& s : sends_) {
      if (matches(s, pattern)) {
        if (bytes != nullptr) *bytes = s.bytes;
        if (src_out != nullptr) *src_out = s.src_world;
        if (tag_out != nullptr) *tag_out = s.tag;
        return true;
      }
    }
    return false;
  }

  /// Cancel every posted receive matching (ctx, src_world, tag): the
  /// items are removed from the queue and their requests completed with
  /// kErrPeerDead at each item's own t_ready. Used by a long-lived stream
  /// reader to drop the receives of a departed writer, which every later
  /// send to this rank would otherwise scan past; the caller must first
  /// verify (via probe) that no queued send could still match, or that
  /// send would be orphaned. Returns the number of receives cancelled.
  int cancel_recvs(std::uint64_t ctx, int src_world, int tag) {
    constexpr double kOwnTime = -std::numeric_limits<double>::infinity();
    return fail_if(recvs_, kOwnTime, [&](const RecvItem& r) {
      return r.ctx == ctx && r.src_world == src_world && r.tag == tag;
    });
  }

  std::size_t pending_recvs() const noexcept { return recvs_.size(); }

 private:
  template <class Item>
  using Queue = std::list<Item, FreeListAllocator<Item>>;

  /// Remove and return the first item `pred` accepts, in posting order.
  template <class Item, class Pred>
  static std::optional<Item> take_first(Queue<Item>& q, Pred pred) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (!pred(*it)) continue;
      std::optional<Item> out(std::move(*it));
      q.erase(it);
      return out;
    }
    return std::nullopt;
  }

  /// Complete every item `pred` accepts with kErrPeerDead at max(t, its
  /// t_ready), in posting order, and drop it. Returns how many.
  template <class Item, class Pred>
  static int fail_if(Queue<Item>& q, double t, Pred pred) {
    return static_cast<int>(std::erase_if(q, [&](const Item& item) {
      if (!pred(item)) return false;
      fail(item, std::max(t, item.t_ready));
      return true;
    }));
  }

  /// Complete an item's request (if any) with kErrPeerDead at `t`.
  template <class Item>
  static void fail(const Item& item, double t) {
    if (!item.req) return;
    Status st;
    st.source = item.src_world;
    st.tag = item.tag;
    st.error = kErrPeerDead;
    item.req->complete(t, st);
  }

  Queue<SendItem> sends_;
  Queue<RecvItem> recvs_;
  std::unordered_set<int> dead_srcs_;
  bool dead_ = false;
};

}  // namespace esp::mpi::detail
