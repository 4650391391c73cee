#pragma once
/// \file mailbox.hpp
/// \brief Receiver-side message matching (internal).
///
/// One Mailbox per world rank. Senders post SendItems into the destination
/// mailbox; receivers post RecvItems into their own. Whichever side closes
/// a match removes both items under the lock and completes the pair outside
/// it (payload copy or storage handoff + virtual-time transfer
/// computation). A size-only message (null send or receive buffer, see
/// comm.hpp) is matched and timed the same way but moves no bytes.
/// Matching preserves MPI ordering: queues are scanned front-to-back, and
/// items from one sender arrive in program order.

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/buffer.hpp"
#include "simmpi/request.hpp"

namespace esp::mpi::detail {

/// Tracks matched message pairs whose payload copy is still in flight.
///
/// A match is removed from the mailbox queues under the mailbox lock, but
/// the copy (complete_match) runs outside it — into the receiver's buffer,
/// and for rendezvous out of the sender's pinned buffer. A rank crash
/// unwinds the rank's stack and frees those buffers, so the crash sweep
/// must wait until every copy touching the dying rank has retired. Pins
/// are taken under the same mailbox lock that removes the match (no
/// window between removal and pin) and released by complete_match.
class PinTable {
 public:
  explicit PinTable(int world_size)
      : pins_(static_cast<std::size_t>(world_size), 0) {}

  void pin(int src_world, int dst_world) {
    std::lock_guard lock(mu_);
    ++pins_[static_cast<std::size_t>(src_world)];
    ++pins_[static_cast<std::size_t>(dst_world)];
  }

  void unpin(int src_world, int dst_world) {
    std::lock_guard lock(mu_);
    --pins_[static_cast<std::size_t>(src_world)];
    --pins_[static_cast<std::size_t>(dst_world)];
    cv_.notify_all();
  }

  /// Block until no in-flight copy touches `world_rank`'s buffers.
  void wait_idle(int world_rank) {
    std::unique_lock lock(mu_);
    cv_.wait(lock,
             [&] { return pins_[static_cast<std::size_t>(world_rank)] == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> pins_;
};

struct SendItem {
  int src_world = -1;
  int dst_world = -1;
  std::uint64_t ctx = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  /// Rendezvous: pointer into the (pinned) sender buffer; null for eager
  /// and for size-only sends.
  /// When `src_ref` owns it, complete_match may hand the storage itself
  /// to a by-reference receive instead of copying (see RecvItem).
  const std::byte* src_buf = nullptr;
  /// Rendezvous sent by reference (Comm::pisend(const BufferRef&)):
  /// co-owns the sender's buffer until the item is dropped, so a match
  /// can swap its storage with the receiver's. Null for raw-pointer sends
  /// and for eager sends (those deliver from `eager`).
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
  std::byte* dst_buf = nullptr;  ///< Null for a size-only receive.
  /// Keeps dst_buf's backing storage alive until the item is dropped. A
  /// stream reader can be destroyed (normal exit after kEpipe, failover
  /// grace expiry) while slot receives are still posted; a sender that
  /// matches one of those later must never copy into freed memory.
  /// When a by-reference rendezvous send of a buffer the same size
  /// matches, complete_match swaps the two buffers' storage instead of
  /// copying: this buffer then holds the message, and the sender's
  /// buffer holds whatever bytes this one had.
  BufferRef keepalive;
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
  explicit Mailbox(PinTable* pins = nullptr) : pins_(pins) {}

  /// Post a send; if a posted receive matches, returns it (removed).
  /// When the owning rank has crashed, the send is refused: a rendezvous
  /// sender is completed with kErrPeerDead (eager sends were already
  /// locally complete) and nothing is queued — otherwise writers block
  /// forever on a receiver that will never post again.
  std::shared_ptr<RecvItem> post_send(std::shared_ptr<SendItem> s) {
    {
      std::lock_guard lock(mu_);
      if (!dead_) {
        for (auto it = recvs_.begin(); it != recvs_.end(); ++it) {
          if (matches(*s, **it)) {
            auto r = *it;
            recvs_.erase(it);
            if (pins_ != nullptr) pins_->pin(s->src_world, s->dst_world);
            return r;
          }
        }
        sends_.push_back(std::move(s));
        return nullptr;
      }
    }
    if (s->req) {
      Status st;
      st.source = s->src_world;
      st.tag = s->tag;
      st.error = kErrPeerDead;
      s->req->complete(s->t_ready, st);
    }
    return nullptr;
  }

  /// Post a receive; if a queued send matches, returns it (removed).
  /// A specific-source receive from a rank already known dead (and with
  /// no matching in-flight send) is failed immediately with kErrPeerDead
  /// instead of being queued, so readers never wait on a ghost.
  std::shared_ptr<SendItem> post_recv(std::shared_ptr<RecvItem> r) {
    {
      std::lock_guard lock(mu_);
      for (auto it = sends_.begin(); it != sends_.end(); ++it) {
        if (matches(**it, *r)) {
          auto s = *it;
          sends_.erase(it);
          if (pins_ != nullptr) pins_->pin(s->src_world, s->dst_world);
          return s;
        }
      }
      if (r->src_world == kAnySource || !dead_srcs_.contains(r->src_world)) {
        recvs_.push_back(std::move(r));
        return nullptr;
      }
    }
    fail_recv(*r, r->t_ready);
    return nullptr;
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
    std::vector<std::shared_ptr<RecvItem>> failed;
    std::vector<std::shared_ptr<SendItem>> purged;
    {
      std::lock_guard lock(mu_);
      dead_srcs_.insert(src_world);
      for (auto it = recvs_.begin(); it != recvs_.end();) {
        if ((*it)->src_world == src_world) {
          failed.push_back(*it);
          it = recvs_.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = sends_.begin(); it != sends_.end();) {
        if ((*it)->src_world == src_world && !(*it)->eager_mode) {
          purged.push_back(*it);
          it = sends_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& r : failed) fail_recv(*r, std::max(t, r->t_ready));
    for (auto& s : purged) {
      if (!s->req) continue;
      Status st;
      st.source = s->src_world;
      st.tag = s->tag;
      st.error = kErrPeerDead;
      s->req->complete(std::max(t, s->t_ready), st);
    }
  }

  /// Crash sweep, owner side: the rank owning this mailbox died at `t`.
  /// Queued rendezvous senders are released with kErrPeerDead; queued
  /// state is discarded so no later sender can match a receive whose
  /// buffer lives in the dead rank's unwound stack.
  void kill_destination(double t) {
    std::deque<std::shared_ptr<SendItem>> sends;
    std::deque<std::shared_ptr<RecvItem>> recvs;
    {
      std::lock_guard lock(mu_);
      dead_ = true;
      sends.swap(sends_);
      recvs.swap(recvs_);
    }
    for (auto& s : sends) {
      if (!s->req) continue;
      Status st;
      st.source = s->src_world;
      st.tag = s->tag;
      st.error = kErrPeerDead;
      s->req->complete(std::max(t, s->t_ready), st);
    }
    for (auto& r : recvs) fail_recv(*r, std::max(t, r->t_ready));
  }

  /// Non-destructive probe for a matching queued send.
  bool probe(std::uint64_t ctx, int src_world, int tag, std::uint64_t* bytes,
             int* src_out, int* tag_out) {
    std::lock_guard lock(mu_);
    RecvItem pattern;
    pattern.ctx = ctx;
    pattern.src_world = src_world;
    pattern.tag = tag;
    for (const auto& s : sends_) {
      if (matches(*s, pattern)) {
        if (bytes != nullptr) *bytes = s->bytes;
        if (src_out != nullptr) *src_out = s->src_world;
        if (tag_out != nullptr) *tag_out = s->tag;
        return true;
      }
    }
    return false;
  }

  /// Cancel every posted receive matching (ctx, src_world, tag): the
  /// items are removed from the queue and their requests completed with
  /// kErrPeerDead at each item's own t_ready, which also drops the
  /// keepalive buffer refs. Used by a long-lived stream reader to release
  /// the slot buffers of a departed writer; the caller must first verify
  /// (via probe) that no queued send could still match, or that send
  /// would be orphaned. Returns the number of receives cancelled.
  int cancel_recvs(std::uint64_t ctx, int src_world, int tag) {
    std::vector<std::shared_ptr<RecvItem>> cancelled;
    {
      std::lock_guard lock(mu_);
      for (auto it = recvs_.begin(); it != recvs_.end();) {
        if ((*it)->ctx == ctx && (*it)->src_world == src_world &&
            (*it)->tag == tag) {
          cancelled.push_back(*it);
          it = recvs_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& r : cancelled) fail_recv(*r, r->t_ready);
    return static_cast<int>(cancelled.size());
  }

  std::size_t pending_recvs() {
    std::lock_guard lock(mu_);
    return recvs_.size();
  }

 private:
  static void fail_recv(RecvItem& r, double t) {
    Status st;
    st.source = r.src_world;
    st.tag = r.tag;
    st.error = kErrPeerDead;
    r.req->complete(t, st);
  }

  std::mutex mu_;
  PinTable* pins_ = nullptr;
  std::deque<std::shared_ptr<SendItem>> sends_;
  std::deque<std::shared_ptr<RecvItem>> recvs_;
  std::unordered_set<int> dead_srcs_;
  bool dead_ = false;
};

}  // namespace esp::mpi::detail
