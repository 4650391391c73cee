#pragma once
/// \file request.hpp
/// \brief Nonblocking-operation handles.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "common/buffer.hpp"
#include "common/free_list.hpp"
#include "simmpi/fiber.hpp"
#include "simmpi/types.hpp"

namespace esp::mpi {

struct CommData;

/// A multiplexed completion target: several requests can be armed to
/// notify one WaitSet, giving wait-any semantics without a global
/// broadcast. At most one rank waits on a WaitSet at a time. Like every
/// request, it is touched only on the carrier (fiber.hpp), so it has no
/// lock.
struct WaitSet {
  std::uint64_t ticket = 0;
  fib::Fiber* waiter = nullptr;  ///< The rank parked in a wait, if any.

  /// A completion at virtual time `t` changed the set: wake the waiter,
  /// keyed at max(its clock, t).
  void notify(double t) {
    ++ticket;
    if (fib::Fiber* w = std::exchange(waiter, nullptr)) fib::wake(w, t);
  }
  std::uint64_t snapshot() const noexcept { return ticket; }
  /// Park until notify() has been called after `seen` was snapshotted.
  void wait_change(std::uint64_t seen) {
    while (ticket == seen) {
      waiter = fib::current();
      fib::park("waitany", -1);
    }
  }
  /// Like wait_change(), but an idle wait: gives up when nothing else can
  /// run (fiber.hpp). Returns false then — used by readers that must
  /// re-check whether a silently-dead writer will ever notify them.
  bool wait_change_or_idle(std::uint64_t seen) {
    if (ticket != seen) return true;
    waiter = fib::current();
    fib::idle(true);
    waiter = nullptr;
    return ticket != seen;
  }
};

/// Shared completion state of a nonblocking operation. Matching happens on
/// whichever rank closes the (send, recv) pair; the initiating rank
/// observes completion through wait()/test(). Carrier-only, so unlocked;
/// make_request() takes it from a free list and Request owns it.
struct RequestState {
  bool done = false;

  /// Virtual time at which the *owning* rank may consider the operation
  /// complete (transfer finish for receives and rendezvous sends; local
  /// staging finish for eager sends).
  double finish = 0.0;
  Status status;  ///< status.source holds the sender's *world* rank until
                  ///< the owning Comm translates it.
  /// A completed block receive's delivered buffer (Comm::pirecv_block),
  /// for the receiver to take; null otherwise.
  BufferRef delivered;

  // Bookkeeping for tool-chain reporting and source translation at wait
  // time.
  CallKind kind = CallKind::Isend;
  std::uint64_t ctx = 0;
  int peer_world = -1;
  std::uint64_t bytes = 0;
  std::shared_ptr<const CommData> comm;

  /// Armed wait-any target; see arm_waitset()/disarm_waitset().
  WaitSet* waitset = nullptr;
  /// The rank parked in block(), if any.
  fib::Fiber* waiter = nullptr;

  /// Once disarm_waitset() returned, no completion touches the WaitSet
  /// again, so a stack- or stream-owned WaitSet may be destroyed right
  /// after disarming.
  void complete(double t, Status st) {
    done = true;
    finish = t;
    status = st;
    if (waitset != nullptr) waitset->notify(t);
    if (fib::Fiber* w = std::exchange(waiter, nullptr)) fib::wake(w, t);
  }

  /// Register `ws` for completion notification. Returns true when the
  /// request is already done (no arming happened).
  bool arm_waitset(WaitSet* ws) {
    if (done) return true;
    waitset = ws;
    return false;
  }
  /// Remove an armed wait-set (required before a stack-owned WaitSet goes
  /// out of scope while the request may still complete).
  void disarm_waitset(WaitSet* ws) {
    if (waitset == ws) waitset = nullptr;
  }

  bool is_done() const noexcept { return done; }

  /// Park the calling rank until done; returns the virtual finish time.
  double block() {
    while (!done) {
      waiter = fib::current();
      fib::park(call_kind_name(kind), peer_world);
    }
    return finish;
  }

 private:
  friend class Request;
  std::uint32_t refs_ = 1;  ///< Request handles that own this state.
};

/// A request handle: a shared_ptr-like, null-testable owner of one
/// RequestState, with a plain reference count. One thread touches a
/// request at a time: the carrier while the runtime runs (a request lives
/// in the mailbox items and wait loops of its ranks); any one thread once
/// the handle has been handed over, e.g. after the runtime returned. Two
/// threads copying or dropping handles to one state at once race.
class Request {
 public:
  Request() noexcept = default;
  Request(std::nullptr_t) noexcept {}
  Request(const Request& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) ++p_->refs_;
  }
  Request(Request&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  Request& operator=(Request o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~Request() {
    if (p_ != nullptr && --p_->refs_ == 0) {
      p_->~RequestState();
      FreeListAllocator<RequestState>{}.deallocate(p_, 1);
    }
  }

  void reset() noexcept { Request().swap(*this); }
  void swap(Request& o) noexcept { std::swap(p_, o.p_); }

  RequestState* get() const noexcept { return p_; }
  RequestState* operator->() const noexcept { return p_; }
  RequestState& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  friend bool operator==(const Request&, const Request&) = default;
  friend bool operator==(const Request& r, std::nullptr_t) noexcept {
    return r.p_ == nullptr;
  }

 private:
  friend Request make_request();
  explicit Request(RequestState* p) noexcept : p_(p) {}
  RequestState* p_ = nullptr;
};

/// A fresh request. Its block comes from the calling thread's free list,
/// so a steady stream of messages allocates none; the handle may outlive
/// the Runtime and be dropped on another thread (common/free_list.hpp).
inline Request make_request() {
  return Request(
      ::new (FreeListAllocator<RequestState>{}.allocate(1)) RequestState);
}

}  // namespace esp::mpi
