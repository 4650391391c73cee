#pragma once
/// \file request.hpp
/// \brief Nonblocking-operation handles.

#include <memory>
#include <mutex>
#include <utility>

#include "simmpi/fiber.hpp"
#include "simmpi/types.hpp"

namespace esp::mpi {

struct CommData;

/// A multiplexed completion target: several requests can be armed to
/// notify one WaitSet, giving wait-any semantics without a global
/// broadcast. At most one rank waits on a WaitSet at a time.
struct WaitSet {
  std::mutex mu;
  std::uint64_t ticket = 0;
  fib::Fiber* waiter = nullptr;  ///< The rank parked in a wait, if any.

  /// A completion at virtual time `t` changed the set: wake the waiter,
  /// keyed at max(its clock, t).
  void notify(double t) {
    std::unique_lock lock(mu);
    ++ticket;
    fib::Fiber* w = std::exchange(waiter, nullptr);
    lock.unlock();
    if (w != nullptr) fib::wake(w, t);
  }
  std::uint64_t snapshot() {
    std::lock_guard lock(mu);
    return ticket;
  }
  /// Park until notify() has been called after `seen` was snapshotted.
  void wait_change(std::uint64_t seen) {
    std::unique_lock lock(mu);
    while (ticket == seen) {
      waiter = fib::current();
      lock.unlock();
      fib::park("waitany", -1);
      lock.lock();
    }
  }
  /// Like wait_change(), but an idle wait: gives up when nothing else can
  /// run (fiber.hpp). Returns false then — used by readers that must
  /// re-check whether a silently-dead writer will ever notify them.
  bool wait_change_or_idle(std::uint64_t seen) {
    std::unique_lock lock(mu);
    if (ticket != seen) return true;
    waiter = fib::current();
    lock.unlock();
    fib::idle(true);
    lock.lock();
    waiter = nullptr;
    return ticket != seen;
  }
};

/// Shared completion state of a nonblocking operation. Matching happens on
/// whichever rank closes the (send, recv) pair; the initiating rank
/// observes completion through wait()/test().
struct RequestState {
  std::mutex mu;
  bool done = false;

  /// Virtual time at which the *owning* rank may consider the operation
  /// complete (transfer finish for receives and rendezvous sends; local
  /// staging finish for eager sends).
  double finish = 0.0;
  Status status;  ///< status.source holds the sender's *world* rank until
                  ///< the owning Comm translates it.

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

  void complete(double t, Status st) {
    std::unique_lock lock(mu);
    done = true;
    finish = t;
    status = st;
    // Notify while still holding the request lock: once disarm_waitset()
    // (same lock) returns, no completion can touch the WaitSet again, so
    // a stack- or stream-owned WaitSet may be destroyed right after
    // disarming. Safe order-wise: nothing locks a request while holding a
    // WaitSet's mutex.
    if (waitset != nullptr) waitset->notify(t);
    fib::Fiber* w = std::exchange(waiter, nullptr);
    lock.unlock();
    if (w != nullptr) fib::wake(w, t);
  }

  /// Register `ws` for completion notification. Returns true when the
  /// request is already done (no arming happened).
  bool arm_waitset(WaitSet* ws) {
    std::lock_guard lock(mu);
    if (done) return true;
    waitset = ws;
    return false;
  }
  /// Remove an armed wait-set (required before a stack-owned WaitSet goes
  /// out of scope while the request may still complete).
  void disarm_waitset(WaitSet* ws) {
    std::lock_guard lock(mu);
    if (waitset == ws) waitset = nullptr;
  }

  bool is_done() {
    std::lock_guard lock(mu);
    return done;
  }

  /// Park the calling rank until done; returns the virtual finish time.
  double block() {
    std::unique_lock lock(mu);
    while (!done) {
      waiter = fib::current();
      lock.unlock();
      fib::park(call_kind_name(kind), peer_world);
      lock.lock();
    }
    return finish;
  }
};

/// A request handle; copyable, null-testable.
using Request = std::shared_ptr<RequestState>;

}  // namespace esp::mpi
