#pragma once
/// \file fiber.hpp
/// \brief The deterministic rank scheduler (internal).
///
/// Runtime::run executes every rank main as a fiber on its calling thread
/// (the *carrier*). Exactly one fiber runs at a time, and the scheduler
/// picks the next one from a ready heap keyed by (virtual clock, world
/// rank), so the order of every simulation step is a function of the
/// seed alone:
///  - **yield** — at a step whose order matters (a matching or booking
///    p-layer call) a fiber switches out when a ready fiber has a smaller
///    key (yield_point);
///  - **park** — a blocking wait leaves the heap until the completion
///    wakes it, keyed at max(its clock, the completion's finish time);
///  - **busy** — pure byte work (a stream CRC copy) runs on the helper
///    pool (common/helpers.hpp) while the fiber is out of the heap; busy
///    fibers rejoin in one wave, in key order, once no other fiber is ready
///    (run_pure);
///  - **idle** — a real-time poll (a non-blocking read that found
///    nothing, a dead-writer poll) resumes only when nothing else can run
///    at all, busy waves included; that moment is its timeout (idle).
/// The scheduler also reports every wedge. An empty heap with fibers still
/// parked and none busy or idle is one; so is a run of kQuietWaves idle
/// waves in a row in which every fiber that ran went idle again with its
/// virtual clock and p-layer call count unchanged, and no wake, park,
/// finish, run_pure or progressed() happened. Either way the runtime's
/// callback prints what each rank is doing and the process aborts.
/// DESIGN.md "Deterministic scheduler" has the full contract.

#include <functional>
#include <string>
#include <type_traits>

#include "common/helpers.hpp"

namespace esp::mpi {
struct RankContext;
}

namespace esp::mpi::fib {

struct Fiber;

/// Idle waves in a row that change nothing before the run counts as
/// wedged. One would do for the runtime's own wait loops, which repeat a
/// quiet poll exactly; a miss returned to user code may feed a bounded
/// poll loop, which a run of waves outlasts.
inline constexpr int kQuietWaves = 128;

/// Run `main(r)` for r in [0, n) as fibers on the calling thread until all
/// return. On a wedge, `wedged(why)` is called on the carrier to print the
/// per-rank dump (status() describes each fiber); the process then aborts.
void run_fibers(int n, const std::function<void(int)>& main,
                const std::function<void(const char*)>& wedged);

/// What fiber `r` of the running scheduler is doing, for a wedge dump:
/// "running", "idle", "parked, waits on X peer P" or "finished".
std::string status(int r);

/// Pure byte work handed to the helper pool: it may touch only memory its
/// fiber owns while it is out of the ready heap.
using helpers::PureTask;

/// The fiber running on this thread, or null (helper threads, the
/// carrier's own context, threads outside any runtime).
Fiber* current() noexcept;

/// The running fiber's rank context (set by the rank main), or null.
RankContext* current_rank() noexcept;
/// Install the running fiber's rank context.
void set_current_rank(RankContext* rc) noexcept;

/// Switch out if a ready fiber has a smaller (clock, rank) key. While some
/// rank main has not started yet, always switch out, so every rank enters
/// its main before any rank runs past its first ordered step. No-op off a
/// fiber.
void yield_point();

/// Leave the ready heap until wake(). `what` and `peer` name the wait in
/// the deadlock dump. Aborts when called off a fiber: nothing could ever
/// wake the caller.
void park(const char* what, int peer);

/// Make a parked (or wakeable idle) fiber ready, keyed at max(its clock,
/// `t`). Carrier only.
void wake(Fiber* f, double t);

/// Resume only when nothing else can run. With `wakeable`, a wake()
/// resumes the fiber earlier; returns true in that case. No-op (returning
/// false) off a fiber.
bool idle(bool wakeable = false);

/// Count a change the wedge detector cannot see in clocks and call counts,
/// made by host state a later idle pass depends on. No-op off a fiber.
void progressed() noexcept;

/// Run `task` on the helper pool while this fiber is busy (see the file
/// comment); returns once it finished. Runs inline off a fiber.
void run_pure(PureTask& task);

template <class F>
void run_pure(F&& fn) {
  using Fn = std::remove_reference_t<F>;
  PureTask t;
  t.fn = [](void* a) { (*static_cast<Fn*>(a))(); };
  t.arg = const_cast<void*>(static_cast<const void*>(&fn));
  run_pure(t);
}

}  // namespace esp::mpi::fib
