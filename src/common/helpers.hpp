#pragma once
/// \file helpers.hpp
/// \brief The one process-wide helper pool.
///
/// Created on first use: one thread per CPU of the process's affinity mask
/// minus the carrier (at least one), at SCHED_BATCH and nice 5, sleeping on
/// a futex when idle. Two kinds of work run on it:
///  - **byte tasks** (submit): pure byte work of a busy rank fiber, such as
///    a stream's CRC copy (`mpi::fib::run_pure`). A carrier waiting for one
///    (wait) runs queued byte tasks itself;
///  - **sweeps** (post): a blackboard sweeping its job FIFOs. Lower
///    priority: a helper takes every queued byte task first, and the
///    carrier's wait never runs a sweep, so a knowledge source never
///    delays a fiber's CRC.
/// Which thread runs a task never changes what it computes, so output bytes
/// do not depend on the helper count.

#include <atomic>

namespace esp::helpers {

/// Byte work: it may touch only memory its submitter owns until `done`.
struct PureTask {
  void (*fn)(void*) = nullptr;
  void* arg = nullptr;
  std::atomic<bool> done{false};
};

/// Queue `t` for a helper.
void submit(PureTask& t);

/// Return once `t` finished, running queued byte tasks meanwhile.
void wait(PureTask& t);

/// Queue a call of `fn(arg)` behind every byte task. The pool never touches
/// `arg` itself: the callee owns the lifetime of what `arg` points at.
void post(void (*fn)(void*), void* arg);

/// Test seam: run byte tasks and posts inline on the calling thread. The
/// scheduler's busy/rejoin order is unchanged, so outputs must be
/// identical.
void set_inline_for_testing(bool on) noexcept;

}  // namespace esp::helpers
