#pragma once
/// \file trace.hpp
/// \brief Virtual-time span/event tracer emitting Chrome trace_event JSON.
///
/// Spans carry explicit (begin, end) timestamps in *seconds* supplied by
/// the caller: ranks pass their virtual clocks, auxiliary threads pass
/// obs::real_now(). Each rank and each thread appends to its own track
/// buffer (registered globally, capped at obs::trace_max_events());
/// write_trace_json() sorts
/// per track so timestamps are monotone per (pid, tid) in file order —
/// the schema the CI smoke check enforces — and emits process_name /
/// thread_name metadata so Perfetto labels partitions and ranks.
///
/// `name`, `cat` and arg keys must be string literals (or otherwise
/// outlive the process): events store the pointers, not copies.

#include <cstdint>
#include <string>

namespace esp::obs {

/// Record a completed span [t_begin, t_end] (seconds) on the calling
/// thread's track, with up to two integer args. No-op when tracing is off
/// or the thread's buffer is full (drops are counted).
void trace_span(const char* cat, const char* name, double t_begin,
                double t_end, std::uint64_t a0 = 0,
                const char* a0_key = nullptr, std::uint64_t a1 = 0,
                const char* a1_key = nullptr);

/// Record an instantaneous event at `t` (seconds).
void trace_instant(const char* cat, const char* name, double t,
                   std::uint64_t a0 = 0, const char* a0_key = nullptr);

/// Forget the previous run: drop the buffers (and track names) of threads
/// that have exited and clear the events of live ones. Runtime::run calls
/// this first, so trace.json holds only its own run's tracks even when
/// one process runs several Runtimes.
void trace_reset();

/// Events dropped because a thread buffer hit the cap (since the last
/// trace_reset()).
std::uint64_t trace_dropped();

/// Emit every buffered event as {"traceEvents":[...]} Chrome trace JSON
/// (timestamps converted to microseconds). Returns false on IO error.
bool write_trace_json(const std::string& path);

}  // namespace esp::obs
