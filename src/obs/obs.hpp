#pragma once
/// \file obs.hpp
/// \brief Self-observability master switches and thread-track identity.
///
/// The esperf stack instruments *itself* (streams, blackboard, network
/// model, instrumentation tool) behind hooks that must cost nothing in
/// production paths: off (the default), every hook is
/// `if (obs::enabled())` over a relaxed atomic load of a bool that never
/// changes after start-up — one predicted branch.
///
/// Knobs (read once, at first use / static initialization):
///   ESP_OBS=1           enable the metrics registry + hooks
///   ESP_OBS_TRACE=0     disable the span tracer while keeping metrics
///                       (default: follows ESP_OBS)
///   ESP_OBS_TRACE_MAX   per-thread span buffer cap (default 262144)
///   ESP_OBS_DIR         artifact directory override (default: the
///                       session's report output_dir)
///
/// Tracks: the tracer renders one Perfetto track per thread or rank. Each
/// rank owns an explicit (pid = partition id + 1, tid = universe rank)
/// track timed on its *virtual* clock, bound to the carrier thread while
/// the rank's fiber runs; auxiliary threads (the helper pool, which runs
/// stream byte work and blackboard sweeps) fall onto an auto-assigned
/// real-time track that can be named with name_current_thread().

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace esp::obs {

namespace detail {
/// Constant-initialized so a hook reached before the env is parsed (or
/// from another TU's static initializer) safely reads "off".
extern constinit std::atomic<bool> g_on;
extern constinit std::atomic<bool> g_trace_on;
}  // namespace detail

/// Master switch: metrics hooks + artifact writing.
inline bool enabled() noexcept {
  return detail::g_on.load(std::memory_order_relaxed);
}

/// Tracer switch; implies enabled().
inline bool trace_enabled() noexcept {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Override the env-derived switches (tests, embedding applications).
void set_enabled(bool metrics_on, bool trace_on);

/// Per-thread span buffer cap (ESP_OBS_TRACE_MAX).
std::uint64_t trace_max_events();

/// Where Session writes metrics.json / trace.json: ESP_OBS_DIR when set,
/// otherwise `session_output_dir` (may be empty = nowhere).
std::string artifact_dir(const std::string& session_output_dir);

/// A span buffer with its track identity (trace.cpp).
struct TraceTrack;

/// A registered track with an explicit identity: a rank's partition
/// (process row) and universe rank (thread row). Its spans survive the
/// handle until the next trace_reset().
std::shared_ptr<TraceTrack> make_track(std::int32_t pid, std::int32_t tid,
                                       const std::string& thread_name,
                                       const std::string& process_name);

/// Route the calling thread's spans to `track` (null: back to the thread's
/// own track). The rank scheduler rebinds it on every fiber switch.
void bind_track(TraceTrack* track) noexcept;

/// While it lives, the calling thread's spans go to its own real-time
/// track; the bound track returns after. Work a carrier runs outside any
/// rank's virtual time (a draining board's jobs) keeps off the rank track.
class UnboundTrack {
 public:
  UnboundTrack() noexcept;
  ~UnboundTrack();
  UnboundTrack(const UnboundTrack&) = delete;
  UnboundTrack& operator=(const UnboundTrack&) = delete;

 private:
  TraceTrack* saved_;
};

/// Name the calling thread's auto-assigned (real-time) track.
void name_current_thread(const std::string& name);

/// Real seconds since process start (steady clock) — the time base of
/// auxiliary-thread tracks, where no virtual clock exists.
double real_now() noexcept;

}  // namespace esp::obs
