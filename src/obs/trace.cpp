#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/obs.hpp"

namespace esp::obs {

namespace {

struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  double ts = 0.0;   ///< Seconds (track time base).
  double dur = 0.0;  ///< Seconds; < 0 marks an instant event.
  std::uint64_t a0 = 0, a1 = 0;
  const char* a0_key = nullptr;
  const char* a1_key = nullptr;
};

}  // namespace

/// One track's event buffer + identity. Appended only by the thread it is
/// bound to under `mu` (uncontended in steady state); write_trace_json
/// locks each buffer while copying so a late auxiliary thread cannot race
/// it.
struct TraceTrack {
  std::mutex mu;
  std::int32_t pid = 9999;  ///< Auxiliary-threads process row by default.
  std::int32_t tid = 0;
  std::string thread_name;
  std::string process_name;
  std::vector<TraceEvent> events;
};

namespace {

struct TraceRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<TraceTrack>> bufs;
  std::atomic<std::int32_t> next_tid{0};
  std::atomic<std::uint64_t> dropped{0};
};

TraceRegistry& registry() {
  static TraceRegistry* r = new TraceRegistry;  // outlives exiting threads
  return *r;
}

thread_local TraceTrack* t_bound = nullptr;

TraceTrack& thread_buf() {
  if (t_bound != nullptr) return *t_bound;
  static thread_local std::shared_ptr<TraceTrack> buf = [] {
    auto b = std::make_shared<TraceTrack>();
    auto& reg = registry();
    b->tid = reg.next_tid.fetch_add(1, std::memory_order_relaxed);
    b->thread_name = "thread-" + std::to_string(b->tid);
    std::lock_guard lock(reg.mu);
    reg.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

void append(const TraceEvent& ev) {
  auto& b = thread_buf();
  std::lock_guard lock(b.mu);
  if (b.events.size() >= trace_max_events()) {
    registry().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.events.push_back(ev);
}

void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

std::shared_ptr<TraceTrack> make_track(std::int32_t pid, std::int32_t tid,
                                       const std::string& thread_name,
                                       const std::string& process_name) {
  auto b = std::make_shared<TraceTrack>();
  b->pid = pid;
  b->tid = tid;
  b->thread_name = thread_name;
  b->process_name = process_name;
  auto& reg = registry();
  std::lock_guard lock(reg.mu);
  reg.bufs.push_back(b);
  return b;
}

void bind_track(TraceTrack* track) noexcept { t_bound = track; }

UnboundTrack::UnboundTrack() noexcept : saved_(t_bound) { t_bound = nullptr; }

UnboundTrack::~UnboundTrack() { t_bound = saved_; }

void name_current_thread(const std::string& name) {
  auto& b = thread_buf();
  std::lock_guard lock(b.mu);
  b.thread_name = name;
}

void trace_span(const char* cat, const char* name, double t_begin,
                double t_end, std::uint64_t a0, const char* a0_key,
                std::uint64_t a1, const char* a1_key) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.ts = t_begin;
  ev.dur = t_end > t_begin ? t_end - t_begin : 0.0;
  ev.a0 = a0;
  ev.a0_key = a0_key;
  ev.a1 = a1;
  ev.a1_key = a1_key;
  append(ev);
}

void trace_instant(const char* cat, const char* name, double t,
                   std::uint64_t a0, const char* a0_key) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.ts = t;
  ev.dur = -1.0;
  ev.a0 = a0;
  ev.a0_key = a0_key;
  append(ev);
}

void trace_reset() {
  auto& reg = registry();
  std::lock_guard lock(reg.mu);
  // The registry is the last owner of a buffer whose thread or rank is
  // gone (its handle died with it): drop it, track name included.
  std::erase_if(reg.bufs, [](const std::shared_ptr<TraceTrack>& b) {
    return b.use_count() == 1;
  });
  for (const auto& b : reg.bufs) {
    std::lock_guard block(b->mu);
    b->events.clear();
  }
  reg.dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t trace_dropped() {
  return registry().dropped.load(std::memory_order_relaxed);
}

bool write_trace_json(const std::string& path) {
  // Snapshot every buffer (copy under its lock), then sort per track so
  // timestamps are monotone per (pid, tid) in file order.
  struct Track {
    std::int32_t pid, tid;
    std::string thread_name, process_name;
    std::vector<TraceEvent> events;
  };
  std::vector<Track> tracks;
  {
    auto& reg = registry();
    std::lock_guard lock(reg.mu);
    tracks.reserve(reg.bufs.size());
    for (const auto& b : reg.bufs) {
      std::lock_guard block(b->mu);
      if (b->events.empty() && b->process_name.empty()) continue;
      tracks.push_back(
          {b->pid, b->tid, b->thread_name, b->process_name, b->events});
    }
  }
  std::sort(tracks.begin(), tracks.end(), [](const Track& a, const Track& b) {
    return a.pid != b.pid ? a.pid < b.pid : a.tid < b.tid;
  });
  for (auto& t : tracks)
    std::stable_sort(
        t.events.begin(), t.events.end(),
        [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });

  std::ofstream f(path);
  if (!f) return false;
  f.precision(3);
  f << std::fixed;
  f << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) f << ",";
    first = false;
    f << "\n" << line;
  };
  // Metadata: name each process row once and every thread row.
  std::int32_t named_pid = INT32_MIN;
  for (const auto& t : tracks) {
    if (!t.process_name.empty() && t.pid != named_pid) {
      named_pid = t.pid;
      std::string pn;
      json_escape(pn, t.process_name);
      emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(t.pid) +
           ",\"tid\":0,\"args\":{\"name\":\"" + pn + "\"}}");
    }
    std::string tn;
    json_escape(tn, t.thread_name);
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(t.pid) + ",\"tid\":" + std::to_string(t.tid) +
         ",\"args\":{\"name\":\"" + tn + "\"}}");
  }
  char num[64];
  for (const auto& t : tracks) {
    for (const auto& ev : t.events) {
      if (!first) f << ",";
      first = false;
      f << "\n{\"name\":\"" << ev.name << "\",\"cat\":\"" << ev.cat
        << "\",\"ph\":\"" << (ev.dur < 0 ? 'i' : 'X') << "\",";
      std::snprintf(num, sizeof num, "%.3f", ev.ts * 1e6);
      f << "\"ts\":" << num << ",";
      if (ev.dur >= 0) {
        std::snprintf(num, sizeof num, "%.3f", ev.dur * 1e6);
        f << "\"dur\":" << num << ",";
      } else {
        f << "\"s\":\"t\",";
      }
      f << "\"pid\":" << t.pid << ",\"tid\":" << t.tid;
      if (ev.a0_key != nullptr || ev.a1_key != nullptr) {
        f << ",\"args\":{";
        if (ev.a0_key != nullptr)
          f << "\"" << ev.a0_key << "\":" << ev.a0
            << (ev.a1_key != nullptr ? "," : "");
        if (ev.a1_key != nullptr) f << "\"" << ev.a1_key << "\":" << ev.a1;
        f << "}";
      }
      f << "}";
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace esp::obs
