/// \file e2e.cpp
/// \brief End-to-end benchmark runner for esperf.
///
/// Runs one workload repeatedly through the libraries' public API and
/// prints one JSON line per repetition (`rep {...}`) and one line of
/// process totals (`proc {...}`). perfbench/run.py turns those lines into
/// the benchmark's metrics; this program only measures and checks.
///
/// Workloads (tera100 machine model):
///   sp_c_online     SP.C on 64 ranks under online coupling: 8 analyzer
///                   ranks x 4 blackboard workers, 1 MB packs, report on disk
///   sp_c_reference  the same SP.C job with no tool attached
///   stream_fanin8   64 writers -> 8 readers over vmpi::Stream, 1 MB blocks
///
/// Usage:
///   esperf_e2e --workload W --seed N --seconds S --trace 0|1 --workdir DIR
///              [--iterations N] [--blocks N] [--link-drop P]
///
/// With --trace 0 it repeats the workload until S seconds have passed,
/// following each repetition with set-up trials (`setup {...}` lines): the
/// same job with empty program mains. A trial's set-up time is the process
/// CPU spent from job assembly until the last app rank enters its main
/// (Runtime construction, tool attach, stream buffer reservation, every rank
/// thread spawned). CPU rather than wall time: waiting for a core under host
/// contention would otherwise swamp the work done.
/// With --trace 1 it runs an untraced warm-up repetition, one untraced
/// repetition, (sp_c_online only) one sp_c_reference repetition for the
/// virtual-time overhead, then one repetition with the obs counters and
/// span tracer on, whose counters it prints and whose spans it writes to
/// DIR/trace.json.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/hash.hpp"
#include "instrument/online_instrument.hpp"
#include "nas/workloads.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "simmpi/runtime.hpp"
#include "vmpi/stream.hpp"

namespace {

using namespace esp;
namespace fs = std::filesystem;

constexpr int kAppRanks = 64;
constexpr int kAnalyzerRatio = 8;  // Session's default analyzer ratio.
constexpr int kReaders = 8;
constexpr std::uint64_t kBlock = 1u << 20;
/// Set-up-only repetitions after each measured one, so setup_s is a median
/// over many samples.
constexpr int kSetupTrials = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  int iterations = 1500;  ///< SP.C timesteps.
  int blocks = 48;        ///< Stream blocks per writer.
  double link_drop = 0;   ///< Stream-block drop probability (fault test).
};

// ---- host clocks -----------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// One sample of the calling thread's usage.
struct ThreadUsage {
  std::uint64_t cpu_ns = 0;
  double sys_s = 0;
  long vcsw = 0;
  std::int64_t wall_ns = 0;
};

ThreadUsage thread_usage() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return {thread_cpu_ns(), seconds_of(ru.ru_stime), ru.ru_nvcsw, now_ns()};
}

// ---- per-rank ledger -------------------------------------------------------

/// Host and virtual accounting of one rank thread. Written only by that
/// thread while the job runs; read by the main thread after Runtime::run().
struct RankLedger {
  bool begun = false;
  bool ended = false;
  ThreadUsage begin, end;
  std::uint64_t calls = 0;       ///< RankContext::calls_made at main exit.
  double tool_virt = 0;  ///< Virtual seconds charged by on_call/on_finalize.
  std::uint64_t on_call_cpu_ns = 0;
  std::vector<std::uint32_t> on_call_ns;  ///< Traced repetitions only.
  std::uint64_t blocks_written = 0;
  std::uint64_t blocks_ok = 0;
  std::uint64_t blocks_bad = 0;
  std::uint64_t write_cpu_ns = 0;
  std::uint64_t read_cpu_ns = 0;
  bool stream_error = false;

  void start() {
    begun = true;
    begin = thread_usage();
  }
};

/// State shared by every rank of one repetition.
struct Rep {
  explicit Rep(int world, bool traced_) : ranks(world), traced(traced_) {}

  std::vector<RankLedger> ranks;
  const bool traced;
  std::mutex entry_mu;  ///< Guards the three app-entry fields below.
  std::int64_t first_app_entry = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_app_entry = 0;
  std::uint64_t cpu_at_last_app_entry = 0;  ///< Process CPU at that entry.
  std::atomic<std::int64_t> last_app_exit{0};
  /// Stream workload: verified blocks received per writer.
  std::vector<std::atomic<std::uint64_t>> received;

  RankLedger& self() { return ranks[static_cast<std::size_t>(
      mpi::Runtime::self().world_rank)]; }

  void note_entry() {
    const std::int64_t t = now_ns();
    const std::uint64_t cpu = process_cpu_ns();
    std::lock_guard lock(entry_mu);
    first_app_entry = std::min(first_app_entry, t);
    if (t > last_app_entry) {
      last_app_entry = t;
      cpu_at_last_app_entry = cpu;
    }
  }
  void finish(RankLedger& r, bool app) {
    r.end = thread_usage();
    r.ended = true;
    if (!app) return;
    std::int64_t cur = last_app_exit.load();
    while (r.end.wall_ns > cur &&
           !last_app_exit.compare_exchange_weak(cur, r.end.wall_ns)) {
    }
  }
};

/// Wrap a program main so its rank thread is accounted in `rep`. When a
/// tool is attached to the partition the tool's on_init/on_finalize
/// bracket the accounting instead, so it covers the tool hooks too.
mpi::ProgramMain wrap_main(Rep& rep, mpi::ProgramMain inner, bool app,
                           bool tool_attached) {
  return [&rep, inner = std::move(inner), app, tool_attached](
             mpi::ProcEnv& env) {
    RankLedger& r = rep.self();
    if (!r.begun) r.start();
    if (app) rep.note_entry();
    inner(env);
    r.calls = mpi::Runtime::self().calls_made;
    if (!tool_attached) rep.finish(r, app);
  };
}

/// The benchmark's own tool: forwards every hook to the online
/// instrumentation and accounts the virtual time it charges and, on
/// traced repetitions, the host CPU each on_call costs.
class InstrumentProbe final : public mpi::Tool {
 public:
  InstrumentProbe(std::shared_ptr<inst::OnlineInstrument> inner, Rep& rep)
      : inner_(std::move(inner)), rep_(rep) {}

  void on_init(mpi::RankContext& rc) override {
    RankLedger& r = ledger(rc);
    r.start();
    inner_->on_init(rc);
  }

  void on_call(mpi::RankContext& rc, const mpi::CallInfo& ci) override {
    RankLedger& r = ledger(rc);
    const double v0 = rc.clock;
    if (rep_.traced) {
      const std::uint64_t c0 = thread_cpu_ns();
      inner_->on_call(rc, ci);
      const std::uint64_t dt = thread_cpu_ns() - c0;
      r.on_call_cpu_ns += dt;
      r.on_call_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(dt, std::numeric_limits<std::uint32_t>::max())));
    } else {
      inner_->on_call(rc, ci);
    }
    r.tool_virt += rc.clock - v0;
  }

  void on_finalize(mpi::RankContext& rc) override {
    RankLedger& r = ledger(rc);
    const double v0 = rc.clock;
    inner_->on_finalize(rc);
    r.tool_virt += rc.clock - v0;
    rep_.finish(r, true);
  }

 private:
  RankLedger& ledger(const mpi::RankContext& rc) {
    return rep_.ranks[static_cast<std::size_t>(rc.world_rank)];
  }

  std::shared_ptr<inst::OnlineInstrument> inner_;
  Rep& rep_;
};

// ---- stream workload -------------------------------------------------------

/// Payload word `i` of every block written by `writer`.
std::uint64_t pattern_word(std::uint64_t seed, int writer, std::size_t i) {
  return mix64(hash_combine(mix64(seed ^ 0x5eedull),
                            (static_cast<std::uint64_t>(writer) << 32) ^ i));
}

/// Words 0 and 1 of a block carry (writer, block index); the reader checks
/// them and a strided sample of the payload against pattern_word.
constexpr std::size_t kSampleStride = 509;

void stream_writer(mpi::ProcEnv& env, const Options& o, Rep& rep) {
  RankLedger& r = rep.self();
  vmpi::Map map;
  map.map_partitions(env, env.runtime->partition_by_name("readers")->id,
                     vmpi::MapPolicy::RoundRobin);
  vmpi::Stream st({kBlock, 3, vmpi::BalancePolicy::RoundRobin});
  st.open_map(env, map, "w");
  const int writer = env.world_rank;
  std::vector<std::uint64_t> buf(st.block_size() / sizeof(std::uint64_t));
  for (std::size_t i = 2; i < buf.size(); ++i)
    buf[i] = pattern_word(o.seed, writer, i);
  buf[0] = static_cast<std::uint64_t>(writer);
  for (int b = 0; b < o.blocks; ++b) {
    buf[1] = static_cast<std::uint64_t>(b);
    const std::uint64_t c0 = rep.traced ? thread_cpu_ns() : 0;
    if (st.write(buf.data(), 1) != 1) r.stream_error = true;
    if (rep.traced) r.write_cpu_ns += thread_cpu_ns() - c0;
  }
  st.close();
  r.blocks_written = st.blocks_written();
}

void stream_reader(mpi::ProcEnv& env, const Options& o, Rep& rep) {
  RankLedger& r = rep.self();
  vmpi::Map map;
  map.map_partitions(env, env.runtime->partition_by_name("writers")->id,
                     vmpi::MapPolicy::RoundRobin);
  vmpi::Stream st({kBlock, 3, vmpi::BalancePolicy::RoundRobin});
  st.open_map(env, map, "r");
  std::vector<std::uint64_t> buf(st.block_size() / sizeof(std::uint64_t));
  // Blocks of one writer arrive in order on each link.
  std::vector<std::int64_t> last(rep.received.size(), -1);
  for (;;) {
    const std::uint64_t c0 = rep.traced ? thread_cpu_ns() : 0;
    const int n = st.read(buf.data(), 1);
    if (rep.traced) r.read_cpu_ns += thread_cpu_ns() - c0;
    if (n == 0) break;
    if (n < 0) {
      r.stream_error = true;
      break;
    }
    const std::uint64_t writer = buf[0];
    const auto index = static_cast<std::int64_t>(buf[1]);
    bool ok = writer < last.size() && index > last[writer] && index < o.blocks;
    for (std::size_t i = 2; ok && i < buf.size(); i += kSampleStride)
      ok = buf[i] == pattern_word(o.seed, static_cast<int>(writer), i);
    if (ok) ok = buf.back() == pattern_word(o.seed, static_cast<int>(writer),
                                            buf.size() - 1);
    if (!ok) {
      ++r.blocks_bad;
      continue;
    }
    last[writer] = index;
    ++r.blocks_ok;
    rep.received[writer].fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- one repetition ----------------------------------------------------------

/// Minimal JSON object writer: numbers keep all their digits.
class Json {
 public:
  Json& num(const char* k, double v) {
    char b[64];
    std::snprintf(b, sizeof b, "%.17g", v);
    return raw(k, b);
  }
  Json& num(const char* k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Json& str(const char* k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& boolean(const char* k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& raw(const std::string& k, const std::string& v) {
    s_ += (s_.empty() ? "{" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  std::string s_;
};

std::string hex64(std::uint64_t v) {
  char b[20];
  std::snprintf(b, sizeof b, "%016" PRIx64, v);
  return b;
}

/// Hash of every file of `dir`: sorted relative paths and their bytes.
std::uint64_t digest_dir(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::uint64_t h = 0;
  for (const auto& f : files) {
    std::ifstream in(f, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    h = hash_combine(h, fnv1a(fs::relative(f, dir).string()));
    h = hash_combine(h, fnv1a(bytes));
  }
  return h;
}

std::uint64_t percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

enum class Mode {
  Measured,    ///< The workload, obs off.
  Traced,      ///< The workload, obs counters and span tracer on.
  SetupTrial,  ///< The same job with empty program mains: set-up time only.
};

/// Run one repetition of `workload` and return its JSON line.
std::string run_rep(const Options& opts, const std::string& workload,
                    int index, Mode mode) {
  const bool stream = workload == "stream_fanin8";
  const bool online = workload == "sp_c_online";
  const bool traced = mode == Mode::Traced;
  const bool trial = mode == Mode::SetupTrial;
  Options o = opts;
  if (trial) o.blocks = 0;  // writers open and close their streams only
  const int app_ranks = kAppRanks;
  const int other_ranks =
      stream ? kReaders : (online ? kAppRanks / kAnalyzerRatio : 0);
  Rep rep(app_ranks + other_ranks, traced);
  rep.received = std::vector<std::atomic<std::uint64_t>>(
      stream ? static_cast<std::size_t>(app_ranks) : 0);

  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  const std::uint64_t cpu0 = process_cpu_ns();

  mpi::RuntimeConfig rcfg;
  rcfg.seed = o.seed;
  if (o.link_drop > 0)
    rcfg.faults.links.push_back({.drop_probability = o.link_drop});
  std::vector<mpi::ProgramSpec> progs;
  auto results = std::make_shared<an::AnalysisResults>();
  const std::string report_dir =
      trial ? std::string() : o.workdir + "/report-" + std::to_string(index);
  if (stream) {
    progs.push_back({"writers", app_ranks,
                     wrap_main(rep, [&](mpi::ProcEnv& env) {
                       stream_writer(env, o, rep);
                     }, true, false)});
    progs.push_back({"readers", kReaders,
                     wrap_main(rep, [&](mpi::ProcEnv& env) {
                       stream_reader(env, o, rep);
                     }, false, false)});
  } else {
    // Assembled as bench/bench_util.hpp does: skeleton payloads are never
    // read, so at most one stream block is physically copied per message.
    rcfg.payload_copy_cap = kBlock;
    nas::WorkloadParams wp{nas::Benchmark::SP, nas::ProblemClass::C,
                           o.iterations};
    progs.push_back({nas::workload_label(wp.bench, wp.cls), app_ranks,
                     wrap_main(rep,
                               trial ? mpi::ProgramMain([](mpi::ProcEnv&) {})
                                     : nas::make_workload(wp),
                               true, online)});
    if (online) {
      an::AnalyzerConfig acfg;
      if (!trial) acfg.results = results;
      acfg.output_dir = report_dir;
      progs.push_back({"analyzer", other_ranks,
                       wrap_main(rep, [acfg](mpi::ProcEnv& env) {
                         an::run_analyzer(env, acfg);
                       }, false, false)});
    }
  }

  mpi::Runtime rt(rcfg, std::move(progs));
  std::shared_ptr<inst::OnlineInstrument> tool;
  if (online) {
    tool = std::make_shared<inst::OnlineInstrument>(rt, inst::InstrumentConfig{});
    rt.tools().attach(std::make_shared<InstrumentProbe>(tool, rep), 0);
  }
  if (traced) obs::set_enabled(true, true);
  rt.run();
  const std::int64_t t_end = now_ns();
  if (traced) obs::set_enabled(false, false);
  if (trial)
    return Json()
        .num("setup_s",
             static_cast<double>(rep.cpu_at_last_app_entry - cpu0) * 1e-9)
        .done();
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);

  // ---- fold the per-rank ledgers -------------------------------------------
  double app_cpu = 0, app_sys = 0, app_wall = 0, an_cpu = 0, tool_virt = 0;
  std::uint64_t app_vcsw = 0, an_vcsw = 0, calls = 0, on_call_cpu_ns = 0,
                written = 0, read_ok = 0, read_bad = 0, write_cpu_ns = 0,
                read_cpu_ns = 0;
  int app_done = 0;
  bool stream_error = false;
  std::vector<std::uint32_t> on_call_ns;
  for (std::size_t w = 0; w < rep.ranks.size(); ++w) {
    RankLedger& r = rep.ranks[w];
    const bool app = w < static_cast<std::size_t>(app_ranks);
    if (!r.ended) continue;
    const double cpu = static_cast<double>(r.end.cpu_ns - r.begin.cpu_ns) * 1e-9;
    const auto vcsw = static_cast<std::uint64_t>(r.end.vcsw - r.begin.vcsw);
    if (app) {
      ++app_done;
      app_cpu += cpu;
      app_sys += r.end.sys_s - r.begin.sys_s;
      app_wall += static_cast<double>(r.end.wall_ns - r.begin.wall_ns) * 1e-9;
      app_vcsw += vcsw;
      calls += r.calls;
      tool_virt += r.tool_virt;
      on_call_cpu_ns += r.on_call_cpu_ns;
      on_call_ns.insert(on_call_ns.end(), r.on_call_ns.begin(),
                        r.on_call_ns.end());
      written += r.blocks_written;
      write_cpu_ns += r.write_cpu_ns;
    } else {
      an_cpu += cpu;
      an_vcsw += vcsw;
      read_ok += r.blocks_ok;
      read_bad += r.blocks_bad;
      read_cpu_ns += r.read_cpu_ns;
    }
    stream_error = stream_error || r.stream_error;
  }

  // ---- correctness -----------------------------------------------------------
  std::string failed_checks;
  auto check = [&failed_checks](bool ok, const char* name) {
    if (!ok) failed_checks += failed_checks.empty() ? name : std::string(",") + name;
  };
  check(app_done == app_ranks, "app_ranks_finished");
  check(rt.deaths().empty(), "no_rank_deaths");
  std::uint64_t attempted = 0, failed = 0, items = 0, recorded = 0, packs = 0;
  std::string digest;
  if (online) {
    const auto totals = tool->totals();
    recorded = totals.events;
    packs = totals.packs;
    const an::AppResults* app = results->find(0);
    const std::uint64_t analyzed = app != nullptr ? app->total_events : 0;
    check(app != nullptr, "app_results_present");
    check(analyzed == recorded, "events_analyzed_eq_recorded");
    check(app != nullptr && app->loss.clean(), "loss_ledger_clean");
    check(app != nullptr && app->telemetry.stream_blocks == packs,
          "blocks_read_eq_written");
    check(recorded > 0, "events_recorded");
    check(fs::exists(report_dir + "/report.md"), "report_written");
    attempted = recorded;
    failed = analyzed > recorded ? analyzed - recorded : recorded - analyzed;
    items = analyzed;
    if (fs::exists(report_dir)) {
      digest = hex64(digest_dir(report_dir));
      fs::remove_all(report_dir);
    }
  } else if (stream) {
    const std::uint64_t expected =
        static_cast<std::uint64_t>(app_ranks) * static_cast<std::uint64_t>(o.blocks);
    bool per_writer = true;
    for (const auto& n : rep.received)
      per_writer = per_writer && n.load() == static_cast<std::uint64_t>(o.blocks);
    check(written == expected, "blocks_written");
    check(read_ok == written && per_writer, "blocks_read_eq_written");
    check(read_bad == 0, "payload_verified");
    check(!stream_error, "no_stream_errors");
    attempted = expected;
    failed = expected > read_ok ? expected - read_ok : read_ok - expected;
    items = read_ok;
  } else {
    check(calls > 0, "calls_made");
    attempted = calls;
    items = calls;
  }
  const bool ok = failed_checks.empty();
  if (!ok && failed == 0) failed = 1;

  const double virt_app = rt.partition_walltime(0);
  const double virt_other =
      rt.partitions().size() > 1 ? rt.partition_walltime(1) : 0.0;
  std::uint64_t virt_bits = 0;
  std::memcpy(&virt_bits, &virt_app, sizeof virt_bits);

  Json j;
  j.str("workload", workload)
      .num("wall_s",
           static_cast<double>(t_end - rep.first_app_entry) * 1e-9)
      .num("cpu_user_s", seconds_of(ru1.ru_utime) - seconds_of(ru0.ru_utime))
      .num("cpu_sys_s", seconds_of(ru1.ru_stime) - seconds_of(ru0.ru_stime))
      .num("items", items)
      .num("virt_app_s", virt_app)
      .num("virt_other_s", virt_other)
      .str("virt_bits", hex64(virt_bits))
      .str("digest", digest)
      .num("attempted", attempted)
      .num("failed", failed)
      .boolean("ok", ok)
      .str("failed_checks", failed_checks)
      .num("app_ranks", static_cast<std::uint64_t>(app_ranks))
      .num("app_cpu_s", app_cpu)
      .num("app_sys_s", app_sys)
      .num("app_wall_s", app_wall)
      .num("app_vcsw", app_vcsw)
      .num("calls", calls)
      .num("other_cpu_s", an_cpu)
      .num("other_vcsw", an_vcsw)
      .num("tail_s", static_cast<double>(t_end - rep.last_app_exit.load()) * 1e-9)
      .num("events_recorded", recorded)
      .num("packs", packs)
      .num("tool_virt_s", tool_virt)
      .num("on_call_cpu_s", static_cast<double>(on_call_cpu_ns) * 1e-9)
      .num("on_call_ns_p50", percentile(on_call_ns, 0.50))
      .num("on_call_ns_p99", percentile(on_call_ns, 0.99))
      .num("stream_blocks_written", written)
      .num("stream_blocks_read", read_ok)
      .num("stream_write_cpu_s", static_cast<double>(write_cpu_ns) * 1e-9)
      .num("stream_read_cpu_s", static_cast<double>(read_cpu_ns) * 1e-9);
  if (traced) {
    Json m;
    for (const auto& s : obs::metrics_snapshot()) {
      switch (s.kind) {
        case obs::MetricSample::Kind::Counter: m.num(s.name.c_str(), s.value); break;
        case obs::MetricSample::Kind::Gauge: m.num(s.name.c_str(), s.dvalue); break;
        case obs::MetricSample::Kind::Histogram:
          m.num((s.name + ".count").c_str(), s.value);
          m.num((s.name + ".sum").c_str(), s.sum);
          break;
      }
    }
    m.num("trace.dropped", obs::trace_dropped());
    j.raw("obs", m.done());
    const std::string trace_path = o.workdir + "/trace.json";
    if (!obs::write_trace_json(trace_path))
      throw std::runtime_error("cannot write " + trace_path);
    j.str("trace_path", trace_path);
  }
  return j.done();
}

void emit(const char* tag, const std::string& json) {
  std::printf("%s %s\n", tag, json.c_str());
  std::fflush(stdout);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = std::stoi(v) != 0;
    else if (k == "--workdir") o.workdir = v;
    else if (k == "--iterations") o.iterations = std::stoi(v);
    else if (k == "--blocks") o.blocks = std::stoi(v);
    else if (k == "--link-drop") o.link_drop = std::stod(v);
    else throw std::invalid_argument("unknown option " + k);
  }
  if (o.workload != "sp_c_online" && o.workload != "sp_c_reference" &&
      o.workload != "stream_fanin8")
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (o.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (o.iterations < 1 || o.blocks < 1 || o.link_drop < 0 || o.link_drop >= 1)
    throw std::invalid_argument("bad workload size or drop probability");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    fs::create_directories(o.workdir);
    obs::set_enabled(false, false);
    const auto peak_rss = [] {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      return Json()
          .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
          .done();
    };
    if (o.trace) {
      emit("warmup", run_rep(o, o.workload, 0, Mode::Measured));
      emit("rep", run_rep(o, o.workload, 1, Mode::Measured));
      if (o.workload == "sp_c_online")
        emit("reference", run_rep(o, "sp_c_reference", 2, Mode::Measured));
      emit("rep", run_rep(o, o.workload, 3, Mode::Traced));
      return 0;
    }
    // The peak RSS of a fresh process through one repetition: later
    // repetitions only add allocator fragmentation across rank threads.
    const std::int64_t t0 = now_ns();
    int index = 0;
    do {
      emit("rep", run_rep(o, o.workload, index++, Mode::Measured));
      if (index == 1) emit("proc", peak_rss());
      for (int k = 0; k < kSetupTrials; ++k)
        emit("setup", run_rep(o, o.workload, index, Mode::SetupTrial));
    } while (static_cast<double>(now_ns() - t0) * 1e-9 < o.seconds);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esperf_e2e: %s\n", e.what());
    return 1;
  }
}
