/// \file ablation_degrade.cpp
/// \brief Ablation of the overload-degradation ladder: what each rung
/// (full fidelity, 1-in-N sampling, per-window aggregation, and the
/// adaptive ladder under a starved analyzer) costs and saves — streamed
/// bytes, shipped events, weighted analysis totals, application virtual
/// walltime.
///
/// Every metric here is *virtual*. The counters (bytes, packs, events,
/// weighted totals, degraded windows) are bit-reproducible run to run;
/// tools/bench_gate.py compares them exactly against
/// bench/BENCH_degrade.baseline.json, and virtual walltime within 15 %
/// (the saturated adaptive rung serializes contending requests in host
/// arrival order, which makes its walltime host-load sensitive).
///
///   ESP_DEGRADE_BENCH_JSON=out.json ./ablation_degrade
///       run the rung sweep, write one JSON record per rung, check the
///       hardware-neutral floors on the bytes-on-the-wire reduction of the
///       sampled (2x) and aggregated (4x) rungs vs full fidelity, exit.
///
/// Without ESP_DEGRADE_BENCH_JSON, standard google-benchmark micro-
/// benchmarks over the same sessions (wall-clock, for profiling only).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace {

using namespace esp;

/// Dead-neighbour-tolerant ring exchange, the fault-suite workload.
mpi::ProgramMain ring(int iters) {
  return [iters](mpi::ProcEnv& env) {
    std::vector<std::byte> rbuf(1024), sbuf(1024);
    const int n = env.world.size();
    for (int i = 0; i < iters; ++i) {
      mpi::compute(5e-5);
      mpi::Request r = env.world.irecv(rbuf.data(), rbuf.size(),
                                       (env.world_rank + n - 1) % n, 0);
      env.world.send(sbuf.data(), sbuf.size(), (env.world_rank + 1) % n, 0);
      mpi::wait(r);
    }
  };
}

/// Floors on the bytes-on-the-wire reduction vs full fidelity.
constexpr double kMinSampledX = 2.0;     ///< sampled4
constexpr double kMinAggregatedX = 4.0;  ///< aggregated

struct RungResult {
  std::string name;
  std::uint64_t streamed_bytes = 0;
  std::uint64_t packs = 0;
  std::uint64_t events_shipped = 0;   ///< Event records on the wire.
  std::uint64_t weighted_events = 0;  ///< Analysis total (weights applied).
  std::uint64_t windows_degraded = 0; ///< Sampled + aggregated flushes.
  double app_walltime = 0.0;          ///< Virtual seconds.
};

/// One fixed workload per rung; only the ladder configuration varies, so
/// the deltas below isolate what degradation itself buys.
RungResult run_rung(const std::string& name, int force_mode,
                    std::uint32_t stride, bool overload) {
  SessionConfig cfg;
  cfg.analyzer_ratio = 4;
  cfg.instrument.degrade = force_mode >= 0 || overload;
  cfg.instrument.degrade_force_mode = force_mode;
  cfg.instrument.degrade_stride = stride;
  if (overload) {
    // The adaptive rung needs genuine backpressure: rendezvous-sized
    // blocks and a starved analyzer (same shape as the ladder test).
    cfg.instrument.block_size = 32768;
    cfg.instrument.n_async = 1;
    cfg.analyzer.per_event_cost = 2e-4;
  } else {
    cfg.instrument.block_size = 4096;
  }
  Session session(cfg);
  const int app = session.add_application("ring", 8, ring(400));
  auto results = session.run();

  RungResult r;
  r.name = name;
  const auto totals = session.instrument_totals();
  r.streamed_bytes = totals.streamed_bytes;
  r.packs = totals.packs;
  r.events_shipped = totals.events;
  r.windows_degraded = totals.windows_sampled + totals.windows_aggregated;
  if (const an::AppResults* ar = results->find(app))
    r.weighted_events = ar->total_events;
  r.app_walltime = session.application_walltime(app);
  return r;
}

int run_sweep(const std::string& json_path) {
  std::vector<RungResult> results;
  results.push_back(run_rung("full", 0, 1, false));
  results.push_back(run_rung("sampled4", 1, 4, false));
  results.push_back(run_rung("sampled8", 1, 8, false));
  results.push_back(run_rung("aggregated", 2, 1, false));
  results.push_back(run_rung("adaptive_overload", -1, 8, true));
  for (const auto& r : results)
    std::printf("%-18s bytes=%-9llu packs=%-4llu shipped=%-6llu "
                "weighted=%-6llu degraded_windows=%-4llu walltime=%.6f\n",
                r.name.c_str(),
                static_cast<unsigned long long>(r.streamed_bytes),
                static_cast<unsigned long long>(r.packs),
                static_cast<unsigned long long>(r.events_shipped),
                static_cast<unsigned long long>(r.weighted_events),
                static_cast<unsigned long long>(r.windows_degraded),
                r.app_walltime);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }
  out << "{\n  \"schema\": 1,\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "    {\"rung\":\"%s\",\"streamed_bytes\":%llu,"
                  "\"packs\":%llu,\"events_shipped\":%llu,"
                  "\"weighted_events\":%llu,\"windows_degraded\":%llu,"
                  "\"app_walltime\":%.9f}%s\n",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.streamed_bytes),
                  static_cast<unsigned long long>(r.packs),
                  static_cast<unsigned long long>(r.events_shipped),
                  static_cast<unsigned long long>(r.weighted_events),
                  static_cast<unsigned long long>(r.windows_degraded),
                  r.app_walltime, i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("-> %s\n", json_path.c_str());

  int rc = 0;
  auto find = [&](const char* name) -> const RungResult* {
    for (const auto& r : results)
      if (r.name == name) return &r;
    return nullptr;
  };
  const RungResult* full = find("full");
  const RungResult* sampled = find("sampled4");
  const RungResult* agg = find("aggregated");

  // Hardware-neutral gate: each rung must actually shrink the
  // measurement volume — the paper's reduction claim, applied to the
  // ladder. Virtual metrics, so these hold on any host or they are a
  // real regression.
  if (full != nullptr && sampled != nullptr && sampled->streamed_bytes > 0) {
    const double x = static_cast<double>(full->streamed_bytes) /
                     static_cast<double>(sampled->streamed_bytes);
    if (x < kMinSampledX) {
      std::fprintf(stderr, "FAIL: sampled4 reduces bytes only %.2fx "
                           "(< %.2fx)\n", x, kMinSampledX);
      rc = 1;
    }
  }
  if (full != nullptr && agg != nullptr && agg->streamed_bytes > 0) {
    const double x = static_cast<double>(full->streamed_bytes) /
                     static_cast<double>(agg->streamed_bytes);
    if (x < kMinAggregatedX) {
      std::fprintf(stderr, "FAIL: aggregated reduces bytes only %.2fx "
                           "(< %.2fx)\n", x, kMinAggregatedX);
      rc = 1;
    }
  }
  // Sampling must keep totals honest: every kept event stands for
  // `stride` calls, so the weighted total brackets the true count.
  if (full != nullptr && sampled != nullptr) {
    if (sampled->weighted_events < full->events_shipped ||
        sampled->weighted_events >
            full->events_shipped + 4ull * 8ull /* stride * ranks */) {
      std::fprintf(stderr,
                   "FAIL: sampled4 weighted total %llu outside "
                   "[%llu, %llu]\n",
                   static_cast<unsigned long long>(sampled->weighted_events),
                   static_cast<unsigned long long>(full->events_shipped),
                   static_cast<unsigned long long>(full->events_shipped +
                                                   32));
      rc = 1;
    }
  }
  return rc;
}

/// Wall-clock benchmark of one full session per rung (profiling aid; the
/// regression gate uses the JSON mode above).
void BM_DegradeRung(benchmark::State& state) {
  const int force_mode = static_cast<int>(state.range(0));
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    SessionConfig cfg;
    cfg.analyzer_ratio = 4;
    cfg.instrument.block_size = 4096;
    cfg.instrument.degrade = force_mode >= 0;
    cfg.instrument.degrade_force_mode = force_mode;
    cfg.instrument.degrade_stride = 4;
    Session session(cfg);
    session.add_application("ring", 8, ring(200));
    session.run();
    bytes = session.instrument_totals().streamed_bytes;
  }
  state.counters["streamed_bytes"] =
      benchmark::Counter(static_cast<double>(bytes));
}
BENCHMARK(BM_DegradeRung)->Arg(-1)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const char* json = std::getenv("ESP_DEGRADE_BENCH_JSON");
  if (json != nullptr && *json != '\0') return run_sweep(json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
