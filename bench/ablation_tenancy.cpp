/// \file ablation_tenancy.cpp
/// \brief Noisy-neighbour ablation of the tenant fabric: what per-tenant
/// quotas buy a well-behaved tenant when a neighbour floods the shared
/// analyzer. Three scenarios over one fixed four-tenant shape — no noise,
/// an unquota'd flooder, and the same flooder under a strict quota — and
/// the victim's event-to-flush latency distribution (p50/p99, virtual
/// time) plus its virtual walltime as the isolation metrics.
///
/// All metrics are virtual (simulated seconds), but every scenario here
/// deliberately runs the shared reader at or past saturation — that is
/// the disease under test — and under saturation the fluid resource
/// model serializes contending requests in host arrival order (the same
/// caveat the degrade ablation documents for its overload rung). Time
/// metrics therefore jitter a few percent run to run and gate with a
/// loose tolerance; event and shed counts are driven by producer-side
/// history only and stay (near-)exact. tools/bench_gate.py compares them
/// against bench/BENCH_tenancy.baseline.json: counts within 0.5 %, times
/// within 25 %.
///
///   ESP_TENANCY_BENCH_JSON=out.json ./ablation_tenancy
///       run the scenario sweep, write one JSON record per scenario,
///       gate, exit. Two hardware-neutral gates: the quota'd-flooder
///       victim p99 stays within 1.05x of the no-noise victim p99 (the
///       fabric's isolation promise), and the unquota'd-flooder victim
///       walltime is at least 1.05x the no-noise one (the flood must
///       demonstrably hurt, or the isolation gate compares two quiet
///       runs and passes vacuously).
///
/// Without ESP_TENANCY_BENCH_JSON, a standard google-benchmark wrapper
/// over the same sessions (wall-clock, for profiling only).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace {

using namespace esp;

/// Dead-neighbour-tolerant ring exchange; `gap` scales the compute phase
/// between calls, so a small gap means a high event rate (the flood).
mpi::ProgramMain ring(int iters, double gap) {
  return [iters, gap](mpi::ProcEnv& env) {
    std::vector<std::byte> rbuf(1024), sbuf(1024);
    const int n = env.world.size();
    for (int i = 0; i < iters; ++i) {
      mpi::compute(gap);
      mpi::Request r = env.world.irecv(rbuf.data(), rbuf.size(),
                                       (env.world_rank + n - 1) % n, 0);
      env.world.send(sbuf.data(), sbuf.size(), (env.world_rank + 1) % n, 0);
      mpi::wait(r);
    }
  };
}

/// Quota'd-flooder victim p99 ceiling, relative to the no-noise victim.
constexpr double kMaxVictimP99X = 1.05;
/// Unquota'd-flooder victim walltime floor, relative to no-noise.
constexpr double kMinHarmX = 1.05;

struct ScenarioResult {
  std::string name;
  double victim_p50 = 0.0;        ///< Victim event-to-flush p50 (virtual s).
  double victim_p99 = 0.0;        ///< Victim event-to-flush p99 (virtual s).
  std::uint64_t victim_events = 0;
  double victim_walltime = 0.0;   ///< Victim virtual walltime.
  std::uint64_t flooder_shed = 0; ///< Packs shed off the flooder's quota.
};

/// One fixed four-tenant shape: the victim, two quiet background tenants,
/// and a fourth slot that is quiet, flooding unquota'd, or flooding under
/// a strict per-tenant budget — the only thing that varies per scenario.
ScenarioResult run_scenario(const std::string& name, bool flood,
                            bool quota) {
  SessionConfig cfg;
  cfg.analyzer_ratio = 4;
  // Rendezvous-sized blocks and single async slots: the shape where a
  // flooder can genuinely backpressure the shared reader (eager-sized
  // blocks complete locally and cannot). The per-event cost is sized so
  // the reader runs hot even on well-behaved traffic and the unquota'd
  // flood pushes it well past saturation; the strict quota sheds the
  // flood at the reader, which is what pulls the victim back to (below,
  // even) the no-noise trajectory — shed flood analyzes fewer events
  // than a quiet fourth tenant would.
  cfg.instrument.block_size = 32768;
  cfg.instrument.n_async = 1;
  cfg.analyzer.per_event_cost = 4e-4;
  cfg.tenants.enabled = true;
  for (int t = 0; t < 4; ++t) cfg.tenants.arrival[t] = 0.0;
  if (flood && quota) {
    an::TenantQuota strict;
    strict.entry_rate = 50.0;  // below the ladder floor: shedding engages
    strict.burst_events = 32.0;
    cfg.tenants.quota[3] = strict;
  }
  Session session(cfg);
  // The victim's long virtual span keeps the quiet rows far from reader
  // saturation; the flooder's eight ranks are what let the flood outpace
  // the reader *during* the victim's lifetime.
  const int victim = session.add_application("victim", 2, ring(2000, 2e-4));
  session.add_application("bg0", 2, ring(400, 5e-5));
  session.add_application("bg1", 2, ring(400, 5e-5));
  const int fl = session.add_application(
      "fourth", 8, flood ? ring(10000, 2e-6) : ring(400, 5e-5));
  auto results = session.run();

  ScenarioResult r;
  r.name = name;
  if (const an::AppResults* v = results->find(victim)) {
    r.victim_p50 = v->tenant.latency.quantile(0.50);
    r.victim_p99 = v->tenant.latency.quantile(0.99);
    r.victim_events = v->total_events;
  }
  if (const an::AppResults* f = results->find(fl))
    r.flooder_shed = f->tenant.packs_shed;
  r.victim_walltime = session.application_walltime(victim);
  return r;
}

int run_sweep(const std::string& json_path) {
  std::vector<ScenarioResult> results;
  results.push_back(run_scenario("no_noise", false, false));
  results.push_back(run_scenario("noise_unlimited", true, false));
  results.push_back(run_scenario("noise_quota", true, true));
  for (const auto& r : results)
    std::printf("%-16s victim_p50=%.6gs p99=%.6gs events=%-6llu "
                "walltime=%.6fs flooder_shed=%llu\n",
                r.name.c_str(), r.victim_p50, r.victim_p99,
                static_cast<unsigned long long>(r.victim_events),
                r.victim_walltime,
                static_cast<unsigned long long>(r.flooder_shed));

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
                  "    {\"scenario\":\"%s\",\"victim_p50\":%.9g,"
                  "\"victim_p99\":%.9g,\"victim_events\":%llu,"
                  "\"victim_walltime\":%.9f,\"flooder_shed\":%llu}%s\n",
                  r.name.c_str(), r.victim_p50, r.victim_p99,
                  static_cast<unsigned long long>(r.victim_events),
                  r.victim_walltime,
                  static_cast<unsigned long long>(r.flooder_shed),
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("-> %s\n", json_path.c_str());

  int rc = 0;
  auto find = [&](const char* name) -> const ScenarioResult* {
    for (const auto& r : results)
      if (r.name == name) return &r;
    return nullptr;
  };
  const ScenarioResult* quiet = find("no_noise");
  const ScenarioResult* noisy = find("noise_unlimited");
  const ScenarioResult* contained = find("noise_quota");

  // Isolation gate (hardware-neutral): under the quota the victim's tail
  // latency stays within kMaxVictimP99X of the no-noise baseline. The
  // unquota'd flooder is printed for contrast but not gated — it is the
  // disease, not the cure.
  if (quiet != nullptr && contained != nullptr && quiet->victim_p99 > 0) {
    const double x = contained->victim_p99 / quiet->victim_p99;
    std::printf("victim p99: no_noise=%.6gs noise_quota=%.6gs (%.3fx)"
                "%s noise_unlimited=%.6gs (%.3fx)\n",
                quiet->victim_p99, contained->victim_p99, x,
                noisy != nullptr ? ";" : "",
                noisy != nullptr ? noisy->victim_p99 : 0.0,
                noisy != nullptr && quiet->victim_p99 > 0
                    ? noisy->victim_p99 / quiet->victim_p99
                    : 0.0);
    if (x > kMaxVictimP99X) {
      std::fprintf(stderr,
                   "FAIL: quota'd flood moves victim p99 %.3fx (> %.3fx): "
                   "tenant isolation regressed\n",
                   x, kMaxVictimP99X);
      rc = 1;
    }
  }
  // The quota must actually have engaged, or the isolation gate above is
  // vacuously comparing two quiet runs.
  if (contained != nullptr && contained->flooder_shed == 0) {
    std::fprintf(stderr,
                 "FAIL: strict quota shed nothing off the flooder "
                 "(scenario no longer floods?)\n");
    rc = 1;
  }
  // And the unquota'd flood must demonstrably hurt — victim walltime is
  // the robust harm signal (the three scenarios' walltime bands do not
  // overlap run to run, unlike the saturated tail quantiles).
  if (quiet != nullptr && noisy != nullptr && quiet->victim_walltime > 0) {
    const double h = noisy->victim_walltime / quiet->victim_walltime;
    std::printf("victim walltime: no_noise=%.6fs noise_unlimited=%.6fs "
                "(%.3fx) noise_quota=%.6fs (%.3fx)\n",
                quiet->victim_walltime, noisy->victim_walltime, h,
                contained != nullptr ? contained->victim_walltime : 0.0,
                contained != nullptr && quiet->victim_walltime > 0
                    ? contained->victim_walltime / quiet->victim_walltime
                    : 0.0);
    if (h < kMinHarmX) {
      std::fprintf(stderr,
                   "FAIL: unquota'd flood only moves victim walltime "
                   "%.3fx (< %.3fx): scenario no longer floods, the "
                   "isolation gate is vacuous\n",
                   h, kMinHarmX);
      rc = 1;
    }
  }
  return rc;
}

/// Wall-clock benchmark over the same scenarios (profiling aid; the
/// regression gate uses the JSON mode above).
void BM_TenancyScenario(benchmark::State& state) {
  const bool flood = state.range(0) != 0;
  const bool quota = state.range(0) == 2;
  double p99 = 0.0;
  for (auto _ : state) {
    const ScenarioResult r =
        run_scenario(flood ? (quota ? "noise_quota" : "noise_unlimited")
                           : "no_noise",
                     flood, quota);
    p99 = r.victim_p99;
  }
  state.counters["victim_p99_s"] = benchmark::Counter(p99);
}
BENCHMARK(BM_TenancyScenario)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const char* json = std::getenv("ESP_TENANCY_BENCH_JSON");
  if (json != nullptr && *json != '\0') return run_sweep(json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
