/// \file ablation_blackboard.cpp
/// \brief Ablations for the parallel-blackboard design choices called out
/// in DESIGN.md: worker-pool width, job-FIFO array width (contention
/// spreading), payload size, the multi-sensitivity join cost, and the
/// contention sweep of the locked-FIFO scheduler under batched submission.
/// google-benchmark micro-benchmarks over the real engine, plus a quick
/// JSON mode for the bench-regression gate (tools/bench_gate.py):
///
///   ESP_BB_BENCH_JSON=out.json ./ablation_blackboard
///       runs only the contention sweep and writes one JSON record per
///       (workers, producers, batch) cell of 120000 jobs, then exits.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "blackboard/blackboard.hpp"

namespace {

using namespace esp;
using namespace esp::bb;

/// Throughput of single-sensitivity jobs vs worker count.
void BM_WorkerScaling(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  Blackboard board({.workers = workers, .fifo_count = 16});
  std::atomic<std::uint64_t> sink{0};
  const TypeId t = type_id("evt");
  board.register_ks({"consume", {t}, [&](Blackboard&, auto entries) {
                       sink.fetch_add(entries[0].template as<int>());
                     }});
  int v = 1;
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) board.push(DataEntry::of(t, v));
    board.drain();
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_WorkerScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Contention spreading: FIFO-array width under a fixed worker pool.
void BM_FifoWidth(benchmark::State& state) {
  const int fifos = static_cast<int>(state.range(0));
  Blackboard board({.workers = 4, .fifo_count = fifos});
  std::atomic<std::uint64_t> sink{0};
  const TypeId t = type_id("evt");
  board.register_ks({"consume", {t}, [&](Blackboard&, auto) {
                       sink.fetch_add(1);
                     }});
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) board.push(DataEntry::of(t, i));
    board.drain();
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FifoWidth)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/// Push-to-completion latency for payloads of increasing size (the
/// ref-counted zero-copy path: payload bytes are shared, never copied).
void BM_PayloadSize(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Blackboard board({.workers = 2, .fifo_count = 8});
  std::atomic<std::uint64_t> sink{0};
  const TypeId t = type_id("blob");
  board.register_ks({"consume", {t}, [&](Blackboard&, auto entries) {
                       sink.fetch_add(entries[0].size());
                     }});
  auto payload = Buffer::make(bytes);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) board.push(DataEntry(t, payload));
    board.drain();
  }
  state.SetBytesProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PayloadSize)->Arg(1024)->Arg(64 * 1024)->Arg(1 << 20);

/// Join cost: a KS with N sensitivities of one type (N-way batching).
void BM_JoinArity(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Blackboard board({.workers = 2, .fifo_count = 8});
  std::atomic<std::uint64_t> fires{0};
  const TypeId t = type_id("j");
  std::vector<TypeId> sens(static_cast<std::size_t>(arity), t);
  board.register_ks({"join", sens, [&](Blackboard&, auto entries) {
                       fires.fetch_add(entries.size());
                     }});
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) board.push(DataEntry::of(t, i));
    board.drain();
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_JoinArity)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Dynamic KS registration/removal churn concurrent with traffic.
void BM_DynamicKsChurn(benchmark::State& state) {
  Blackboard board({.workers = 2, .fifo_count = 8});
  std::atomic<std::uint64_t> sink{0};
  const TypeId t = type_id("evt");
  board.register_ks({"base", {t}, [&](Blackboard&, auto) {
                       sink.fetch_add(1);
                     }});
  for (auto _ : state) {
    KsId id = board.register_ks({"tmp", {t}, [&](Blackboard&, auto) {
                                   sink.fetch_add(1);
                                 }});
    for (int i = 0; i < 64; ++i) board.push(DataEntry::of(t, i));
    board.remove_ks(id);
    board.drain();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DynamicKsChurn);

// ---------------------------------------------------------------------------
// Contention sweep: workers x producers x batch size.
// ---------------------------------------------------------------------------

struct SweepCell {
  int workers = 4;
  int producers = 1;
  int batch = 1;
};

/// Jobs/sec for one sweep cell: `producers` threads submit `total_jobs`
/// trivial single-sensitivity jobs in batches of `batch` entries, then the
/// board drains. The KS operation is one relaxed atomic add, so the
/// measurement isolates the submission + scheduling hot path.
double run_contention_cell(const SweepCell& c, std::int64_t total_jobs) {
  Blackboard board({.workers = c.workers, .fifo_count = 16});
  std::atomic<std::uint64_t> sink{0};
  const TypeId t = type_id("evt");
  board.register_ks({"consume", {t}, [&](Blackboard&, auto) {
                       sink.fetch_add(1, std::memory_order_relaxed);
                     }});
  const std::int64_t per_producer = total_jobs / c.producers;
  const auto payload = Buffer::copy_of("x", 1);  // shared: refcount only

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(c.producers));
  for (int p = 0; p < c.producers; ++p) {
    producers.emplace_back([&, per_producer] {
      std::vector<DataEntry> entries(
          static_cast<std::size_t>(c.batch), DataEntry(t, payload));
      std::int64_t sent = 0;
      while (sent < per_producer) {
        const auto n = static_cast<std::size_t>(
            std::min<std::int64_t>(c.batch, per_producer - sent));
        board.submit_batch({entries.data(), n});
        sent += static_cast<std::int64_t>(n);
      }
    });
  }
  for (auto& th : producers) th.join();
  board.drain();
  const auto t1 = std::chrono::steady_clock::now();
  board.stop();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const auto done = static_cast<std::int64_t>(sink.load());
  return secs > 0 ? static_cast<double>(done) / secs : 0.0;
}

/// google-benchmark wrapper so the sweep is also explorable interactively:
/// args = {workers, producers, batch}.
void BM_Contention(benchmark::State& state) {
  SweepCell c;
  c.workers = static_cast<int>(state.range(0));
  c.producers = static_cast<int>(state.range(1));
  c.batch = static_cast<int>(state.range(2));
  constexpr std::int64_t kJobs = 20000;
  double total_rate = 0;
  for (auto _ : state) total_rate += run_contention_cell(c, kJobs);
  state.SetItemsProcessed(state.iterations() * kJobs);
  state.counters["jobs_per_sec"] =
      total_rate / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Contention)
    ->ArgsProduct({{2, 8}, {1, 4}, {1, 64}})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Quick-mode JSON for tools/bench_gate.py.
// ---------------------------------------------------------------------------

int run_quick_sweep(const std::string& json_path) {
  constexpr std::int64_t jobs = 120000;  // per sweep cell
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }
  out << "{\n  \"schema\": 1,\n  \"jobs_per_cell\": " << jobs
      << ",\n  \"fifo_count\": 16,\n  \"results\": [\n";
  const char* sep = "";
  for (int w : {1, 2, 4, 8})
    for (int p : {1, 4})
      for (int b : {1, 64}) {
        const double rate = run_contention_cell({w, p, b}, jobs);
        std::printf("workers=%d producers=%d batch=%-3d %12.0f jobs/s\n", w, p,
                    b, rate);
        std::fflush(stdout);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s    {\"workers\":%d,\"producers\":%d,\"batch\":%d,"
                      "\"jobs_per_sec\":%.1f}",
                      sep, w, p, b, rate);
        out << buf;
        sep = ",\n";
      }
  out << "\n  ]\n}\n";
  std::printf("-> %s\n", json_path.c_str());
  return out ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json = std::getenv("ESP_BB_BENCH_JSON");
  if (json != nullptr && *json != '\0') return run_quick_sweep(json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
