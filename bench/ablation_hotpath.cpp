/// \file ablation_hotpath.cpp
/// \brief Steady-state event-path ablation: counts the analyzer hot path's
/// heap allocations per pack once warm, and measures its event throughput.
///
/// The measured region is the full analysis chain on a live blackboard —
/// pooled block acquire, pack submit, dispatcher, zero-copy unpacker,
/// MPI/topology/density profiling — the same path a stream reader drives
/// in production.
///
/// The allocation counts come from the malloc-interposition probe
/// (src/obs/alloc_probe.cpp) linked into this binary only. Stream blocks
/// come from the block pool; views and jobs are plain heap objects, which
/// costs kMaxAllocsPerPack small allocations per pack: one block control
/// block, one view per event run (two here) and two per blackboard job
/// (the job and its entry vector; seven jobs per pack). The steady round
/// is *gated*, and the bench exits non-zero when
///  - its allocation count differs from the previous round's (the path
///    did not settle: something grows per pack);
///  - it allocates more than kMaxAllocsPerPack times per pack (a new
///    per-pack allocation);
///  - it allocates anywhere near a stream block's bytes per pack (the
///    block pool stopped serving blocks).
///
/// A worker that sleeps through warmup lazily builds its thread-local
/// scratch inside the first measured round; the bench therefore measures
/// up to kRounds rounds until two in a row allocate the same count, and
/// gates the last one.
///
///   ESP_HOTPATH_BENCH_JSON=out.json  write the JSON record (schema shared
///       with the other ablation benches; allocs_per_event and
///       events_per_sec are gated externally by tools/bench_gate.py
///       against bench/BENCH_hotpath.baseline.json).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "analysis/modules.hpp"
#include "blackboard/blackboard.hpp"
#include "core/pool.hpp"
#include "instrument/event.hpp"
#include "obs/alloc_probe.hpp"

namespace {

using namespace esp;
using inst::Event;
using inst::EventKind;
using inst::PackHeader;

constexpr int kPacks = 512;          ///< Packs per measured round.
constexpr int kWarmup = 128;         ///< Warmup packs before measuring.
constexpr int kWorkers = 4;          ///< Blackboard workers.
constexpr int kBurst = 16;           ///< Packs in flight between drains.
constexpr std::size_t kBlock = 1u << 20;  ///< Pack/block size in bytes.
constexpr int kRounds = 5;           ///< Max measured rounds.
/// 1 block control block + 2 view runs + 7 jobs x (job + entry vector).
constexpr std::uint64_t kMaxAllocsPerPack = 17;
/// "Far below one block": a pooled block costs no block bytes.
constexpr std::uint64_t kMaxBytesPerPack = kBlock / 64;

/// One template pack: a long MPI run (ping-pong over 8 ranks with fixed
/// peers, so the topology map's key set is finite and warms up) followed
/// by a short POSIX run — two runs, the zero-copy unpacker's common shape.
std::vector<std::byte> make_template_pack(std::size_t block_size) {
  const std::uint32_t cap = inst::pack_capacity(block_size);
  std::vector<std::byte> tmpl(block_size);
  PackHeader h;
  h.app_id = 0;
  h.app_rank = 0;
  h.event_count = cap;
  h.seq = 0;
  h.t_flush = 1.0;
  std::memcpy(tmpl.data(), &h, sizeof h);
  auto* events =
      reinterpret_cast<Event*>(tmpl.data() + sizeof(PackHeader));
  const std::uint32_t n_posix = cap / 10;
  const std::uint32_t n_mpi = cap - n_posix;
  for (std::uint32_t i = 0; i < cap; ++i) {
    Event ev;
    ev.rank = static_cast<std::int32_t>(i % 8);
    if (i < n_mpi) {
      ev.kind = inst::event_kind(i % 2 == 0 ? mpi::CallKind::Send
                                            : mpi::CallKind::Recv);
      ev.peer = static_cast<std::int32_t>((i + 1) % 8);
      ev.bytes = 1024;
    } else {
      ev.kind = EventKind::PosixWrite;
      ev.bytes = 4096;
    }
    ev.t_begin = 1e-6 * i;
    ev.t_end = ev.t_begin + 1e-6;
    events[i] = ev;
  }
  return tmpl;
}

struct Result {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::uint64_t allocs_steady = 0;  ///< Allocations in the gated round.
  std::uint64_t allocs_prev = 0;    ///< Allocations in the round before.
  std::uint64_t bytes_per_pack = 0;  ///< Bytes allocated per gated pack.
  double allocs_per_event = 0.0;
  int rounds = 1;  ///< Measured rounds until the gated round.
  mem::PoolStats block_pool;
};

/// Drive `n_packs` template packs through the board, draining every
/// kBurst packs so in-flight work (and the block pool's working set)
/// stays bounded.
void drive(bb::Blackboard& board, const std::vector<std::byte>& tmpl,
           int n_packs) {
  const bb::TypeId t = an::pack_type();
  bb::DataEntry entry;
  for (int p = 0; p < n_packs; ++p) {
    BufferRef blk = mem::acquire_block(kBlock, tmpl.size());
    std::memcpy(blk->data(), tmpl.data(), tmpl.size());
    entry.type = t;
    entry.payload = std::move(blk);
    board.submit_batch({&entry, 1}, 0);
    entry.payload.reset();
    if ((p + 1) % kBurst == 0) board.drain();
  }
  board.drain();
}

Result measure(const std::vector<std::byte>& tmpl) {
  bb::BlackboardConfig bcfg;
  bcfg.workers = kWorkers;
  bb::Blackboard board(bcfg);

  const an::AppLevel level{0, "hot", 8};
  an::register_dispatcher(board, {level});
  an::register_unpacker(board, level);
  an::MpiProfiler profiler;
  an::TopologyModule topology;
  an::DensityModule density;
  profiler.register_on(board, level);
  topology.register_on(board, level);
  density.register_on(board, level);

  // At most kBurst blocks are in flight. Minting them up front stops the
  // pool from growing by one miss at each new in-flight peak, which
  // scheduling jitter could otherwise defer into a measured round.
  {
    std::vector<BufferRef> working_set;
    for (int i = 0; i < kBurst; ++i)
      working_set.push_back(mem::acquire_block(kBlock));
  }
  drive(board, tmpl, kWarmup);
  const mem::PoolStats blocks0 = mem::pool_for(kBlock).stats();

  Result r;
  r.events = static_cast<std::uint64_t>(kPacks) * inst::pack_capacity(kBlock);
  std::uint64_t prev = 0;
  for (int round = 1; round <= kRounds; ++round) {
    const obs::AllocCounts a0 = obs::alloc_counts();
    const auto t0 = std::chrono::steady_clock::now();
    drive(board, tmpl, kPacks);
    const auto t1 = std::chrono::steady_clock::now();
    const obs::AllocCounts a1 = obs::alloc_counts();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    r.events_per_sec = secs > 0 ? static_cast<double>(r.events) / secs : 0.0;
    r.allocs_prev = prev;
    r.allocs_steady = a1.allocs - a0.allocs;
    r.bytes_per_pack = (a1.bytes - a0.bytes) / kPacks;
    r.allocs_per_event =
        static_cast<double>(r.allocs_steady) / static_cast<double>(r.events);
    r.rounds = round;
    if (round > 1 && r.allocs_steady == prev) break;
    prev = r.allocs_steady;
  }

  const mem::PoolStats blocks1 = mem::pool_for(kBlock).stats();
  r.block_pool.hits = blocks1.hits - blocks0.hits;
  r.block_pool.misses = blocks1.misses - blocks0.misses;
  r.block_pool.retained = blocks1.retained;
  board.stop();
  return r;
}

int run(const char* json_path) {
  const std::vector<std::byte> tmpl = make_template_pack(kBlock);

  if (!obs::alloc_probe_active()) {
    std::fprintf(stderr, "alloc probe not linked; counters would read 0\n");
    return 2;
  }

  const Result r = measure(tmpl);
  std::printf(
      "steady packs=%d events=%llu events/s=%.4g allocs=%llu "
      "(%.6f/event, %.2f/pack, %llu B/pack, round %d) pool h/m=%llu/%llu\n",
      kPacks, static_cast<unsigned long long>(r.events), r.events_per_sec,
      static_cast<unsigned long long>(r.allocs_steady), r.allocs_per_event,
      static_cast<double>(r.allocs_steady) / kPacks,
      static_cast<unsigned long long>(r.bytes_per_pack), r.rounds,
      static_cast<unsigned long long>(r.block_pool.hits),
      static_cast<unsigned long long>(r.block_pool.misses));

  if (json_path != nullptr && *json_path != '\0') {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\n  \"schema\": 1,\n  \"results\": [\n"
        "    {\"mode\":\"steady\",\"workers\":%d,\"block_bytes\":%llu,"
        "\"packs\":%d,\"events\":%llu,\"events_per_sec\":%.9g,"
        "\"allocs_steady\":%llu,\"allocs_per_event\":%.9g,"
        "\"bytes_per_pack\":%llu,\"rounds\":%d,"
        "\"pool_hits\":%llu,\"pool_misses\":%llu}\n  ]\n}\n",
        kWorkers, static_cast<unsigned long long>(kBlock), kPacks,
        static_cast<unsigned long long>(r.events), r.events_per_sec,
        static_cast<unsigned long long>(r.allocs_steady), r.allocs_per_event,
        static_cast<unsigned long long>(r.bytes_per_pack), r.rounds,
        static_cast<unsigned long long>(r.block_pool.hits),
        static_cast<unsigned long long>(r.block_pool.misses));
    out << buf;
    std::printf("-> %s\n", json_path);
  }

  // The invariant this bench exists for: once warm, the hot path's
  // allocations are a fixed, small count per pack and never a stream
  // block. events_per_sec drift is gated separately (tools/bench_gate.py
  // vs the checked-in baseline).
  int rc = 0;
  if (r.allocs_steady != r.allocs_prev) {
    std::fprintf(stderr,
                 "FAIL: allocations did not settle in %d rounds "
                 "(%llu then %llu)\n",
                 kRounds, static_cast<unsigned long long>(r.allocs_prev),
                 static_cast<unsigned long long>(r.allocs_steady));
    rc = 1;
  }
  if (r.allocs_steady > kMaxAllocsPerPack * kPacks) {
    std::fprintf(stderr,
                 "FAIL: %llu allocations in the steady round, over %llu per "
                 "pack: a new per-pack allocation\n",
                 static_cast<unsigned long long>(r.allocs_steady),
                 static_cast<unsigned long long>(kMaxAllocsPerPack));
    rc = 1;
  }
  if (r.bytes_per_pack > kMaxBytesPerPack) {
    std::fprintf(stderr,
                 "FAIL: %llu bytes allocated per pack in the steady round: "
                 "stream blocks are not coming from the pool\n",
                 static_cast<unsigned long long>(r.bytes_per_pack));
    rc = 1;
  }
  return rc;
}

}  // namespace

int main() { return run(std::getenv("ESP_HOTPATH_BENCH_JSON")); }
