/// \file test_blackboard.cpp
/// \brief Blackboard semantics: sensitivity matching, multi-sensitivity
/// joins, dynamic (de)registration, ref-counted writability, multi-level
/// isolation, worker-pool stress, batched submission, config validation,
/// tenant fair share, tear-free stats, the shared helper pool's thread
/// bound and sweep retirement, and same-seed determinism of the fault
/// ledger on top of the scheduler.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "blackboard/blackboard.hpp"
#include "core/session.hpp"
#include "simmpi/runtime.hpp"

namespace esp::bb {
namespace {

using namespace std::chrono_literals;

TEST(Blackboard, TriggersMatchingKs) {
  Blackboard bb({.workers = 2});
  std::atomic<int> hits{0};
  const TypeId t = type_id("evt");
  bb.register_ks({"counter", {t}, [&](Blackboard&, auto entries) {
                    EXPECT_EQ(entries.size(), 1u);
                    hits.fetch_add(entries[0].template as<int>());
                  }});
  for (int i = 0; i < 10; ++i) bb.push(DataEntry::of(t, 2));
  bb.drain();
  EXPECT_EQ(hits.load(), 20);
}

TEST(Blackboard, NonMatchingEntriesAreDropped) {
  Blackboard bb({.workers = 1});
  std::atomic<int> hits{0};
  bb.register_ks({"k", {type_id("a")}, [&](Blackboard&, auto) {
                    hits.fetch_add(1);
                  }});
  bb.push(DataEntry::of(type_id("b"), 1));
  bb.drain();
  EXPECT_EQ(hits.load(), 0);
  EXPECT_EQ(bb.stats().entries_pushed, 1u);
  EXPECT_EQ(bb.stats().jobs_executed, 0u);
}

TEST(Blackboard, MultiSensitivityJoin) {
  // KS sensitive to {A, B}: fires only when one of each is available.
  Blackboard bb({.workers = 2});
  std::atomic<int> fires{0};
  std::atomic<int> sum{0};
  const TypeId a = type_id("A"), b = type_id("B");
  bb.register_ks({"join", {a, b}, [&](Blackboard&, auto entries) {
                    fires.fetch_add(1);
                    sum.fetch_add(entries[0].template as<int>() +
                                  entries[1].template as<int>());
                  }});
  bb.push(DataEntry::of(a, 1));
  bb.push(DataEntry::of(a, 2));
  bb.drain();
  EXPECT_EQ(fires.load(), 0) << "must not fire without a B";
  bb.push(DataEntry::of(b, 10));
  bb.drain();
  EXPECT_EQ(fires.load(), 1);
  EXPECT_EQ(sum.load(), 11) << "entries must pair FIFO (first A with B)";
  bb.push(DataEntry::of(b, 20));
  bb.drain();
  EXPECT_EQ(fires.load(), 2);
  EXPECT_EQ(sum.load(), 33);
}

TEST(Blackboard, DuplicateSensitivityNeedsTwoEntries) {
  // Paper: "a KS can have multiple sensitivities of the same type".
  Blackboard bb({.workers = 2});
  std::atomic<int> fires{0};
  const TypeId t = type_id("pair");
  bb.register_ks({"pairwise", {t, t}, [&](Blackboard&, auto entries) {
                    EXPECT_EQ(entries.size(), 2u);
                    fires.fetch_add(1);
                  }});
  for (int i = 0; i < 7; ++i) bb.push(DataEntry::of(t, i));
  bb.drain();
  EXPECT_EQ(fires.load(), 3);  // 7 entries -> 3 pairs, 1 left pending
}

TEST(Blackboard, KsCanSubmitEntries) {
  // Data-flow chaining (Fig. 4): unpacker -> events -> profiler.
  Blackboard bb({.workers = 2});
  std::atomic<int> stage2{0};
  const TypeId raw = type_id("raw"), cooked = type_id("cooked");
  bb.register_ks({"unpack", {raw}, [&](Blackboard& b, auto entries) {
                    const int n = entries[0].template as<int>();
                    for (int i = 0; i < n; ++i)
                      b.push(DataEntry::of(cooked, i));
                  }});
  bb.register_ks({"profile", {cooked}, [&](Blackboard&, auto) {
                    stage2.fetch_add(1);
                  }});
  bb.push(DataEntry::of(raw, 5));
  bb.drain();
  EXPECT_EQ(stage2.load(), 5);
}

TEST(Blackboard, KsCanRegisterKs) {
  Blackboard bb({.workers = 2});
  std::atomic<int> second{0};
  const TypeId boot = type_id("boot"), work = type_id("work");
  bb.register_ks({"bootstrap", {boot}, [&](Blackboard& b, auto) {
                    b.register_ks({"late", {work}, [&](Blackboard&, auto) {
                                     second.fetch_add(1);
                                   }});
                  }});
  bb.push(DataEntry::of(boot, 0));
  bb.drain();
  bb.push(DataEntry::of(work, 0));
  bb.drain();
  EXPECT_EQ(second.load(), 1);
}

TEST(Blackboard, KsCanRemoveItself) {
  Blackboard bb({.workers = 1});
  std::atomic<int> fires{0};
  const TypeId t = type_id("once");
  KsId id = 0;
  id = bb.register_ks({"one-shot", {t}, [&](Blackboard& b, auto) {
                         fires.fetch_add(1);
                         b.remove_ks(id);
                       }});
  bb.push(DataEntry::of(t, 0));
  bb.drain();
  bb.push(DataEntry::of(t, 0));
  bb.drain();
  EXPECT_EQ(fires.load(), 1);
  EXPECT_EQ(bb.stats().ks_removed, 1u);
}

TEST(Blackboard, MultipleKsShareOneEntry) {
  Blackboard bb({.workers = 2});
  std::atomic<int> a{0}, b{0};
  const TypeId t = type_id("shared");
  bb.register_ks({"ka", {t}, [&](Blackboard&, auto) { a.fetch_add(1); }});
  bb.register_ks({"kb", {t}, [&](Blackboard&, auto) { b.fetch_add(1); }});
  bb.push(DataEntry::of(t, 0));
  bb.drain();
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 1);
}

TEST(Blackboard, RefCountWritabilityRule) {
  // Writable iff ref-count == 1 (paper §III-B).
  Blackboard bb({.workers = 2});
  const TypeId t = type_id("buf");
  std::atomic<bool> was_writable_when_shared{true};
  std::atomic<bool> exclusive_writable{false};

  auto shared = Buffer::copy_of("x", 1);
  auto extra_ref = shared;  // second owner
  bb.register_ks({"check", {t}, [&](Blackboard&, auto entries) {
                    // Entry payload + `shared` + `extra_ref` => not writable.
                    was_writable_when_shared.store(
                        writable(entries[0].payload));
                  }});
  bb.push(DataEntry(t, shared));
  bb.drain();
  EXPECT_FALSE(was_writable_when_shared.load());

  auto exclusive = Buffer::copy_of("y", 1);
  exclusive_writable.store(writable(exclusive));
  EXPECT_TRUE(exclusive_writable.load());
}

TEST(Blackboard, MultiLevelIsolation) {
  // The same type name in two levels yields two independent streams
  // (Fig. 5: one blackboard level per instrumented application).
  Blackboard bb({.workers = 2});
  std::atomic<int> app1{0}, app2{0};
  const TypeId t1 = type_id("app1", "mpi_event");
  const TypeId t2 = type_id("app2", "mpi_event");
  ASSERT_NE(t1, t2);
  bb.register_ks({"p1", {t1}, [&](Blackboard&, auto) { app1.fetch_add(1); }});
  bb.register_ks({"p2", {t2}, [&](Blackboard&, auto) { app2.fetch_add(1); }});
  for (int i = 0; i < 3; ++i) bb.push(DataEntry::of(t1, i));
  bb.push(DataEntry::of(t2, 0));
  bb.drain();
  EXPECT_EQ(app1.load(), 3);
  EXPECT_EQ(app2.load(), 1);
}

TEST(Blackboard, StressManyEntriesManyWorkers) {
  Blackboard bb({.workers = 8, .fifo_count = 8});
  std::atomic<std::int64_t> sum{0};
  const TypeId t = type_id("n");
  bb.register_ks({"sum", {t}, [&](Blackboard&, auto entries) {
                    sum.fetch_add(entries[0].template as<int>());
                  }});
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) bb.push(DataEntry::of(t, i));
  bb.drain();
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kN) * (kN - 1) / 2);
  EXPECT_EQ(bb.stats().jobs_executed, static_cast<std::uint64_t>(kN));
}

TEST(Blackboard, CascadeDrainWaitsForDescendants) {
  // drain() must cover jobs spawned by jobs (a 3-deep cascade).
  Blackboard bb({.workers = 4});
  std::atomic<int> leaves{0};
  const TypeId l0 = type_id("l0"), l1 = type_id("l1"), l2 = type_id("l2");
  bb.register_ks({"f0", {l0}, [&](Blackboard& b, auto) {
                    for (int i = 0; i < 4; ++i) b.push(DataEntry::of(l1, i));
                  }});
  bb.register_ks({"f1", {l1}, [&](Blackboard& b, auto) {
                    for (int i = 0; i < 4; ++i) b.push(DataEntry::of(l2, i));
                  }});
  bb.register_ks({"f2", {l2}, [&](Blackboard&, auto) {
                    leaves.fetch_add(1);
                  }});
  bb.push(DataEntry::of(l0, 0));
  bb.drain();
  EXPECT_EQ(leaves.load(), 16);
}

TEST(Blackboard, ThrowingKsCountsFailuresAndRecovers) {
  // A KS that throws occasionally (streak below the quarantine threshold)
  // is kept registered; every throw is counted, a success resets the
  // streak.
  Blackboard bb({.workers = 1, .quarantine_threshold = 3});
  std::atomic<int> calls{0};
  const TypeId t = type_id("flaky");
  bb.register_ks({"flaky", {t}, [&](Blackboard&, auto) {
                    // Every third call fails: streak never reaches 3.
                    if (calls.fetch_add(1) % 3 == 2)
                      throw std::runtime_error("transient");
                  }});
  for (int i = 0; i < 9; ++i) {
    bb.push(DataEntry::of(t, i));
    bb.drain();
  }
  EXPECT_EQ(calls.load(), 9);
  EXPECT_EQ(bb.stats().jobs_failed, 3u);
  EXPECT_EQ(bb.stats().ks_quarantined, 0u);
}

TEST(Blackboard, ConsecutiveFailuresQuarantineTheKs) {
  Blackboard bb({.workers = 1, .quarantine_threshold = 2});
  std::atomic<int> bad_calls{0}, good_calls{0};
  const TypeId t = type_id("poison");
  bb.register_ks({"always-throws", {t}, [&](Blackboard&, auto) {
                    bad_calls.fetch_add(1);
                    throw std::logic_error("broken KS");
                  }});
  bb.register_ks({"survivor", {t}, [&](Blackboard&, auto) {
                    good_calls.fetch_add(1);
                  }});
  for (int i = 0; i < 6; ++i) {
    bb.push(DataEntry::of(t, i));
    bb.drain();
  }
  EXPECT_EQ(bad_calls.load(), 2) << "removed after the 2nd consecutive throw";
  EXPECT_EQ(good_calls.load(), 6);
  const auto stats = bb.stats();
  EXPECT_EQ(stats.jobs_failed, 2u);
  EXPECT_EQ(stats.ks_quarantined, 1u);
  EXPECT_EQ(stats.ks_removed, 1u);
}

TEST(Blackboard, AsTooSmallPayloadFailsLoudly) {
  const TypeId t = type_id("typed");
  DataEntry small = DataEntry::of(t, static_cast<char>(7));
  EXPECT_EQ(small.as<char>(), 7);
  EXPECT_THROW(small.as<std::uint64_t>(), std::length_error)
      << "reading more bytes than the payload holds must not be silent";
  DataEntry empty(t, nullptr);
  EXPECT_THROW(empty.as<int>(), std::length_error);
}

class BlackboardGeometryP
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlackboardGeometryP, CountsAreExactUnderAnyGeometry) {
  const auto [workers, fifos] = GetParam();
  Blackboard bb({.workers = workers, .fifo_count = fifos});
  std::atomic<int> hits{0};
  const TypeId t = type_id("x");
  bb.register_ks({"k", {t}, [&](Blackboard&, auto) { hits.fetch_add(1); }});
  for (int i = 0; i < 500; ++i) bb.push(DataEntry::of(t, i));
  bb.drain();
  EXPECT_EQ(hits.load(), 500);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BlackboardGeometryP,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 4, 32)));

TEST(BlackboardConfigValidation, NonPositiveGeometryThrows) {
  EXPECT_THROW(Blackboard({.workers = 0}), std::invalid_argument);
  EXPECT_THROW(Blackboard({.workers = -3}), std::invalid_argument);
  EXPECT_THROW(Blackboard({.fifo_count = 0}), std::invalid_argument);
  EXPECT_THROW(Blackboard({.fifo_count = -1}), std::invalid_argument);
  EXPECT_THROW(Blackboard({.quarantine_threshold = 0}),
               std::invalid_argument);
}

/// drain() returns only once every worker finished everything, under
/// producers hammering from several threads while jobs chain follow-ups.
TEST(BlackboardDrain, DrainWithConcurrentProducersIsExact) {
  Blackboard board({.workers = 4, .fifo_count = 4});
  std::atomic<std::int64_t> sum{0};
  const TypeId t = type_id("n");
  board.register_ks({"sum", {t}, [&](Blackboard& b, auto entries) {
                       const int v = entries[0].template as<int>();
                       sum.fetch_add(v);
                       // Chain one follow-up per even entry so workers and
                       // external producers fill the FIFOs at the same time.
                       if (v >= 0 && v % 2 == 0)
                         b.push(DataEntry::of(t, -1));
                     }});
  constexpr int kThreads = 4, kPer = 3000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kThreads; ++p)
    producers.emplace_back([&] {
      std::vector<DataEntry> batch;
      for (int i = 0; i < kPer; ++i) {
        batch.push_back(DataEntry::of(t, i));
        if (batch.size() == 32 || i + 1 == kPer) {
          board.submit_batch(batch);
          batch.clear();
        }
      }
    });
  for (auto& th : producers) th.join();
  board.drain();
  // Per producer: sum 0..kPer-1, plus -1 per even entry.
  const std::int64_t per =
      static_cast<std::int64_t>(kPer) * (kPer - 1) / 2 - (kPer + 1) / 2;
  EXPECT_EQ(sum.load(), kThreads * per);
  EXPECT_EQ(board.stats().jobs_executed,
            static_cast<std::uint64_t>(kThreads) * (kPer + (kPer + 1) / 2));
}

/// submit_batch preserves per-type FIFO pairing and multi-sensitivity
/// join semantics exactly as the equivalent push() sequence would.
TEST(BlackboardBatch, BatchPreservesJoinOrderAcrossMixedTypes) {
  Blackboard board({.workers = 2});
  std::atomic<int> fires{0};
  std::atomic<int> first_pair_sum{0};
  const TypeId a = type_id("A"), b = type_id("B");
  board.register_ks({"join", {a, b}, [&](Blackboard&, auto entries) {
                       if (fires.fetch_add(1) == 0)
                         first_pair_sum.store(
                             entries[0].template as<int>() +
                             entries[1].template as<int>());
                     }});
  // One batch interleaving types: A1 B10 A2 B20 A3 -> pairs (1,10), (2,20).
  std::vector<DataEntry> batch;
  batch.push_back(DataEntry::of(a, 1));
  batch.push_back(DataEntry::of(b, 10));
  batch.push_back(DataEntry::of(a, 2));
  batch.push_back(DataEntry::of(b, 20));
  batch.push_back(DataEntry::of(a, 3));
  board.submit_batch(batch);
  board.drain();
  EXPECT_EQ(fires.load(), 2);
  EXPECT_EQ(first_pair_sum.load(), 11) << "FIFO pairing across the batch";
  EXPECT_EQ(board.stats().entries_pushed, 5u);
  EXPECT_EQ(board.stats().batches_submitted, 1u);
}

TEST(BlackboardBatch, EmptyBatchIsANoOp) {
  Blackboard board({.workers = 1});
  board.submit_batch({});
  board.drain();
  EXPECT_EQ(board.stats().entries_pushed, 0u);
  EXPECT_EQ(board.stats().batches_submitted, 0u);
}

TEST(BlackboardBatch, BatchedSubmissionCountsAreExact) {
  Blackboard board({.workers = 4, .fifo_count = 8});
  std::atomic<std::int64_t> sum{0};
  const TypeId t = type_id("n");
  board.register_ks({"sum", {t}, [&](Blackboard&, auto entries) {
                       sum.fetch_add(entries[0].template as<int>());
                     }});
  constexpr int kN = 5000;
  std::vector<DataEntry> batch;
  for (int i = 0; i < kN; ++i) {
    batch.push_back(DataEntry::of(t, i));
    if (batch.size() == 64 || i + 1 == kN) {
      board.submit_batch(batch);
      batch.clear();
    }
  }
  board.drain();
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kN) * (kN - 1) / 2);
  EXPECT_EQ(board.stats().jobs_executed, static_cast<std::uint64_t>(kN));
}

/// Tenant fair share: a victim's one job queued behind a flooder's backlog
/// runs within one sweep round, because affine batches share their
/// tenant's FIFO and the sweep start rotates.
TEST(BlackboardFairShare, VictimRunsBeforeFlooderBacklogDrains) {
  constexpr int kFifos = 4, kFlood = 200;
  constexpr int kFlooder = 0, kVictim = 1;  // FIFOs 0 and 1
  std::atomic<bool> gate_entered{false}, gate_open{false};
  std::mutex mu;
  std::vector<int> order;  // tenant of each job, in execution order
  // Declared after the state its operations touch: stop() in the
  // destructor still runs queued jobs.
  Blackboard board({.workers = 1, .fifo_count = kFifos, .fair_share = true});
  const TypeId gate = type_id("gate"), flood = type_id("flood"),
               victim = type_id("victim");
  board.register_ks({"gate", {gate}, [&](Blackboard&, auto) {
                       gate_entered.store(true);
                       while (!gate_open.load())
                         std::this_thread::sleep_for(1ms);
                     }});
  auto record = [&](int tenant) {
    return [&, tenant](Blackboard&, std::span<const DataEntry>) {
      std::lock_guard lock(mu);
      order.push_back(tenant);
    };
  };
  board.register_ks({"flood", {flood}, record(kFlooder), kFlooder});
  board.register_ks({"victim", {victim}, record(kVictim), kVictim});

  // Hold the only worker so the whole backlog is queued before any of it
  // runs.
  board.push(DataEntry::of(gate, 0));
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!gate_entered.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  if (!gate_entered.load()) {
    gate_open.store(true);
    FAIL() << "the worker never picked up the gate job";
  }
  for (int i = 0; i < kFlood; ++i) {
    const DataEntry e = DataEntry::of(flood, i);
    board.submit_batch({&e, 1}, kFlooder);
  }
  const DataEntry v = DataEntry::of(victim, 0);
  board.submit_batch({&v, 1}, kVictim);
  gate_open.store(true);
  board.drain();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFlood + 1));
  const auto pos =
      std::find(order.begin(), order.end(), kVictim) - order.begin();
  // One rotation of the sweep start visits every FIFO, so at most
  // kFifos - 1 flood jobs can run ahead of the victim.
  EXPECT_LT(pos, kFifos) << "victim starved behind the flood backlog";
}

TEST(BlackboardStats, SnapshotsObeySubsetInvariantsUnderLoad) {
  // stats() taken mid-flight must never be torn with respect to the
  // documented subset relations: writers bump the superset counter first
  // and the reader loads subsets first, so a snapshot like
  // jobs_failed > jobs_executed is impossible by construction — not just
  // unlikely. Hammer snapshots from a sampler thread while KSs register,
  // fail and quarantine.
  BlackboardConfig cfg;
  cfg.workers = 4;
  cfg.quarantine_threshold = 2;
  Blackboard board(cfg);

  std::atomic<bool> sampling{true};
  std::atomic<std::uint64_t> snapshots{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      const BlackboardStats s = board.stats();
      ASSERT_LE(s.jobs_failed, s.jobs_executed);
      ASSERT_LE(s.ks_quarantined, s.ks_removed);
      ASSERT_LE(s.ks_removed, s.ks_registered);
      ASSERT_LE(s.batches_submitted, s.entries_pushed);
      snapshots.fetch_add(1);
    }
  });

  const TypeId work = type_id("snap.work");
  const TypeId poison = type_id("snap.poison");
  for (int round = 0; round < 40; ++round) {
    board.register_ks({"worker", {work}, [](Blackboard&,
                                            std::span<const DataEntry>) {}});
    // A failing KS exercises the failed/quarantined/removed chain.
    board.register_ks({"poison", {poison},
                       [](Blackboard&, std::span<const DataEntry>) {
                         throw std::runtime_error("boom");
                       }});
    std::vector<DataEntry> batch;
    for (int i = 0; i < 64; ++i)
      batch.push_back(DataEntry::of(work, i));
    for (int i = 0; i < 4; ++i)
      batch.push_back(DataEntry::of(poison, i));
    board.submit_batch(batch);
    board.drain();
  }
  board.stop();
  sampling.store(false);
  sampler.join();
  EXPECT_GT(snapshots.load(), 0u);

  // Quiesced totals are exact.
  const BlackboardStats s = board.stats();
  EXPECT_LE(s.jobs_failed, s.jobs_executed);
  EXPECT_LE(s.ks_quarantined, s.ks_removed);
  EXPECT_LE(s.ks_removed, s.ks_registered);
  EXPECT_EQ(s.ks_registered, 80u);
  EXPECT_GT(s.jobs_failed, 0u);
  EXPECT_GT(s.ks_quarantined, 0u);
}

/// Threads: of this process, from /proc/self/status.
int process_threads() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

/// Sixteen analyzer ranks, each with a board of four workers, all alive at
/// once: boards share the one helper pool, so a KS operation sees at most
/// one thread per CPU plus the carrier however many boards exist.
TEST(BlackboardPool, ThreadCountIsBoundedByCpusNotBoards) {
  cpu_set_t set;
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  const int nproc = CPU_COUNT(&set);
  constexpr int kRanks = 16, kEntries = 64;
  std::atomic<int> peak{0};
  std::atomic<int> jobs{0};
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({"analyzer", kRanks, [&](mpi::ProcEnv& env) {
                     Blackboard board({.workers = 4});
                     const TypeId t = type_id("probe");
                     board.register_ks(
                         {"threads", {t}, [&](Blackboard&, auto) {
                            const int now = process_threads();
                            int seen = peak.load();
                            while (now > seen &&
                                   !peak.compare_exchange_weak(seen, now)) {
                            }
                            jobs.fetch_add(1);
                          }});
                     env.world.barrier();  // every board exists
                     for (int i = 0; i < kEntries; ++i)
                       board.push(DataEntry::of(t, i));
                     board.drain();
                     env.world.barrier();  // until every rank's jobs ran
                   }});
  mpi::Runtime rt(mpi::RuntimeConfig{}, std::move(progs));
  rt.run();
  EXPECT_EQ(jobs.load(), kRanks * kEntries);
  EXPECT_GT(peak.load(), 0);
  EXPECT_LE(peak.load(), nproc + 1) << "threads grew with boards x workers";
}

/// One-slot boards fed by producer threads that drain as they go, while
/// the owner drains in a loop and destroys the board right after its last
/// drain(): sweeps retire and repost all the time, every job runs exactly
/// once, and no pool task touches a board after it is gone (the sanitizer
/// builds check the last part).
TEST(BlackboardPool, SweepsRetireAndBoardsTearDownExactly) {
  constexpr int kRounds = 100, kProducers = 3, kPer = 200;
  // Entries 0, 7, 14, ... each chain one follow-up job.
  constexpr int kPerRound = kProducers * (kPer + (kPer + 6) / 7);
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> count{0};
    std::atomic<int> running{kProducers};
    {
      Blackboard board({.workers = 1, .fifo_count = 4});
      const TypeId t = type_id("n");
      board.register_ks({"count", {t}, [&](Blackboard& b, auto entries) {
                           count.fetch_add(1);
                           if (entries[0].template as<int>() % 7 == 0)
                             b.push(DataEntry::of(t, 1));
                         }});
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&] {
          for (int i = 0; i < kPer; ++i) {
            board.push(DataEntry::of(t, i));
            if (i % 50 == 49) board.drain();
          }
          running.fetch_sub(1);
        });
      while (running.load() > 0) board.drain();
      for (auto& th : producers) th.join();
      board.drain();
    }
    ASSERT_EQ(count.load(), kPerRound) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Same-seed determinism of the fault ledger: the scheduler decides *where*
// analysis jobs run, which must not leak into the virtual-time fault
// schedule or the data-loss accounting.
// ---------------------------------------------------------------------------

struct LedgerSnapshot {
  std::vector<int> dead_world;
  std::uint64_t lost = 0, corrupted = 0, dropped_estimate = 0;
  std::uint64_t analysed_events = 0;
};

LedgerSnapshot run_faulty_session(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.instrument.block_size = 4096;
  cfg.runtime.seed = seed;
  cfg.analyzer.board.workers = 4;  // more workers than cores on a small host
  cfg.analyzer.read_batch = 8;
  cfg.faults.crashes.push_back({.world_rank = 2, .after_calls = 120});
  cfg.faults.links.push_back(
      {.drop_probability = 0.15, .corrupt_probability = 0.2});
  Session session(cfg);
  const int app = session.add_application(
      "ring", 4, [](mpi::ProcEnv& env) {
        // Distinct buffers: the irecv target may be written by the peer at
        // any point until wait(), so it must not double as the send source.
        std::vector<std::byte> rbuf(1024), sbuf(1024);
        const int n = env.world.size();
        for (int i = 0; i < 250; ++i) {
          mpi::compute(5e-5);
          mpi::Request r = env.world.irecv(rbuf.data(), rbuf.size(),
                                           (env.world_rank + n - 1) % n, 0);
          env.world.send(sbuf.data(), sbuf.size(), (env.world_rank + 1) % n, 0);
          mpi::wait(r);
        }
      });
  auto results = session.run();
  const an::AppResults* r = results->find(app);
  LedgerSnapshot s;
  s.dead_world = results->health.dead_world_ranks;
  if (r != nullptr) {
    s.lost = r->loss.blocks_lost;
    s.corrupted = r->loss.blocks_corrupted;
    s.dropped_estimate = r->loss.events_dropped_estimate;
    s.analysed_events = r->total_events;
  }
  return s;
}

TEST(BlackboardLedger, SameSeedLedgerIsDeterministic) {
  const LedgerSnapshot a = run_faulty_session(11);
  const LedgerSnapshot b = run_faulty_session(11);
  EXPECT_EQ(a.dead_world, b.dead_world);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.dropped_estimate, b.dropped_estimate);
  EXPECT_EQ(a.analysed_events, b.analysed_events);
  ASSERT_EQ(a.dead_world, (std::vector<int>{2}));
  EXPECT_GT(a.lost + a.corrupted, 0u);
}

}  // namespace
}  // namespace esp::bb
