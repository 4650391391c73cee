/// \file test_concurrency.cpp
/// \brief Concurrency-focused coverage: multi-threaded blackboard pushes,
/// analysis traffic on split sub-communicators, and a full-stack stress
/// run mixing several concurrent applications with different shapes.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "analysis/analyzer.hpp"
#include "blackboard/blackboard.hpp"
#include "instrument/online_instrument.hpp"

namespace esp {
namespace {

TEST(BlackboardConcurrency, ManyPushersExactCounts) {
  bb::Blackboard board({.workers = 4, .fifo_count = 8});
  std::atomic<std::int64_t> sum{0};
  const bb::TypeId t = bb::type_id("n");
  board.register_ks({"sum", {t}, [&](bb::Blackboard&, auto entries) {
                       sum.fetch_add(entries[0].template as<int>());
                     }});
  constexpr int kThreads = 8, kPer = 2000;
  std::vector<std::thread> pushers;
  for (int p = 0; p < kThreads; ++p) {
    pushers.emplace_back([&board, t, p] {
      for (int i = 0; i < kPer; ++i)
        board.push(bb::DataEntry::of(t, p * kPer + i));
    });
  }
  for (auto& th : pushers) th.join();
  board.drain();
  const std::int64_t n = static_cast<std::int64_t>(kThreads) * kPer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_EQ(board.stats().jobs_executed, static_cast<std::uint64_t>(n));
}

TEST(BlackboardConcurrency, ConcurrentRegistrationAndTraffic) {
  bb::Blackboard board({.workers = 4});
  std::atomic<int> hits{0};
  const bb::TypeId t = bb::type_id("x");
  std::atomic<bool> stop{false};
  std::thread registrar([&] {
    while (!stop.load()) {
      bb::KsId id = board.register_ks(
          {"tmp", {bb::type_id("unrelated")}, [](bb::Blackboard&, auto) {}});
      board.remove_ks(id);
    }
  });
  board.register_ks({"k", {t}, [&](bb::Blackboard&, auto) {
                       hits.fetch_add(1);
                     }});
  for (int i = 0; i < 5000; ++i) board.push(bb::DataEntry::of(t, i));
  board.drain();
  stop.store(true);
  registrar.join();
  EXPECT_EQ(hits.load(), 5000);
}

TEST(SubCommunicators, InstrumentedTrafficOnSplitComm) {
  // Calls issued on a split sub-communicator are instrumented too; comm
  // ranks in the events are sub-communicator ranks (documented property).
  auto results = std::make_shared<an::AnalysisResults>();
  an::AnalyzerConfig acfg;
  acfg.results = results;
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({"app", 4, [](mpi::ProcEnv& env) {
                     // Two halves; each runs an allreduce on its half.
                     mpi::Comm half = env.world.split(env.world_rank / 2, 0);
                     ASSERT_EQ(half.size(), 2);
                     double v = 1.0, out = 0.0;
                     half.allreduce(&v, &out, 1, mpi::Datatype::Double,
                                    mpi::ReduceOp::Sum);
                     EXPECT_DOUBLE_EQ(out, 2.0);
                     env.world.barrier();
                   }});
  progs.push_back({"analyzer", 1, [acfg](mpi::ProcEnv& env) {
                     an::run_analyzer(env, acfg);
                   }});
  mpi::Runtime rt(mpi::RuntimeConfig{}, std::move(progs));
  inst::attach_online_instrumentation(rt);
  rt.run();
  an::AppResults* app = results->find(0);
  ASSERT_NE(app, nullptr);
  const auto split_slot =
      an::kind_slot(inst::event_kind(mpi::CallKind::CommSplit));
  const auto ar_slot =
      an::kind_slot(inst::event_kind(mpi::CallKind::Allreduce));
  EXPECT_EQ(app->per_kind[split_slot].hits, 4u);
  EXPECT_EQ(app->per_kind[ar_slot].hits, 4u);
}

TEST(FullStack, ThreeConcurrentAppsStress) {
  auto results = std::make_shared<an::AnalysisResults>();
  an::AnalyzerConfig acfg;
  acfg.results = results;
  acfg.board.workers = 2;

  auto ring = [](int iters, std::uint64_t bytes) {
    return [iters, bytes](mpi::ProcEnv& env) {
      // Distinct buffers: the irecv target may be written by the peer at
      // any point until wait(), so it must not double as the send source.
      std::vector<std::byte> rbuf(bytes), sbuf(bytes);
      const int n = env.world.size();
      for (int i = 0; i < iters; ++i) {
        mpi::Request r = env.world.irecv(rbuf.data(), bytes,
                                         (env.world_rank + n - 1) % n, 0);
        env.world.send(sbuf.data(), bytes, (env.world_rank + 1) % n, 0);
        mpi::wait(r);
      }
    };
  };
  auto all2all = [](int iters) {
    return [iters](mpi::ProcEnv& env) {
      const int n = env.world.size();
      std::vector<std::int64_t> out(static_cast<std::size_t>(n)),
          in(static_cast<std::size_t>(n));
      for (int i = 0; i < iters; ++i)
        env.world.alltoall(out.data(), sizeof(std::int64_t), in.data());
    };
  };

  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({"ring_a", 8, ring(30, 2048)});
  progs.push_back({"ring_b", 12, ring(20, 64 * 1024)});
  progs.push_back({"a2a", 8, all2all(15)});
  progs.push_back({"analyzer", 4, [acfg](mpi::ProcEnv& env) {
                     an::run_analyzer(env, acfg);
                   }});
  mpi::Runtime rt(mpi::RuntimeConfig{}, std::move(progs));
  auto tool = inst::attach_online_instrumentation(rt);
  rt.run();

  std::uint64_t analysed = 0;
  for (int id = 0; id < 3; ++id) {
    an::AppResults* app = results->find(id);
    ASSERT_NE(app, nullptr) << "app " << id;
    analysed += app->total_events;
  }
  // No event lost or misrouted across the three levels.
  EXPECT_EQ(analysed, tool->totals().events);
  EXPECT_EQ(results->find(0)->comm.size(), 8u);
  EXPECT_EQ(results->find(1)->comm.size(), 12u);
  EXPECT_TRUE(results->find(2)->comm.empty());  // alltoall is collective
}

}  // namespace
}  // namespace esp
